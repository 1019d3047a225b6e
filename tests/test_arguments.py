"""Every numeric argument of the public API goes through one check.

`CALLS` holds one cheap valid call of each public callable with a number
among its arguments, and the kind of each such number: a real, a complex or
a count.  Replacing one of them with NaN or +-inf (a count also with 1.5 or
True, a complex also with an imaginary NaN or True), or a rate and a time
with a pair whose product overflows, must raise a ValueError: never a
TypeError, an IndexError, an OverflowError, a NumericalInvariantError, a
TruncationError or a warning.  The test-side oracle `stationary_state`
checks its numbers as the library does, and the table holds it too.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cavityfeedback
from cavityfeedback import (
    CartesianGrid,
    CatParity,
    ConfigError,
    ContinuousParams,
    DensityMatrix,
    FockDim,
    PolarGrid,
    PulsePair,
    QubitSpec,
    StroboParams,
    adiabaticity_report,
    analytic_stationary_state,
    approx_n_opt,
    cat_fidelity_analytic,
    cat_state,
    coherent_state,
    default_cartesian_grid,
    default_polar_grid,
    evolve_continuous,
    evolve_operator,
    evolve_strobo,
    fidelity_curve,
    fock_fidelity_analytic,
    fock_superposition,
    ideal_offdiagonal_decay,
    integrate_crossing,
    mean_amplitude_ideal,
    min_fidelity,
    optimal_n,
    p_ee_analytic,
    run_sequence,
    sqrt_diffusion_generator_wigner,
    standard_phase_diffusion,
    standard_pulses,
    wigner_function,
)
from cavityfeedback.errors import check_complex, check_number
from conftest import stationary_state

R, Z, C = "real", "complex", "count"  # the kinds of numeric argument
HALF = math.sqrt(0.5)
RHO = DensityMatrix.from_state(fock_superposition([(0, HALF), (1, HALF)], FockDim(6)))
PULSES = standard_pulses(50.0, 50.0, 1.0)

# name -> (call taking the numbers as keywords, {number: (kind, valid value)}, (rate, time) pairs)
CALLS = {
    "PulsePair": (
        PulsePair,
        {"g_max": (R, 2.0), "omega_max": (R, 2.0), "t_cross": (R, 1.0), "delay": (R, 0.25), "width": (R, 0.2)},
        (),
    ),
    "standard_pulses": (standard_pulses, {"g_max": (R, 2.0), "omega_max": (R, 2.0), "t_cross": (R, 1.0)}, ()),
    "integrate_crossing": (lambda steps: integrate_crossing(RHO, PULSES, steps), {"steps": (C, 400)}, ()),
    "adiabaticity_report": (
        lambda n_bar, gamma, gamma_e: adiabaticity_report(PULSES, n_bar, gamma, gamma_e),
        {"n_bar": (R, 3.3), "gamma": (R, 0.005), "gamma_e": (R, 0.05)},
        (),
    ),
    "ContinuousParams": (ContinuousParams, {"gamma": (R, 1.0), "eta": (R, 0.5)}, ()),
    "evolve_continuous": (
        lambda gamma, eta, t: evolve_continuous(RHO, ContinuousParams(gamma, eta), t),
        {"gamma": (R, 1.0), "eta": (R, 0.5), "t": (R, 0.3)},
        (("gamma", "t"),),
    ),
    "evolve_operator": (
        lambda eta, gamma_t: evolve_operator(RHO.elements, eta, gamma_t),
        {"eta": (R, 0.5), "gamma_t": (R, 0.3)},
        (),
    ),
    "fidelity_curve": (
        lambda gamma, eta, dt: fidelity_curve(RHO, ContinuousParams(gamma, eta), [0.0, dt, 2 * dt]),
        {"gamma": (R, 1.0), "eta": (R, 0.5), "dt": (R, 0.1)},
        (("gamma", "dt"),),
    ),
    **{
        f.__name__: (lambda gamma, t, f=f: f(RHO, gamma, t), {"gamma": (R, 1.0), "t": (R, 0.3)}, (("gamma", "t"),))
        for f in (ideal_offdiagonal_decay, standard_phase_diffusion, mean_amplitude_ideal)
    },
    "cat_fidelity_analytic": (
        lambda alpha2, gamma, t: cat_fidelity_analytic(alpha2, CatParity.ODD, gamma, t),
        {"alpha2": (R, 2.0), "gamma": (R, 1.0), "t": (R, 0.3)},
        (("gamma", "t"),),
    ),
    "fock_fidelity_analytic": (
        lambda abs_alpha2, abs_beta2, n, m, gamma, eta, t: fock_fidelity_analytic(
            abs_alpha2, abs_beta2, n, m, ContinuousParams(gamma, eta), t
        ),
        {
            "abs_alpha2": (R, 0.25),
            "abs_beta2": (R, 0.75),
            "n": (C, 1),
            "m": (C, 3),
            "gamma": (R, 1.0),
            "eta": (R, 0.5),
            "t": (R, 0.3),
        },
        (("gamma", "t"),),
    ),
    "FockDim": (FockDim, {"n_max": (C, 4)}, ()),
    "coherent_state": (lambda alpha: coherent_state(alpha, FockDim(15)), {"alpha": (Z, 0.5)}, ()),
    "cat_state": (lambda alpha: cat_state(alpha, CatParity.ODD, FockDim(15)), {"alpha": (Z, 1.0)}, ()),
    "fock_superposition": (
        lambda n, coeff: fock_superposition([(n, coeff)], FockDim(4)), {"n": (C, 1), "coeff": (Z, 1.0)}, (),
    ),
    "QubitSpec": (QubitSpec, {"n": (C, 1), "m": (C, 2)}, ()),
    "min_fidelity": (
        lambda n, m, eta, gamma_t: min_fidelity(QubitSpec(n, m), eta, gamma_t),
        {"n": (C, 1), "m": (C, 2), "eta": (R, 0.5), "gamma_t": (R, 0.3)},
        (),
    ),
    "optimal_n": (optimal_n, {"eta": (R, 0.5)}, ()),
    "approx_n_opt": (approx_n_opt, {"eta": (R, 0.5)}, ()),
    "StroboParams": (StroboParams, {"eta": (R, 0.8), "mu": (R, 0.5), "gamma_T": (R, 0.1)}, ()),
    **{
        f.__name__: (
            lambda eta, mu, gamma_T, steps, f=f: f(RHO, StroboParams(eta, mu, gamma_T), steps),
            {"eta": (R, 0.8), "mu": (R, 0.5), "gamma_T": (R, 0.1), "steps": (C, 3)},
            (),
        )
        for f in (evolve_strobo, run_sequence)
    },
    **{
        f.__name__: (
            lambda eta, mu, gamma_T, f=f: f(StroboParams(eta, mu, gamma_T), FockDim(6)),
            {"eta": (R, 0.8), "mu": (R, 0.5), "gamma_T": (R, 0.1)},
            (),
        )
        for f in (stationary_state, analytic_stationary_state)
    },
    "p_ee_analytic": (p_ee_analytic, {"alpha2": (R, 2.0), "gamma_T_total": (R, 0.1)}, ()),
    "CartesianGrid": (
        lambda x_lo, x_hi: CartesianGrid([x_lo, 0.0, x_hi], [-1.0, 0.0, 1.0]),
        {"x_lo": (R, -1.0), "x_hi": (R, 1.0)},
        (),
    ),
    "PolarGrid": (lambda r_max: PolarGrid([0.0, 0.5, r_max], [0.0, np.pi, 2 * np.pi]), {"r_max": (R, 1.0)}, ()),
    "default_cartesian_grid": (default_cartesian_grid, {"extent": (R, 4.5), "points": (C, 21)}, ()),
    "default_polar_grid": (default_polar_grid, {"r_max": (R, 4.0), "n_r": (C, 11), "n_theta": (C, 16)}, ()),
    **{
        f.__name__: (
            lambda extent, points, f=f: f(RHO, default_cartesian_grid(extent, points)),
            {"extent": (R, 4.5), "points": (C, 41)},
            (),
        )
        for f in (wigner_function, sqrt_diffusion_generator_wigner)
    },
}

ORACLES = {"stationary_state"}  # in CALLS, but kept in the tests

# public callables without a numeric argument, and the records the library returns
NO_NUMBERS = {
    "CatParity", "StateVector", "DensityMatrix", "fidelity", "parity_expectation",
    "trace_distance", "threshold_eta", "fringe_visibility",
    "FidelityCurve", "StroboRun", "DetectionSequence", "WignerGrid",
}


def _cases():
    for name, (_, numbers, pairs) in CALLS.items():
        for param, (kind, _) in numbers.items():
            bad = [math.nan, math.inf, -math.inf] + {C: [1.5, True], Z: [complex(0, math.nan), True]}.get(kind, [])
            for value in bad:
                yield pytest.param(name, {param: value}, id=f"{name}-{param}={value!r}")
        for rate, time in pairs:
            yield pytest.param(name, {rate: 1e200, time: 1e200}, id=f"{name}-{rate},{time}=1e200")


def _call(name, replaced):
    call, numbers, _ = CALLS[name]
    kwargs = {param: valid for param, (_, valid) in numbers.items()}
    return call(**{**kwargs, **replaced})


def test_the_table_holds_every_public_callable():
    public = {
        name
        for name, obj in vars(cavityfeedback).items()
        if callable(obj) and not name.startswith("_")
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert public == (set(CALLS) - ORACLES) | NO_NUMBERS


@pytest.mark.parametrize("name", CALLS)
def test_each_valid_call_returns(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _call(name, {})


@pytest.mark.parametrize("name, replaced", _cases())
def test_a_bad_number_is_a_value_error(name, replaced):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape pytest.raises as its own exception
        with pytest.raises(ValueError) as info:
            _call(name, replaced)
    if isinstance(info.value, ConfigError):  # it names the number at fault
        assert any(param in info.value.param for param in replaced), info.value


# calls that at one time slipped through as another class or a wrong result; the
# overflowing gamma * t, the Fock index and the grid axes have their own module's tests
REPRODUCED = [
    (lambda: evolve_strobo(RHO, StroboParams(0.8, 0.5, 0.1), 2.5), "steps: expected an integer, got 2.5"),
    (lambda: run_sequence(RHO, StroboParams(0.8, 0.5, 0.1), 2.5), "steps: expected an integer, got 2.5"),
    (lambda: integrate_crossing(RHO, PULSES, 100.5), "steps: expected an integer, got 100.5"),
    (lambda: default_polar_grid(4.0, 2.5), "n_r: expected an integer, got 2.5"),
    (lambda: QubitSpec(1.5, 2), "n: expected an integer, got 1.5"),
    (lambda: FockDim(True), "n_max: expected an integer, got True"),
    (lambda: coherent_state(True, FockDim(15)), "alpha: expected a number, got True"),
    (lambda: coherent_state("1", FockDim(15)), "alpha: expected a number, got '1'"),
    (lambda: cat_state(None, CatParity.ODD, FockDim(15)), "alpha: expected a number, got None"),
    (lambda: fock_superposition([(1, "1")], FockDim(4)), "coeff: expected a number, got '1'"),
    (lambda: fock_fidelity_analytic(0.5, 0.5, 1.5, 3, ContinuousParams(1.0, 0.5), 0.3), "n: expected an integer"),
    (lambda: PulsePair(math.inf, 2.0, 1.0, 0.25, 0.2), "g_max: must be a finite number > 0, got inf"),
    (lambda: adiabaticity_report(PULSES, math.inf, 0.005, 0.05), "n_bar: must be a finite number > 0, got inf"),
    (lambda: min_fidelity(QubitSpec(1, 2), 0.5, math.inf), "gamma_t: must be a finite number >= 0, got inf"),
    (lambda: p_ee_analytic(2.0, math.inf), "gamma_T_total: must be a finite number >= 0, got inf"),
    (
        lambda: fock_fidelity_analytic(0.5, 0.5, 1, 3, ContinuousParams(1.0, 0.5), math.inf),
        "t: must be a finite number >= 0, got inf",
    ),
    (
        lambda: fock_fidelity_analytic(math.nan, 0.5, 1, 3, ContinuousParams(1.0, 0.5), 0.3),
        "abs_alpha2: must be a finite number in \\[0, 1\\], got nan",
    ),
]


@pytest.mark.parametrize("call, message", REPRODUCED)
def test_a_reproduced_slip_names_its_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestCheckNumber:
    def test_the_two_messages(self):
        with pytest.raises(ConfigError, match=r"^steps: expected an integer, got 1.5$"):
            check_number("steps", 1.5, integer=True)
        with pytest.raises(ConfigError, match=r"^eta: must be a finite number in \[0, 1\], got nan$"):
            check_number("eta", math.nan, 0, 1)

    def test_numpy_scalars_pass(self):
        assert check_number("t", np.float64(0.5), 0) == 0.5
        assert check_number("n", np.int64(3), 0, integer=True) == 3

    def test_a_python_int_beyond_the_float_range_is_infinite(self):
        with pytest.raises(ConfigError, match="must be a finite number, got 1000"):
            check_number("x", 10**400)

    @given(
        st.one_of(st.floats(), st.integers(-(10**400), 10**400), st.booleans()),
        st.floats(-10.0, 10.0),
        st.floats(0.0, 10.0),
        st.booleans(),
        st.booleans(),
    )
    def test_a_number_passes_exactly_when_finite_and_in_range(self, value, lo, width, lo_open, hi_open):
        hi = lo + width
        x = value if abs(value) < 2**1024 else math.inf
        inside = (x > lo if lo_open else x >= lo) and (x < hi if hi_open else x <= hi)
        ok = not isinstance(value, bool) and math.isfinite(x) and inside
        try:
            got = check_number("x", value, lo, hi, lo_open=lo_open, hi_open=hi_open)
        except ConfigError as exc:
            assert not ok and exc.param == "x"
        else:
            assert ok and got == value and type(got) is float

    @given(st.one_of(st.integers(-(10**30), 10**30), st.booleans(), st.floats()), st.integers(-5, 5))
    def test_a_count_passes_exactly_when_an_integer_at_least_lo(self, value, lo):
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= lo
        try:
            got = check_number("n", value, lo, integer=True)
        except ConfigError as exc:
            assert not ok and exc.param == "n"
        else:
            assert ok and got is value


class TestCheckComplex:
    def test_the_two_messages(self):
        with pytest.raises(ConfigError, match=r"^alpha: expected a number, got '1'$"):
            check_complex("alpha", "1")
        with pytest.raises(ConfigError, match=r"^alpha: must be a finite number, got \(1\+nanj\)$"):
            check_complex("alpha", complex(1.0, math.nan))

    def test_numpy_scalars_pass(self):
        assert check_complex("alpha", np.complex128(0.5 - 2j)) == 0.5 - 2j
        assert check_complex("alpha", np.int64(3)) == 3

    @given(st.one_of(st.complex_numbers(), st.floats(), st.integers(-(10**400), 10**400), st.booleans()))
    def test_a_number_passes_exactly_when_its_parts_are_finite(self, value):
        parts = (value.real, value.imag)
        ok = not isinstance(value, bool) and all(abs(x) < 2**1024 and math.isfinite(x) for x in parts)
        try:
            got = check_complex("alpha", value)
        except ConfigError as exc:
            assert not ok and exc.param == "alpha"
        else:
            assert ok and got == complex(value) and type(got) is complex
