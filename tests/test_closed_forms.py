"""The closed forms: their time-array contract, and each pinned to its numerics.

`cat_fidelity_analytic`, `fock_fidelity_analytic`, `p_ee_analytic` and
`min_fidelity` take one time or an array of times.  The time is checked once
per call, and an array through its extremes with the message of one time.
Each closed form is then checked, over its valid domain, against the numerics
it stands for, at the tolerance the acceptance tests pin for it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfeedback import (
    CatParity,
    ConfigError,
    ContinuousParams,
    DensityMatrix,
    FockDim,
    QubitSpec,
    StroboParams,
    analytic_stationary_state,
    cat_fidelity_analytic,
    cat_state,
    fidelity_curve,
    fock_fidelity_analytic,
    fock_superposition,
    min_fidelity,
    p_ee_analytic,
    run_sequence,
    trace_distance,
)
from conftest import stationary_state
from test_qubits import numeric_two_mode_check

_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)  # same draws every run

# name -> (the form as a function of its time, the name of the time argument)
FORMS = {
    "cat_fidelity_analytic": (lambda t: cat_fidelity_analytic(2.0, CatParity.ODD, 1.5, t), "t"),
    "fock_fidelity_analytic": (
        lambda t: fock_fidelity_analytic(0.25, 0.75, 1, 3, ContinuousParams(1.5, 0.5), t), "t",
    ),
    "p_ee_analytic": (lambda t: p_ee_analytic(2.0, t), "gamma_T_total"),
    "min_fidelity": (lambda t: min_fidelity(QubitSpec(1, 2), 0.5, t), "gamma_t"),
}


class TestTimeArrays:
    @pytest.mark.parametrize("name", FORMS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40))
    def test_an_array_matches_the_calls_per_point(self, name, times):
        form, _ = FORMS[name]
        got = form(np.array(times))
        assert isinstance(got, np.ndarray) and got.shape == (len(times),)
        np.testing.assert_allclose(got, [form(t) for t in times], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", FORMS)
    @pytest.mark.parametrize("t", [0.3, 0, np.float64(0.3), np.int64(2)])
    def test_one_time_returns_a_float(self, name, t):
        assert isinstance(FORMS[name][0](t), float)

    @pytest.mark.parametrize("name", FORMS)
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_bad_time_anywhere_raises_the_message_of_one_time(self, name, bad, at):
        form, arg = FORMS[name]
        times = np.array([0.1, 0.2, 0.3])
        times[at] = bad
        with pytest.raises(ConfigError) as one:
            form(bad)
        with pytest.raises(ConfigError) as many:
            form(times)
        assert many.value.param == arg
        assert str(many.value) == str(one.value)

    @pytest.mark.parametrize("name", FORMS)
    @pytest.mark.parametrize("times", [np.array([True, False]), np.array([]), np.array([0.1, 0.2j])])
    def test_bools_an_empty_array_and_complex_times_are_rejected(self, name, times):
        form, arg = FORMS[name]
        with pytest.raises(ConfigError, match=f"^{arg}: expected a number or a non-empty array"):
            form(times)

    @pytest.mark.parametrize("name", ["cat_fidelity_analytic", "fock_fidelity_analytic"])
    def test_a_product_that_overflows_anywhere_raises_the_message_of_one_time(self, name):
        forms = {
            "cat_fidelity_analytic": lambda t: cat_fidelity_analytic(2.0, CatParity.ODD, 1e200, t),
            "fock_fidelity_analytic": lambda t: fock_fidelity_analytic(
                0.25, 0.75, 1, 3, ContinuousParams(1e200, 0.5), t
            ),
        }
        with pytest.raises(ConfigError) as one:
            forms[name](1e200)
        with pytest.raises(ConfigError) as many:
            forms[name](np.array([0.0, 1e200]))
        assert many.value.param == one.value.param == "gamma * t"
        assert str(many.value) == str(one.value)


def _grid(gt_max, steps):
    return np.linspace(0.0, gt_max, steps + 1)


class TestAgainstTheNumerics:
    @_PROPERTY
    @given(
        alpha2=st.floats(0.5, 6.0),
        parity=st.sampled_from(CatParity),
        gamma=st.floats(0.5, 2.0),
        gt_max=st.floats(0.05, 3.0),
        steps=st.integers(1, 40),
    )
    def test_the_cat_without_feedback_matches_the_band_core(self, alpha2, parity, gamma, gt_max, steps):
        rho0 = DensityMatrix.from_state(cat_state(math.sqrt(alpha2), parity, FockDim(63)))
        times = _grid(gt_max / gamma, steps)
        numeric = fidelity_curve(rho0, ContinuousParams(gamma, 0.0), times).fidelity
        assert np.max(np.abs(numeric - cat_fidelity_analytic(alpha2, parity, gamma, times))) <= 1e-6

    @_PROPERTY
    @given(
        levels=st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True).map(sorted),
        abs_alpha2=st.floats(0.0, 1.0),
        eta=st.floats(0.0, 1.0),
        gamma=st.floats(0.5, 2.0),
        gt_max=st.floats(0.05, 3.0),
        steps=st.integers(1, 40),
    )
    def test_the_fock_superposition_matches_the_band_core(self, levels, abs_alpha2, eta, gamma, gt_max, steps):
        (n, m), abs_beta2 = levels, 1.0 - abs_alpha2
        rho0 = DensityMatrix.from_state(
            fock_superposition([(n, math.sqrt(abs_alpha2)), (m, math.sqrt(abs_beta2))], FockDim(10))
        )
        params = ContinuousParams(gamma, eta)
        times = _grid(gt_max / gamma, steps)
        numeric = fidelity_curve(rho0, params, times).fidelity
        analytic = fock_fidelity_analytic(abs_alpha2, abs_beta2, n, m, params, times)
        assert np.max(np.abs(numeric - analytic)) <= 1e-6

    @_PROPERTY
    @given(
        alpha2=st.floats(0.5, 4.0),
        eta=st.floats(0.0, 1.0),
        gamma_T=st.floats(0.01, 0.5),
        steps=st.integers(1, 30),
    )
    def test_the_second_detection_matches_the_sequence_without_feedback(self, alpha2, eta, gamma_T, steps):
        rho0 = DensityMatrix.from_state(cat_state(math.sqrt(alpha2), CatParity.ODD, FockDim(31)))
        p_e = run_sequence(rho0, StroboParams(eta, 0.0, gamma_T), steps).p_e
        assert np.max(np.abs(p_e - p_ee_analytic(alpha2, np.arange(steps) * gamma_T))) <= 1e-8

    @_PROPERTY
    @given(eta=st.floats(0.0, 1.0), mu=st.floats(0.0, math.pi), gamma_T=st.floats(0.01, 5.0))
    def test_the_stationary_state_matches_the_numerical_fixed_point(self, eta, mu, gamma_T):
        params, dim = StroboParams(eta, mu, gamma_T), FockDim(15)
        assert trace_distance(analytic_stationary_state(params, dim), stationary_state(params, dim)) <= 1e-8

    @_PROPERTY
    @given(
        photons=st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True),
        eta=st.floats(0.0, 1.0),
        gamma_t=st.floats(0.0, 2.0),
    )
    def test_the_worst_case_qubit_fidelity_matches_the_two_mode_check(self, photons, eta, gamma_t):
        spec = QubitSpec(*photons)
        assert abs(min_fidelity(spec, eta, gamma_t) - numeric_two_mode_check(spec, eta, gamma_t)) <= 1e-5
