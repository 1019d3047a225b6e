from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import cavityfeedback.continuous as continuous
from cavityfeedback import (
    CatParity,
    ContinuousParams,
    DensityMatrix,
    FockDim,
    NumericalInvariantError,
    StroboParams,
    TruncationError,
    cat_fidelity_analytic,
    cat_state,
    coherent_state,
    evolve_continuous,
    evolve_operator,
    evolve_strobo,
    fidelity,
    fidelity_curve,
    fock_fidelity_analytic,
    fock_superposition,
    ideal_offdiagonal_decay,
    mean_amplitude_ideal,
    p_ee_analytic,
    standard_phase_diffusion,
)
from cavityfeedback.continuous import _band_propagator, _propagate, _uniform_steps
from cavityfeedback.fock import _STATE_BYTES, _band_period, check_density
from conftest import mean_amplitude, min_eigenvalue, random_density


def grid_stack(rho0, eta, times):
    """rho0 on each time of a uniform grid at gamma = 1, from the band core."""
    dt, steps = _uniform_steps(times)
    return _propagate(rho0.elements, partial(_band_propagator, eta, dt), steps)


def two_level_state(n, m, w_n, dim):
    return DensityMatrix.from_state(
        fock_superposition([(n, np.sqrt(w_n)), (m, np.sqrt(1.0 - w_n))], dim)
    )


class TestEvolveContinuous:
    def test_ideal_detection_preserves_diagonal_states(self):
        dim = FockDim(15)
        mat = np.diag([0.3, 0.4, 0.2, 0.1] + [0.0] * 12).astype(complex)
        rho0 = DensityMatrix(mat, dim)
        rho_t = evolve_continuous(rho0, ContinuousParams(1.0, 1.0), 3.0)
        assert np.max(np.abs(rho_t.elements - rho0.elements)) < 1e-9

    def test_pure_damping_of_one_photon(self):
        # closed-form relaxation of |1><1| in a vacuum bath
        dim = FockDim(7)
        rho0 = DensityMatrix.from_state(fock_superposition([(1, 1.0)], dim))
        gt = 0.8
        rho_t = evolve_continuous(rho0, ContinuousParams(1.0, 0.0), gt)
        expected = np.zeros((8, 8), dtype=complex)
        expected[1, 1] = np.exp(-gt)
        expected[0, 0] = 1.0 - np.exp(-gt)
        assert np.max(np.abs(rho_t.elements - expected)) < 1e-12

    def test_ideal_detection_matches_elementwise_oracle(self, dim63):
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        evolved = evolve_continuous(cat, ContinuousParams(1.0, 1.0), 0.2)
        oracle = ideal_offdiagonal_decay(cat, 1.0, 0.2)
        assert np.max(np.abs(evolved.elements - oracle.elements)) < 1e-9
        assert abs(fidelity(cat, evolved) - fidelity(cat, oracle)) < 1e-9

    def test_trace_conservation(self):
        rho0 = random_density(31, 26, seed=2)
        for eta in (0.0, 0.4, 1.0):
            rho_t = evolve_continuous(rho0, ContinuousParams(1.0, eta), 0.7)
            assert abs(np.trace(rho_t.elements).real - 1.0) < 1e-9

    def test_band_closure(self):
        # support confined to one off-diagonal distance stays confined
        dim = FockDim(15)
        mat = np.zeros((16, 16), dtype=complex)
        mat[2, 2] = mat[5, 5] = 0.5
        mat[2, 5] = mat[5, 2] = 0.25
        rho0 = DensityMatrix(mat, dim)
        rho_t = evolve_continuous(rho0, ContinuousParams(1.0, 0.6), 0.5)
        out = np.array(rho_t.elements)
        for p in range(16):
            band = np.diagonal(out, offset=p)
            if p not in (0, 3):
                assert np.max(np.abs(band)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ideal_oracle_equivalence_random(self, seed):
        rho0 = random_density(31, 26, seed)
        evolved = evolve_continuous(rho0, ContinuousParams(1.0, 1.0), 0.9)
        oracle = ideal_offdiagonal_decay(rho0, 1.0, 0.9)
        assert np.max(np.abs(evolved.elements - oracle.elements)) < 1e-9
        assert np.max(np.abs(np.diag(evolved.elements) - np.diag(rho0.elements))) < 1e-9

    def test_top_population_rejected(self):
        dim = FockDim(7)
        rho0 = DensityMatrix.from_state(fock_superposition([(7, 1.0)], dim))
        with pytest.raises(TruncationError):
            evolve_continuous(rho0, ContinuousParams(1.0, 0.5), 0.1)

    def test_negative_time_rejected(self, dim63):
        rho0 = DensityMatrix.from_state(coherent_state(1.0, dim63))
        with pytest.raises(ValueError):
            evolve_continuous(rho0, ContinuousParams(1.0, 0.5), -0.1)

    def test_grid_matches_single_shots(self):
        rho0 = random_density(15, 12, seed=9)
        times = np.linspace(0.0, 1.0, 6)
        params = ContinuousParams(1.0, 0.3)
        for t, mat in zip(times, grid_stack(rho0, params.eta, times)):
            single = evolve_continuous(rho0, params, t)
            assert np.max(np.abs(mat - single.elements)) < 1e-11

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ContinuousParams(0.0, 0.5)
        with pytest.raises(ValueError):
            ContinuousParams(1.0, 1.5)


class TestDampedCatClosedForm:
    @pytest.mark.parametrize("gt", [0.1, 0.5, 1.5])
    def test_no_feedback_evolution_matches_coherent_superposition_form(self, gt, dim63):
        # vacuum damping sends the cat onto shrunken coherent components with
        # an interference weight exp(-2 |alpha|^2 (1 - e^(-gamma t)));
        # rebuild that matrix directly and compare elementwise
        a2 = 5.0
        alpha = np.sqrt(a2)
        cat = DensityMatrix.from_state(cat_state(alpha, CatParity.ODD, dim63))
        evolved = evolve_continuous(cat, ContinuousParams(1.0, 0.0), gt)

        beta = alpha * np.exp(-gt / 2.0)
        plus = coherent_state(beta, dim63).amplitudes
        minus = coherent_state(-beta, dim63).amplitudes
        weight = np.exp(-2.0 * a2 * (1.0 - np.exp(-gt)))
        norm = 1.0 / (2.0 * (1.0 - np.exp(-2.0 * a2)))
        expected = norm * (
            np.outer(plus, plus.conj())
            + np.outer(minus, minus.conj())
            - weight * (np.outer(minus, plus.conj()) + np.outer(plus, minus.conj()))
        )
        assert np.max(np.abs(evolved.elements - expected)) < 1e-9

    @pytest.mark.parametrize("gt", [0.2, 0.8])
    def test_vacuum_bath_routes_agree(self, gt):
        # band-exponential evolution at zero efficiency and the photon-loss
        # Kraus sum are independent implementations of the same channel
        from test_strobo import dissipation_map

        rho0 = random_density(31, 26, seed=11)
        via_bands = evolve_continuous(rho0, ContinuousParams(1.0, 0.0), gt)
        via_kraus = dissipation_map(rho0, gt)
        assert np.max(np.abs(via_bands.elements - via_kraus.elements)) < 1e-11


class TestClosedFormMaps:
    def test_identity_at_zero_time(self):
        rho0 = random_density(15, 12, seed=3)
        out = ideal_offdiagonal_decay(rho0, 1.0, 0.0)
        assert np.array_equal(out.elements, rho0.elements)

    def test_diagonal_untouched(self):
        rho0 = random_density(15, 12, seed=4)
        out = ideal_offdiagonal_decay(rho0, 1.0, 2.0)
        assert np.max(np.abs(np.diag(out.elements) - np.diag(rho0.elements))) == 0.0

    def test_sqrt_rate_factor(self):
        dim = FockDim(7)
        rho0 = two_level_state(1, 4, 0.5, dim)
        out = ideal_offdiagonal_decay(rho0, 1.0, 1.0)
        ratio = out.elements[4, 1] / rho0.elements[4, 1]
        assert abs(ratio - np.exp(-0.5)) < 1e-14

    def test_standard_rate_factor(self):
        dim = FockDim(7)
        rho0 = two_level_state(1, 4, 0.5, dim)
        out = standard_phase_diffusion(rho0, 1.0, 1.0)
        ratio = out.elements[4, 1] / rho0.elements[4, 1]
        assert abs(ratio - np.exp(-4.5)) < 1e-14

    def test_standard_diagonal_untouched(self):
        rho0 = random_density(15, 12, seed=5)
        out = standard_phase_diffusion(rho0, 1.0, 1.3)
        assert np.max(np.abs(np.diag(out.elements) - np.diag(rho0.elements))) == 0.0

    @pytest.mark.parametrize("seed", [6, 7])
    def test_sqrt_decay_dominates_standard(self, seed):
        rho0 = random_density(63, 50, seed)
        slow = ideal_offdiagonal_decay(rho0, 1.0, 0.7)
        fast = standard_phase_diffusion(rho0, 1.0, 0.7)
        assert np.all(np.abs(slow.elements) >= np.abs(fast.elements) - 1e-15)


    @pytest.mark.parametrize("closed_form", [ideal_offdiagonal_decay, standard_phase_diffusion])
    def test_faulty_output_is_numerical(self, closed_form, monkeypatch):
        # a decay factor 1% too large breaks the trace of the output: a fault
        # of the map, not of its arguments
        rho0 = random_density(15, 12, seed=3)
        real = np.exp
        monkeypatch.setattr(np, "exp", lambda x: 1.01 * real(x))
        with pytest.raises(NumericalInvariantError, match="trace"):
            closed_form(rho0, 1.0, 0.5)


_NAN = float("nan")
_RHO = random_density(7, 5, seed=0)
_PARAMS = ContinuousParams(1.0, 0.5)
_RATE_MAPS = (ideal_offdiagonal_decay, standard_phase_diffusion, mean_amplitude_ideal)


@pytest.mark.parametrize(
    "fn, args",
    [(evolve_continuous, (_RHO, _PARAMS, t)) for t in (_NAN, -1.0)]
    + [
        (fn, (_RHO, gamma, t))
        for fn in _RATE_MAPS
        for gamma, t in ((_NAN, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, _NAN), (1.0, -1.0))
    ]
    + [
        (cat_fidelity_analytic, (alpha2, CatParity.ODD, gamma, t))
        for alpha2, gamma, t in ((_NAN, 1.0, 1.0), (0.0, 1.0, 1.0), (5.0, _NAN, 1.0), (5.0, 0.0, 1.0),
                                 (5.0, 1.0, _NAN), (5.0, 1.0, -1.0))
    ]
    + [(fock_fidelity_analytic, (1 / 3, 2 / 3, 2, 4, _PARAMS, t)) for t in (_NAN, -1.0)]
    + [(p_ee_analytic, args) for args in ((_NAN, 1.0), (0.0, 1.0), (3.3, _NAN), (3.3, -1.0))],
)
def test_bad_argument_is_a_value_error_before_any_work(fn, args, monkeypatch):
    # comparisons are negated so that NaN fails them; a NaN let through would
    # fail the output check as a NumericalInvariantError (CLI exit 3), and a
    # negative gamma would amplify the coherences
    def no_work(*_):
        raise AssertionError("the map ran on a bad argument")

    monkeypatch.setattr(np, "exp", no_work)
    monkeypatch.setattr(continuous, "expm", no_work)
    with pytest.raises(ValueError):
        fn(*args)


_INF = float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: evolve_continuous(_RHO, _PARAMS, _INF),
        lambda: evolve_continuous(_RHO, ContinuousParams(_INF, 0.5), 1.0),
        *(
            lambda fn=fn, args=args: fn(_RHO, *args)
            for fn in _RATE_MAPS
            for args in ((_INF, 1.0), (1.0, _INF))
        ),
        lambda: cat_fidelity_analytic(5.0, CatParity.ODD, 1.0, _INF),
        lambda: fidelity_curve(_RHO, _PARAMS, [0.0, _INF]),
        lambda: fidelity_curve(_RHO, _PARAMS, [0.0, _NAN]),
        lambda: evolve_strobo(_RHO, StroboParams(1.0, 0.5, _INF), 3),
        lambda: evolve_strobo(_RHO, StroboParams(1.0, _INF, 0.1), 3),
        lambda: coherent_state(_NAN, FockDim(7)),
        lambda: fock_superposition([(1, _NAN)], FockDim(7)),
    ],
    ids=[
        "evolve_continuous-t", "evolve_continuous-gamma",
        *(f"{fn.__name__}-{arg}" for fn in _RATE_MAPS for arg in ("gamma", "t")),
        "cat_fidelity_analytic-t", "fidelity_curve-inf", "fidelity_curve-nan",
        "evolve_strobo-gamma_T", "evolve_strobo-mu", "coherent_state", "fock_superposition",
    ],
)
def test_non_finite_argument_is_a_value_error(call, monkeypatch):
    # an infinite time or rate once reached the map and failed its output
    # check as a NumericalInvariantError (CLI exit 3), or the closed form
    # returned its limit; a NaN amplitude once made a NaN state
    def no_map(*_):
        raise AssertionError("a map ran on a non-finite argument")

    monkeypatch.setattr(continuous, "_propagate", no_map)  # the band core of both maps
    monkeypatch.setattr(DensityMatrix, "from_map", no_map)
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, product",
    [
        (lambda: evolve_continuous(_RHO, ContinuousParams(1e200, 0.5), 1e200), "t"),
        *((lambda fn=fn: fn(_RHO, 1e200, 1e200), "t") for fn in _RATE_MAPS),
        (lambda: cat_fidelity_analytic(5.0, CatParity.ODD, 1e200, 1e200), "t"),
        (lambda: fock_fidelity_analytic(1 / 3, 2 / 3, 2, 4, ContinuousParams(1e200, 0.5), 1e200), "t"),
        (lambda: fidelity_curve(_RHO, ContinuousParams(1e200, 0.5), [0.0, 1e200]), "dt"),
    ],
)
def test_a_rate_times_time_that_overflows_is_a_value_error(call, product, monkeypatch):
    # a finite rate and time whose product overflows once warned and then
    # failed the output check as a NumericalInvariantError (CLI exit 3)
    def no_map(*_):
        raise AssertionError("a map ran on an overflowing gamma * t")

    monkeypatch.setattr(continuous, "_propagate", no_map)
    monkeypatch.setattr(DensityMatrix, "from_map", no_map)
    with pytest.raises(ValueError, match=rf"^gamma \* {product}: must be a finite number >= 0, got inf$"):
        call()


@pytest.mark.parametrize(
    "times, message",
    [
        ([], "times must be a non-empty 1-d array"),
        (0.0, "times must be a non-empty 1-d array"),
        ([[0.0, 0.1]], "times must be a non-empty 1-d array"),
        ([0.1, 0.2], "time grid must start at 0"),
        ([0.0, 0.1, 0.3], "time grid must be uniform and increasing"),
        ([0.0, -0.1], "time grid must be uniform and increasing"),
    ],
)
def test_a_time_grid_that_is_not_uniform_from_zero_is_a_value_error(times, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fidelity_curve(_RHO, _PARAMS, times)


class TestCatFidelityAnalytic:
    def test_unity_at_zero(self):
        assert cat_fidelity_analytic(5.0, CatParity.ODD, 1.0, 0.0) == pytest.approx(1.0)

    def test_long_time_limit_odd(self):
        assert abs(cat_fidelity_analytic(5.0, CatParity.ODD, 1.0, 50.0)) < 1e-10

    def test_matches_master_equation(self, dim63):
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        rho_t = evolve_continuous(cat, ContinuousParams(1.0, 0.0), 0.2)
        numeric = fidelity(cat, rho_t)
        assert abs(numeric - cat_fidelity_analytic(5.0, CatParity.ODD, 1.0, 0.2)) < 1e-6

    def test_even_cat_long_time_reaches_vacuum_overlap(self, dim63):
        # an even cat relaxes to the vacuum, which it overlaps
        a2 = 3.3
        val = cat_fidelity_analytic(a2, CatParity.EVEN, 1.0, 60.0)
        cat = cat_state(np.sqrt(a2), CatParity.EVEN, dim63)
        assert abs(val - abs(cat.amplitudes[0]) ** 2) < 1e-10

    @pytest.mark.parametrize("eta_pair", [(0.25, 0.0), (0.5, 0.25), (0.75, 0.5), (1.0, 0.75)])
    def test_fidelity_ordering_in_eta(self, eta_pair, dim63):
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        hi, lo = eta_pair
        for gt in (0.1, 0.2, 0.5, 1.0):
            f_hi = fidelity(cat, evolve_continuous(cat, ContinuousParams(1.0, hi), gt))
            f_lo = fidelity(cat, evolve_continuous(cat, ContinuousParams(1.0, lo), gt))
            assert f_hi >= f_lo - 1e-12


class TestFockFidelityAnalytic:
    def test_unity_at_zero(self):
        params = ContinuousParams(1.0, 0.5)
        assert fock_fidelity_analytic(1 / 3, 2 / 3, 2, 4, params, 0.0) == pytest.approx(1.0)

    def test_ideal_detection_form(self):
        # at full efficiency only the coherence decays, at the sqrt-spaced rate
        params = ContinuousParams(1.0, 1.0)
        a2, b2 = 1 / 3, 2 / 3
        for gt in (0.3, 1.0, 2.0):
            expected = a2**2 + b2**2 + 2 * a2 * b2 * np.exp(-gt * (3.0 - np.sqrt(8.0)))
            assert abs(fock_fidelity_analytic(a2, b2, 2, 4, params, gt) - expected) < 1e-14

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_master_equation(self, eta, dim63):
        params = ContinuousParams(1.0, eta)
        rho0 = two_level_state(2, 4, 1 / 3, dim63)
        for gt in (0.1, 0.5, 1.7):
            rho_t = evolve_continuous(rho0, params, gt)
            analytic = fock_fidelity_analytic(1 / 3, 2 / 3, 2, 4, params, gt)
            assert abs(fidelity(rho0, rho_t) - analytic) < 1e-6

    def test_precondition_checks(self):
        params = ContinuousParams(1.0, 0.5)
        with pytest.raises(ValueError):
            fock_fidelity_analytic(0.5, 0.5, 4, 2, params, 1.0)
        with pytest.raises(ValueError):
            fock_fidelity_analytic(0.6, 0.6, 2, 4, params, 1.0)


class TestMeanAmplitudeIdeal:
    def test_initial_value_coherent(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim63))
        assert abs(mean_amplitude_ideal(rho, 1.0, 0.0) - np.sqrt(3.3)) < 1e-8

    def test_number_state_has_no_amplitude(self):
        dim = FockDim(7)
        rho = DensityMatrix.from_state(fock_superposition([(1, 1.0)], dim))
        assert mean_amplitude_ideal(rho, 1.0, 2.0) == 0.0

    def test_semiclassical_decay_rate(self):
        # exact sqrt-spaced sum against the slow-decay estimate at nbar = 25
        nbar = 25.0
        dim = FockDim(127)
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(nbar), dim))
        alpha = np.sqrt(nbar)
        for gt in (0.25, 0.5, 1.0):
            exact = mean_amplitude_ideal(rho, 1.0, gt)
            semi = np.exp(-gt / (8.0 * nbar)) * alpha
            assert abs(exact - semi) / abs(semi) < 0.05

    def test_matches_full_evolution(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim63))
        evolved = evolve_continuous(rho, ContinuousParams(1.0, 1.0), 0.6)
        assert abs(mean_amplitude(evolved) - mean_amplitude_ideal(rho, 1.0, 0.6)) < 1e-10


def liouvillian(eta, size):
    """Dense generator of the feedback master equation on row-major vec(rho), gamma = 1."""
    gen = np.zeros((size * size, size * size))
    for n in range(size):
        for m in range(size):
            k = n * size + m
            gen[k, k] = eta * np.sqrt(n * m) - (n + m) / 2.0
            if n + 1 < size and m + 1 < size:
                gen[k, k + size + 1] = (1.0 - eta) * np.sqrt((n + 1) * (m + 1))
    return gen


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)  # same draws every run
_DIM = FockDim(40)


@st.composite
def initial_states(draw):
    """Odd/even cats and coherent states with alpha^2 in [0.5, 6], or |n> + |m>, n < m <= 20."""
    kind = draw(st.sampled_from(["cat-odd", "cat-even", "coherent", "fock"]))
    if kind == "fock":
        m = draw(st.integers(1, 20))
        n = draw(st.integers(0, m - 1))
        return two_level_state(n, m, draw(st.floats(0.05, 0.95)), _DIM)
    alpha = np.sqrt(draw(st.floats(0.5, 6.0))) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    if kind == "coherent":
        return DensityMatrix.from_state(coherent_state(alpha, _DIM))
    parity = CatParity.ODD if kind == "cat-odd" else CatParity.EVEN
    return DensityMatrix.from_state(cat_state(alpha, parity, _DIM))


grids = st.builds(
    lambda gt, steps: np.linspace(0.0, gt, steps + 1),
    st.floats(1e-3, 2.0),
    st.integers(1, 12),
)


class TestBandCore:
    @_PROPERTY
    @given(eta=st.floats(0.0, 1.0), gt=st.floats(1e-3, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_operator_map_matches_dense_liouvillian(self, eta, gt, seed):
        # any matrix, Hermitian or not, against one exponential of the full generator
        rng = np.random.default_rng(seed)
        size = 8
        mat = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        mat[rng.random((size, size)) < 0.3] = 0.0
        oracle = (expm(gt * liouvillian(eta, size)) @ mat.ravel()).reshape(size, size)
        assert np.max(np.abs(evolve_operator(mat, eta, gt) - oracle)) < 1e-12

    def test_zero_bands_get_no_propagator(self, monkeypatch, dim63):
        import cavityfeedback.continuous as continuous

        calls = []
        real_expm = continuous.expm
        monkeypatch.setattr(continuous, "expm", lambda a: calls.append(a.shape) or real_expm(a))
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        fidelity_curve(cat, ContinuousParams(1.0, 0.5), np.linspace(0.0, 1.0, 5))
        assert calls == [(64 - p, 64 - p) for p in range(0, 64, 2)]
        calls.clear()
        rho0 = two_level_state(2, 4, 1 / 3, dim63)
        fidelity_curve(rho0, ContinuousParams(1.0, 0.5), np.linspace(0.0, 1.0, 5))
        assert calls == [(64, 64), (62, 62)]

    def test_grid_states_are_checked_as_map_output(self, monkeypatch, dim63):
        import cavityfeedback.continuous as continuous
        from cavityfeedback import NumericalInvariantError

        real_expm = continuous.expm
        monkeypatch.setattr(continuous, "expm", lambda a: 1.01 * real_expm(a))
        rho0 = two_level_state(2, 4, 1 / 3, dim63)
        times = np.linspace(0.0, 1.0, 5)
        for run in (
            lambda: fidelity_curve(rho0, ContinuousParams(1.0, 0.5), times),
            lambda: evolve_continuous(rho0, ContinuousParams(1.0, 0.5), 0.5),
        ):
            with pytest.raises(NumericalInvariantError, match="trace"):
                run()


def chunk_state(kind, dim):
    if kind == "cat":
        return DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim))
    return DensityMatrix.from_state(fock_superposition([(1, 0.6), (3, 0.8j)], dim))


class TestChunkStepper:
    """`_chunks` is the one chunk policy of both maps; no value depends on the chunk."""

    @pytest.mark.parametrize("kind, steps", [("cat", 100), ("complex-fock", 100), ("cat", 0)])
    def test_the_budget_leaves_every_bit_of_the_curve(self, kind, steps, dim31, monkeypatch):
        rho0 = chunk_state(kind, dim31)
        times = np.linspace(0.0, 0.02 * steps, steps + 1)
        one_pass = grid_stack(rho0, 0.5, times)  # every state at once, as the curve was taken before
        overlap = np.array([np.vdot(rho0.elements, mat).real for mat in one_pass])
        margins = check_density(one_pass, NumericalInvariantError)
        for budget in (_STATE_BYTES, 0):  # one chunk, and chunks of 16 states
            monkeypatch.setattr(continuous, "_STATE_BYTES", budget)
            curve = fidelity_curve(rho0, ContinuousParams(1.0, 0.5), times)
            assert curve.fidelity.tobytes() == overlap.tobytes()
            assert curve.margins == margins and curve.margins.min_eigenvalue is None

    @pytest.mark.parametrize(
        "n_max, budget, chunk", [(31, _STATE_BYTES, 512), (127, _STATE_BYTES, 32), (31, 0, 16)]
    )
    def test_no_stack_holds_more_than_the_budget_or_16_states(self, n_max, budget, chunk, monkeypatch):
        rho0 = chunk_state("cat", FockDim(n_max))
        sizes = []

        def spy(stack, error=ValueError):
            assert stack.nbytes <= max(budget, 16 * rho0.elements.nbytes)
            sizes.append(len(stack))
            return check_density(stack, error)

        monkeypatch.setattr(continuous, "_STATE_BYTES", budget)
        monkeypatch.setattr(continuous, "check_density", spy)
        fidelity_curve(rho0, ContinuousParams(1.0, 0.5), np.linspace(0.0, 1.0, 2 * chunk + 6))
        assert sizes == [1, chunk, chunk, 5]  # t = 0, then the stepped states

    def test_check_density_sees_every_state_once(self, dim31, monkeypatch):
        rho0 = chunk_state("complex-fock", dim31)
        times = np.linspace(0.0, 1.0, 51)
        seen = []

        def spy(stack, error=ValueError):
            seen.extend(stack)
            return check_density(stack, error)

        monkeypatch.setattr(continuous, "_STATE_BYTES", 0)
        monkeypatch.setattr(continuous, "check_density", spy)
        fidelity_curve(rho0, ContinuousParams(1.0, 0.5), times)
        assert np.array_equal(np.array(seen), grid_stack(rho0, 0.5, times))

    def test_each_band_propagator_is_built_once_per_curve(self, dim31, monkeypatch):
        rho0 = chunk_state("cat", dim31)
        calls = []

        def propagator(eta, gamma_t, p, length):
            calls.append((p, length))
            return _band_propagator(eta, gamma_t, p, length)

        monkeypatch.setattr(continuous, "_STATE_BYTES", 0)  # seven chunks
        monkeypatch.setattr(continuous, "_band_propagator", propagator)
        for _ in range(2):
            fidelity_curve(rho0, ContinuousParams(1.0, 0.5), np.linspace(0.0, 1.0, 101))
        assert calls == 2 * [(p, 32 - p) for p in range(0, 32, 2)]  # the odd cat's nonzero bands


class TestFidelityCurveProperties:
    @_PROPERTY
    @given(rho0=initial_states(), eta=st.floats(0.0, 1.0), times=grids)
    def test_matches_dense_states(self, rho0, eta, times):
        params = ContinuousParams(1.0, eta)
        curve = fidelity_curve(rho0, params, times)
        states = [DensityMatrix(m, rho0.dim) for m in grid_stack(rho0, eta, times)]
        dense = [fidelity(rho0, s) for s in states]
        assert np.max(np.abs(curve.fidelity - dense)) <= 1e-12
        assert curve.margins.trace_drift <= 1e-10
        assert curve.margins.hermiticity <= 1e-12
        assert curve.margins.min_eigenvalue is None  # certified: no eigenvalue below -1e-10

    @_PROPERTY
    @given(
        g=st.sampled_from([2, 3]),
        r=st.integers(0, 2),
        extra=st.lists(st.integers(2, 5), max_size=3),
        seed=st.integers(0, 2**32 - 1),
        eta=st.floats(0.0, 1.0),
        times=grids,
    )
    def test_block_split_spectrum_equals_full(self, g, r, extra, seed, eta, times):
        # |r> + |r + g> (+ further levels of the same class): band period exactly g
        levels = sorted({r, r + g} | {r + g * k for k in extra})
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=len(levels)) + 1j * rng.normal(size=len(levels))
        coeffs /= np.linalg.norm(coeffs)
        rho0 = DensityMatrix.from_state(fock_superposition(zip(levels, coeffs), _DIM))
        stack = grid_stack(rho0, eta, times)
        assert _band_period(stack) == g
        full = min(float(np.min(np.linalg.eigvalsh(m))) for m in stack)
        assert abs(min_eigenvalue(stack) - full) <= 1e-14
