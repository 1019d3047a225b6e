from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavityfeedback.continuous as continuous
import cavityfeedback.fock as fock
import cavityfeedback.strobo as strobo
from cavityfeedback import (
    CatParity,
    DensityMatrix,
    FockDim,
    NumericalInvariantError,
    PulsePair,
    QubitSpec,
    StroboParams,
    TruncationError,
    analytic_stationary_state,
    cat_state,
    coherent_state,
    evolve_strobo,
    fock_superposition,
    min_fidelity,
    p_ee_analytic,
    parity_expectation,
    run_sequence,
    trace_distance,
)
from cavityfeedback.fock import _STATE_BYTES, check_density
from cavityfeedback.strobo import _kraus_table, _step_matrices
from conftest import min_eigenvalue, random_density, random_parity_density, stationary_state

# Dense elementwise forms of the stroboscopic maps.  The library runs every
# map through per-band step matrices; these are the oracles it is checked
# against.


def _parity_masks(n_dim):
    odd = (np.arange(n_dim) % 2 == 1).astype(float)
    return np.outer(odd, odd), np.outer(1.0 - odd, 1.0 - odd)


def conditional_split(rho):
    """Odd and even projections of rho (unnormalised) and their traces P_e, P_g."""
    arr = np.asarray(rho.elements)
    mask_odd, mask_even = _parity_masks(arr.shape[0])
    rho_e = arr * mask_odd
    rho_g = arr * mask_even
    return rho_e, rho_g, float(np.real(np.trace(rho_e))), float(np.real(np.trace(rho_g)))


def _feedback_atom_elements(arr, mu):
    n_dim = arr.shape[0]
    top = float(np.real(arr[-1, -1]))
    if top > 1e-10:
        raise TruncationError(f"population {top:.3e} on the top Fock level")
    cos_up = np.cos(mu * np.sqrt(np.arange(1, n_dim + 1)))
    sin_at = np.sin(mu * np.sqrt(np.arange(n_dim)))
    out = np.outer(cos_up, cos_up) * arr
    out[1:, 1:] += np.outer(sin_at[1:], sin_at[1:]) * arr[:-1, :-1]
    return out


def _feedback_superop_elements(arr, params):
    mask_odd, mask_even = _parity_masks(arr.shape[0])
    rho_e = arr * mask_odd
    rho_g = arr * mask_even
    eta = params.eta
    out = eta * rho_e + (1.0 - eta) * (rho_e + rho_g)
    if eta:
        out = out + eta * _feedback_atom_elements(rho_g, params.mu)
    return out


def _dissipation_elements(arr, gamma_T):
    if gamma_T == 0.0:
        return arr.copy()
    n_dim = arr.shape[0]
    c = _kraus_table(n_dim, gamma_T)[:n_dim]
    out = np.zeros_like(arr)
    for k in range(n_dim):
        m = n_dim - k
        ck = c[:m, k]
        out[:m, :m] += np.outer(ck, ck) * arr[k:, k:]
    return out


def dense_step(arr, params):
    """One period on a dense matrix: feedback, then the Kraus sum."""
    arr = _feedback_superop_elements(arr, params)
    arr = _dissipation_elements(arr, params.gamma_T)
    return (arr + arr.conj().T) / 2.0


def feedback_atom_map(rho, mu):
    """Resonant feedback atom acting unconditionally on the field."""
    out = _feedback_atom_elements(np.asarray(rho.elements), mu)
    return DensityMatrix.from_map(out[None], rho.dim)


def dissipation_map(rho, gamma_T):
    """Vacuum-bath relaxation over gamma_T as a Kraus sum over every loss number."""
    if gamma_T < 0:
        raise ValueError("gamma_T must be >= 0")
    out = _dissipation_elements(np.asarray(rho.elements), gamma_T)
    return DensityMatrix.from_map(out[None], rho.dim)


def with_band_2(mat):
    """A stand-in for `strobo._padded_bands` whose band 2 is `mat`."""
    real = strobo._padded_bands

    def build(params, c, ps):
        block = real(params, c, ps)
        block[ps == 2] = 0.0
        block[ps == 2, : len(mat), : len(mat)] = mat
        return block

    return build


def band_matrix_rows(p, params, dim):
    """The one-step matrix of band p, assembled one row at a time."""
    n_dim = dim.size
    length = n_dim - p
    mat = np.zeros((length, length))
    if p % 2 == 1:
        return mat
    eta, mu = params.eta, params.mu
    if params.gamma_T > 0:
        c = _kraus_table(n_dim, params.gamma_T)[:n_dim]
    else:
        c = np.zeros((n_dim, n_dim))
        c[:, 0] = 1.0
    for n in range(length):
        ks = np.arange(length - n)
        n1 = n + ks
        m1 = n + p + ks
        even1 = (n1 % 2 == 0).astype(float)
        row = c[n, ks] * c[n + p, ks] * (
            eta * (1.0 - even1)
            + (1.0 - eta)
            + eta * even1 * np.cos(mu * np.sqrt(n1 + 1.0)) * np.cos(mu * np.sqrt(m1 + 1.0))
        )
        fit = m1 + 1 <= n_dim - 1
        kf = ks[fit]
        row[fit] += (
            eta
            * even1[fit]
            * c[n, kf + 1]
            * c[n + p, kf + 1]
            * np.sin(mu * np.sqrt(n1[fit] + 1.0))
            * np.sin(mu * np.sqrt(m1[fit] + 1.0))
        )
        mat[n, n:] = row
        if n >= 1 and n % 2 == 1:
            mat[n, n - 1] += (
                eta * c[n, 0] * c[n + p, 0] * np.sin(mu * np.sqrt(n)) * np.sin(mu * np.sqrt(n + p))
            )
    return mat


def odd_cat(alpha2, dim):
    return DensityMatrix.from_state(cat_state(np.sqrt(alpha2), CatParity.ODD, dim))


def number_state(n, dim):
    return DensityMatrix.from_state(fock_superposition([(n, 1.0)], dim))


def one_period(rho, params):
    return evolve_strobo(rho, params, 1).state


def step_with_bands(rho, params):
    """Reassemble one step from the per-band matrices."""
    n = rho.dim.size
    out = np.zeros((n, n), dtype=complex)
    for p, mat in _step_matrices(params, rho.dim).items():  # every odd band maps to zero
        v = mat @ np.diagonal(rho.elements, offset=p)
        idx = np.arange(n - p)
        out[idx, idx + p] = v
        if p:
            out[idx + p, idx] = np.conj(v)
    return out


class TestConditionalSplit:
    def test_odd_cat_is_purely_odd(self, dim31):
        rho = odd_cat(3.3, dim31)
        rho_e, rho_g, p_e, p_g = conditional_split(rho)
        assert p_e == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho_g)) < 1e-14

    def test_vacuum_is_even(self, dim31):
        _, _, p_e, p_g = conditional_split(number_state(0, dim31))
        assert p_g == 1.0

    def test_equal_mixture(self):
        dim = FockDim(3)
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        _, _, p_e, p_g = conditional_split(DensityMatrix(mat, dim))
        assert p_e == pytest.approx(0.5)
        assert p_g == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_traces_are_probabilities(self, seed):
        rho = random_density(15, 12, seed)
        rho_e, rho_g, p_e, p_g = conditional_split(rho)
        assert p_e == pytest.approx(np.trace(rho_e).real)
        assert p_e + p_g == pytest.approx(1.0, abs=1e-10)
        assert p_e == pytest.approx(0.5 * (1.0 - parity_expectation(rho)), abs=1e-12)


class TestFeedbackAtomMap:
    def test_zero_angle_is_identity(self, dim31):
        rho = odd_cat(3.3, dim31)
        out = feedback_atom_map(rho, 0.0)
        assert np.array_equal(out.elements, rho.elements)

    def test_vacuum_to_one_photon(self, dim31):
        out = feedback_atom_map(number_state(0, dim31), np.pi / 2)
        expected = number_state(1, dim31)
        assert np.max(np.abs(out.elements - expected.elements)) < 1e-15

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_number_state_split(self, n, dim31):
        mu = 0.8
        out = feedback_atom_map(number_state(n, dim31), mu)
        c2 = np.cos(mu * np.sqrt(n + 1.0)) ** 2
        assert out.elements[n, n].real == pytest.approx(c2)
        assert out.elements[n + 1, n + 1].real == pytest.approx(1.0 - c2)
        assert np.trace(out.elements).real == pytest.approx(1.0, abs=1e-12)

    def test_top_level_population_rejected(self):
        dim = FockDim(3)
        with pytest.raises(TruncationError):
            feedback_atom_map(number_state(3, dim), 0.3)


class TestFeedbackSuperop:
    """One period at gamma_T = 0: the parity measurement and the feedback atom alone."""

    def test_zero_efficiency_is_identity(self, dim31):
        rho = odd_cat(3.3, dim31)
        out = one_period(rho, StroboParams(0.0, np.pi / 3, 0.0))
        assert np.max(np.abs(out.elements - rho.elements)) < 1e-15

    def test_odd_state_unaffected(self, dim31):
        rho = odd_cat(3.3, dim31)
        for mu in (0.4, np.pi / 2):
            out = one_period(rho, StroboParams(1.0, mu, 0.0))
            assert np.max(np.abs(out.elements - rho.elements)) < 1e-14

    def test_vacuum_pumped_to_one_photon(self, dim31):
        out = one_period(number_state(0, dim31), StroboParams(1.0, np.pi / 2, 0.0))
        assert np.max(np.abs(out.elements - number_state(1, dim31).elements)) < 1e-14

    def test_trace_preserved(self):
        rho = random_density(15, 12, seed=3)
        out = one_period(rho, StroboParams(0.7, 1.1, 0.0))
        assert np.trace(out.elements).real == pytest.approx(1.0, abs=1e-12)

    def test_kills_parity_coherences(self):
        rho = random_density(15, 12, seed=4)
        out = one_period(rho, StroboParams(0.0, 0.0, 0.0))
        n = np.arange(16)
        cross = ((n[:, None] + n[None, :]) % 2 == 1)
        assert np.max(np.abs(out.elements[cross])) == 0.0


class TestDissipationMap:
    def test_zero_interval_is_identity(self, dim31):
        rho = odd_cat(3.3, dim31)
        out = dissipation_map(rho, 0.0)
        assert np.array_equal(out.elements, rho.elements)

    def test_one_photon_relaxation(self, dim31):
        gt = 0.37
        out = dissipation_map(number_state(1, dim31), gt)
        assert out.elements[1, 1].real == pytest.approx(np.exp(-gt), abs=1e-14)
        assert out.elements[0, 0].real == pytest.approx(1.0 - np.exp(-gt), abs=1e-14)

    def test_coherent_state_stays_coherent(self, dim31):
        gt = 0.3
        alpha = np.sqrt(3.3)
        rho = DensityMatrix.from_state(coherent_state(alpha, dim31))
        out = dissipation_map(rho, gt)
        target = DensityMatrix.from_state(coherent_state(alpha * np.exp(-gt / 2.0), dim31))
        assert np.max(np.abs(out.elements - target.elements)) < 1e-10

    def test_trace_preserved_exactly(self):
        rho = random_density(15, 15, seed=5)
        out = dissipation_map(rho, 0.6)
        assert np.trace(out.elements).real == pytest.approx(1.0, abs=1e-13)


class TestStroboStep:
    def test_zero_efficiency_is_pure_dissipation(self, dim31):
        rho = odd_cat(3.3, dim31)
        params = StroboParams(0.0, np.pi / 2, 0.15)
        out = one_period(rho, params)
        ref = dissipation_map(rho, 0.15)
        assert np.max(np.abs(out.elements - ref.elements)) < 1e-14

    def test_feedback_raises_parity(self, dim31):
        rho = odd_cat(3.3, dim31)
        fb = one_period(rho, StroboParams(1.0, np.pi / 6, 0.02))
        nofb = one_period(rho, StroboParams(0.0, np.pi / 6, 0.02))
        assert parity_expectation(fb) <= parity_expectation(nofb)

    def test_lossless_composition(self, dim31):
        out = one_period(number_state(0, dim31), StroboParams(1.0, np.pi / 2, 0.0))
        assert np.max(np.abs(out.elements - number_state(1, dim31).elements)) < 1e-14

    def test_parity_sector_closure(self):
        rho = random_parity_density(15, 12, seed=6)
        out = one_period(rho, StroboParams(0.6, 0.9, 0.05))
        n = np.arange(16)
        cross = ((n[:, None] + n[None, :]) % 2 == 1)
        assert np.max(np.abs(out.elements[cross])) < 1e-13


class TestBandMatrices:
    def test_identity_without_feedback_or_loss(self, dim31):
        mat = _step_matrices(StroboParams(0.0, 0.7, 0.0), dim31)[0]
        assert np.array_equal(mat, np.eye(32))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_reassembly_matches_operational_step(self, seed, dim31):
        rho = random_density(31, 26, seed)
        params = StroboParams(0.62, np.pi / 5, 0.07)
        direct = one_period(rho, params)
        rebuilt = step_with_bands(rho, params)
        assert np.max(np.abs(rebuilt - direct.elements)) < 1e-12

    def test_odd_bands_vanish(self, dim31):
        # an odd band's matrix is zero, so none is built
        mats = _step_matrices(StroboParams(0.5, 0.8, 0.1), dim31)
        assert list(mats) == list(range(0, 32, 2))

    def test_diagonal_band_preserves_trace(self, dim31):
        params = StroboParams(0.8, 1.2, 0.05)
        a0 = _step_matrices(params, dim31)[0]
        assert np.max(np.abs(a0.sum(axis=0) - 1.0)) < 1e-12

    def test_spectral_contraction(self, dim31):
        mats = _step_matrices(StroboParams(0.4, np.pi / 6, 0.2), dim31)
        for p in range(0, 32, 4):
            radius = np.max(np.abs(np.linalg.eigvals(mats[p])))
            assert radius <= 1.0 + 1e-10

    def test_spectral_radius_is_a_numerical_fault(self, dim31, monkeypatch):
        monkeypatch.setattr(strobo, "_padded_bands", with_band_2(1.5 * np.eye(30)))
        with pytest.raises(NumericalInvariantError, match="spectral radius 1.5 of band 2"):
            evolve_strobo(odd_cat(3.3, dim31), StroboParams(0.4, np.pi / 6, 0.2), 1)

    def test_a_norm_above_one_falls_back_to_the_exact_radius(self, monkeypatch):
        # 1-norm 1.4 but spectral radius 0.5: the norm bound alone would raise
        skewed = np.array([[0.5, 0.9], [0.0, 0.5]])
        monkeypatch.setattr(strobo, "_padded_bands", with_band_2(skewed))
        seen = []
        real_eigvals = np.linalg.eigvals

        def eigvals(mat):
            seen.append(np.array(mat))
            return real_eigvals(mat)

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        mats = _step_matrices(StroboParams(0.4, np.pi / 6, 0.2), FockDim(3))
        assert np.array_equal(mats[2], skewed)
        assert len(seen) == 1 and np.array_equal(seen[0], skewed)  # band 0's norm is within the bound

    def test_norm_bound_spares_eigvals_on_working_bands(self, dim31, monkeypatch):
        def no_eigvals(_):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        for params in (StroboParams(0.4, np.pi / 6, 0.2), StroboParams(1.0, np.pi / 2, 0.0)):
            for dim in (dim31, FockDim(127)):
                _step_matrices(params, dim)


class TestStationaryState:
    def test_ideal_parameters(self, dim31):
        params = StroboParams(1.0, np.pi / 2, 0.02)
        rho = stationary_state(params, dim31)
        assert rho.elements[1, 1].real == pytest.approx(np.exp(-0.02), abs=1e-10)

    def test_no_feedback_gives_vacuum(self, dim31):
        rho = stationary_state(StroboParams(0.0, np.pi / 2, 0.1), dim31)
        assert rho.elements[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_generic_parameters(self, dim31):
        params = StroboParams(0.4, np.pi / 6, 0.2)
        rho = stationary_state(params, dim31)
        expected = 0.1 / (np.exp(0.2) - 1.0 + 0.1)
        assert rho.elements[1, 1].real == pytest.approx(expected, abs=1e-10)

    def test_matches_closed_form(self, dim31):
        for eta, mu, gt in [(1.0, np.pi / 2, 0.02), (0.4, np.pi / 6, 0.2)]:
            params = StroboParams(eta, mu, gt)
            num = stationary_state(params, dim31)
            ana = analytic_stationary_state(params, dim31)
            assert trace_distance(num, ana) < 1e-12

    def test_unique_unit_eigenvalue(self, dim31):
        params = StroboParams(0.4, np.pi / 2, 0.02)
        vals = np.linalg.eigvals(_step_matrices(params, dim31)[0])
        assert int(np.sum(np.abs(vals - 1.0) < 1e-10)) == 1

    def test_long_interval_leaves_the_vacuum(self, dim31):
        # exp(gamma_T) overflows to inf, and pump / inf is the exact weight 0
        rho = analytic_stationary_state(StroboParams(0.5, 0.5, 1000.0), dim31)
        assert rho.elements[1, 1].real == 0.0
        assert rho.elements[0, 0].real == 1.0

    def test_requires_dissipation(self, dim31):
        with pytest.raises(ValueError):
            stationary_state(StroboParams(1.0, np.pi / 2, 0.0), dim31)

    def test_faulty_closed_form_is_numerical(self, dim31, monkeypatch):
        # exp(gamma_T) - 1 of the wrong sign puts a weight above 1 on one
        # photon and a negative one on the vacuum: a fault of the closed
        # form's output, not of its parameters
        real = np.expm1
        monkeypatch.setattr(np, "expm1", lambda x: -real(x))
        with pytest.raises(NumericalInvariantError, match="eigenvalue"):
            analytic_stationary_state(StroboParams(1.0, np.pi / 2, 0.1), dim31)

    def test_broken_fixed_point_is_numerical(self, dim31, monkeypatch):
        # flipping the one-photon component of every eigenvector leaves a
        # normalised fixed point with a negative population: a fault of the
        # computation, not of the parameters
        real_eig = np.linalg.eig

        def eig(a):
            vals, vecs = real_eig(a)
            vecs = vecs.copy()
            vecs[1, :] *= -1.0
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", eig)
        with pytest.raises(NumericalInvariantError, match="eigenvalue"):
            stationary_state(StroboParams(0.4, np.pi / 6, 0.2), dim31)


class TestPeeAnalytic:
    def test_no_delay(self):
        assert p_ee_analytic(3.3, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_long_delay(self):
        assert abs(p_ee_analytic(3.3, 60.0)) < 1e-12

    @pytest.mark.parametrize("gt", [0.05, 0.2, 1.0])
    def test_against_dissipation_oracle(self, gt, dim31):
        rho = dissipation_map(odd_cat(3.3, dim31), gt)
        oracle = 0.5 * (1.0 - parity_expectation(rho))
        assert abs(p_ee_analytic(3.3, gt) - oracle) < 1e-8


class TestRunSequence:
    def test_no_feedback_reduces_to_closed_form(self, dim31):
        gt = 0.1
        seq = run_sequence(odd_cat(3.3, dim31), StroboParams(0.4, 0.0, gt), steps=15)
        for step, p_e in enumerate(seq.p_e):
            assert abs(p_e - p_ee_analytic(3.3, step * gt)) < 1e-8

    def test_long_run_reaches_stationary_probability(self, dim31):
        params = StroboParams(1.0, np.pi / 2, 0.02)
        seq = run_sequence(odd_cat(3.3, dim31), params, steps=2000)
        assert abs(seq.p_e[-1] - np.exp(-0.02)) < 1e-4

    def test_efficiency_ordering(self, dim31):
        rho = odd_cat(3.3, dim31)
        hi = run_sequence(rho, StroboParams(1.0, np.pi / 6, 0.1), steps=25)
        lo = run_sequence(rho, StroboParams(0.4, np.pi / 6, 0.1), steps=25)
        assert np.all(hi.p_e >= lo.p_e - 1e-12)

    def test_probabilities_and_state_health(self, dim31):
        # spot-check trace and positivity along a run
        rho = odd_cat(3.3, dim31)
        params = StroboParams(0.4, np.pi / 6, 0.1)
        for _ in range(20):
            rho = one_period(rho, params)
            assert abs(np.trace(rho.elements).real - 1.0) < 1e-11
            assert np.min(np.linalg.eigvalsh(rho.elements)) > -1e-9

    def test_step_count_validation(self, dim31):
        with pytest.raises(ValueError):
            run_sequence(odd_cat(3.3, dim31), StroboParams(1.0, 0.0, 0.1), steps=0)


_NAN = float("nan")
_PULSES = PulsePair(10.0, 10.0, 1.0, 0.25, 0.2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StroboParams(0.5, _NAN, 0.1),
        lambda: StroboParams(0.5, 0.5, _NAN),
        *(
            lambda field=field: replace(_PULSES, **{field: _NAN})
            for field in ("g_max", "omega_max", "t_cross", "delay", "width")
        ),
        lambda: min_fidelity(QubitSpec(0, 1), 0.5, _NAN),
    ],
    ids=["mu", "gamma_T", "g_max", "omega_max", "t_cross", "delay", "width", "gamma_t"],
)
def test_nan_parameter_raises(build):
    with pytest.raises(ValueError):
        build()


class TestGeneralisedProbePulses:
    """Conditional probe maps are projector-valued only for the canonical settings.

    The probe sequence (pulse, number-dependent phase phi, pulse) conditions
    the field on the detected atomic level through the diagonal operators
        atom in e:  c_e^2 e^(i phi n) - |c_g|^2
        atom in g:  c_g (c_e e^(i phi n) + conj(c_e))
    A conditional map rho -> K rho K' is a projection exactly when the
    diagonal entries of K take a single nonzero value.
    """

    @staticmethod
    def conditional_kernels(c_e, c_g, phi, n_dim=16):
        n = np.arange(n_dim)
        phase = np.exp(1j * phi * n)
        k_e = c_e**2 * phase - abs(c_g) ** 2
        k_g = c_g * (c_e * phase + np.conj(c_e))
        return k_e, k_g

    @staticmethod
    def is_projector_valued(kernel, tol=1e-12):
        mags = np.abs(kernel)
        nonzero = kernel[mags > tol]
        if nonzero.size == 0:
            return True
        return bool(np.max(np.abs(nonzero - nonzero[0])) < tol)

    def test_canonical_settings_project_on_parity(self):
        k_e, k_g = self.conditional_kernels(1 / np.sqrt(2), 1 / np.sqrt(2), np.pi)
        assert self.is_projector_valued(k_e)
        assert self.is_projector_valued(k_g)
        n = np.arange(16)
        assert np.allclose(np.abs(k_e), (n % 2 == 1).astype(float), atol=1e-13)
        assert np.allclose(np.abs(k_g), (n % 2 == 0).astype(float), atol=1e-13)

    @pytest.mark.parametrize(
        "c_e,c_g,phi",
        [
            (np.cos(0.3), np.sin(0.3), np.pi),
            (1 / np.sqrt(2), 1 / np.sqrt(2), 2.0),
            (np.cos(1.0), np.sin(1.0), 1.3),
        ],
    )
    def test_generic_settings_do_not_project(self, c_e, c_g, phi):
        k_e, k_g = self.conditional_kernels(c_e, c_g, phi)
        assert not (self.is_projector_valued(k_e) and self.is_projector_valued(k_g))


_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)  # same draws every run
_DIM = FockDim(31)
_CROSS = (np.arange(32)[:, None] + np.arange(32)[None, :]) % 2 == 1

# gamma_T = 0 takes the no-dissipation branch of the Kraus table, so draw it on purpose
params_drawn = st.builds(
    StroboParams,
    eta=st.floats(0.0, 1.0),
    mu=st.floats(0.0, np.pi),
    gamma_T=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)


@st.composite
def field_states(draw):
    """Odd or even cats and coherent states, alpha^2 in [0.2, 5], any phase."""
    kind = draw(st.sampled_from(["cat-odd", "cat-even", "coherent"]))
    alpha = np.sqrt(draw(st.floats(0.2, 5.0))) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    if kind == "coherent":
        return DensityMatrix.from_state(coherent_state(alpha, _DIM))
    parity = CatParity.ODD if kind == "cat-odd" else CatParity.EVEN
    return DensityMatrix.from_state(cat_state(alpha, parity, _DIM))


class TestStroboProperties:
    @_PROPERTY
    @given(rho=field_states(), params=params_drawn)
    def test_maps_keep_trace_and_positivity(self, rho, params):
        outs = (
            feedback_atom_map(rho, params.mu),
            one_period(rho, replace(params, gamma_T=0.0)),
            dissipation_map(rho, params.gamma_T),
            one_period(rho, params),
        )
        for out in outs:
            m = check_density(out.elements[None])
            assert m.hermiticity <= 1e-12
            assert m.trace_drift <= 1e-10
            assert min_eigenvalue(out.elements[None]) >= -1e-10

    @_PROPERTY
    @given(rho=field_states(), params=params_drawn)
    def test_band_path_matches_dense_step(self, rho, params):
        dense = dense_step(rho.elements, params)
        assert np.max(np.abs(step_with_bands(rho, params) - dense)) < 1e-12
        # the parity measurement removes every odd-even coherence in one step
        assert np.max(np.abs(dense[_CROSS])) == 0.0

    @_PROPERTY
    @given(rho=field_states(), params=params_drawn, steps=st.integers(1, 6))
    def test_sequence_probabilities_sum_to_one(self, rho, params, steps):
        seq = run_sequence(rho, params, steps)
        assert seq.p_e.shape == seq.p_g.shape == (steps,)
        assert np.max(np.abs(seq.p_e + seq.p_g - 1.0)) <= 1e-10
        assert min(seq.p_e.min(), seq.p_g.min()) >= -1e-12


_CHUNK = max(16, _STATE_BYTES // (16 * 32 * 32))  # periods per chunk at dim 31: 8 MiB of states
# at a state budget of 0 a chunk is the shortest one, 16 periods: these counts sit on
# both sides of one, four and twelve chunk boundaries over as many periods as the
# 64-period chunks of a 1 MiB budget took; the real chunk is held bit for bit to
# budget 0 by test_chunk_length_leaves_every_bit
_STEP_COUNTS = (1, 15, 16, 17, 63, 64, 65, 3 * 64 + 5)


@st.composite
def start_states(draw):
    """Cats and coherent states, or a random state without parity coherences."""
    if draw(st.booleans()):
        return draw(field_states())
    return random_parity_density(31, 26, draw(st.integers(0, 2**16)))


def dense_states(rho, params, steps):
    """rho and its images under 1 .. steps periods of the dense oracle."""
    states = [rho.elements]
    for _ in range(steps):
        states.append(dense_step(states[-1], params))
    return np.array(states)


class TestEvolveStrobo:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(params=params_drawn, dim=st.sampled_from([FockDim(n) for n in (1, 2, 15, 30, 31, 64, 127)]))
    def test_band_matrices_equal_the_row_loop(self, params, dim):
        # dim 64 and 127 build the bands in more than one padded block
        mats = _step_matrices(params, dim)
        assert list(mats) == list(range(0, dim.size, 2))
        for p, mat in mats.items():
            assert np.array_equal(mat, band_matrix_rows(p, params, dim))

    @_PROPERTY
    @given(rho=start_states(), params=params_drawn)
    def test_every_state_matches_the_dense_oracle(self, rho, params):
        oracle = dense_states(rho, params, max(_STEP_COUNTS))
        with mock.patch.object(continuous, "_STATE_BYTES", 0):  # 16 periods per chunk
            for steps in _STEP_COUNTS:
                run = evolve_strobo(rho, params, steps)
                assert np.max(np.abs(run.state.elements - oracle[steps])) <= 1e-12
                pops = np.real(np.diagonal(oracle[: steps + 1], axis1=1, axis2=2))
                assert np.max(np.abs(run.populations - pops)) <= 1e-12
                seq = run_sequence(rho, params, steps)
                assert np.max(np.abs(seq.p_e + seq.p_g - 1.0)) <= 1e-10

    def test_check_density_sees_every_state_once(self, dim31, monkeypatch):
        rho = odd_cat(3.3, dim31)
        params = StroboParams(0.6, 0.9, 0.05)
        steps = 3 * _CHUNK + 5
        seen = []
        real_check = fock.check_density

        def spy(stack, error=ValueError):
            seen.extend(np.array(stack))
            return real_check(stack, error)

        monkeypatch.setattr(fock, "check_density", spy)
        final = evolve_strobo(rho, params, steps).state
        assert len(seen) == steps
        assert np.max(np.abs(np.array(seen) - dense_states(rho, params, steps)[1:])) <= 1e-12
        assert np.array_equal(seen[-1], final.elements)

    def test_fault_in_a_later_chunk_is_caught(self, dim31, monkeypatch):
        rho = odd_cat(3.3, dim31)
        params = StroboParams(0.6, 0.9, 0.05)
        real_propagate = continuous._propagate
        calls = []

        def propagate(mat, step_matrix, steps):
            stack = real_propagate(mat, step_matrix, steps)
            calls.append(steps)
            if len(calls) == 3:
                stack[2] *= 1.001
            return stack

        monkeypatch.setattr(continuous, "_propagate", propagate)
        with pytest.raises(NumericalInvariantError, match="trace"):
            evolve_strobo(rho, params, 3 * _CHUNK + 5)
        assert calls == [_CHUNK] * 3

    @pytest.mark.parametrize("fault", ["trace", "nan"])
    def test_a_truncation_is_raised_before_a_density_fault_of_its_chunk(self, fault, monkeypatch):
        # a NaN top population once hid the truncation, and the chunk failed its density check (exit 3)
        rho = number_state(14, FockDim(14))  # an even top level, filled
        real_propagate = continuous._propagate

        def propagate(mat, step_matrix, steps):
            stack = real_propagate(mat, step_matrix, steps)
            stack[1] = np.nan if fault == "nan" else 1.001 * stack[1]
            return stack

        monkeypatch.setattr(continuous, "_propagate", propagate)
        with pytest.raises(TruncationError, match="pushed out of the basis"):
            evolve_strobo(rho, StroboParams(1.0, 0.5, 0.02), 3)

    @pytest.mark.parametrize(
        "n_max,budget,chunk", [(31, _STATE_BYTES, 512), (63, _STATE_BYTES, 128), (127, _STATE_BYTES, 32), (31, 0, 16)]
    )
    def test_no_chunk_holds_more_than_the_state_budget_or_16_periods(self, n_max, budget, chunk, monkeypatch):
        rho = odd_cat(3.3, FockDim(n_max))
        real_propagate = continuous._propagate
        periods = []

        def propagate(mat, step_matrix, steps):
            stack = real_propagate(mat, step_matrix, steps)
            assert stack[1:].nbytes <= max(budget, 16 * mat.nbytes)
            periods.append(steps)
            return stack

        real_bands = strobo._padded_bands
        blocks = []

        def padded_bands(params, c, ps):
            block = real_bands(params, c, ps)
            blocks.append(block.nbytes)
            return block

        monkeypatch.setattr(continuous, "_STATE_BYTES", budget)
        monkeypatch.setattr(continuous, "_propagate", propagate)
        monkeypatch.setattr(strobo, "_padded_bands", padded_bands)
        evolve_strobo(rho, StroboParams(0.6, 0.9, 0.05), 2 * chunk + 5)
        assert periods == [chunk, chunk, 5]
        assert max(blocks) <= 2**20  # the band matrices too are built about 1 MiB at a time

    @pytest.mark.parametrize("odd_bands", [False, True])
    def test_chunk_length_leaves_every_bit(self, odd_bands, dim31, monkeypatch):
        # the odd bands of the input are removed before the first chunk; nothing may depend on the chunking
        state = coherent_state(1.5 + 0.5j, dim31) if odd_bands else cat_state(1.8, CatParity.ODD, dim31)
        rho = DensityMatrix.from_state(state)
        params = StroboParams(0.6, 0.9, 0.05)
        runs = [evolve_strobo(rho, params, 40)]
        monkeypatch.setattr(continuous, "_STATE_BYTES", 0)  # 16 periods per chunk
        runs.append(evolve_strobo(rho, params, 40))
        assert runs[0].state.elements.tobytes() == runs[1].state.elements.tobytes()
        assert runs[0].populations.tobytes() == runs[1].populations.tobytes()

    @pytest.mark.parametrize("state_bytes", [_STATE_BYTES, 0])
    @pytest.mark.parametrize("steps", [1, 10, 16, 17, 40])
    def test_odd_bands_are_positive_zeros(self, steps, state_bytes, dim31, monkeypatch):
        # the first parity measurement removes the odd bands, whatever the signs of their entries
        monkeypatch.setattr(continuous, "_STATE_BYTES", state_bytes)
        rho = DensityMatrix.from_state(coherent_state(1.5 + 0.5j, dim31))
        assert rho.elements[::2, 1::2].real.min() < 0 and rho.elements[::2, 1::2].imag.min() < 0
        final = evolve_strobo(rho, StroboParams(0.6, 0.9, 0.05), steps).state.elements
        for odd in (final[::2, 1::2], final[1::2, ::2]):
            assert not np.signbit(odd.real).any() and not np.signbit(odd.imag).any()
            assert not odd.any()

    @pytest.mark.parametrize("steps", [1, 2, _CHUNK + 3])
    def test_probabilities_are_the_dense_split_of_each_state(self, steps, dim31):
        rho = odd_cat(3.3, dim31)
        params = StroboParams(0.7, 0.5, 0.02)
        seq = run_sequence(rho, params, steps + 1)
        _, _, p_e, p_g = conditional_split(evolve_strobo(rho, params, steps).state)
        assert (seq.p_e[steps], seq.p_g[steps]) == (p_e, p_g)

    def test_zero_steps_return_the_input(self, dim31):
        rho = odd_cat(3.3, dim31)
        run = evolve_strobo(rho, StroboParams(0.6, 0.9, 0.05), 0)
        assert run.state is rho
        assert np.array_equal(run.populations, rho.populations()[None])
        with pytest.raises(ValueError):
            evolve_strobo(rho, StroboParams(0.6, 0.9, 0.05), -1)

    def test_sequence_arrays_are_read_only(self, dim31):
        seq = run_sequence(odd_cat(3.3, dim31), StroboParams(0.6, 0.9, 0.05), 4)
        for probs in seq:
            with pytest.raises(ValueError):
                probs[0] = 0.5

    def test_probabilities_that_miss_one_are_a_numerical_fault(self, dim31, monkeypatch):
        rho = odd_cat(3.3, dim31)
        params = StroboParams(0.6, 0.9, 0.05)
        real = strobo.evolve_strobo

        def off_by_1e9(rho0, params, steps):
            run = real(rho0, params, steps)
            return run._replace(populations=run.populations * (1.0 + 1e-9))

        monkeypatch.setattr(strobo, "evolve_strobo", off_by_1e9)
        with pytest.raises(NumericalInvariantError, match="P_e \\+ P_g"):
            run_sequence(rho, params, 4)


class TestTruncation:
    """The feedback atom lifts an even top level out of the basis."""

    @pytest.fixture
    def topped(self):
        dim = FockDim(30)  # size 31: the top level is even
        return DensityMatrix(np.diag(np.r_[0.5, np.zeros(29), 0.5]).astype(complex), dim)

    def test_feedback_on_even_top_level_raises(self, topped):
        params = StroboParams(0.5, 0.7, 0.05)
        with pytest.raises(TruncationError):
            dense_step(topped.elements, params)
        with pytest.raises(TruncationError):
            one_period(topped, params)
        with pytest.raises(TruncationError):
            run_sequence(topped, params, 3)

    def test_without_feedback_nothing_raises(self, topped):
        params = StroboParams(0.0, 0.7, 0.05)
        oracle = dense_step(topped.elements, params)
        assert np.max(np.abs(one_period(topped, params).elements - oracle)) <= 1e-12
        run_sequence(topped, params, 3)

    def test_odd_top_level_is_never_lifted(self, dim31):
        rho = DensityMatrix(np.diag(np.r_[0.5, np.zeros(30), 0.5]).astype(complex), dim31)
        params = StroboParams(0.5, 0.7, 0.05)
        oracle = dense_step(rho.elements, params)
        assert np.max(np.abs(one_period(rho, params).elements - oracle)) <= 1e-12
