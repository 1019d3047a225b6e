import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavityfeedback import (
    CatParity,
    ContinuousParams,
    DensityMatrix,
    FockDim,
    NumericalInvariantError,
    StateVector,
    StroboParams,
    TruncationError,
    cat_state,
    coherent_state,
    evolve_continuous,
    evolve_strobo,
    fidelity,
    fidelity_curve,
    fock_superposition,
    integrate_crossing,
    parity_expectation,
    standard_pulses,
    trace_distance,
)
from cavityfeedback import continuous
from cavityfeedback.fock import _EIG_FLOOR, _band_period, _residue_blocks, check_density, check_top_level
from conftest import mean_amplitude, min_eigenvalue, random_density

_BAD_MATRICES = {
    "hermiticity": np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex),
    "trace": np.diag([0.6, 0.6]).astype(complex),
    "positivity": np.diag([1.5, -0.5]).astype(complex),
    "not a number": np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex),
}


class TestCoherentState:
    def test_vacuum(self, dim63):
        st = coherent_state(0.0, dim63)
        assert st.amplitudes[0] == 1.0
        assert np.all(st.amplitudes[1:] == 0.0)

    def test_mean_photon_number_by_direct_summation(self, dim63):
        st = coherent_state(np.sqrt(5.0), dim63)
        direct = sum(n * abs(c) ** 2 for n, c in enumerate(st.amplitudes))
        assert abs(direct - 5.0) < 1e-8
        assert abs(DensityMatrix.from_state(st).mean_photon_number() - 5.0) < 1e-8

    def test_norm(self, dim63):
        st = coherent_state(np.sqrt(3.3), dim63)
        assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) < 1e-12

    def test_truncation_error_on_fat_tail(self):
        # |alpha|^2 = 4 passes the n_max/4 precondition at n_max = 16 but
        # leaves ~1e-7 of Poisson weight beyond the cutoff
        with pytest.raises(TruncationError):
            coherent_state(2.0, FockDim(16))

    def test_precondition_rejects_large_amplitude(self, dim63):
        with pytest.raises(ValueError):
            coherent_state(np.sqrt(20.0), dim63)

    def test_complex_amplitude_phases(self, dim63):
        alpha = 1.0 + 1.5j
        st = coherent_state(alpha, dim63)
        rho = DensityMatrix.from_state(st)
        assert abs(mean_amplitude(rho) - alpha) < 1e-8


class TestCatState:
    def test_odd_cat_even_amplitudes_vanish(self, dim63):
        st = cat_state(np.sqrt(5.0), CatParity.ODD, dim63)
        assert np.all(st.amplitudes[::2] == 0.0)

    def test_odd_cat_parity(self, dim63):
        rho = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        assert abs(parity_expectation(rho) + 1.0) < 1e-12

    def test_even_cat_mean_photon_number(self, dim63):
        a2 = 3.3
        st = cat_state(np.sqrt(a2), CatParity.EVEN, dim63)
        direct = sum(n * abs(c) ** 2 for n, c in enumerate(st.amplitudes))
        assert abs(direct - a2 * np.tanh(a2)) < 1e-10
        assert abs(DensityMatrix.from_state(st).mean_photon_number() - direct) < 1e-12

    @pytest.mark.parametrize("a2", [0.5, 3.3, 5.0, 10.0])
    @pytest.mark.parametrize("parity", [CatParity.EVEN, CatParity.ODD])
    def test_closed_form_normalisation(self, a2, parity, dim63):
        # rebuild the amplitudes from the closed-form prefactor and check the
        # truncated norm directly
        alpha = np.sqrt(a2)
        base = coherent_state(alpha, dim63).amplitudes
        n = np.arange(dim63.size)
        keep = (n % 2 == 0) if parity is CatParity.EVEN else (n % 2 == 1)
        npm = 1.0 / np.sqrt(2.0 * (1.0 + parity.sign * np.exp(-2.0 * a2)))
        amps = np.where(keep, 2.0 * npm * base, 0.0)
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12

    def test_degenerate_odd_cat_rejected(self, dim63):
        with pytest.raises(ValueError, match="odd cat state is undefined"):
            cat_state(1e-9, CatParity.ODD, dim63)


class TestFockSuperposition:
    def test_two_level_state(self, dim63):
        st = fock_superposition([(2, 1 / np.sqrt(3)), (4, np.sqrt(2.0 / 3.0))], dim63)
        assert abs(DensityMatrix.from_state(st).mean_photon_number() - 10.0 / 3.0) < 1e-12

    def test_vacuum(self, dim63):
        st = fock_superposition([(0, 1.0)], dim63)
        assert st.amplitudes[0] == 1.0

    def test_complex_coefficients(self, dim63):
        st = fock_superposition([(1, 1 / np.sqrt(2)), (3, 1j / np.sqrt(2))], dim63)
        assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) < 1e-12
        assert abs(DensityMatrix.from_state(st).mean_photon_number() - 2.0) < 1e-12

    @pytest.mark.parametrize("n", [5, -1])
    def test_index_outside_the_basis(self, n):
        with pytest.raises(ValueError, match=rf"Fock index {n} outside \[0, 4\]"):
            fock_superposition([(n, 1.0)], FockDim(4))

    @pytest.mark.parametrize("n", [1.5, True, np.float64(2.0)])
    def test_a_non_integer_index_is_outside_the_basis(self, n):
        # 1.5 once reached numpy's indexing and raised its IndexError
        with pytest.raises(ValueError, match=rf"Fock index {n} outside \[0, 4\]"):
            fock_superposition([(n, 1.0)], FockDim(4))

    def test_unnormalised_coefficients_rejected(self, dim63):
        with pytest.raises(ValueError):
            fock_superposition([(0, 0.5), (1, 0.5)], dim63)

    def test_a_repeated_index_is_normed_as_the_sum_it_builds(self):
        # the terms add up to sqrt(2) |0>, whose norm is 2, not 1
        with pytest.raises(ValueError, match="coefficient norm 2.0000000000000004 deviates from 1"):
            fock_superposition([(0, 2**-0.5), (0, 2**-0.5)], FockDim(3))
        # and these add up to exactly |0>
        st = fock_superposition([(0, 0.5), (0, 0.5)], FockDim(3))
        assert st.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestParityExpectation:
    def test_vacuum(self, dim63):
        rho = DensityMatrix.from_state(fock_superposition([(0, 1.0)], dim63))
        assert parity_expectation(rho) == 1.0

    def test_equal_mixture(self):
        dim = FockDim(3)
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert abs(parity_expectation(DensityMatrix(mat, dim))) < 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projector_identity(self, seed):
        rho = random_density(31, 28, seed)
        n = np.arange(32)
        p_even = np.sum(np.real(np.diag(rho.elements))[n % 2 == 0])
        p_odd = np.sum(np.real(np.diag(rho.elements))[n % 2 == 1])
        assert abs(parity_expectation(rho) - (p_even - p_odd)) < 1e-14


class TestFidelity:
    def test_pure_self_fidelity(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(1.5, dim63))
        assert abs(fidelity(rho, rho) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        dim = FockDim(3)
        r0 = DensityMatrix.from_state(fock_superposition([(0, 1.0)], dim))
        r1 = DensityMatrix.from_state(fock_superposition([(1, 1.0)], dim))
        assert fidelity(r0, r1) == 0.0

    def test_odd_cat_vs_vacuum(self, dim63):
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        vac = DensityMatrix.from_state(fock_superposition([(0, 1.0)], dim63))
        assert abs(fidelity(cat, vac)) < 1e-15

    @pytest.mark.parametrize("seed", [3, 4])
    def test_symmetry(self, seed):
        a = random_density(15, 12, seed)
        b = random_density(15, 12, seed + 50)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12

    def test_dim_mismatch(self):
        a = DensityMatrix.from_state(fock_superposition([(0, 1.0)], FockDim(3)))
        b = DensityMatrix.from_state(fock_superposition([(0, 1.0)], FockDim(4)))
        with pytest.raises(ValueError, match="dims differ"):
            fidelity(a, b)
        with pytest.raises(ValueError, match="dims differ"):
            trace_distance(a, b)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_real_within_tolerance(self, seed):
        a = random_density(15, 12, seed)
        b = random_density(15, 12, seed + 100)
        raw = complex(np.vdot(a.elements, b.elements))
        assert abs(raw.imag) < 1e-12


class TestMeanAmplitude:
    def test_coherent_eigenvalue(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim63))
        assert abs(mean_amplitude(rho) - np.sqrt(3.3)) < 1e-8

    @pytest.mark.parametrize("parity", [CatParity.EVEN, CatParity.ODD])
    def test_cat_amplitude_cancels(self, parity, dim63):
        rho = DensityMatrix.from_state(cat_state(np.sqrt(5.0), parity, dim63))
        assert abs(mean_amplitude(rho)) < 1e-14

    def test_number_state(self):
        dim = FockDim(3)
        rho = DensityMatrix.from_state(fock_superposition([(1, 1.0)], dim))
        assert mean_amplitude(rho) == 0.0


class TestInvariantEnforcement:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.5]), FockDim(1))

    def test_hermiticity_enforced(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat, FockDim(1))

    def test_trace_enforced(self):
        mat = np.diag([0.6, 0.6]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat, FockDim(1))

    def test_positivity_enforced(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat, FockDim(1))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: StateVector(np.ones(3) / np.sqrt(3.0), FockDim(1)), r"expected 2 amplitudes, got shape \(3,\)"),
            (lambda: DensityMatrix(np.eye(3) / 3.0, FockDim(1)), r"expected 2x2 matrix, got shape \(3, 3\)"),
            (
                lambda: DensityMatrix.from_map(np.eye(2) / 2.0, FockDim(1)),
                r"expected a stack of 2x2 matrices, got shape \(2, 2\)",
            ),
            (
                lambda: DensityMatrix.from_map(np.eye(3)[None] / 3.0, FockDim(1)),
                r"expected a stack of 2x2 matrices, got shape \(1, 3, 3\)",
            ),
        ],
        ids=["StateVector", "DensityMatrix", "from_map-2d", "from_map-dim"],
    )
    def test_a_wrongly_shaped_input_is_a_value_error(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("broken", sorted(_BAD_MATRICES))
    def test_map_output_failures_are_numerical(self, broken):
        # the same violation is bad input to the constructor but a numerical
        # fault when a map produced it, at any position in the stack
        good = np.diag([0.5, 0.5]).astype(complex)
        stack = np.array([good, good, _BAD_MATRICES[broken]])
        with pytest.raises(NumericalInvariantError):
            DensityMatrix.from_map(stack, FockDim(1))
        with pytest.raises(ValueError):
            DensityMatrix(_BAD_MATRICES[broken], FockDim(1))

    @pytest.mark.parametrize(
        "where, value",
        [((3, 3), np.nan), ((2, 5), np.nan), ((4, 4), np.inf), ((1, 6), np.inf), ((0, 7), complex(0.0, np.inf))],
    )
    @pytest.mark.parametrize("error", [NumericalInvariantError, ValueError])
    def test_non_finite_elements_raise_the_given_error(self, where, value, error):
        # the spectrum of a non-finite matrix is never computed: the Hermiticity
        # margin is already NaN or inf, so no LinAlgError can stand in for `error`
        mat = random_density(15, 12, 4).elements.copy()
        i, j = where
        mat[i, j] = value
        mat[j, i] = np.conj(value)
        stack = np.array([random_density(15, 12, 5).elements, mat])
        with pytest.raises(error, match="not Hermitian") as info:
            check_density(stack, error)
        assert type(info.value) is error

    def test_map_output_states(self):
        # every state of the stack is checked, and the last one is kept
        stack = np.array([random_density(7, 6, seed).elements for seed in range(3)])
        state = DensityMatrix.from_map(stack, FockDim(7))
        assert state.digest() == DensityMatrix(stack[-1], FockDim(7)).digest()
        assert not np.shares_memory(state.elements, stack)
        with pytest.raises(ValueError):
            state.elements[0, 0] = 2.0

    def test_immutability(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(1.0, dim63))
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 2.0

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            FockDim(0)


class TestDensityMargins:
    @pytest.mark.parametrize(
        "terms, period",
        [
            ([(0, 1.0)], 64),  # diagonal: one 1x1 block per level
            ([(0, np.sqrt(0.5)), (3, np.sqrt(0.5))], 3),
            ([(1, np.sqrt(0.5)), (7, np.sqrt(0.5))], 6),
            ([(1, np.sqrt(0.5)), (2, np.sqrt(0.5))], 1),
        ],
    )
    def test_band_period(self, terms, period, dim63):
        rho = DensityMatrix.from_state(fock_superposition(terms, dim63))
        assert _band_period(rho.elements[None]) == period

    def test_a_dense_stack_of_several_matrices_is_one_block(self, dim63):
        stack = np.array([DensityMatrix.from_state(coherent_state(a, dim63)).elements for a in (1.0, 1.5j, 2.0)])
        assert _band_period(stack) == 1
        assert [run.shape for run in _residue_blocks(stack)] == [(3, 64, 64)]

    @pytest.mark.parametrize("parity", [CatParity.EVEN, CatParity.ODD])
    def test_cat_blocks_give_the_full_spectrum(self, parity, dim63):
        rho = DensityMatrix.from_state(cat_state(np.sqrt(5.0), parity, dim63))
        mixed = 0.7 * rho.elements + 0.3 * np.diag(np.full(64, 1.0 / 64))
        stack = np.array([rho.elements, mixed])
        assert _band_period(stack) == 2
        margins = check_density(stack)
        full = min(np.min(np.linalg.eigvalsh(m)) for m in stack)
        assert abs(min_eigenvalue(stack) - full) <= 1e-15
        assert margins.hermiticity == 0.0
        assert margins.trace_drift <= 1e-15


def complex_min_eigenvalue(stack) -> float:
    """Smallest eigenvalue of the Hermitian parts, each matrix diagonalised whole in complex arithmetic."""
    stack = np.asarray(stack, dtype=complex)
    return float(min(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() for m in stack))


@st.composite
def density_stacks(draw):
    """Complex (T, n, n) stacks of unit-trace Hermitian matrices, real or not, banded or not.

    A shift of weight from level 0 to level 1 keeps the trace and may push the
    smallest eigenvalue below the positivity floor.
    """
    count, size = draw(st.integers(1, 4)), draw(st.integers(2, 10))
    parts = hnp.arrays(np.float64, (count, size, size), elements=st.floats(-1.0, 1.0))
    a = draw(parts) + (0.0 if draw(st.booleans()) else 1j * draw(parts))
    n = np.arange(size)
    a = np.where((n[:, None] - n[None, :]) % draw(st.sampled_from([1, 2, 3])) == 0, a, 0.0)
    h = a @ a.conj().swapaxes(1, 2) + 1e-3 * np.eye(size)
    h = h / h.trace(axis1=1, axis2=2)[:, None, None]
    shift = draw(st.sampled_from([0.0, 1e-11, 1e-9, 0.3]))
    h[:, 0, 0] -= shift
    h[:, 1, 1] += shift
    return h.astype(complex)


class TestRealPath:
    """A stack with no imaginary part is factorised and diagonalised in real arithmetic, and only then."""

    def test_a_positive_real_part_does_not_hide_a_negative_eigenvalue(self):
        # the real part is 0.5 times the identity; the eigenvalues are 0.5 +- 0.6
        mat = np.array([[0.5, 0.6j], [-0.6j, 0.5]])
        with pytest.raises(ValueError, match="smallest eigenvalue -1.000e-01"):
            DensityMatrix(mat, FockDim(1))
        with pytest.raises(NumericalInvariantError, match="smallest eigenvalue -1.000e-01"):
            DensityMatrix.from_map(np.array([np.eye(2) / 2.0, mat]), FockDim(1))

    @pytest.mark.parametrize(
        "state, dtype",
        [
            (lambda dim: cat_state(np.sqrt(5.0), CatParity.ODD, dim), np.float64),
            (lambda dim: coherent_state(np.sqrt(5.0), dim), np.float64),
            (lambda dim: coherent_state(np.sqrt(5.0) * np.exp(0.3j), dim), np.complex128),
        ],
    )
    def test_the_solver_sees_real_matrices_only_for_real_states(self, state, dtype, dim63, monkeypatch):
        seen = []

        def spy(name):
            solver = getattr(np.linalg, name)
            return lambda a: seen.append((name, a.dtype)) or solver(a)

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        rho = DensityMatrix.from_state(state(dim63))
        assert seen == [("cholesky", dtype)]
        # pull every eigenvalue but the state's own down to -1e-9, trace kept
        eps = 1e-9
        broken = (1.0 + 64 * eps) * rho.elements - eps * np.eye(64)
        seen.clear()
        with pytest.raises(NumericalInvariantError, match="smallest eigenvalue -1.000e-09"):
            DensityMatrix.from_map(broken[None], dim63)
        assert seen == [("cholesky", dtype), ("eigvalsh", dtype)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stack=density_stacks())
    def test_the_verdict_is_the_complex_solvers(self, stack):
        # a pass is certified without the spectrum; a failure carries the
        # exact smallest eigenvalue
        lo = complex_min_eigenvalue(stack)
        assume(abs(lo - _EIG_FLOOR) > 1e-13)  # a verdict the last digits cannot flip
        try:
            margins = check_density(stack)
        except ValueError as exc:
            assert lo < _EIG_FLOOR
            assert str(exc) == f"smallest eigenvalue {min_eigenvalue(stack):.3e} below positivity floor {_EIG_FLOOR}"
        else:
            assert lo >= _EIG_FLOOR and margins.min_eigenvalue is None
        assert abs(min_eigenvalue(stack) - lo) <= 1e-14


def rotated(spectrum, seed, complex_weights=True) -> np.ndarray:
    """Hermitian matrix U diag(spectrum) U^dagger, for a random unitary U."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_weights else 0.0))
    mat = (u * spectrum) @ u.conj().T
    return (mat + mat.conj().T) / 2.0


class TestCertificate:
    """Positivity is certified by Cholesky; the spectrum is taken only when that fails."""

    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    @pytest.mark.parametrize("complex_weights", [False, True])
    @pytest.mark.parametrize("size", [8, 64])
    def test_a_state_next_to_the_floor_gets_the_exact_verdict(self, size, complex_weights, offset):
        # the stacks drawn above never come near the floor: put the smallest
        # eigenvalue 1e-12 either side of it
        spectrum = np.full(size, (1.0 - _EIG_FLOOR - offset) / (size - 1))
        spectrum[0] = _EIG_FLOOR + offset
        stack = np.array([rotated(spectrum, size, complex_weights)], dtype=complex)
        if offset < 0:
            exact = min_eigenvalue(stack)
            with pytest.raises(ValueError) as info:
                check_density(stack)
            assert str(info.value) == f"smallest eigenvalue {exact:.3e} below positivity floor {_EIG_FLOOR}"
        else:
            assert check_density(stack).min_eigenvalue is None

    def test_passing_states_take_no_spectrum(self, dim31, dim63, monkeypatch):
        calls = []
        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(a):
            calls.append(a.shape)
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rho63 = DensityMatrix.from_state(coherent_state(np.sqrt(5.0) * np.exp(0.3j), dim63))
        rho31 = DensityMatrix.from_state(cat_state(np.sqrt(3.3), CatParity.ODD, dim31))
        fidelity_curve(rho63, ContinuousParams(1.0, 0.5), np.linspace(0.0, 2.0, 81))
        evolve_strobo(rho31, StroboParams(0.6, 0.9, 0.05), 100)
        assert calls == []

    def test_a_failed_certificate_raises_the_exact_eigenvalue(self):
        stack = np.array([np.diag([0.5, 0.3, 0.2]), rotated([0.6 + 1e-9, 0.4, -1e-9], 7)])
        with pytest.raises(NumericalInvariantError, match="smallest eigenvalue -1.000e-09"):
            DensityMatrix.from_map(stack, FockDim(2))


def per_matrix_hermiticity(stack) -> float:
    """Largest |rho - rho^dagger| element, one whole matrix at a time: the oracle of the blocked margin."""
    with np.errstate(invalid="ignore"):
        return float(reduce(np.maximum, (abs(m - m.conj().T).max() for m in np.asarray(stack))))


def banded_stack(count, period, complex_weights, seed, levels=12) -> np.ndarray:
    """(count, levels, levels) density matrices of band period `period`, each off Hermitian by up to 1e-13."""
    rng = np.random.default_rng(seed)
    n = np.arange(levels)
    keep = (n[:, None] - n[None, :]) % period == 0
    mats = []
    for k in range(count):
        rho = random_density(levels - 1, levels, seed + k).elements
        rho = np.where(keep, rho if complex_weights else rho.real, 0.0)  # pinching keeps it a state
        noise = rng.uniform(-1e-13, 1e-13, (levels, levels))
        if complex_weights:
            noise = noise + 1j * rng.uniform(-1e-13, 1e-13, (levels, levels))
        mats.append(rho + noise * keep)
    return np.array(mats, dtype=complex)


class TestHermiticityMargin:
    """The margin taken over residue blocks is the per-matrix margin, bit for bit."""

    @pytest.mark.parametrize("complex_weights", [False, True])
    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_matrix_margin(self, count, period, complex_weights, seed):
        stack = banded_stack(count, period, complex_weights, seed)
        if count > 1:
            assert _band_period(stack) == period
        margin = check_density(stack).hermiticity
        assert margin > 0.0
        assert margin == per_matrix_hermiticity(stack)
        if not complex_weights:  # a real stack passed as such
            assert check_density(stack.real).hermiticity == per_matrix_hermiticity(stack.real)

    @pytest.mark.parametrize(
        "where, value",
        [((3, 3), np.nan), ((2, 4), np.nan), ((2, 5), np.inf), ((4, 4), np.inf),
         ((1, 7), -np.inf), ((0, 6), complex(0.0, np.inf)), ((5, 5), complex(0.1, np.nan))],
    )
    @pytest.mark.parametrize("complex_weights", [False, True])
    @pytest.mark.parametrize("count", [1, 5])
    def test_a_non_finite_element_raises_the_per_matrix_margin(self, where, value, complex_weights, count):
        stack = banded_stack(count, 2, complex_weights, 3)
        stack[-1][where] = value
        stack[-1][where[::-1]] = value if where[0] == where[1] else np.conj(value)
        with pytest.raises(NumericalInvariantError) as info:
            check_density(stack, NumericalInvariantError)
        assert str(info.value) == f"matrix is not Hermitian: max deviation {per_matrix_hermiticity(stack):.3e}"

    # blocks beyond a quarter MiB are taken a few whole matrices at a time, down
    # to one matrix (and one chunk for a lone matrix) above 128 complex levels
    @pytest.mark.parametrize(
        "count, levels, period, complex_weights",
        [(40, 48, 1, True), (40, 48, 2, True), (40, 48, 1, False), (40, 48, 3, False),
         (1, 200, 1, True), (1, 260, 1, False), (3, 130, 1, True), (3, 130, 2, True)],
    )
    def test_large_blocks_give_the_per_matrix_margin(self, count, levels, period, complex_weights):
        stack = banded_stack(count, period, complex_weights, 4, levels)
        if not complex_weights:
            stack = stack.real
        margin = check_density(stack).hermiticity
        assert margin > 0.0
        assert margin == per_matrix_hermiticity(stack)

    @pytest.mark.parametrize("index", [0, 20, 39])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_element_in_any_chunk_raises_the_per_matrix_margin(self, index, value):
        stack = banded_stack(40, 2, True, 5, 48)
        stack[index, 6, 2] = value
        with pytest.raises(NumericalInvariantError) as info:
            check_density(stack, NumericalInvariantError)
        assert str(info.value) == f"matrix is not Hermitian: max deviation {per_matrix_hermiticity(stack):.3e}"

    def test_states_beyond_128_levels_pass(self):
        rho = DensityMatrix.from_state(coherent_state(1 + 1j, FockDim(200)))
        assert rho.dim == FockDim(200)
        DensityMatrix.from_state(coherent_state(2.0, FockDim(260)))
        rho128 = DensityMatrix.from_state(coherent_state(np.sqrt(5.0) * np.exp(0.3j), FockDim(128)))
        assert len(fidelity_curve(rho128, ContinuousParams(1.0, 0.5), np.linspace(0.0, 2.0, 81)).fidelity) == 81


class TestOneWalk:
    """Hermiticity, the certificate and the spectrum walk one list of runs of about a quarter MiB."""

    def test_no_solver_call_gets_more_than_a_quarter_mib(self, dim63, monkeypatch):
        # the residue blocks of the default odd-cat curve's chunk, 80 real states of 32 levels, are 655 KB whole
        rho = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        stacks, seen = [], []

        def spy(solver):
            return lambda a: seen.append((solver.__name__, len(a), a.nbytes, a[0].nbytes)) or solver(a)

        def checked(stack, error=ValueError):
            stacks.append(stack)
            return check_density(stack, error)

        monkeypatch.setattr(continuous, "check_density", checked)
        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        fidelity_curve(rho, ContinuousParams(1.0, 0.5), np.linspace(0.0, 2.0, 81))
        assert [len(s) for s in stacks] == [1, 80]  # the initial state, then one chunk
        assert sum(count for _, count, _, _ in seen) == 1 + 2 * 80  # every state of both residue blocks
        assert all(nbytes <= max(matrix, 2**18) for _, _, nbytes, matrix in seen)
        # pull every eigenvalue of the last state but its own down to -1e-9, trace kept
        eps = 1e-9
        broken = stacks[-1].copy()
        broken[-1] = (1.0 + 64 * eps) * broken[-1] - eps * np.eye(64)
        seen.clear()
        with pytest.raises(ValueError, match="smallest eigenvalue -1.000e-09"):
            check_density(broken)
        assert "eigvalsh" in {name for name, _, _, _ in seen}
        assert all(nbytes <= max(matrix, 2**18) for _, _, nbytes, matrix in seen)

    @pytest.mark.parametrize("complex_weights", [False, True])
    def test_a_fault_in_the_last_run_raises_the_exact_eigenvalue(self, complex_weights):
        stack = banded_stack(40, 1, complex_weights, 6, 48)
        spectrum = np.full(48, (1.0 + 1e-9) / 47)
        spectrum[0] = -1e-9
        stack[-1] = rotated(spectrum, 8, complex_weights)
        if not complex_weights:
            stack = stack.real
        runs = _residue_blocks(stack)
        assert len(runs) > 1 and len(runs[-1]) < len(stack) and np.shares_memory(runs[-1], stack[-1])
        exact = min(np.linalg.eigvalsh(m).min() for m in (stack + stack.conj().swapaxes(1, 2)) / 2.0)
        with pytest.raises(ValueError) as info:
            check_density(stack)
        assert str(info.value) == f"smallest eigenvalue {exact:.3e} below positivity floor {_EIG_FLOOR}"
        assert min_eigenvalue(stack) == exact


def _top_filled(level: int) -> DensityMatrix:
    return DensityMatrix.from_state(fock_superposition([(level, 1.0)], FockDim(level)))


class TestTopLevelCheck:
    """Every map raises its truncation fault through one check, `fock.check_top_level`."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: evolve_continuous(_top_filled(15), ContinuousParams(1.0, 0.5), 0.1),
            lambda: evolve_strobo(_top_filled(14), StroboParams(1.0, 0.5, 0.02), 3),
            lambda: integrate_crossing(_top_filled(31), standard_pulses(10.0, 10.0, 1.0), 100),
        ],
        ids=["continuous", "strobo", "adiabatic"],
    )
    def test_each_map_raises_through_the_shared_check(self, run):
        with pytest.raises(TruncationError) as info:
            run()
        assert info.traceback[-1].name == "check_top_level"
        assert re.fullmatch(r"population 1\.000e\+00 on the top Fock level \S.*; enlarge the basis", str(info.value))

    def test_a_nan_population_hides_no_truncation(self):
        # np.max once returned the NaN, and a chunk truncated and broken at once exited 3, not 4
        stack = np.zeros((2, 3, 3))
        stack[:, -1, -1] = [np.nan, 0.5]
        with pytest.raises(TruncationError, match=r"^population 5\.000e-01 on the top Fock level in the test; "):
            check_top_level(stack, 1e-10, "in the test")

    def test_nan_populations_alone_pass(self):
        # a NaN is left to check_density, which rejects it
        stack = np.zeros((1, 3, 3))
        stack[:, -1, -1] = [np.nan]
        check_top_level(stack, 1e-10, "in the test")
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(stack)
