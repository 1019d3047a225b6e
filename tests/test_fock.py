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
    evolve_strobo,
    fidelity,
    fidelity_curve,
    fock_superposition,
    parity_expectation,
    trace_distance,
)
from cavityfeedback.fock import _EIG_FLOOR, _band_period, _min_eigenvalue, check_density
from conftest import mean_amplitude, random_density

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

    @pytest.mark.parametrize("parity", [CatParity.EVEN, CatParity.ODD])
    def test_cat_blocks_give_the_full_spectrum(self, parity, dim63):
        rho = DensityMatrix.from_state(cat_state(np.sqrt(5.0), parity, dim63))
        mixed = 0.7 * rho.elements + 0.3 * np.diag(np.full(64, 1.0 / 64))
        stack = np.array([rho.elements, mixed])
        assert _band_period(stack) == 2
        margins = check_density(stack)
        full = min(np.min(np.linalg.eigvalsh(m)) for m in stack)
        assert abs(_min_eigenvalue(stack) - full) <= 1e-15
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
            assert str(exc) == f"smallest eigenvalue {_min_eigenvalue(stack):.3e} below positivity floor {_EIG_FLOOR}"
        else:
            assert lo >= _EIG_FLOOR and margins.min_eigenvalue is None
        assert abs(_min_eigenvalue(stack) - lo) <= 1e-14


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
            exact = _min_eigenvalue(stack)
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
