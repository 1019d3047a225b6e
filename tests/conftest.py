import numpy as np
import pytest

from cavityfeedback import DensityMatrix, FockDim, NumericalInvariantError, StroboParams
from cavityfeedback._blas import Pool
from cavityfeedback.errors import check_number
from cavityfeedback.fock import _lowest_eigenvalue, _residue_blocks
from cavityfeedback.strobo import _step_matrices


def random_density(n_max: int, support: int, seed: int) -> DensityMatrix:
    """Random full-rank state on the lowest `support` levels of an n_max basis.

    Keeping the top levels empty respects the truncation preconditions of the
    evolution maps.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    sub = a @ a.conj().T
    sub /= np.trace(sub).real
    mat = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    mat[:support, :support] = sub
    return DensityMatrix(mat, FockDim(n_max))


def random_parity_density(n_max: int, support: int, seed: int) -> DensityMatrix:
    """Random state with no coherence between the parity sectors."""
    rho = random_density(n_max, support, seed)
    n = np.arange(n_max + 1)
    same = ((n[:, None] + n[None, :]) % 2 == 0)
    mat = np.where(same, rho.elements, 0.0)
    mat /= np.trace(mat).real
    return DensityMatrix(mat, FockDim(n_max))


def stationary_state(params: StroboParams, dim: FockDim) -> DensityMatrix:
    """Fixed point of the stroboscopic map for gamma_T > 0, from the diagonal band matrix.

    The numerical oracle of `analytic_stationary_state`.  A fixed point that
    fails the density-matrix invariants raises NumericalInvariantError.
    """
    check_number("gamma_T", params.gamma_T, 0, lo_open=True)
    vals, vecs = np.linalg.eig(_step_matrices(params, dim)[0].real)
    at_one = np.abs(vals - 1.0) < 1e-10
    count = int(np.sum(at_one))
    if count > 1:
        raise NumericalInvariantError(f"{count} eigenvalues within 1e-10 of 1")
    if count == 0:
        raise NumericalInvariantError("no eigenvalue of the step matrix lies at 1")
    vec = np.real(vecs[:, int(np.argmax(at_one))])
    vec = vec / np.sum(vec)
    return DensityMatrix.from_map(np.diag(vec.astype(complex))[None], dim)


def min_eigenvalue(stack) -> float:
    """Smallest Hermitian-part eigenvalue of a (T, n, n) stack, on its residue blocks as `check_density` takes it."""
    return _lowest_eigenvalue(_residue_blocks(np.asarray(stack)))


def mean_amplitude(rho: DensityMatrix) -> complex:
    """Mean field amplitude <a> = sum_n sqrt(n+1) rho_{n+1,n}.

    The oracle of `mean_amplitude_ideal` and of the coherent and cat amplitudes.
    """
    n = np.arange(rho.dim.size - 1)
    sub = np.diagonal(rho.elements, offset=-1)
    return complex(np.sum(np.sqrt(n + 1.0) * sub))


def fake_pool(count: int, events: list) -> Pool:
    """A stand-in OpenBLAS pool at `count` threads that logs every count it is set to."""
    counts = [count]

    def set_count(n):
        events.append(n)
        counts[0] = n

    return Pool(lambda: counts[0], set_count)


@pytest.fixture
def dim63() -> FockDim:
    return FockDim(63)


@pytest.fixture
def dim31() -> FockDim:
    return FockDim(31)
