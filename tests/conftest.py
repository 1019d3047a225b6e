import numpy as np
import pytest

from cavityfeedback import DensityMatrix, FockDim
from cavityfeedback._blas import Pool


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
