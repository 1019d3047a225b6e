"""Truncated Fock-space states, density matrices and scalar diagnostics.

Everything downstream (feedback evolution, Wigner transforms, stroboscopic
maps) works on the types defined here.  All types are immutable after
construction and every constructor validates its invariants, so a state that
exists is a state that is safe to use.  Density-matrix invariants have one
validator, `check_density`, which checks a whole stack of matrices in one pass.
`DensityMatrix` runs it on its input, where a violation is a ValueError.  Every
map hands its output to one checked constructor, `DensityMatrix.from_map`,
where a violation is a fault of the map and a NumericalInvariantError.  The
stack is split into its residue blocks once, and Hermiticity, the positivity
certificate (a Cholesky factorisation) and, only when the certificate fails,
the spectrum are all taken on those blocks, so that a violation is still
reported with its exact smallest eigenvalue.  The truncated basis has one
check too: `check_top_level` is the top-level population check of every map.
"""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, NumericalInvariantError, TruncationError, check_complex, check_number

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_FLOOR = -1e-10
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TAIL_TOL = 1e-10
# the memory of one chunk: strobo states and padded band entries, crossing step matrices
_CHUNK_BYTES = 2**20


@dataclass(frozen=True)
class FockDim:
    """Photon-number cutoff: basis {|0>, ..., |n_max>}, dimension n_max + 1."""

    n_max: int

    def __post_init__(self):
        check_number("n_max", self.n_max, 1, integer=True)

    @property
    def size(self) -> int:
        return self.n_max + 1


class CatParity(enum.Enum):
    """Photon-number parity of a cat state."""

    EVEN = +1
    ODD = -1

    @property
    def sign(self) -> int:
        return self.value


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state of one cavity mode over the truncated basis."""

    amplitudes: np.ndarray
    dim: FockDim

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim.size,):
            raise ValueError(f"expected {self.dim.size} amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= _NORM_TOL:  # negated, so that NaN fails too
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))


class DensityMargins(NamedTuple):
    """Worst case over a stack of matrices of each density-matrix invariant."""

    hermiticity: float  # largest |rho - rho^dagger| element
    trace_drift: float  # largest |Tr rho - 1|
    # smallest eigenvalue of the Hermitian part where the spectrum was taken;
    # None where the Cholesky certificate proved it >= -1e-10 without taking it
    min_eigenvalue: float | None


def _band_period(stack: np.ndarray) -> int:
    """Largest g with every nonzero element (i, j) of the stack at i = j mod g.

    Such matrices are block diagonal over the residue classes n mod g.  A
    stack that is diagonal throughout gives its dimension.
    """
    if stack.diagonal(1, 1, 2).any() or stack.diagonal(-1, 1, 2).any():
        return 1  # the common dense case, without scanning every element
    rows, cols = np.nonzero(np.any(stack, axis=0))
    return int(np.gcd.reduce(np.abs(rows - cols), initial=0)) or stack.shape[-1]


def _residue_blocks(stack: np.ndarray) -> list:
    """Views of the residue blocks of a (T, n, n) stack, each (T, m, m).

    For a stack of several matrices the blocks are the residue classes of the
    band period (every cat state has period 2): every element outside them is
    exactly zero, they hold the same spectrum as the whole matrices, and a
    factorisation or diagonalisation of them costs about the period squared
    less.  A lone matrix is one block: split, `check_density` of one matrix took
    100 against 62 us for an odd cat of 64 levels, 70 against 34 us at 32 and 92
    against 60 us for (|2> + sqrt(2)|4>)/sqrt(3) at 64; coherent states were equal
    within 3 us (in-process, best of 5 x 2,000, two passes, 2-vCPU AVX-512 host).
    A stack whose imaginary part is exactly zero, as for any state with real
    weights, gives real blocks, which go to LAPACK's real routines.
    """
    stack = stack if stack.imag.any() else stack.real
    g = _band_period(stack) if len(stack) > 1 else 1
    return [stack[:, r::g, r::g] for r in range(g)]


def _hermitian_part(b: np.ndarray) -> np.ndarray:
    h = b + b.conj().swapaxes(1, 2)
    h *= 0.5  # in place: a second temporary of the block's size took longer than the sum
    return h


def _hermiticity(blocks: list) -> float:
    """Largest |b - b^dagger| element of the blocks; np.maximum, unlike max, passes a NaN on to it."""
    margins = []
    for b in blocks:
        # runs of whole matrices of about a quarter MiB: whole-block temporaries of a dense
        # complex curve (81 states of 64 levels) fell out of cache and took twice as long
        k = max(1, (1 << 18) // (b.itemsize * b.shape[-1] ** 2))
        margins += (abs(b[i:i + k] - b[i:i + k].conj().swapaxes(1, 2)).max() for i in range(0, len(b), k))
    return float(reduce(np.maximum, margins))


def _lowest_eigenvalue(blocks: list) -> float:
    return float(reduce(np.minimum, (np.linalg.eigvalsh(_hermitian_part(b)).min() for b in blocks)))


def _certified(blocks: list) -> bool:
    """Whether a Cholesky factorisation proves every Hermitian-part eigenvalue of the blocks >= -1e-10.

    Each block's Hermitian part H is shifted to H' = H + (1e-10 - delta) I and
    factorised.  A factorisation R that completes satisfies R*R = H' + E with
    |E| <= gamma_{m+1} |R*| |R| for blocks of m levels (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Theorem 10.3), so
    ||E||_2 <= gamma_{m+1} tr(R*R) <= gamma_{m+1} sum|h'_ii| / (1 - gamma_{m+1}),
    and every eigenvalue of H' is at least -||E||_2.  delta = 2 (m + 2) u
    max(1, sum|h_ii|), about 3e-14 for a density matrix of 128 levels, bounds
    ||E||_2 with room for complex arithmetic and the rounding of the shift, so
    a pass proves the floor outright, not only up to round-off.  A failure
    proves nothing: the caller then takes the spectrum.
    """
    for b in blocks:
        h = _hermitian_part(b)
        m = h.shape[-1]
        weight = float(abs(h.diagonal(axis1=1, axis2=2)).sum(axis=1).max())
        delta = 2 * (m + 2) * _UNIT_ROUNDOFF * max(1.0, weight)
        i = np.arange(m)
        h[:, i, i] += -_EIG_FLOOR - delta
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return False
    return True


def check_density(stack, error=ValueError) -> DensityMargins:
    """Raise `error` unless every matrix of the (T, n, n) stack is a density matrix.

    Tolerances: Hermiticity 1e-12, trace 1e-10, smallest eigenvalue >= -1e-10.
    Input validation keeps ValueError; a map checking its own output passes
    NumericalInvariantError.  The stack is split into its residue blocks once
    (`_residue_blocks`), and Hermiticity, the certificate and the spectrum are
    all taken on those blocks; every element outside them is exactly zero, so
    the Hermiticity margin is that of the whole matrices.  Hermiticity and
    trace are checked before positivity, so a NaN or inf element raises
    `error` as a Hermiticity failure and never reaches LAPACK.

    Positivity is certified by one batched Cholesky factorisation per block
    (`_certified`), and the margin then reports no smallest eigenvalue (None):
    none was computed.  Only where the certificate fails is the spectrum taken,
    so a violation raises with its exact smallest eigenvalue, and a stack
    within round-off of the floor that still passes reports that eigenvalue.
    """
    stack = np.asarray(stack)
    blocks = _residue_blocks(stack)
    # inf - inf is a NaN and fails the check, so numpy need not warn about it
    with np.errstate(invalid="ignore"):
        herm = _hermiticity(blocks)
        drift = float(abs(stack.trace(axis1=1, axis2=2) - 1.0).max())
    # negated comparisons, so that a NaN margin fails instead of passing
    if not herm <= _HERM_TOL:
        raise error(f"matrix is not Hermitian: max deviation {herm:.3e}")
    if not drift <= _TRACE_TOL:
        raise error(f"trace deviates from 1 by {drift:.3e}, beyond {_TRACE_TOL}")
    if _certified(blocks):
        return DensityMargins(herm, drift, None)
    lo = _lowest_eigenvalue(blocks)
    if not lo >= _EIG_FLOOR:
        raise error(f"smallest eigenvalue {lo:.3e} below positivity floor {_EIG_FLOOR}")
    return DensityMargins(herm, drift, lo)


def check_top_level(stack, tol: float, why: str):
    """TruncationError where a state of the (..., n, n) stack holds more than tol on its top level.

    The one truncation check of every map, each with its own tolerance and
    reason `why`.  A NaN population passes here; `check_density` rejects it.
    """
    top = float(np.max(np.real(stack[..., -1, -1])))
    if top > tol:
        raise TruncationError(f"population {top:.3e} on the top Fock level {why}; enlarge the basis")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive (to round-off) mode state."""

    elements: np.ndarray
    dim: FockDim

    def __post_init__(self):
        mat = np.asarray(self.elements, dtype=complex)
        n = self.dim.size
        if mat.shape != (n, n):
            raise ValueError(f"expected {n}x{n} matrix, got shape {mat.shape}")
        check_density(mat[None])
        object.__setattr__(self, "elements", _freeze(mat))

    @classmethod
    def from_map(cls, stack: np.ndarray, dim: FockDim) -> "DensityMatrix":
        """The last state of a (T, n, n) stack a map produced, every state checked in one pass.

        A violated invariant here is a fault of the map, not of its input, so
        it raises NumericalInvariantError.  The state owns a copy of its
        matrix: a read-only view would still change with the stack it shows.
        """
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[1:] != (dim.size, dim.size):
            raise ValueError(
                f"expected a stack of {dim.size}x{dim.size} matrices, got shape {stack.shape}"
            )
        check_density(stack, NumericalInvariantError)
        state = object.__new__(cls)
        object.__setattr__(state, "elements", _freeze(stack[-1].copy()))
        object.__setattr__(state, "dim", dim)
        return state

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amps = state.amplitudes
        return cls(np.outer(amps, amps.conj()), state.dim)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.elements)).copy()

    def mean_photon_number(self) -> float:
        n = np.arange(self.dim.size)
        return float(np.sum(n * self.populations()))

    def digest(self) -> str:
        """Deterministic short fingerprint of the matrix contents."""
        return hashlib.sha256(self.elements.tobytes()).hexdigest()[:16]


def coherent_state(alpha: complex, dim: FockDim) -> StateVector:
    """Coherent state |alpha>, renormalised over the truncated basis.

    Raises TruncationError when the untruncated Poisson weight beyond n_max
    exceeds 1e-10; requires |alpha|^2 <= n_max / 4 so the basis comfortably
    covers the photon-number distribution.  A larger |alpha|^2 raises
    ValueError (CLI exit 2, a config error): the caller chose a basis too small
    for the requested state, and "enlarge the basis" is the fix.
    """
    alpha = check_complex("alpha", alpha)
    a2 = abs(alpha) ** 2
    if a2 > dim.n_max / 4.0:
        raise ValueError(
            f"|alpha|^2 = {a2:.4g} exceeds n_max/4 = {dim.n_max / 4.0:.4g}; enlarge the basis"
        )
    n = np.arange(dim.size)
    if alpha == 0:
        amps = np.zeros(dim.size, dtype=complex)
        amps[0] = 1.0
        return StateVector(amps, dim)
    # log-space Poisson weights avoid factorial overflow
    log_w = n * np.log(a2) - gammaln(n + 1) - a2
    weights = np.exp(log_w)
    tail = 1.0 - float(np.sum(weights))
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"coherent-state tail mass {tail:.3e} beyond n_max={dim.n_max} exceeds {_TAIL_TOL}"
        )
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.sqrt(weights) * phase
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(amps, dim)


def cat_state(alpha: complex, parity: CatParity, dim: FockDim) -> StateVector:
    """Even or odd superposition of |alpha> and |-alpha>.

    The odd cat has exactly zero amplitude on every even photon number, the
    even cat on every odd one; destructive interference is enforced exactly
    rather than left to floating-point cancellation.
    """
    alpha = check_complex("alpha", alpha)
    if parity is CatParity.ODD and abs(alpha) < 1e-8:
        raise ValueError("odd cat state is undefined for alpha ~ 0")
    base = coherent_state(alpha, dim)
    amps = np.array(base.amplitudes)
    n = np.arange(dim.size)
    if parity is CatParity.EVEN:
        amps[n % 2 == 1] = 0.0
    else:
        amps[n % 2 == 0] = 0.0
    a2 = abs(alpha) ** 2
    # normalisation 2 (1 +/- exp(-2|alpha|^2)) of the untruncated superposition
    npm = 1.0 / np.sqrt(2.0 * (1.0 + parity.sign * np.exp(-2.0 * a2)))
    amps = 2.0 * npm * amps
    norm = float(np.sum(np.abs(amps) ** 2))
    amps /= np.sqrt(norm)
    return StateVector(amps, dim)


def fock_superposition(terms, dim: FockDim) -> StateVector:
    """Sparse superposition sum_k coeff_k |n_k> from (n, coeff) pairs; the terms of an index add up."""
    amps = np.zeros(dim.size, dtype=complex)
    for n, coeff in terms:
        try:
            check_number("n", n, 0, dim.n_max, integer=True)
        except ConfigError:  # the message a config's Fock term shows
            raise ValueError(f"Fock index {n} outside [0, {dim.n_max}]") from None
        amps[n] += check_complex("coeff", coeff)
    total = float(np.sum(np.abs(amps) ** 2))
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"coefficient norm {total!r} deviates from 1 beyond 1e-10")
    amps /= np.sqrt(total)
    return StateVector(amps, dim)


def parity_expectation(rho: DensityMatrix) -> float:
    """Mean photon-number parity sum_n (-1)^n rho_nn, in [-1, 1]."""
    n = np.arange(rho.dim.size)
    return float(np.real(np.sum((-1.0) ** n * np.diag(rho.elements))))


def fidelity(rho0: DensityMatrix, rho_t: DensityMatrix) -> float:
    """Overlap Tr{rho0 rho_t} = sum_nm conj(rho0_nm) rho_t_nm."""
    if rho0.dim != rho_t.dim:
        raise ValueError(f"dims differ: {rho0.dim} vs {rho_t.dim}")
    val = complex(np.vdot(rho0.elements, rho_t.elements))
    return float(val.real)


def trace_distance(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Trace distance (1/2) sum |eigenvalues of rho_a - rho_b|."""
    if rho_a.dim != rho_b.dim:
        raise ValueError(f"dims differ: {rho_a.dim} vs {rho_b.dim}")
    diff = rho_a.elements - rho_b.elements
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
