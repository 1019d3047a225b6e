"""Stroboscopic parity-measurement feedback for a microwave cavity.

One period of the protocol applies, in order,

1. a dispersive probe atom whose detection projects the field onto the odd
   (atom in e) or even (atom in g) photon-number subspace,
2. conditionally on the g outcome and with detector efficiency eta, a
   resonant feedback atom that deposits a photon with number-dependent
   Rabi amplitudes cos/sin(mu sqrt(n)), mu = Omega tau,
3. vacuum-bath dissipation for the inter-atom interval, gamma_T = gamma T.

Every map couples a density-matrix element only to elements with the same
off-diagonal index p, so each band evolves under its own step matrix; the
matrices for all p are assembled explicitly for spectral analysis and fast
repeated stepping.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import NonUniqueFixedPointError, NumericalInvariantError, TruncationError
from .fock import DensityMatrix, FockDim

_TOP_POPULATION_TOL = 1e-10
_SPECTRAL_TOL = 1e-10


@dataclass(frozen=True)
class StroboParams:
    """Detector efficiency eta, feedback Rabi angle mu, inter-atom interval gamma_T."""

    eta: float
    mu: float
    gamma_T: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.gamma_T < 0:
            raise ValueError(f"gamma_T must be >= 0, got {self.gamma_T}")


@dataclass(frozen=True)
class BandMatrix:
    """One-step linear map acting on the band of elements rho_{n,n+p}."""

    p: int
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("band matrix must be square")
        if mat.size:
            radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
            if radius > 1.0 + _SPECTRAL_TOL:
                raise ValueError(f"spectral radius {radius!r} exceeds 1")
        mat = np.ascontiguousarray(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


class SequenceRecord(NamedTuple):
    step: int
    p_e: float
    p_g: float
    rho_digest: str


@dataclass(frozen=True)
class SequenceTrace:
    """Probe detection probabilities recorded before each feedback period."""

    records: tuple

    def __post_init__(self):
        for rec in self.records:
            if abs(rec.p_e + rec.p_g - 1.0) > 1e-10:
                raise ValueError(f"P_e + P_g = {rec.p_e + rec.p_g!r} at step {rec.step}")


def _parity_masks(n_dim: int):
    n = np.arange(n_dim)
    odd = (n % 2 == 1).astype(float)
    even = 1.0 - odd
    return np.outer(odd, odd), np.outer(even, even)


def conditional_split(rho: DensityMatrix):
    """Project onto the odd/even subspaces and return detection probabilities.

    Returns (rho_e, rho_g, P_e, P_g) with the projections unnormalised, so
    Tr rho_e = P_e (probability of finding the probe atom in e).
    """
    arr = np.asarray(rho.elements)
    mask_odd, mask_even = _parity_masks(arr.shape[0])
    rho_e = arr * mask_odd
    rho_g = arr * mask_even
    p_e = float(np.real(np.trace(rho_e)))
    p_g = float(np.real(np.trace(rho_g)))
    return rho_e, rho_g, p_e, p_g


def _feedback_atom_elements(arr: np.ndarray, mu: float) -> np.ndarray:
    n_dim = arr.shape[0]
    top = float(np.real(arr[-1, -1]))
    if top > _TOP_POPULATION_TOL:
        raise TruncationError(
            f"population {top:.3e} on the top Fock level would be pushed out of "
            "the basis by the feedback atom; enlarge the basis"
        )
    cos_up = np.cos(mu * np.sqrt(np.arange(1, n_dim + 1)))
    sin_at = np.sin(mu * np.sqrt(np.arange(n_dim)))
    out = np.outer(cos_up, cos_up) * arr
    out[1:, 1:] += np.outer(sin_at[1:], sin_at[1:]) * arr[:-1, :-1]
    return out


def feedback_atom_map(rho: DensityMatrix, mu: float) -> DensityMatrix:
    """Resonant feedback atom acting unconditionally on the field.

    Elementwise: cos(mu sqrt(n+1)) cos(mu sqrt(m+1)) rho_{n,m} plus the
    one-photon-up shift sin(mu sqrt(n)) sin(mu sqrt(m)) rho_{n-1,m-1}.
    """
    out = _feedback_atom_elements(np.asarray(rho.elements), mu)
    return DensityMatrix.from_map(out[None], rho.dim)[0]


def _feedback_superop_elements(arr: np.ndarray, params: StroboParams) -> np.ndarray:
    mask_odd, mask_even = _parity_masks(arr.shape[0])
    rho_e = arr * mask_odd
    rho_g = arr * mask_even
    eta = params.eta
    out = eta * rho_e + (1.0 - eta) * (rho_e + rho_g)
    if eta:
        out = out + eta * _feedback_atom_elements(rho_g, params.mu)
    return out


def feedback_superop(rho: DensityMatrix, params: StroboParams) -> DensityMatrix:
    """Probe measurement plus conditional feedback, averaged over outcomes.

    With probability eta the probe atom is detected: the odd outcome leaves
    the field alone, the even outcome triggers the feedback atom.  With
    probability 1 - eta nothing is detected and no feedback acts; the parity
    measurement still removes coherences between the two parity sectors.
    """
    out = _feedback_superop_elements(np.asarray(rho.elements), params)
    return DensityMatrix.from_map(out[None], rho.dim)[0]


def _kraus_log_table(n_dim: int, gamma_T: float) -> np.ndarray:
    """Amplitudes c_{n,k} of the vacuum-bath Kraus operators, via log-gamma."""
    n = np.arange(n_dim, dtype=float)[:, None]
    k = np.arange(n_dim, dtype=float)[None, :]
    log_c = 0.5 * (
        gammaln(n + k + 1.0)
        - gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - n * gamma_T
        + k * np.log(-np.expm1(-gamma_T))
    )
    return np.exp(log_c)


def _dissipation_elements(arr: np.ndarray, gamma_T: float) -> np.ndarray:
    if gamma_T == 0.0:
        return arr.copy()
    n_dim = arr.shape[0]
    c = _kraus_log_table(n_dim, gamma_T)
    out = np.zeros_like(arr)
    for k in range(n_dim):
        m = n_dim - k
        ck = c[:m, k]
        out[:m, :m] += np.outer(ck, ck) * arr[k:, k:]
    return out


def dissipation_map(rho: DensityMatrix, gamma_T: float) -> DensityMatrix:
    """Exact vacuum-bath relaxation over a dimensionless interval gamma_T.

    The Kraus sum runs over every photon-loss number representable in the
    truncated basis, so trace is conserved exactly.
    """
    if gamma_T < 0:
        raise ValueError("gamma_T must be >= 0")
    out = _dissipation_elements(np.asarray(rho.elements), gamma_T)
    return DensityMatrix.from_map(out[None], rho.dim)[0]


def strobo_step(rho: DensityMatrix, params: StroboParams) -> DensityMatrix:
    """One full period: measurement-conditioned feedback, then dissipation."""
    arr = _feedback_superop_elements(np.asarray(rho.elements), params)
    arr = _dissipation_elements(arr, params.gamma_T)
    arr = (arr + arr.conj().T) / 2.0
    return DensityMatrix.from_map(arr[None], rho.dim)[0]


def build_band_matrix(p: int, params: StroboParams, dim: FockDim) -> BandMatrix:
    """Assemble the one-step matrix acting on the band rho_{n,n+p}.

    Odd p gives the zero matrix: the parity measurement removes every
    coherence between the even and odd subspaces in a single step.
    """
    n_dim = dim.size
    if not 0 <= p <= dim.n_max:
        raise ValueError(f"band index {p} out of range 0..{dim.n_max}")
    length = n_dim - p
    mat = np.zeros((length, length))
    if p % 2 == 1:
        return BandMatrix(p, mat)
    eta, mu = params.eta, params.mu
    if params.gamma_T > 0:
        c = _kraus_log_table(n_dim, params.gamma_T)
    else:
        c = np.zeros((n_dim, n_dim))
        c[:, 0] = 1.0  # no dissipation: only the zero-loss Kraus term survives
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
        # one-photon-up feedback followed by k+1 losses, for elements whose
        # shifted image still fits in the basis
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
            # repopulation from one index below: the even element (n-1, n+p-1)
            # shifted up by the feedback atom and left alone by dissipation
            mat[n, n - 1] += (
                eta * c[n, 0] * c[n + p, 0] * np.sin(mu * np.sqrt(n)) * np.sin(mu * np.sqrt(n + p))
            )
    return BandMatrix(p, mat)


def stationary_state(params: StroboParams, dim: FockDim) -> DensityMatrix:
    """Fixed point of the stroboscopic map from the diagonal band matrix.

    A fixed point that fails the density-matrix invariants is a fault of the
    computation and raises NumericalInvariantError.
    """
    if not params.gamma_T > 0:
        raise ValueError("stationary state requires gamma_T > 0")
    a0 = build_band_matrix(0, params, dim)
    vals, vecs = np.linalg.eig(a0.entries)
    at_one = np.abs(vals - 1.0) < 1e-10
    count = int(np.sum(at_one))
    if count > 1:
        raise NonUniqueFixedPointError(f"{count} eigenvalues within 1e-10 of 1")
    if count == 0:
        raise NumericalInvariantError("no eigenvalue of the step matrix lies at 1")
    vec = np.real(vecs[:, int(np.argmax(at_one))])
    vec = vec / np.sum(vec)
    return DensityMatrix.from_map(np.diag(vec.astype(complex))[None], dim)[0]


def analytic_stationary_state(params: StroboParams, dim: FockDim) -> DensityMatrix:
    """Closed-form fixed point: a vacuum and one-photon mixture.

    The one-photon weight is eta sin^2(mu) / (exp(gamma_T) - 1 + eta sin^2(mu)).
    """
    if not params.gamma_T > 0:
        raise ValueError("stationary state requires gamma_T > 0")
    pump = params.eta * np.sin(params.mu) ** 2
    w1 = pump / (np.expm1(params.gamma_T) + pump)
    diag = np.zeros(dim.size, dtype=complex)
    diag[0] = 1.0 - w1
    diag[1] = w1
    return DensityMatrix(np.diag(diag), dim)


def p_ee_analytic(alpha2: float, gamma_T_total: float) -> float:
    """Probability of a second e detection after preparing an odd cat.

    Closed form for pure dissipation: unity at zero delay, decaying through
    the parity of the damped cat state.
    """
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    if gamma_T_total < 0:
        raise ValueError("gamma_T_total must be >= 0")
    decay = np.exp(-gamma_T_total)
    num = np.exp(-2.0 * alpha2 * decay) - np.exp(-2.0 * alpha2 * (1.0 - decay))
    den = 1.0 - np.exp(-2.0 * alpha2)
    return float(0.5 * (1.0 - num / den))


def run_sequence(rho0: DensityMatrix, params: StroboParams, steps: int) -> SequenceTrace:
    """Record the probe detection probabilities over a feedback sequence.

    Before each of the `steps` periods the e/g probabilities of the current
    state are recorded (the statistics of the probe atom about to fly), then
    one full period is applied.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    records = []
    rho = rho0
    for step in range(steps):
        _, _, p_e, p_g = conditional_split(rho)
        records.append(SequenceRecord(step, p_e, p_g, rho.digest()))
        rho = strobo_step(rho, params)
    return SequenceTrace(tuple(records))


def resonance_angle(n_bar: float, m: int) -> float:
    """Feedback angle maximising photon release at mean photon number n_bar."""
    if n_bar <= 0:
        raise ValueError("n_bar must be positive")
    if m < 0:
        raise ValueError("m must be >= 0")
    return float(np.pi * (m + 0.5) / np.sqrt(n_bar))
