"""Stroboscopic parity-measurement feedback for a microwave cavity.

One period of the protocol applies, in order,

1. a dispersive probe atom whose detection projects the field onto the odd
   (atom in e) or even (atom in g) photon-number subspace,
2. conditionally on the g outcome and with detector efficiency eta, a
   resonant feedback atom that deposits a photon with number-dependent
   Rabi amplitudes cos/sin(mu sqrt(n)), mu = Omega tau,
3. vacuum-bath dissipation for the inter-atom interval, gamma_T = gamma T.

Averaged over outcomes, steps 1 and 2 are the feedback map: with
probability eta the probe atom is detected, the odd outcome leaves the field
alone and the even outcome triggers the feedback atom; with probability
1 - eta nothing is detected and no feedback acts, but the parity measurement
still removes every coherence between the two parity sectors.  A period at
gamma_T = 0 is that map alone.

Every map couples a density-matrix element only to elements with the same
off-diagonal index p, so each band evolves under its own real step matrix,
zero for odd p: the parity measurement of the first period removes every odd
band, and `evolve_strobo` does that once, before the first step.  Both
feedback schemes run on one band core: `evolve_strobo` hands the even bands'
matrices, built once per parameter set in padded blocks, to the chunk stepper
of `continuous`, whose core skips zero bands, and checks every state of each
chunk it gets back.  `run_sequence` runs on it.  The dense Kraus forms of the
maps, the band matrices built row by row and the fixed point read off the
diagonal band matrix are kept in the tests as oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import gammaln

from .continuous import _chunks
from .errors import NumericalInvariantError, check_number, check_times
from .fock import _CHUNK_BYTES, _TAIL_TOL, _TRACE_TOL, DensityMatrix, FockDim

_SPECTRAL_TOL = 1e-10


@dataclass(frozen=True)
class StroboParams:
    """Detector efficiency eta, feedback Rabi angle mu, inter-atom interval gamma_T."""

    eta: float
    mu: float
    gamma_T: float

    def __post_init__(self):
        check_number("eta", self.eta, 0, 1)
        check_number("mu", self.mu, 0)
        check_number("gamma_T", self.gamma_T, 0)


def _kraus_table(n_dim: int, gamma_T: float) -> np.ndarray:
    """Amplitudes c_{n,k} of the vacuum-bath Kraus operators, via log-gamma, in rows :n_dim."""
    c = np.zeros((2 * n_dim + 1, n_dim))  # rows from n_dim on: zeros only the band padding reads
    n, k = np.ogrid[:n_dim, :n_dim]  # with no loss, gamma_T = 0: k = 0 only
    c[:n_dim] = np.exp(0.5 * (gammaln(n + k + 1.0) - gammaln(n + 1.0) - gammaln(k + 1.0) - n * gamma_T
                              + k * np.log(-np.expm1(-gamma_T)))) if gamma_T > 0 else np.eye(1, n_dim)
    return c


def _padded_bands(params: StroboParams, c: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """One-step matrices of the even bands ps = p0, p0 + 2, ... from Kraus table c, in one block.

    Band p = ps[i] fills block[i, :n_dim - p, :n_dim - p].  Row n, column j:
    stay for j >= n plus lift for j >= n - 1.  Stay is the element (j, j + p)
    after the parity measurement and the feedback atom, then j - n photon
    losses.  Lift, for even j, is that element raised by the feedback atom to
    (j + 1, j + p + 1), which j - n + 1 losses bring back to (n, n + p) when
    that image fits in the basis.
    """
    n_dim, eta, mu = c.shape[1], params.eta, params.mu
    j, p, q = np.arange(n_dim - ps[0]), ps[:, None, None], ps[0] // 2
    n, s = j[:, None], c.strides[1]
    # skew[e, i, n, j] = c[n + 2i, j - n + e], read for j >= n - e
    skew = as_strided(c, (2, q + len(ps), len(j), len(j)), (s, 2 * n_dim * s, (n_dim - 1) * s, s),
                      writeable=False)
    even = (j % 2 == 0).astype(float)
    root_j, root_jp = np.sqrt(j + 1.0), np.sqrt(j + p + 1.0)
    stay = eta * (1.0 - even) + (1.0 - eta) + eta * even * np.cos(mu * root_j) * np.cos(mu * root_jp)
    mat = skew[0, 0] * skew[0, q:] * stay
    mat[:, j < n] = 0.0
    lift = eta * even * skew[1, 0] * skew[1, q:] * np.sin(mu * root_j) * np.sin(mu * root_jp)
    # the top column's lifted image would not fit
    np.add(mat, lift, out=mat, where=(j >= n - 1) & (j < n_dim - p - 1))
    return mat


def _step_matrices(params: StroboParams, dim: FockDim) -> dict:
    """Complex one-step matrices of the even bands, keyed by p; the odd bands need none.

    A step map that does not conserve the trace is a fault of the computation
    and raises NumericalInvariantError before any state is stepped: every
    column of the diagonal band must sum to 1, except the top level's, whose
    lifted image the feedback atom would push out of the basis.  So does a
    band whose spectral radius exceeds 1 by more than 1e-10; the radius is at
    most the band's 1-norm, so `eigvals` runs only where that norm is larger.
    """
    n_dim, mats = dim.size, {}
    c = _kraus_table(n_dim, params.gamma_T)
    evens, group = np.arange(0, n_dim, 2), max(1, _CHUNK_BYTES // (8 * n_dim * n_dim))  # bands per block
    for ps in np.split(evens, range(group, len(evens), group)):
        for p, padded in zip(ps.tolist(), _padded_bands(params, c, ps)):
            mat = padded[: n_dim - p, : n_dim - p]
            drift = float(np.max(np.abs(mat[:, :-1].sum(axis=0) - 1.0))) if p == 0 else 0.0
            if not drift <= _TRACE_TOL:
                raise NumericalInvariantError(f"trace deviates from 1 by {drift:.3e} in the step map")
            if not np.abs(mat).sum(axis=0).max() <= 1.0 + _SPECTRAL_TOL:
                radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
                if not radius <= 1.0 + _SPECTRAL_TOL:
                    raise NumericalInvariantError(f"spectral radius {radius!r} of band {p} exceeds 1")
            mats[p] = mat.astype(complex)
    return mats


class StroboRun(NamedTuple):
    """A state after a number of periods, and the populations on the way."""

    state: DensityMatrix  # after the last period
    populations: np.ndarray  # (periods + 1, n): row k before period k + 1


def evolve_strobo(rho0: DensityMatrix, params: StroboParams, steps: int) -> StroboRun:
    """Apply `steps` full periods (feedback, then dissipation) to rho0.

    The periods run through the chunk stepper of `continuous` on the step
    matrices of `_step_matrices`, built once for the run, from rho0 without
    its odd bands, which the first parity measurement removes.  Every state is
    checked for Hermiticity, trace and positivity (NumericalInvariantError);
    when the feedback atom acts (eta > 0) on an even top level, population
    above 1e-10 there raises TruncationError first.  Only populations are kept.
    """
    check_number("steps", steps, 0, integer=True)
    mats = _step_matrices(params, rho0.dim)
    populations = np.empty((steps + 1, rho0.dim.size))
    populations[0] = rho0.populations()
    mat = rho0.elements.copy()  # the band core is never asked for an odd band's step matrix
    mat[::2, 1::2] = mat[1::2, ::2] = 0.0
    state, done = rho0, 1
    lifts = params.eta > 0 and rho0.dim.n_max % 2 == 0  # the feedback atom acts on an even top level
    top = (_TAIL_TOL, "would be pushed out of the basis by the feedback atom") if lifts else None
    for stack in _chunks(mat, lambda p, _: mats[p], steps, top):
        state = DensityMatrix.from_map(stack, rho0.dim)
        populations[done : done + len(stack)] = stack.diagonal(0, 1, 2).real
        done += len(stack)
    return StroboRun(state, populations)


def analytic_stationary_state(params: StroboParams, dim: FockDim) -> DensityMatrix:
    """Closed-form fixed point for gamma_T > 0: a vacuum and one-photon mixture.

    The one-photon weight is eta sin^2(mu) / (exp(gamma_T) - 1 + eta sin^2(mu)).
    """
    check_number("gamma_T", params.gamma_T, 0, lo_open=True)
    pump = params.eta * np.sin(params.mu) ** 2
    with np.errstate(over="ignore"):  # expm1 overflows to inf above ~709: w1 = 0
        w1 = pump / (np.expm1(params.gamma_T) + pump)
    diag = np.zeros(dim.size, dtype=complex)
    diag[:2] = 1.0 - w1, w1
    return DensityMatrix.from_map(np.diag(diag)[None], dim)


def p_ee_analytic(alpha2: float, gamma_T_total):
    """Probability of a second e detection after preparing an odd cat.

    Closed form for pure dissipation: unity at zero delay, decaying through
    the parity of the damped cat state.  A float for one delay gamma_T_total,
    an array for an array of delays.
    """
    check_number("alpha2", alpha2, 0, lo_open=True)
    decay = np.exp(-check_times("gamma_T_total", gamma_T_total))
    num = np.exp(-2.0 * alpha2 * decay) - np.exp(-2.0 * alpha2 * (1.0 - decay))
    den = 1.0 - np.exp(-2.0 * alpha2)
    return 0.5 * (1.0 - num / den)


class DetectionSequence(NamedTuple):
    """Probe detection probabilities, read-only arrays indexed by step."""

    p_e: np.ndarray  # odd outcome, the probe atom found in e
    p_g: np.ndarray  # even outcome, the probe atom found in g


def run_sequence(rho0: DensityMatrix, params: StroboParams, steps: int) -> DetectionSequence:
    """Record the probe detection probabilities over a feedback sequence.

    Before each of the `steps` periods the e/g probabilities of the current
    state are recorded (the statistics of the probe atom about to fly), then
    one full period is applied; the last period, whose outcome is never
    recorded, is not stepped.  A step whose two probabilities miss 1 by
    more than 1e-10 is a fault of the computation and raises
    NumericalInvariantError.
    """
    check_number("steps", steps, 1, integer=True)
    populations = evolve_strobo(rho0, params, steps - 1).populations
    odd = np.arange(rho0.dim.size) % 2
    # summed as complex numbers, as the trace of the parity-projected state
    # sums them, so that each probability is that trace to the last bit
    p_e = np.sum(populations * odd, axis=1, dtype=complex).real
    p_g = np.sum(populations * (1 - odd), axis=1, dtype=complex).real
    miss = float(np.max(np.abs(p_e + p_g - 1.0)))
    if not miss <= _TRACE_TOL:
        raise NumericalInvariantError(f"P_e + P_g misses 1 by {miss:.3e}")
    p_e.setflags(write=False)
    p_g.setflags(write=False)
    return DetectionSequence(p_e, p_g)
