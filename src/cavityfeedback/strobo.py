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
off-diagonal index p, so each band evolves under its own real step matrix.
Both feedback schemes run on one band core: `evolve_strobo` hands these
matrices, built once per parameter set, to `continuous._propagate`, which
skips zero bands (every odd band after the first period), and checks every
state it produces, a fixed chunk of periods at a time.  `run_sequence` runs
on it, and the same matrices give the stationary state.  The dense
elementwise Kraus forms of the maps are kept in the tests as oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .continuous import _propagate
from .errors import NumericalInvariantError, TruncationError, check_number
from .fock import DensityMatrix, FockDim

_TOP_POPULATION_TOL = 1e-10
_SPECTRAL_TOL = 1e-10
_TRACE_TOL = 1e-10
_CHUNK = 16  # periods propagated and checked per pass; only their populations are kept


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


def _kraus_table(n_dim: int, gamma_T: float) -> np.ndarray:
    if gamma_T > 0:
        return _kraus_log_table(n_dim, gamma_T)
    c = np.zeros((n_dim, n_dim))
    c[:, 0] = 1.0  # no dissipation: only the zero-loss Kraus term survives
    return c


def _band_entries(p: int, params: StroboParams, c: np.ndarray) -> np.ndarray:
    """Entries of the one-step matrix of band p, from the Kraus table c.

    Row n, column j >= n: the element (j, j + p) after the parity measurement
    and the feedback atom, then j - n photon losses; for even j the feedback
    atom also lifts it to (j + 1, j + p + 1), which j - n + 1 losses bring
    back to (n, n + p) when that image fits in the basis.  Row n, column
    n - 1 for odd n: the even element one index below, lifted by the feedback
    atom and left alone by dissipation.
    """
    n_dim = c.shape[0]
    length = n_dim - p
    if p % 2 == 1:
        return np.zeros((length, length))
    eta, mu = params.eta, params.mu
    j = np.arange(length)
    n = j[:, None]
    k = np.maximum(j - n, 0)
    even = (j % 2 == 0).astype(float)
    root_j, root_jp = np.sqrt(j + 1.0), np.sqrt(j + p + 1.0)
    stay = eta * (1.0 - even) + (1.0 - eta) + eta * even * np.cos(mu * root_j) * np.cos(mu * root_jp)
    mat = c[n, k] * c[n + p, k] * stay
    k1 = np.minimum(k + 1, n_dim - 1)
    lift = eta * even * c[n, k1] * c[n + p, k1] * np.sin(mu * root_j) * np.sin(mu * root_jp)
    mat = np.where(j < length - 1, mat + lift, mat)  # the top column's image would not fit
    mat = np.where(j >= n, mat, 0.0)
    odd = j[1::2]
    mat[odd, odd - 1] += (
        eta * c[odd, 0] * c[odd + p, 0] * np.sin(mu * np.sqrt(odd)) * np.sin(mu * np.sqrt(odd + p))
    )
    return mat


def _step_matrices(params: StroboParams, dim: FockDim) -> list:
    """Complex one-step matrices of every band, for the band core.

    A step map that does not conserve the trace is a fault of the computation
    and raises NumericalInvariantError before any state is stepped: every
    column of the diagonal band must sum to 1, except the top level's, whose
    lifted image the feedback atom would push out of the basis.  So does a
    band whose spectral radius exceeds 1 by more than 1e-10.
    """
    c = _kraus_table(dim.size, params.gamma_T)
    entries = [_band_entries(p, params, c) for p in range(dim.size)]
    drift = float(np.max(np.abs(entries[0][:, :-1].sum(axis=0) - 1.0)))
    if not drift <= _TRACE_TOL:
        raise NumericalInvariantError(f"trace deviates from 1 by {drift:.3e} in the step map")
    for p, mat in enumerate(entries):
        if mat.any():  # a zero matrix, such as every odd band's, has radius 0
            radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
            if not radius <= 1.0 + _SPECTRAL_TOL:
                raise NumericalInvariantError(f"spectral radius {radius!r} of band {p} exceeds 1")
    return [mat.astype(complex) for mat in entries]


class StroboRun(NamedTuple):
    """A state after a number of periods, and the populations on the way."""

    state: DensityMatrix  # after the last period
    populations: np.ndarray  # (periods + 1, n): row k before period k + 1


def evolve_strobo(rho0: DensityMatrix, params: StroboParams, steps: int) -> StroboRun:
    """Apply `steps` full periods (feedback, then dissipation) to rho0.

    The periods run through the band core of `continuous` on the step
    matrices of `_step_matrices`, built once for the run, a fixed chunk of
    periods at a time.  Every state of a chunk is checked for Hermiticity,
    trace and positivity (NumericalInvariantError), and when the feedback
    atom acts (eta > 0) on an even top level, population above 1e-10 there
    raises TruncationError.  Only the populations of each chunk are kept.
    """
    check_number("steps", steps, 0, integer=True)
    dim = rho0.dim
    mats = _step_matrices(params, dim)
    watch_top = params.eta > 0 and dim.n_max % 2 == 0
    populations = np.empty((steps + 1, dim.size))
    populations[0] = rho0.populations()
    state, mat = rho0, rho0.elements
    for start in range(0, steps, _CHUNK):
        stack = _propagate(mat, lambda p, length: mats[p], min(_CHUNK, steps - start))
        if watch_top:  # the states this chunk stepped
            top = float(np.max(stack[:-1, -1, -1].real))
            if top > _TOP_POPULATION_TOL:
                raise TruncationError(
                    f"population {top:.3e} on the top Fock level would be pushed out of "
                    "the basis by the feedback atom; enlarge the basis"
                )
        state = DensityMatrix.from_map(stack[1:], dim)
        # a copy: a view of the diagonal would keep the whole chunk alive
        populations[start + 1 : start + len(stack)] = stack[1:].diagonal(0, 1, 2).real
        mat = stack[-1]
    return StroboRun(state, populations)


def stationary_state(params: StroboParams, dim: FockDim) -> DensityMatrix:
    """Fixed point of the stroboscopic map for gamma_T > 0, from the diagonal band matrix.

    A fixed point that fails the density-matrix invariants is a fault of the
    computation and raises NumericalInvariantError.
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


def analytic_stationary_state(params: StroboParams, dim: FockDim) -> DensityMatrix:
    """Closed-form fixed point for gamma_T > 0: a vacuum and one-photon mixture.

    The one-photon weight is eta sin^2(mu) / (exp(gamma_T) - 1 + eta sin^2(mu)).
    """
    check_number("gamma_T", params.gamma_T, 0, lo_open=True)
    pump = params.eta * np.sin(params.mu) ** 2
    with np.errstate(over="ignore"):  # expm1 overflows to inf above ~709: w1 = 0
        w1 = pump / (np.expm1(params.gamma_T) + pump)
    diag = np.zeros(dim.size, dtype=complex)
    diag[0] = 1.0 - w1
    diag[1] = w1
    return DensityMatrix.from_map(np.diag(diag)[None], dim)


def p_ee_analytic(alpha2: float, gamma_T_total: float) -> float:
    """Probability of a second e detection after preparing an odd cat.

    Closed form for pure dissipation: unity at zero delay, decaying through
    the parity of the damped cat state.
    """
    check_number("alpha2", alpha2, 0, lo_open=True)
    check_number("gamma_T_total", gamma_T_total, 0)
    decay = np.exp(-gamma_T_total)
    num = np.exp(-2.0 * alpha2 * decay) - np.exp(-2.0 * alpha2 * (1.0 - decay))
    den = 1.0 - np.exp(-2.0 * alpha2)
    return float(0.5 * (1.0 - num / den))


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


def resonance_angle(n_bar: float, m: int) -> float:
    """Feedback angle maximising photon release at mean photon number n_bar."""
    check_number("n_bar", n_bar, 0, lo_open=True)
    check_number("m", m, 0, integer=True)
    return float(np.pi * (m + 0.5) / np.sqrt(n_bar))
