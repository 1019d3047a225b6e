"""Continuous photodetection-feedback evolution of a cavity mode.

The master equation combines vacuum damping at the reduced rate
(1 - eta) * gamma with an unconventional phase-diffusion double commutator
in sqrt(n).  In the Fock basis the generator couples a matrix element only
to the element one step up the same off-diagonal:

    d rho_{n,m} / dt = (1 - eta) gamma sqrt((n+1)(m+1)) rho_{n+1,m+1}
                       + eta gamma sqrt(n m) rho_{n,m}
                       - (gamma / 2) (n + m) rho_{n,m}

so each off-diagonal band evolves under its own upper-bidiagonal generator.
One band core, `_propagate`, serves every map here and the stroboscopic maps
of `strobo`: it applies a per-band step matrix to each band that is nonzero
in the input and skips zero bands.  One generator, `_chunks`, steps it for both
feedback maps, 8 MiB or 16 states at a time, building each band's step matrix
once.  Here the step matrix is an exact matrix exponential (scipy's
scaling-and-squaring `expm`, Al-Mohy & Higham 2009), so no time stepper and
no integrator tolerance enters any result.  Population above 1e-8 on the top
level of an input state is a truncation fault (`fock.check_top_level`).
Every state a map returns is checked for Hermiticity, trace and positivity,
in one pass per chunk (`fock.check_density`); `fidelity_curve` reads the
overlap with rho0 off each chunk, with no state object per time point.  The
band loop runs on one BLAS thread: its matrices are at most
(n_max + 1) x (n_max + 1) and its products depend on one another, so on them
a second OpenBLAS thread costs more than it computes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from ._blas import threads
from .errors import NumericalInvariantError, check_number, check_times
from .fock import _STATE_BYTES, CatParity, DensityMargins, DensityMatrix, check_density, check_top_level

_TOP_POPULATION_TOL = 1e-8
_LEAKAGE = "where leakage above the cutoff is not modelled"


@dataclass(frozen=True)
class ContinuousParams:
    """Cavity decay rate gamma (1/time) and detector efficiency eta in [0, 1]."""

    gamma: float
    eta: float

    def __post_init__(self):
        check_number("gamma", self.gamma, 0, lo_open=True)
        check_number("eta", self.eta, 0, 1)


def _band_propagator(eta: float, gamma_t: float, p: int, length: int) -> np.ndarray:
    """exp(gamma_t G) of the band p's upper-bidiagonal generator G, in units of gamma."""
    i = np.arange(length, dtype=float)
    diag = eta * np.sqrt(i * (i + p)) - (2.0 * i + p) / 2.0
    upper = (1.0 - eta) * np.sqrt((i[:-1] + 1.0) * (i[:-1] + p + 1.0))
    return expm(gamma_t * (np.diag(diag) + np.diag(upper, 1))).astype(complex)


def _propagate(mat: np.ndarray, step_matrix, steps: int) -> np.ndarray:
    """The band core: (steps + 1, n, n) stack of mat after 0, 1, ..., steps steps.

    `step_matrix(p, length)` is the complex (length, length) matrix of one
    step on the band mat[i, i + p]; it must have real entries, and the same
    matrix acts on the lower band mat[i + p, i].  Bands that are zero in `mat`
    stay zero and get no step matrix.  A lower band that is exactly the
    conjugate of its upper band (any Hermitian input) is filled in by
    conjugation: every step matrix is real, so that is what propagating it
    gives bit for bit once the -0.0 imaginary parts conjugation leaves are
    turned into the +0.0 a product gives.
    """
    n = mat.shape[0]
    stack = np.zeros((steps + 1, n, n), dtype=complex)
    stack[0] = mat
    flat = stack.reshape(steps + 1, n * n)
    traj = np.empty((steps + 1, n), dtype=complex)  # contiguous work rows
    with threads(1):
        for p in range(n):
            upper = flat[:, p :: n + 1][:, : n - p]  # writable views of the two bands
            lower = flat[:, p * n :: n + 1][:, : n - p]
            if steps == 0 or not (upper[0].any() or lower[0].any()):
                continue
            mirrored = p == 0 or np.array_equal(lower[0], upper[0].conj())
            prop = step_matrix(p, n - p)
            band = traj[:, : n - p]
            for out in (upper,) if mirrored else (upper, lower):
                band[0] = out[0]
                for s in range(steps):
                    np.dot(prop, band[s], out=band[s + 1])
                out[1:] = band[1:]
            if p and mirrored:
                lower[1:] = upper[1:].conj() + 0.0
    return stack


def _chunks(mat: np.ndarray, step_matrix, steps: int, top=None):
    """Stacks of mat after 1, ..., steps steps of the band core, each chunk from the last state before it.

    At most max(16, `fock._STATE_BYTES` // mat.nbytes) states a stack, each step matrix built once per
    run; with top = (tol, why), the states a chunk stepped pass `check_top_level` before it is handed over.
    """
    step_matrix = cache(step_matrix)
    chunk = max(16, _STATE_BYTES // mat.nbytes)
    for start in range(0, steps, chunk):
        stack = _propagate(mat, step_matrix, min(chunk, steps - start))
        if top is not None:
            check_top_level(stack[:-1], *top)
        yield stack[1:]
        mat = stack[-1]


def _check_rate_and_time(gamma: float, t, name: str = "t", *, array: bool = False):
    """gamma * t; ValueError unless gamma > 0, each time `name` >= 0 and gamma * t are finite numbers."""
    gamma = check_number("gamma", gamma, 0, lo_open=True)
    time = check_times(name, t) if array else check_number(name, t, 0)
    with np.errstate(over="ignore"):  # an overflowing product fails its own check
        return check_times(f"gamma * {name}", gamma * time)


def _uniform_steps(times) -> tuple:
    """Spacing and step count of a uniform time grid starting at 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not np.isfinite(times).all():
        raise ValueError("time grid must be finite")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if times.size == 1:
        return 0.0, 0
    steps = np.diff(times)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-12 * steps[0]:
        raise ValueError("time grid must be uniform and increasing")
    return float(times[1] - times[0]), times.size - 1


def evolve_operator(op, eta: float, gamma_t: float) -> np.ndarray:
    """Apply the feedback map for a time gamma_t (units of 1/gamma) to any matrix.

    The map is linear and acts band by band, so it extends to operators that
    are not states, such as the coherences |n><m| of a two-mode check.
    """
    check_number("eta", eta, 0, 1)
    check_number("gamma_t", gamma_t, 0)
    return _propagate(np.asarray(op, dtype=complex), partial(_band_propagator, eta, gamma_t), 1)[1]


def evolve_continuous(rho0: DensityMatrix, params: ContinuousParams, t: float) -> DensityMatrix:
    """Evolve rho0 for a time t under detection efficiency eta.

    Trace is conserved exactly on the truncated basis, Hermiticity by
    construction; for eta = 1 the populations are constants of motion.
    """
    _check_rate_and_time(params.gamma, t)  # a negative time is not time-reversed
    check_top_level(rho0.elements, _TOP_POPULATION_TOL, _LEAKAGE)
    out = evolve_operator(rho0.elements, params.eta, params.gamma * t)
    return DensityMatrix.from_map(out[None], rho0.dim)


class FidelityCurve(NamedTuple):
    """Overlaps Tr rho0 rho(t) on a time grid, with the invariant margins of rho(t)."""

    fidelity: np.ndarray
    margins: DensityMargins


def fidelity_curve(rho0: DensityMatrix, params: ContinuousParams, times) -> FidelityCurve:
    """Fidelity Tr rho0 rho(t) at each time of a uniform grid starting at 0.

    The overlap equals sum_p w_p Re <b_p(0), b_p(t)> over the bands b_p, with
    w_0 = 1 and w_p = 2, and only the bands nonzero in rho0 are propagated.
    It is summed as `fidelity` sums it, so the values equal those of `fidelity`
    on the state at each time point, but no state object is built per time
    point.  Every rho(t) is still checked for Hermiticity, trace and
    positivity, chunk by chunk, and a violation raises NumericalInvariantError;
    the margins are the worst of the chunks'.  `margins.min_eigenvalue` is None
    unless a chunk's positivity certificate failed (`fock.check_density`).
    """
    dt, steps = _uniform_steps(times)
    _check_rate_and_time(params.gamma, dt, "dt")
    check_top_level(rho0.elements, _TOP_POPULATION_TOL, _LEAKAGE)
    step = partial(_band_propagator, params.eta, params.gamma * dt)
    overlap, margins = [], []
    for stack in chain([rho0.elements[None]], _chunks(rho0.elements, step, steps)):
        margins.append(check_density(stack, NumericalInvariantError))
        overlap += (np.vdot(rho0.elements, mat).real for mat in stack)
    herm, drift, lows = zip(*margins)
    lowest = min((low for low in lows if low is not None), default=None)
    return FidelityCurve(np.array(overlap), DensityMargins(max(herm), max(drift), lowest))


def _dephase(rho0: DensityMatrix, gamma: float, t: float, level: np.ndarray) -> DensityMatrix:
    """Each element times exp(-(gamma t / 2) (l_n - l_m)^2) on the ladder l = level."""
    _check_rate_and_time(gamma, t)
    factor = np.exp(-0.5 * gamma * t * (level[:, None] - level[None, :]) ** 2)
    return DensityMatrix.from_map((rho0.elements * factor)[None], rho0.dim)


def ideal_offdiagonal_decay(rho0: DensityMatrix, gamma: float, t: float) -> DensityMatrix:
    """Closed-form ideal-detection evolution.

    Each element picks up exp(-(gamma t / 2) (sqrt(n) - sqrt(m))^2); the
    populations are untouched.
    """
    return _dephase(rho0, gamma, t, np.sqrt(np.arange(rho0.dim.size, dtype=float)))


def standard_phase_diffusion(rho0: DensityMatrix, gamma: float, t: float) -> DensityMatrix:
    """Conventional phase diffusion: exp(-(gamma t / 2) (n - m)^2) per element."""
    return _dephase(rho0, gamma, t, np.arange(rho0.dim.size, dtype=float))


def cat_fidelity_analytic(alpha2: float, parity: CatParity, gamma: float, t):
    """No-feedback fidelity of an even/odd cat with squared amplitude alpha2.

    Closed form for a cat state relaxing in a vacuum bath; the overlap of the
    decayed state with the initial one factorises into an interference weight,
    an amplitude-shrinkage Gaussian and a parity-projection ratio.  A float
    for one time t, an array for an array of times.
    """
    check_number("alpha2", alpha2, 0, lo_open=True)
    gt = _check_rate_and_time(gamma, t, array=True)
    s = parity.sign
    e1 = np.exp(-gt)
    eh = np.exp(-gt / 2.0)
    front = (1.0 + np.exp(-2.0 * alpha2 * (1.0 - e1))) / 2.0
    shrink = np.exp(-alpha2 * (1.0 - eh) ** 2)
    ratio = (1.0 + s * np.exp(-2.0 * alpha2 * eh)) / (1.0 + s * np.exp(-2.0 * alpha2))
    return front * shrink * ratio**2


def fock_fidelity_analytic(abs_alpha2: float, abs_beta2: float, n: int, m: int, params: ContinuousParams, t):
    """Fidelity of the superposition a|n> + b|m> (m > n) under feedback.

    Four contributions: the two surviving populations, the coherence between
    the levels, and the population transferred from m down to n by the
    residual damping channel (binomial in the m - n lost quanta).  A float for
    one time t, an array for an array of times.
    """
    check_number("n", n, 0, integer=True)
    check_number("m", m, n, lo_open=True, integer=True)
    gt = _check_rate_and_time(params.gamma, t, array=True)
    check_number("abs_alpha2", abs_alpha2, 0, 1)  # and abs_beta2 with it, through the norm
    if not abs(abs_alpha2 + abs_beta2 - 1.0) <= 1e-10:  # negated, so that NaN fails too
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    a2, b2 = abs_alpha2, abs_beta2
    eta = params.eta
    damp = (1.0 - eta) * gt
    log_binom = gammaln(m + 1) - gammaln(n + 1) - gammaln(m - n + 1)
    surv = a2**2 * np.exp(-n * damp) + b2**2 * np.exp(-m * damp)
    cross = 2.0 * a2 * b2 * np.exp(-gt * ((m + n) / 2.0 - eta * np.sqrt(n * m)))
    repop = a2 * b2 * np.exp(log_binom) * np.exp(-n * damp) * (1.0 - np.exp(-damp)) ** (m - n)
    return surv + cross + repop


def mean_amplitude_ideal(rho0: DensityMatrix, gamma: float, t: float) -> complex:
    """Exact mean amplitude <a(t)> under ideal-detection feedback.

    Each first-off-diagonal element decays with its own sqrt-spaced rate;
    summing gives the exact counterpart of the semiclassical slow decay
    exp(-gamma t / (8 nbar)).
    """
    _check_rate_and_time(gamma, t)
    n = np.arange(rho0.dim.size - 1, dtype=float)
    sub = np.diagonal(rho0.elements, offset=-1)
    factors = np.exp(-0.5 * gamma * t * (np.sqrt(n + 1.0) - np.sqrt(n)) ** 2)
    return complex(np.sum(np.sqrt(n + 1.0) * factors * sub))
