"""Worst-case protection of polarisation-coded qubits under continuous feedback.

A qubit a|n,m> + b|m,n| shared between two polarised modes relaxes under one
independent feedback loop per mode.  The worst-case (minimum over the Bloch
sphere) fidelity has the closed form

    F_min(t) = (1/2) [ exp(-(1-eta) gamma t (n+m))
                       + exp(-gamma t (n + m - 2 eta sqrt(n m))) ]

and the optimal photon numbers trade the coherence decay 1/s against the
residual damping (1-eta) s, with s = (sqrt(n+1) + sqrt(n))^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInvariantError, check_number, check_times

_THRESHOLD_TOL = 1e-12


@dataclass(frozen=True)
class QubitSpec:
    """Photon numbers (n, m) of the two-mode qubit a|n,m> + b|m,n>."""

    n: int
    m: int

    def __post_init__(self):
        check_number("n", self.n, 0, integer=True)
        check_number("m", self.m, 0, integer=True)
        if self.n == self.m:
            raise ValueError("need m != n")


def min_fidelity(spec: QubitSpec, eta: float, gamma_t):
    """Worst-case fidelity over all input qubits with photon numbers (n, m).

    A float for one time gamma_t, an array for an array of times.
    """
    check_number("eta", eta, 0, 1)
    gamma_t = check_times("gamma_t", gamma_t)
    n, m = spec.n, spec.m
    damped = np.exp(-(1.0 - eta) * gamma_t * (n + m))
    coherence = np.exp(-gamma_t * (n + m - 2.0 * eta * np.sqrt(n * m)))
    return 0.5 * (damped + coherence)


def _pair_objective(n, eta: float):
    s = (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2
    return 1.0 / s + (1.0 - eta) * s


def optimal_n(eta: float) -> int:
    """Photon number minimising the small-time worst-case decay rate.

    Ties break toward the smaller photon number.  Diverges as eta -> 1, so
    exactly eta = 1 raises ValueError.
    """
    check_number("eta", eta, 0, 1)
    if eta == 1.0:
        raise ValueError("for eta = 1 the optimum grows without bound")
    # the objective is unimodal in s, and approx_n_opt is the n at its minimum
    # s = (1 - eta)^(-1/2), so the optimum is one of the two integers around it;
    # scan a margin of 8 either side (a fixed size, however close eta is to 1),
    # where argmin returns the first of equal minima
    n_hint = approx_n_opt(eta)
    n = np.arange(max(0, int(n_hint) - 8), int(np.ceil(n_hint)) + 9)
    return int(n[np.argmin(_pair_objective(n, eta))])


def approx_n_opt(eta: float) -> float:
    """Real-valued optimum from (sqrt(n+1) + sqrt(n))^2 = (1 - eta)^(-1/2).

    Inverting s(n) = 2n + 1 + 2 sqrt(n (n+1)) gives n = (s - 1)^2 / (4 s).
    """
    check_number("eta", eta, 0, 1, hi_open=True)
    s = (1.0 - eta) ** -0.5
    return float((s - 1.0) ** 2 / (4.0 * s))


def threshold_eta() -> float:
    """Efficiency where the optimal photon number first leaves 0, by bisection to 1e-12."""
    lo, hi = 0.0, 0.99
    if optimal_n(hi) == 0:
        raise NumericalInvariantError("bisection bracket failed")
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if optimal_n(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)

