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

from .errors import NumericalInvariantError

_THRESHOLD_TOL = 1e-12


@dataclass(frozen=True)
class QubitSpec:
    """Photon numbers (n, m) of the two-mode qubit a|n,m> + b|m,n>."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("photon numbers must be >= 0")
        if self.n == self.m:
            raise ValueError("need m != n")


def min_fidelity(spec: QubitSpec, eta: float, gamma_t: float) -> float:
    """Worst-case fidelity over all input qubits with photon numbers (n, m)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not gamma_t >= 0:  # negated, so that NaN fails too
        raise ValueError("gamma_t must be >= 0")
    n, m = spec.n, spec.m
    damped = np.exp(-(1.0 - eta) * gamma_t * (n + m))
    coherence = np.exp(-gamma_t * (n + m - 2.0 * eta * np.sqrt(n * m)))
    return float(0.5 * (damped + coherence))


def _pair_objective(n: int, eta: float) -> float:
    s = (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2
    return 1.0 / s + (1.0 - eta) * s


def optimal_n(eta: float) -> int:
    """Photon number minimising the small-time worst-case decay rate.

    Ties break toward the smaller photon number.  Diverges as eta -> 1, so
    exactly eta = 1 raises ValueError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1.0:
        raise ValueError("for eta = 1 the optimum grows without bound")
    # objective is unimodal in s and s(n) ~ 4n, so the optimum sits near
    # s = (1 - eta)^(-1/2); scan a comfortable margin around it
    n_hint = approx_n_opt(eta)
    n_hi = int(np.ceil(4.0 * n_hint)) + 8
    best_n, best_val = 0, _pair_objective(0, eta)
    for n in range(1, n_hi + 1):
        val = _pair_objective(n, eta)
        if val < best_val:
            best_n, best_val = n, val
    return best_n


def approx_n_opt(eta: float) -> float:
    """Real-valued optimum from (sqrt(n+1) + sqrt(n))^2 = (1 - eta)^(-1/2).

    Inverting s(n) = 2n + 1 + 2 sqrt(n (n+1)) gives n = (s - 1)^2 / (4 s).
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
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

