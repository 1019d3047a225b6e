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

from .continuous import evolve_operator
from .errors import UnboundedError

_BLOCH_AZIMUTHAL = 32
_BLOCH_POLAR = 17


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


@dataclass(frozen=True)
class ProtectionReport:
    """Optimal photon number, worst-case fidelity curve and the efficiency threshold."""

    n_opt: int
    f_min_curve: tuple
    threshold_eta: float

    def __post_init__(self):
        for _, f in self.f_min_curve:
            if not -1e-12 <= f <= 1.0 + 1e-12:
                raise ValueError(f"F_min value {f} outside [0, 1]")


def min_fidelity(spec: QubitSpec, eta: float, gamma_t: float) -> float:
    """Worst-case fidelity over all input qubits with photon numbers (n, m)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if gamma_t < 0:
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
    exactly eta = 1 raises UnboundedError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1.0:
        raise UnboundedError("for eta = 1 the optimum grows without bound")
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


def threshold_eta(tol: float = 1e-12) -> float:
    """Efficiency where the optimal photon number first leaves 0, by bisection."""
    lo, hi = 0.0, 0.99
    if optimal_n(hi) == 0:
        raise RuntimeError("bisection bracket failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if optimal_n(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def protection_report(eta: float, gamma_ts) -> ProtectionReport:
    """Bundle n_opt, the worst-case fidelity curve at n_opt and the threshold."""
    n_opt = optimal_n(eta)
    spec = QubitSpec(n_opt, n_opt + 1)
    curve = tuple((float(gt), min_fidelity(spec, eta, float(gt))) for gt in gamma_ts)
    return ProtectionReport(n_opt, curve, threshold_eta())


def _bloch_grid():
    phis = np.linspace(0.0, 2.0 * np.pi, _BLOCH_AZIMUTHAL, endpoint=False)
    thetas = np.linspace(0.0, np.pi, _BLOCH_POLAR)
    return phis, thetas


def numeric_two_mode_check(spec: QubitSpec, eta: float, gamma_t: float) -> float:
    """Worst-case fidelity from explicit two-mode evolution on a Bloch grid.

    Each polarised mode is evolved independently; the two-mode state is the
    tensor product of the evolved single-mode operators.  Serves as a
    brute-force cross-check of the closed form, not as a precision tool.
    """
    n, m = spec.n, spec.m
    size = max(n, m) + 1  # population only flows downward, so this basis is exact
    ket_n = np.zeros(size)
    ket_n[n] = 1.0
    ket_m = np.zeros(size)
    ket_m[m] = 1.0
    ops = {
        (n, n): np.outer(ket_n, ket_n).astype(complex),
        (m, m): np.outer(ket_m, ket_m).astype(complex),
        (n, m): np.outer(ket_n, ket_m).astype(complex),
        (m, n): np.outer(ket_m, ket_n).astype(complex),
    }
    evolved = {key: evolve_operator(op, eta, gamma_t) for key, op in ops.items()}

    labels = ((n, m), (m, n))
    # Tr over both modes factorises into single-mode traces; the Bloch
    # amplitudes only reweight these fixed overlaps
    overlap = {}
    for ket in labels:
        for bra in labels:
            for ket2 in labels:
                for bra2 in labels:
                    t1 = np.trace(ops[(bra[0], ket[0])] @ evolved[(ket2[0], bra2[0])])
                    t2 = np.trace(ops[(bra[1], ket[1])] @ evolved[(ket2[1], bra2[1])])
                    overlap[(ket, bra, ket2, bra2)] = t1 * t2

    phis, thetas = _bloch_grid()
    worst = np.inf
    for th in thetas:
        a = np.cos(th / 2.0)
        for ph in phis:
            b = np.sin(th / 2.0) * np.exp(1j * ph)
            # two-mode density matrix terms: |a|^2 |n,m><n,m| + a b* |n,m><m,n| + ...
            weights = {
                (labels[0], labels[0]): abs(a) ** 2,
                (labels[0], labels[1]): a * np.conj(b),
                (labels[1], labels[0]): np.conj(a) * b,
                (labels[1], labels[1]): abs(b) ** 2,
            }
            fid = 0.0
            for (ket, bra), w0 in weights.items():
                for (ket2, bra2), wt in weights.items():
                    fid += np.real(np.conj(w0) * wt * overlap[(ket, bra, ket2, bra2)])
            worst = min(worst, fid)
    return float(worst)
