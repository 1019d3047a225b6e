"""Adiabatic photon transfer through a three-level atom crossing the cavity.

The atom enters in its first ground state while a cavity coupling pulse g(t)
and a delayed classical pulse Omega(t) sweep over it.  Within each photon
sector the joint state lives on (|g1,n>, |e,n>, |g2,n+1>); in the rotating
frame at exact two-photon resonance the sector Hamiltonian is

    H_n = [[0, -i Omega, 0], [i Omega, 0, -i g sqrt(n+1)], [0, i g sqrt(n+1), 0]]

whose zero-energy eigenvector, the dark state, carries the population from
|g1,n> to |g2,n+1> without ever occupying the lossy excited level.  The net
effect on the field is a clean one-photon up-shift of every density-matrix
element, which is exactly the feedback operation the continuous scheme needs.

Sectors decouple, -iH_n is real antisymmetric, and the atom starts in a real
state, so the integration runs on real vectors with classical fixed-step RK4,
validated by step halving.  One blocked stepper serves every sector and every
caller.  The ODE is linear, so each RK4 step is a 3x3 matrix.  It acts on
u = (y0, y1, y2 / sqrt(n+1)), whose generator holds the sector only as
s = n + 1, so the step is a polynomial of degree two in s whose coefficients
depend only on the pulses: they are built once per step and evaluated at
every sector in one product.  Steps are applied a chunk at a time, sized by
memory: products over blocks of consecutive steps carry the state from block
to block, and the states inside all blocks then follow together, except in
the coarse run of the halving check, which keeps only its final state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalInvariantError, check_number
from .fock import _CHUNK_BYTES, _TAIL_TOL, _TRACE_TOL, DensityMatrix, check_top_level

_FIDELITY_STEP_TOL = 1e-6
_TIMESCALE_FACTOR = 10.0  # a ">>" of the timescale chain means a ratio above this


_GAUSS_COEF = float(np.log(2.0))


@dataclass(frozen=True)
class PulsePair:
    """Gaussian pulse profiles for the cavity coupling g and classical field Omega.

    Both pulses are peak * exp(-ln2 ((t - centre) / width)^2), so `width` is
    the half-width at half maximum; the classical pulse is delayed by `delay`
    against the cavity pulse (counterintuitive order: the atom meets g
    first).  Centres straddle the midpoint of the crossing window
    [0, t_cross].
    """

    g_max: float
    omega_max: float
    t_cross: float
    delay: float
    width: float

    def __post_init__(self):
        for name in ("g_max", "omega_max", "t_cross", "delay", "width"):
            check_number(name, getattr(self, name), 0, lo_open=True)

    def values(self, t):
        """(g(t), Omega(t)) at scalar or array times."""
        t = np.asarray(t, dtype=float)
        mid = self.t_cross / 2.0
        g_centre = mid - self.delay / 2.0
        om_centre = mid + self.delay / 2.0
        g = self.g_max * np.exp(-_GAUSS_COEF * ((t - g_centre) / self.width) ** 2)
        om = self.omega_max * np.exp(-_GAUSS_COEF * ((t - om_centre) / self.width) ** 2)
        return g, om


def standard_pulses(g_max: float, omega_max: float, t_cross: float) -> PulsePair:
    """Documented defaults: width t_cross / 6, classical pulse delayed t_cross / 4."""
    return PulsePair(g_max, omega_max, t_cross, t_cross / 4.0, t_cross / 6.0)


# A chunk is b blocks of b steps and costs about 3 * b numpy calls instead of
# b**2.  Per step it holds a 3x3 matrix (72 bytes) for every sector, and about
# 30 matrices' worth of RK4 coefficients while they are built.
def _block(n_sectors: int) -> int:
    """Steps per block, b: a chunk of b * b steps stays within _CHUNK_BYTES."""
    return max(1, math.isqrt(_CHUNK_BYTES // (72 * (n_sectors + 30))))


def _deriv(z, g, om):
    """A(t) Z, where Z = sum_p z[p] s^p is a polynomial in s = n + 1.

    z has shape (3, 3, ...): coefficient, state component, then any axes
    that g and om broadcast against.  Only the s g term raises the degree;
    the degree-three term it drops is zero in every RK4 stage.
    """
    out = np.zeros_like(z)
    out[:, 0] = -om * z[:, 1]
    out[:, 1] = om * z[:, 0]
    out[1:, 1] -= g * z[:-1, 2]
    out[:, 2] = g * z[:, 1]
    return out


def _step_polynomials(pulses: PulsePair, t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients C_p of the RK4 step matrices sum_p C_p s^p, shape (3, 3, 3) + t.shape.

    The step from each time t with size h, applied to the identity, in the
    scaled state u = (y0, y1, y2 / sqrt(s)); an entry of h equal to 0 gives
    the identity step.
    """
    g_a, om_a = pulses.values(t)
    g_b, om_b = pulses.values(t + h / 2.0)
    g_c, om_c = pulses.values(t + h)
    y = np.zeros((3, 3, 3) + t.shape)
    y[0, [0, 1, 2], [0, 1, 2]] = 1.0
    k1 = _deriv(y, g_a, om_a)
    k2 = _deriv(y + 0.5 * h * k1, g_b, om_b)
    k3 = _deriv(y + 0.5 * h * k2, g_b, om_b)
    k4 = _deriv(y + h * k3, g_c, om_c)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _crossing(pulses: PulsePair, n_sectors: int, steps: int, weights=None):
    """Classical RK4 from |g1> in the sectors s = n + 1 = 1 .. n_sectors.

    Returns the final amplitudes, shape (n_sectors, 3), and, given the field
    populations as `weights`, the peak excited population they weight over
    every step (None without them).  The steps carry u = (y0, y1, y2 / sqrt(s));
    y2 is scaled back once, at the end.  Without weights only each chunk's
    last state is computed: the last block's product times its start.
    """
    sectors = np.arange(1.0, n_sectors + 1)
    h, powers = pulses.t_cross / steps, sectors[:, None] ** np.arange(3)
    n_b = _block(n_sectors)
    chunk, u = n_b * n_b, np.eye(3, 1).repeat(n_sectors, axis=1)  # |g1> in every sector
    peak_e = None if weights is None else 0.0  # |g1> has no excited population
    for first in range(0, steps, chunk):
        # step first + b * n_b + j sits at [j, b]; steps past the end get h = 0
        index = first + np.arange(chunk).reshape(n_b, n_b).T
        coef = _step_polynomials(pulses, index * h, np.where(index < steps, h, 0.0))
        # m[j][:, :, s, b] is the matrix of step j of block b in sector s; one
        # array per j keeps each allocation small, so the heap does not grow
        per_step = coef.reshape(3, 9, n_b, n_b).transpose(2, 1, 0, 3)
        m = [np.matmul(powers, c).reshape(3, 3, n_sectors, n_b) for c in per_step]
        block = m[0]  # product of each block's steps, all blocks at once
        for j in range(1, n_b):
            block = np.einsum("ijsb,jksb->iksb", m[j], block)
        starts = np.empty((3, n_sectors, n_b))  # block start states, one after another
        starts[:, :, 0] = u
        for b in range(1, n_b):
            starts[:, :, b] = np.einsum("ijs,js->is", block[..., b - 1], starts[:, :, b - 1])
        if weights is None:
            u = np.einsum("ijs,js->is", block[..., -1], starts[:, :, -1])
            continue
        states = np.empty((3, n_sectors, n_b, n_b))  # every state, all blocks at once
        u = starts
        for j in range(n_b):
            u = np.einsum("ijsb,jsb->isb", m[j], u)
            states[..., j] = u
        states = states.reshape(3, n_sectors, chunk)[:, :, :min(chunk, steps - first)]
        u = states[:, :, -1]
        peak_e = max(peak_e, float(np.max(weights @ states[1] ** 2)))
    u[2] *= np.sqrt(sectors)
    return u.T, peak_e


def integrate_crossing(field_rho: DensityMatrix, pulses: PulsePair, steps: int):
    """Drive one atom through the crossing; atom starts in its first ground state.

    Returns (final_field, transfer_fidelity, max_excited_population).  The
    integration is repeated at twice the step count; NumericalInvariantError is
    raised when that changes the transfer fidelity by more than 1e-6, or when
    the finer run moves the norm of the field's weighted sectors by more than
    the trace tolerance of a state, 1e-10 (a stable but under-resolved
    crossing), and the finer result is returned otherwise.
    """
    check_number("steps", steps, 2, integer=True)
    rho = np.asarray(field_rho.elements)
    check_top_level(rho, _TAIL_TOL, "cannot be shifted up")
    n_dim = field_rho.dim.size
    populations = np.real(np.diag(rho))
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable run's inf or NaN fails the check below
        # the coarse run feeds only the halving check, so it keeps only its final state
        coarse, _ = _crossing(pulses, n_dim, steps)
        fine, peak_e = _crossing(pulses, n_dim, 2 * steps, populations)
        weights = np.abs(rho) ** 2  # transfer fidelity: overlap of the evolved state with the shifted target
        f_coarse, f_fine = (float(a @ weights @ a) for a in (coarse[:, 2], fine[:, 2]))
    if not abs(f_fine - f_coarse) <= _FIDELITY_STEP_TOL:
        raise NumericalInvariantError(
            f"transfer fidelity moved by {abs(f_fine - f_coarse):.3e} under step halving"
        )
    drift = abs(float(populations @ np.sum(fine**2, axis=1)) - 1.0)
    if not drift <= _TRACE_TOL:
        raise NumericalInvariantError(
            f"trace deviates from 1 by {drift:.3e} after the crossing: steps = {steps} "
            f"({2 * steps} RK4 steps in the finer run) does not resolve it, raise steps"
        )
    b, c, a = fine[:, 0], fine[:, 1], fine[:, 2]
    final = rho * np.outer(b, b) + rho * np.outer(c, c)
    shifted = rho * np.outer(a, a)
    final[1:, 1:] += shifted[:-1, :-1]
    return DensityMatrix.from_map(final[None], field_rho.dim), f_fine, peak_e


class InequalityCheck(NamedTuple):
    """One ratio of the timescale chain against its factor, and its status."""

    name: str
    ratio: float
    factor: float
    status: str


def adiabaticity_report(
    pulses: PulsePair,
    n_bar: float,
    gamma: float,
    gamma_e: float,
) -> tuple:
    """Evaluate the timescale chain omega_max, g_max >> 1/t_cross >> n_bar gamma, gamma_e.

    The crossing must be slow against both peak couplings yet fast against
    photon loss and spontaneous emission.  Returns one `InequalityCheck` per
    link; a ratio strictly above 10 passes, exact equality is only
    marginal; a ratio that overflows raises ConfigError naming its argument.
    """
    n_bar, gamma, gamma_e = (check_number(name, value, 0, lo_open=True)
                             for name, value in (("n_bar", n_bar), ("gamma", gamma), ("gamma_e", gamma_e)))
    rate, loss = check_number("1 / t_cross", 1.0 / pulses.t_cross), n_bar * gamma
    entries = (  # each ratio, and what overflows it: a tiny rate, or n_bar gamma underflowing to 0
        ("omega_max vs crossing rate", pulses.omega_max / rate, "omega_max"),
        ("g_max vs crossing rate", pulses.g_max / rate, "g_max"),
        ("crossing rate vs photon loss", rate / loss if loss else math.inf, "n_bar * gamma"),
        ("crossing rate vs spontaneous emission", rate / gamma_e, "gamma_e"),
    )
    checks = []
    for name, ratio, key in entries:
        if not math.isfinite(ratio):
            raise ConfigError(key, f"makes the ratio {name} overflow to {ratio!r}")
        if ratio > _TIMESCALE_FACTOR:
            status = "pass"
        elif ratio == _TIMESCALE_FACTOR:
            status = "marginal"
        else:
            status = "fail"
        checks.append(InequalityCheck(name, float(ratio), _TIMESCALE_FACTOR, status))
    return tuple(checks)
