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
caller.  The ODE is linear, so each RK4 step is a 3x3 matrix; with
r = sqrt(n+1) it is a polynomial of degree four in r whose coefficients
depend only on the pulses, so they are built once per step and evaluated at
every sector in one product.  Steps are applied a chunk at a time: products
over blocks of consecutive steps carry the state from block to block, and
the states inside all blocks then follow together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalInvariantError, TruncationError, check_number
from .fock import DensityMatrix

_FIDELITY_STEP_TOL = 1e-6
_TOP_POPULATION_TOL = 1e-10
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


def dark_state(n: int, g, omega) -> np.ndarray:
    """Zero-energy sector eigenvector (g sqrt(n+1), 0, omega), normalised.

    g and omega may be arrays of one shape; the components then run along
    the first axis of the result.
    """
    check_number("n", n, 0, integer=True)
    big_g = g * np.sqrt(n + 1.0)
    norm2 = big_g**2 + omega**2
    if not np.all((norm2 > 0.0) & (norm2 < np.inf)):  # negated, so that NaN fails too
        raise ValueError("dark state undefined unless the couplings are finite and not both zero")
    return np.stack((big_g, np.zeros_like(big_g), omega)) / np.sqrt(norm2)


# A chunk is _BLOCK blocks of _BLOCK steps and costs about 3 * _BLOCK numpy calls
# instead of _BLOCK**2; it holds the step matrices of one chunk at a time.
_BLOCK = 12
_CHUNK = _BLOCK * _BLOCK


def _deriv(z, g, om):
    """A(t) Z, where Z = sum_p z[p] r^p is a polynomial in r = sqrt(n+1).

    z has shape (5, 3, ...): coefficient, state component, then any axes
    that g and om broadcast against.  The g terms raise the degree by one.
    """
    out = np.zeros_like(z)
    out[:, 0] = -om * z[:, 1]
    out[:, 1] = om * z[:, 0]
    out[1:, 1] -= g * z[:-1, 2]
    out[1:, 2] = g * z[:-1, 1]
    return out


def _step_polynomials(pulses: PulsePair, t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients C_p of the RK4 step matrices sum_p C_p r^p, shape (5, 3, 3) + t.shape.

    The step from each time t with size h, applied to the identity; an entry
    of h equal to 0 gives the identity step.
    """
    g_a, om_a = pulses.values(t)
    g_b, om_b = pulses.values(t + h / 2.0)
    g_c, om_c = pulses.values(t + h)
    y = np.zeros((5, 3, 3) + t.shape)
    y[0, [0, 1, 2], [0, 1, 2]] = 1.0
    k1 = _deriv(y, g_a, om_a)
    k2 = _deriv(y + 0.5 * h * k1, g_b, om_b)
    k3 = _deriv(y + 0.5 * h * k2, g_b, om_b)
    k4 = _deriv(y + h * k3, g_c, om_c)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _crossing_states(pulses: PulsePair, roots: np.ndarray, steps: int):
    """Classical RK4 from |g1> in sectors with coupling scales `roots` = sqrt(n+1).

    Yields, one chunk of steps at a time, (t_end, y): the time after each
    step of the chunk and the states there, y[component, sector, step].
    """
    h = pulses.t_cross / steps
    powers = roots[:, None] ** np.arange(5)
    n_sec = len(roots)
    y = np.zeros((3, n_sec))
    y[0] = 1.0
    for first in range(0, steps, _CHUNK):
        # step first + b * _BLOCK + j sits at [j, b]; steps past the end get h = 0
        index = first + np.arange(_CHUNK).reshape(_BLOCK, _BLOCK).T
        coef = _step_polynomials(pulses, index * h, np.where(index < steps, h, 0.0))
        # m[j][:, :, s, b] is the matrix of step j of block b in sector s; one
        # array per j keeps each allocation small, so the heap does not grow
        per_step = coef.reshape(5, 9, _BLOCK, _BLOCK).transpose(2, 1, 0, 3)
        m = [np.matmul(powers, c).reshape(3, 3, n_sec, _BLOCK) for c in per_step]
        block = m[0]  # product of each block's steps, all blocks at once
        for j in range(1, _BLOCK):
            block = np.einsum("ijsb,jksb->iksb", m[j], block)
        starts = np.empty((3, n_sec, _BLOCK))  # block start states, one after another
        starts[:, :, 0] = y
        for b in range(1, _BLOCK):
            starts[:, :, b] = np.einsum("ijs,js->is", block[..., b - 1], starts[:, :, b - 1])
        states = np.empty((3, n_sec, _BLOCK, _BLOCK))  # every state, all blocks at once
        y = starts
        for j in range(_BLOCK):
            y = np.einsum("ijsb,jsb->isb", m[j], y)
            states[..., j] = y
        count = min(_CHUNK, steps - first)
        states = states.reshape(3, n_sec, _CHUNK)[:, :, :count]
        y = states[:, :, -1]
        yield (first + np.arange(count)) * h + h, states


def _integrate(pulses: PulsePair, n_sectors: int, steps: int, weights: np.ndarray):
    """Propagate every sector from |g1,n>; returns final amplitudes and peaks.

    The amplitudes have shape (n_sectors, 3).  weights are the field
    populations used for the excited-state bookkeeping.
    """
    roots = np.sqrt(np.arange(1, n_sectors + 1, dtype=float))
    peak_e = 0.0  # the start state |g1> has no excited population
    for _, y in _crossing_states(pulses, roots, steps):
        peak_e = max(peak_e, float(np.max(weights @ y[1] ** 2)))
    return y[:, :, -1].T, peak_e


def _transfer_fidelity(rho: np.ndarray, a: np.ndarray) -> float:
    """Overlap of the evolved joint state with the one-photon-shifted target."""
    weights = np.abs(rho) ** 2
    return float(a @ weights @ a)


def integrate_crossing(field_rho: DensityMatrix, pulses: PulsePair, steps: int):
    """Drive one atom through the crossing; atom starts in its first ground state.

    Returns (final_field, transfer_fidelity, max_excited_population).  The
    integration is repeated at twice the step count; NumericalInvariantError is
    raised when that changes the transfer fidelity by more than 1e-6, and the
    finer result is returned otherwise.
    """
    check_number("steps", steps, 2, integer=True)
    rho = np.asarray(field_rho.elements)
    top = float(np.real(rho[-1, -1]))
    if top > _TOP_POPULATION_TOL:
        raise TruncationError(
            f"population {top:.3e} on the top Fock level cannot be shifted up; "
            "enlarge the basis"
        )
    n_dim = field_rho.dim.size
    pops = np.real(np.diag(rho))
    coarse, _ = _integrate(pulses, n_dim, steps, pops)
    fine, peak_e = _integrate(pulses, n_dim, 2 * steps, pops)
    f_coarse = _transfer_fidelity(rho, coarse[:, 2])
    f_fine = _transfer_fidelity(rho, fine[:, 2])
    if abs(f_fine - f_coarse) > _FIDELITY_STEP_TOL:
        raise NumericalInvariantError(
            f"transfer fidelity moved by {abs(f_fine - f_coarse):.3e} under step halving"
        )
    b, c, a = fine[:, 0], fine[:, 1], fine[:, 2]
    final = rho * np.outer(b, b) + rho * np.outer(c, c)
    shifted = rho * np.outer(a, a)
    final[1:, 1:] += shifted[:-1, :-1]
    return DensityMatrix.from_map(final[None], field_rho.dim), f_fine, peak_e


def minimum_dark_overlap(pulses: PulsePair, n: int, steps: int) -> float:
    """Smallest squared overlap with the instantaneous dark state over a crossing.

    Diagnostic for the adiabatic-following quality of one photon sector.
    """
    check_number("n", n, 0, integer=True)
    check_number("steps", steps, 1, integer=True)
    worst = 1.0
    for t_end, states in _crossing_states(pulses, np.array([np.sqrt(n + 1.0)]), steps):
        dark = dark_state(n, *pulses.values(t_end))
        y = states[:, 0]
        overlap = np.sum(dark * y, axis=0) ** 2 / np.sum(y * y, axis=0)
        worst = min(worst, float(np.min(overlap)))
    return worst


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
    marginal.
    """
    check_number("n_bar", n_bar, 0, lo_open=True)
    check_number("gamma", gamma, 0, lo_open=True)
    check_number("gamma_e", gamma_e, 0, lo_open=True)
    rate = 1.0 / pulses.t_cross
    entries = (
        ("omega_max vs crossing rate", pulses.omega_max / rate),
        ("g_max vs crossing rate", pulses.g_max / rate),
        ("crossing rate vs photon loss", rate / (n_bar * gamma)),
        ("crossing rate vs spontaneous emission", rate / gamma_e),
    )
    checks = []
    for name, ratio in entries:
        if ratio > _TIMESCALE_FACTOR:
            status = "pass"
        elif ratio == _TIMESCALE_FACTOR:
            status = "marginal"
        else:
            status = "fail"
        checks.append(InequalityCheck(name, float(ratio), _TIMESCALE_FACTOR, status))
    return tuple(checks)
