"""Wigner function of a Fock-basis density matrix and phase-diffusion diagnostics.

The polar-coordinate photon-number series for W(r, theta) involves
sqrt(n!/m!) (2r)^(m-n) L_n^(m-n)(4 r^2) e^(-2 r^2).  Evaluating factorials,
powers and Laguerre polynomials separately overflows long before n_max = 63,
so the series is summed over normalised radial functions

    psi_{n,d}(r) = sqrt(n!/(n+d)!) (2r)^d exp(-2 r^2) L_n^d(4 r^2)

which stay O(1) everywhere and obey a three-term recurrence with O(1)
coefficients; only the n = 0 seed needs a single log-space exponentiation.
A band with an exactly zero imaginary part, as in every state with real
weights (cats, real coherent states), runs in real arithmetic with no sine
harmonic, bitwise equal to the complex recurrence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericalInvariantError, check_number
from .fock import DensityMatrix, _freeze

_QUAD_HARD_TOL = 1e-2


def _axis(name: str, values) -> np.ndarray:
    """A read-only, finite, strictly increasing grid axis of at least 2 points."""
    ax = np.asarray(values, dtype=float)
    if not (ax.ndim == 1 and ax.size >= 2 and np.isfinite(ax).all() and np.all(ax[1:] > ax[:-1])):
        raise ValueError(f"{name} axis must be finite and strictly increasing with >= 2 points")
    return _freeze(ax)


@dataclass(frozen=True)
class CartesianGrid:
    """Rectangular phase-space grid; x is the real axis, y the imaginary one."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _axis("x", self.x))
        object.__setattr__(self, "y", _axis("y", self.y))


@dataclass(frozen=True)
class PolarGrid:
    """Polar phase-space grid; theta should cover [0, 2 pi] for quadrature."""

    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _axis("r", self.r))
        object.__setattr__(self, "theta", _axis("theta", self.theta))
        if np.any(self.r < 0):
            raise ValueError("radii must be >= 0")


@dataclass(frozen=True)
class WignerGrid:
    """Sampled Wigner values with grid metadata.

    For kind == "cartesian", values[i, j] = W at (x[i], y[j]); for
    kind == "polar", values[i, j] = W at (r[i], theta[j]).
    """

    kind: str
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    source_digest: str
    integral: float

    def __post_init__(self):
        if self.kind not in ("cartesian", "polar"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericalInvariantError("Wigner values must be finite")
        object.__setattr__(self, "values", _freeze(vals))


def default_cartesian_grid(extent: float = 4.5, points: int = 121) -> CartesianGrid:
    check_number("extent", extent, 0, lo_open=True)
    check_number("points", points, 2, integer=True)
    ax = np.linspace(-extent, extent, points)
    return CartesianGrid(ax, ax.copy())


def default_polar_grid(r_max: float, n_r: int = 81, n_theta: int = 256) -> PolarGrid:
    """Polar grid with the closing theta = 2 pi point included for quadrature."""
    check_number("r_max", r_max, 0, lo_open=True)
    check_number("n_r", n_r, 2, integer=True)
    check_number("n_theta", n_theta, 1, integer=True)
    return PolarGrid(np.linspace(0.0, r_max, n_r), np.linspace(0.0, 2.0 * np.pi, n_theta + 1))


def _radial_seed(d: int, r: np.ndarray) -> np.ndarray:
    """psi_{0,d}(r) = (2r)^d exp(-2r^2) / sqrt(d!), via logs to dodge overflow."""
    if d == 0:
        return np.exp(-2.0 * r * r)
    out = np.zeros_like(r)
    pos = r > 0
    rp = r[pos]
    out[pos] = np.exp(d * np.log(2.0 * rp) - 0.5 * gammaln(d + 1.0) - 2.0 * rp * rp)
    return out


def _band_coefficients(op: np.ndarray, r: np.ndarray) -> list:
    """For each off-diagonal distance d, C_d(r) = sum_n (-1)^n op_{n,n+d} psi_{n,d}(r).

    psi_{n,d} runs its recurrence from psi_{-1,d} = 0 and the seed psi_{0,d}.
    Returns a list indexed by d; entries are None for bands that are
    identically zero, and real arrays for bands with no imaginary part.
    """
    n_dim = op.shape[0]
    x = 4.0 * r * r
    coeffs = [None] * n_dim
    for d in range(n_dim):
        band = np.diagonal(op, offset=d)
        if not np.any(band):
            continue
        c = band * (-1.0) ** np.arange(n_dim - d)
        c = c if c.imag.any() else c.real
        psi_prev, psi_cur = 0.0, _radial_seed(d, r)  # psi_{-1,d} = 0
        acc = c[0] * psi_cur
        for n in range(n_dim - d - 1):
            a = (2.0 * n + d + 1.0 - x) / np.sqrt((n + 1.0) * (n + 1.0 + d))
            b = np.sqrt(n * (n + d) / ((n + 1.0) * (n + 1.0 + d)))
            psi_prev, psi_cur = psi_cur, a * psi_cur - b * psi_prev
            acc = acc + c[n + 1] * psi_cur
        coeffs[d] = acc
    return coeffs


def _transform_points(op: np.ndarray, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """W at the points (r, theta), two arrays of one shape, for either grid kind."""
    # the recurrence is elementwise in r and the harmonics in theta, so each
    # runs once per distinct radius or angle (a polar grid has one row of
    # each); a band is scattered back to the points only while it is summed
    radii, at = np.unique(r.ravel(), return_inverse=True)
    angles, turn = np.unique(theta.ravel(), return_inverse=True)
    coeffs = _band_coefficients(op, radii)
    w = np.zeros(r.size)
    for d, c in enumerate(coeffs):
        if c is None:
            continue
        c = c[at]
        if d == 0:
            w += c.real
        elif np.isrealobj(c):
            w += 2.0 * (np.cos(d * angles)[turn] * c)
        else:
            w += 2.0 * (np.cos(d * angles)[turn] * c.real - np.sin(d * angles)[turn] * c.imag)
    return (2.0 / np.pi) * w.reshape(r.shape)


def _quadrature(kind: str, grid, values: np.ndarray) -> float:
    if kind == "cartesian":
        return float(np.trapezoid(np.trapezoid(values, grid.y, axis=1), grid.x))
    inner = np.trapezoid(values, grid.theta, axis=1)
    return float(np.trapezoid(inner * grid.r, grid.r))


def _transform(op: np.ndarray, grid, source_digest: str, expected_integral: float, scale: float):
    if isinstance(grid, CartesianGrid):
        kind, ax1, ax2 = "cartesian", grid.x, grid.y
        xg, yg = np.meshgrid(ax1, ax2, indexing="ij")
        values = _transform_points(op, np.hypot(xg, yg), np.arctan2(yg, xg))
    elif isinstance(grid, PolarGrid):
        kind, ax1, ax2 = "polar", grid.r, grid.theta
        values = _transform_points(op, *np.meshgrid(ax1, ax2, indexing="ij"))
    else:
        raise ValueError(f"unsupported grid type {type(grid).__name__}")
    integral = _quadrature(kind, grid, values)
    if abs(integral - expected_integral) > _QUAD_HARD_TOL * scale:
        raise NumericalInvariantError(
            f"quadrature gave {integral:.6f}, expected {expected_integral:.6f} "
            f"to within {_QUAD_HARD_TOL * scale:.3g}; grid too coarse or too small"
        )
    return WignerGrid(kind, ax1, ax2, values, source_digest, integral)


def wigner_function(rho: DensityMatrix, grid) -> WignerGrid:
    """Wigner function of rho on a cartesian or polar grid.

    The point at the origin equals (2/pi) times the parity expectation; a
    coherent state gives the Gaussian (2/pi) exp(-2 |beta - alpha|^2).
    Raises NumericalInvariantError when the grid quadrature misses the unit
    normalisation by more than 1e-2.
    """
    return _transform(np.asarray(rho.elements), grid, rho.digest(), 1.0, 1.0)


def sqrt_diffusion_generator_wigner(rho: DensityMatrix, grid) -> WignerGrid:
    """Wigner transform of the sqrt-photon-number double commutator acting on rho.

    The image operator has elements -(sqrt(n) - sqrt(m))^2 rho_{n,m}; for
    large mean photon number nbar its transform approaches
    (1 / 4 nbar) d^2 W / d theta^2.  Diagonal states map to zero.
    """
    n = np.arange(rho.dim.size, dtype=float)
    root = np.sqrt(n)
    weights = -((root[:, None] - root[None, :]) ** 2)
    op = weights * np.asarray(rho.elements)
    # the quadrature residual is judged against the operator's overall size, the
    # sum of |eigenvalues|, at least 1; for a density matrix that is its trace, 1
    scale = max(1.0, float(np.sum(np.abs(np.linalg.eigvalsh((op + op.conj().T) / 2.0)))))
    return _transform(op, grid, rho.digest(), 0.0, scale)


def fringe_visibility(grid: WignerGrid) -> float:
    """Max minus min of W along the imaginary axis (x = 0 column).

    Quantifies the interference oscillations of a cat state whose lobes sit
    on the real axis.  Requires a cartesian grid containing x = 0.
    """
    if grid.kind != "cartesian":
        raise ValueError("fringe visibility is defined on cartesian grids")
    ix = int(np.argmin(np.abs(grid.axis1)))
    if abs(grid.axis1[ix]) > 1e-9:
        raise ValueError("grid does not contain the x = 0 line")
    line = grid.values[ix, :]
    return float(np.max(line) - np.min(line))
