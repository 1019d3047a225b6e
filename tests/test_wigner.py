import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

import cavityfeedback.wigner as wigner
from cavityfeedback import (
    CartesianGrid,
    CatParity,
    DensityMatrix,
    FockDim,
    NumericalInvariantError,
    cat_state,
    coherent_state,
    default_cartesian_grid,
    default_polar_grid,
    fock_superposition,
    fringe_visibility,
    parity_expectation,
    sqrt_diffusion_generator_wigner,
    wigner_function,
)
from conftest import random_density


def generalized_laguerre(n: int, k: int, x):
    """Associated Laguerre polynomial L_n^k(x) by the three-term recurrence."""
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = k + 1.0 - x
    for i in range(1, n):
        prev, cur = cur, ((2.0 * i + k + 1.0 - x) * cur - (i + k) * prev) / (i + 1.0)
    return cur if cur.ndim else float(cur)


def wigner_brute(op, r, theta):
    """Direct complex summation of the photon-number series, one point at a time.

    Independent of the library implementation: explicit log factorials and
    the standalone Laguerre evaluator, full double sum over (n, m).
    """
    n_dim = op.shape[0]
    total = 0j
    for n in range(n_dim):
        for m in range(n_dim):
            lo, hi = min(n, m), max(n, m)
            d = hi - lo
            lag = generalized_laguerre(lo, d, 4.0 * r * r)
            pref = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
            kernel = (
                (2.0 / np.pi)
                * (-1.0) ** lo
                * pref
                * (2.0 * r) ** d
                * np.exp(-2.0 * r * r)
                * lag
                * np.exp(1j * theta * d)
            )
            if m < n:
                kernel = np.conj(kernel)
            total += op[n, m] * kernel
    return total


class TestGeneralizedLaguerre:
    def test_order_zero(self):
        for k in (0, 3, 7):
            for x in (0.0, 1.5, 12.0):
                assert generalized_laguerre(0, k, x) == 1.0

    def test_order_one(self):
        for k in (0, 2, 5):
            for x in (0.0, 2.5):
                assert generalized_laguerre(1, k, x) == k + 1.0 - x

    def test_order_two_plain(self):
        # 1 - 2x + x^2/2 at x = 4
        assert generalized_laguerre(2, 0, 4.0) == pytest.approx(1.0)

    def test_against_scipy(self):
        from scipy.special import eval_genlaguerre

        for n in (3, 10, 25):
            for k in (0, 4, 11):
                for x in (0.3, 6.0, 40.0):
                    ours = generalized_laguerre(n, k, x)
                    ref = eval_genlaguerre(n, k, x)
                    assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))


class TestWignerFunction:
    def test_vacuum_origin(self, dim63):
        vac = DensityMatrix.from_state(fock_superposition([(0, 1.0)], dim63))
        wg = wigner_function(vac, default_cartesian_grid())
        centre = 60
        assert abs(wg.values[centre, centre] - 2.0 / np.pi) < 1e-10

    def test_odd_cat_origin(self, dim63):
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        wg = wigner_function(cat, default_cartesian_grid())
        assert abs(wg.values[60, 60] + 2.0 / np.pi) < 1e-10

    def test_coherent_state_gaussian(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(2.0, dim63))
        grid = default_cartesian_grid()
        wg = wigner_function(rho, grid)
        xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
        gauss = (2.0 / np.pi) * np.exp(-2.0 * ((xg - 2.0) ** 2 + yg**2))
        assert np.max(np.abs(wg.values - gauss)) < 1e-6

    def test_complex_coherent_state_pins_orientation(self, dim63):
        alpha = 1.2 + 0.9j
        rho = DensityMatrix.from_state(coherent_state(alpha, dim63))
        grid = default_cartesian_grid()
        wg = wigner_function(rho, grid)
        xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
        gauss = (2.0 / np.pi) * np.exp(-2.0 * np.abs(xg + 1j * yg - alpha) ** 2)
        assert np.max(np.abs(wg.values - gauss)) < 1e-6

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_brute_force(self, seed):
        rho = random_density(15, 13, seed)
        grid = default_cartesian_grid(extent=5.0, points=81)
        wg = wigner_function(rho, grid)
        for i in (5, 27, 40, 63):
            for j in (11, 40, 70):
                x, y = grid.x[i], grid.y[j]
                brute = wigner_brute(np.asarray(rho.elements), np.hypot(x, y), np.arctan2(y, x))
                assert abs(brute.imag) < 1e-10
                assert abs(wg.values[i, j] - brute.real) < 1e-10

    @pytest.mark.parametrize("seed", [2, 3])
    def test_origin_parity_identity(self, seed):
        rho = random_density(31, 13, seed)
        grid = default_cartesian_grid(extent=6.5, points=131)
        wg = wigner_function(rho, grid)
        assert abs(wg.values[65, 65] - (2.0 / np.pi) * parity_expectation(rho)) < 1e-8

    def test_rotational_covariance(self):
        rho = random_density(15, 13, seed=4)
        n_theta = 64
        grid = default_polar_grid(r_max=7.0, n_r=41, n_theta=n_theta)
        base = wigner_function(rho, grid)
        shift = 3
        phi = 2 * np.pi * shift / n_theta
        phases = np.exp(1j * phi * np.arange(16))
        rotated = DensityMatrix(
            phases[:, None] * np.asarray(rho.elements) * np.conj(phases)[None, :],
            FockDim(15),
        )
        wrot = wigner_function(rotated, grid)
        # drop the duplicated closing theta point, then the rotation is a roll
        assert (
            np.max(np.abs(wrot.values[:, :-1] - np.roll(base.values[:, :-1], shift, axis=1)))
            < 1e-8
        )

    def test_quadrature_normalisation_default_grid(self, dim63):
        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        wg = wigner_function(cat, default_cartesian_grid())
        assert abs(wg.integral - 1.0) < 1e-3

    def test_polar_quadrature(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim63))
        wg = wigner_function(rho, default_polar_grid(r_max=6.0))
        assert abs(wg.integral - 1.0) < 1e-3

    def test_grid_too_coarse(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(2.0, dim63))
        tiny = CartesianGrid(np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5))
        with pytest.raises(NumericalInvariantError, match="grid too coarse"):
            wigner_function(rho, tiny)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns inside numpy
    def test_overflow_is_a_numerical_fault(self):
        vacuum = DensityMatrix.from_state(fock_superposition([(0, 1.0)], FockDim(15)))
        with pytest.raises(NumericalInvariantError, match="finite"):
            wigner_function(vacuum, default_cartesian_grid(1e300, 11))


class TestGridArguments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_axis_value_is_rejected(self, bad):
        # NaN once passed the increasing check, since np.diff(ax) <= 0 is False
        # for it, and an infinite end reached the transform and warned there
        with pytest.raises(ValueError, match="x axis must be finite and strictly increasing"):
            CartesianGrid([-1.0, 0.0, 1.0, bad], [-1.0, 1.0])
        with pytest.raises(ValueError, match="r axis must be finite and strictly increasing"):
            wigner.PolarGrid([0.0, 1.0, bad], [0.0, 1.0])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: default_cartesian_grid(np.nan, 11), "extent: must be a finite number > 0, got nan"),
            (lambda: default_cartesian_grid(4.5, 2.5), "points: expected an integer, got 2.5"),
            (lambda: default_polar_grid(np.inf), "r_max: must be a finite number > 0, got inf"),
            (lambda: default_polar_grid(4.0, 1), r"n_r: must be an integer >= 2, got 1"),
            (lambda: default_polar_grid(4.0, 81, True), "n_theta: expected an integer, got True"),
        ],
    )
    def test_default_grids_check_their_numbers(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


def test_a_density_matrix_transform_diagonalises_nothing(monkeypatch):
    # the quadrature tolerance of a density matrix is 1e-2 times its trace, 1
    rho = DensityMatrix.from_state(cat_state(np.sqrt(3.0), CatParity.ODD, FockDim(31)))

    def no_eigvalsh(*_):
        raise AssertionError("the transform diagonalised a density matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert abs(wigner_function(rho, default_cartesian_grid(4.5, 61)).integral - 1.0) < 1e-3


def transform_per_point(op, grid):
    """The cartesian transform with the radial recurrence run at every grid point."""
    xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
    r = np.hypot(xg, yg).ravel()
    theta = np.arctan2(yg, xg).ravel()
    coeffs = wigner._band_coefficients(op, r)
    w = np.zeros_like(r)
    for d, c in enumerate(coeffs):
        if c is None:
            continue
        if d == 0:
            w += c.real
        else:
            w += 2.0 * (np.cos(d * theta) * c.real - np.sin(d * theta) * c.imag)
    return (2.0 / np.pi) * w.reshape(xg.shape)


def transform_polar(op, grid):
    """The polar transform with the radial recurrence on the r axis and outer products."""
    coeffs = wigner._band_coefficients(op, grid.r)
    w = np.zeros((grid.r.size, grid.theta.size))
    for d, c in enumerate(coeffs):
        if c is None:
            continue
        if d == 0:
            w += c.real[:, None]
        else:
            w += 2.0 * (
                np.outer(c.real, np.cos(d * grid.theta))
                - np.outer(c.imag, np.sin(d * grid.theta))
            )
    return (2.0 / np.pi) * w


def transform(op, grid):
    """The library transform at every grid point.

    (r, theta) are built as `wigner_function` builds them.
    """
    if isinstance(grid, CartesianGrid):
        xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
        return wigner._transform_points(op, np.hypot(xg, yg), np.arctan2(yg, xg))
    return wigner._transform_points(op, *np.meshgrid(grid.r, grid.theta, indexing="ij"))


# each grid the tests and the acceptance report evaluate, with its oracle
_CARTESIAN_GRIDS = {
    "symmetric-121": default_cartesian_grid(4.5, 121),
    "symmetric-120": default_cartesian_grid(4.5, 120),
    "off-centre": CartesianGrid(np.linspace(-3.9, 4.4, 90), np.linspace(-2.6, 3.1, 77)),
}
_POLAR_GRIDS = {
    "r4": default_polar_grid(4.0),
    "r6": default_polar_grid(6.0),
    "r7-41x64": default_polar_grid(7.0, n_r=41, n_theta=64),
    **{
        f"nbar{nbar}-61x512": default_polar_grid(np.sqrt(nbar) + 3.0, n_r=61, n_theta=512)
        for nbar in (4, 9, 16, 25)
    },
}
_GRIDS = {
    **{name: (grid, transform_per_point) for name, grid in _CARTESIAN_GRIDS.items()},
    **{name: (grid, transform_polar) for name, grid in _POLAR_GRIDS.items()},
}


@st.composite
def hermitian_trace_one(draw):
    size = draw(st.integers(2, 12))
    parts = hnp.arrays(np.float64, (size, size), elements=st.floats(-1.0, 1.0))
    a = draw(parts) + 1j * draw(parts)
    h = (a + a.conj().T) / 2.0
    return h + (1.0 - np.trace(h).real) / size * np.eye(size)


class TestRadiiOnce:
    """The one transform, on distinct radii and angles, is bitwise each grid kind's oracle."""

    @pytest.mark.parametrize("grid_name", sorted(_GRIDS))
    @pytest.mark.parametrize("kind", ["cat-odd", "coherent"])
    def test_cli_default_states(self, kind, grid_name, dim63):
        if kind == "coherent":
            rho = DensityMatrix.from_state(coherent_state(np.sqrt(5.0), dim63))
        else:
            rho = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        grid, oracle = _GRIDS[grid_name]
        op = np.asarray(rho.elements)
        # the coarser polar grids fail the cat's quadrature check, so they go
        # through the transform alone
        if isinstance(grid, CartesianGrid):
            got = wigner_function(rho, grid).values
        else:
            got = transform(op, grid)
        assert np.array_equal(got, oracle(op, grid))

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(op=hermitian_trace_one())
    def test_hermitian_operators(self, op):
        for grid, oracle in _GRIDS.values():
            assert np.array_equal(transform(op, grid), oracle(op, grid))


class TestSqrtDiffusionGenerator:
    def test_diagonal_state_maps_to_zero(self):
        dim = FockDim(15)
        mat = np.diag(np.linspace(0.3, 0.0, 16)).astype(complex)
        mat /= np.trace(mat).real
        rho = DensityMatrix(mat, dim)
        wg = sqrt_diffusion_generator_wigner(rho, default_cartesian_grid(3.0, 31))
        assert np.max(np.abs(wg.values)) == 0.0

    @pytest.mark.parametrize("seed", [5])
    def test_against_brute_force(self, seed):
        rho = random_density(15, 13, seed)
        n = np.arange(16, dtype=float)
        weights = -((np.sqrt(n)[:, None] - np.sqrt(n)[None, :]) ** 2)
        op = weights * np.asarray(rho.elements)
        grid = default_cartesian_grid(extent=3.5, points=15)
        wg = sqrt_diffusion_generator_wigner(rho, grid)
        for i in (0, 7, 11):
            for j in (3, 7, 14):
                x, y = grid.x[i], grid.y[j]
                brute = wigner_brute(op, np.hypot(x, y), np.arctan2(y, x))
                assert abs(brute.imag) < 1e-10
                assert abs(wg.values[i, j] - brute.real) < 1e-10

    def test_semiclassical_angular_diffusion(self):
        # the generator image approaches the scaled second angular derivative
        # of W, with an error that shrinks as the photon number grows
        errors = []
        for nbar, n_max in [(4.0, 63), (9.0, 63), (16.0, 95), (25.0, 127)]:
            dim = FockDim(n_max)
            rho = DensityMatrix.from_state(coherent_state(np.sqrt(nbar), dim))
            grid = default_polar_grid(np.sqrt(nbar) + 3.0, n_r=61, n_theta=512)
            gen = sqrt_diffusion_generator_wigner(rho, grid)
            w = wigner_function(rho, grid)
            vals = w.values[:, :-1]
            dth = grid.theta[1] - grid.theta[0]
            second = (np.roll(vals, -1, axis=1) - 2 * vals + np.roll(vals, 1, axis=1)) / dth**2
            semi = second / (4.0 * nbar)
            gv = gen.values[:, :-1]
            weight = np.sqrt(grid.r)[:, None]
            err = np.linalg.norm((gv - semi) * weight) / np.linalg.norm(gv * weight)
            errors.append(err)
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestFringeVisibility:
    def test_requires_cartesian(self, dim63):
        rho = DensityMatrix.from_state(coherent_state(1.0, dim63))
        wg = wigner_function(rho, default_polar_grid(4.0))
        with pytest.raises(ValueError):
            fringe_visibility(wg)

    def test_feedback_preserves_fringes(self, dim63):
        from cavityfeedback import ContinuousParams, evolve_continuous

        cat = DensityMatrix.from_state(cat_state(np.sqrt(5.0), CatParity.ODD, dim63))
        grid = default_cartesian_grid()
        v0 = fringe_visibility(wigner_function(cat, grid))
        kept = evolve_continuous(cat, ContinuousParams(1.0, 1.0), 0.2)
        lost = evolve_continuous(cat, ContinuousParams(1.0, 0.0), 0.2)
        v_kept = fringe_visibility(wigner_function(kept, grid))
        v_lost = fringe_visibility(wigner_function(lost, grid))
        assert abs(v_kept - v0) / v0 <= 0.10
        assert v_lost < 0.20 * v0
