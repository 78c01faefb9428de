import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repmut.numerics import (GaussianMoments, GridDensity, NumericsError,
                             _gauss_kernel_sum, covariance_integral, expm_integral,
                             kde, matrix_exp, silverman_bandwidth, trapezoid_weights)


class TestIntegrate:
    def test_trapezoid_weights_match_trapezoid(self):
        x = np.sort(np.random.default_rng(2).uniform(-3, 5, 257))
        f = np.sin(x) + x * x
        assert trapezoid_weights(x) @ f == pytest.approx(np.trapezoid(f, x), rel=1e-14)


class TestGaussKernelSum:
    def test_blocks_match_dense_sum(self):
        # 200 rows: three full blocks and a partial one
        gen = np.random.default_rng(5)
        x, y = gen.uniform(-4, 4, 200), gen.uniform(-3, 3, 150)
        w, log_w = gen.uniform(0, 1, 150), gen.uniform(-2, 2, 150)
        dense = np.exp(-(x[:, None] - 0.7 * y[None, :] - 0.2) ** 2 / (2 * 0.3) + log_w) @ w
        got = _gauss_kernel_sum(x, y, w, log_w, A=0.7, r=0.2, s=0.3)
        assert np.abs(np.exp(got) - dense).max() <= 1e-13 * dense.max()

    def test_log_sum_survives_underflow(self):
        y = np.linspace(-1.0, 1.0, 101)
        w = trapezoid_weights(y)
        x = np.array([0.0, 40.0])
        lin = np.exp(-(x[:, None] - y[None, :]) ** 2 / 0.02) @ w
        log = _gauss_kernel_sum(x, y, w, 0.0, s=0.01)
        assert lin[1] == 0.0  # every term underflows in the linear domain
        assert log[0] == pytest.approx(np.log(lin[0]), rel=1e-14)
        # at x = 40 the node y = 1 carries the sum
        assert log[1] == pytest.approx(-39.0 ** 2 / 0.02 + np.log(w[-1]), rel=1e-14)


class TestMatrixExp:
    def test_zero_matrix(self):
        assert (matrix_exp(np.zeros((3, 3))) == np.eye(3)).all()

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(matrix_exp(A, 1.0), [[1, 1], [0, 1]], atol=1e-15)

    def test_diagonal(self):
        A = np.diag([-1.0, 2.0])
        E = matrix_exp(A, 1.0)
        assert abs(E[0, 0] - np.exp(-1)) < 1e-13
        assert abs(E[1, 1] - np.exp(2)) < 1e-13

    def test_residual_vs_ode_oracle(self):
        # dE/dt = A E integrated by RK4 with tiny steps as the oracle
        gen = np.random.default_rng(0)
        A = gen.standard_normal((4, 4)) - 2 * np.eye(4)
        E = matrix_exp(A, 1.0)
        Y = np.eye(4)
        h = 1e-3
        for _ in range(1000):
            k1 = A @ Y
            k2 = A @ (Y + h / 2 * k1)
            k3 = A @ (Y + h / 2 * k2)
            k4 = A @ (Y + h * k3)
            Y = Y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(E - Y).max() / np.abs(Y).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_semigroup_property(self, n, seed):
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((n, n))
        A -= (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(n)
        s, t = 0.4, 0.9
        lhs = matrix_exp(A, s + t)
        rhs = matrix_exp(A, s) @ matrix_exp(A, t)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_size_cap(self):
        with pytest.raises(NumericsError):
            matrix_exp(np.zeros((17, 17)))


class TestCovarianceIntegral:
    def test_zero_generator(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        S = covariance_integral(np.zeros((2, 2)), a, 0.7)
        assert np.allclose(S, 0.7 * a, atol=1e-12)

    def test_scalar_formula(self):
        gam, s2, t = 0.8, 1.7, 0.9
        S = covariance_integral(np.array([[-gam]]), np.array([[s2]]), t)
        target = s2 * (1 - np.exp(-2 * gam * t)) / (2 * gam)
        assert S[0, 0] == pytest.approx(target, abs=1e-12)

    def test_t_zero(self):
        S = covariance_integral(np.eye(2), np.eye(2), 0.0)
        assert (S == 0).all()

    def test_symmetry(self):
        gen = np.random.default_rng(1)
        G = gen.standard_normal((3, 3)) - 2 * np.eye(3)
        R = gen.standard_normal((3, 3))
        S = covariance_integral(G, R @ R.T + 0.1 * np.eye(3), 1.3)
        assert np.abs(S - S.T).max() <= 1e-12

    def test_quadrature_oracle(self):
        gen = np.random.default_rng(2)
        G = gen.standard_normal((2, 2)) - 1.5 * np.eye(2)
        R = gen.standard_normal((2, 2))
        a = R @ R.T + 0.2 * np.eye(2)
        t = 0.8
        # Richardson-extrapolated trapezoid oracle (plain trapezoid error ~4e-8)
        def trap(n):
            us = np.linspace(0, t, n + 1)
            vals = np.array([matrix_exp(G, u) @ a @ matrix_exp(G, u).T for u in us])
            return np.trapezoid(vals, us, axis=0)

        oracle = (4 * trap(2000) - trap(1000)) / 3
        assert np.abs(covariance_integral(G, a, t) - oracle).max() < 1e-10

    def test_expm_integral_scalar(self):
        out = expm_integral(np.array([[-2.0]]), 1.0)
        assert out[0, 0] == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-12)


def direct_kde(points, weights=None, grid=None, grid_size=1024):
    """The weighted Gaussian kernel sum evaluated at every grid node, with
    the Silverman bandwidth and default grid of ``kde``: its oracle."""
    pts = np.asarray(points, float)
    w = np.full(pts.size, 1.0 / pts.size) if weights is None else weights
    w = w / w.sum()
    h = silverman_bandwidth(pts, w)
    if grid is None:
        grid = np.linspace(pts.min() - 4 * h, pts.max() + 4 * h, grid_size)
    vals = np.zeros(grid.size)
    for lo in range(0, pts.size, 2000):
        z = (grid[None, :] - pts[lo:lo + 2000, None]) / h
        vals += w[lo:lo + 2000] @ np.exp(-0.5 * z * z)
    return GridDensity(grid, vals / (h * np.sqrt(2 * np.pi))).normalize()


class TestKdeAgainstDirectSum:
    """The binned FFT estimate stays within 1e-4 of the direct kernel sum,
    relative to its maximum."""

    @staticmethod
    def gap(points, weights=None, grid=None):
        fast = kde(points, weights, grid=grid)
        slow = direct_kde(points, weights, grid=grid)
        np.testing.assert_array_equal(fast.x, slow.x)
        return np.abs(fast.values - slow.values).max() / slow.values.max()

    def test_unweighted_gamma(self):
        pts = np.random.default_rng(5).gamma(2.0, 0.5, 20_000)
        assert self.gap(pts) <= 1e-4

    def test_lognormal_weights(self):
        gen = np.random.default_rng(6)
        pts = gen.standard_normal(20_000)
        assert self.gap(pts, np.exp(gen.standard_normal(20_000))) <= 1e-4

    def test_explicit_grid_with_points_outside(self):
        pts = np.random.default_rng(7).standard_normal(20_000)
        grid = np.linspace(-1.5, 2.0, 700)
        assert (pts < grid[0]).any() and (pts > grid[-1]).any()
        assert self.gap(pts, grid=grid) <= 1e-4

    def test_non_uniform_grid_rejected(self):
        grid = np.concatenate([np.linspace(-3, 0, 50), np.linspace(0.1, 3, 20)])
        with pytest.raises(NumericsError, match="uniform"):
            kde(np.array([0.0, 1.0]), grid=grid)


class TestKde:
    def test_single_point_is_kernel(self):
        # default auto grid spans 4 bandwidths: tail-mass renormalization ~6e-5
        d = kde(np.array([0.0]), bandwidth=0.5)
        target = np.exp(-0.5 * d.x ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
        assert np.abs(d.values - target).max() < 1e-4
        # on a wide explicit grid the kernel shape is recovered to roundoff
        wide = np.linspace(-5, 5, 801)
        dw = kde(np.array([0.0]), bandwidth=0.5, grid=wide)
        targw = np.exp(-0.5 * wide ** 2 / 0.25) / np.sqrt(2 * np.pi * 0.25)
        assert np.abs(dw.values - targw).max() < 1e-12

    def test_large_sample_l1(self):
        gen = np.random.default_rng(3)
        pts = gen.standard_normal(100_000)
        d = kde(pts)
        target = np.exp(-0.5 * d.x ** 2) / np.sqrt(2 * np.pi)
        assert np.trapezoid(np.abs(d.values - target), d.x) <= 0.02

    def test_weights_equal_duplication(self):
        pts = np.array([0.0, 1.0, 1.0])
        d1 = kde(pts, np.array([1.0, 1.0, 1.0]), bandwidth=0.3,
                 grid=np.linspace(-3, 4, 256))
        d2 = kde(np.array([0.0, 1.0]), np.array([1.0, 2.0]), bandwidth=0.3,
                 grid=np.linspace(-3, 4, 256))
        assert np.abs(d1.values - d2.values).max() < 1e-12

    def test_zero_weights_rejected(self):
        with pytest.raises(NumericsError):
            kde(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    def test_normalized_and_nonnegative(self):
        gen = np.random.default_rng(4)
        d = kde(gen.standard_normal(2000), gen.uniform(0, 1, 2000))
        assert d.values.min() >= 0
        assert d.integral() == pytest.approx(1.0, abs=1e-8)

    def test_silverman_uses_effective_size(self):
        pts = np.linspace(-2, 2, 1000)
        w_flat = np.ones(1000)
        w_spiky = np.zeros(1000)
        w_spiky[::100] = 1.0
        assert silverman_bandwidth(pts, w_spiky) > silverman_bandwidth(pts, w_flat)


class TestGridDensity:
    def test_normalization_contract(self):
        x = np.linspace(0, 1, 101)
        with pytest.raises(NumericsError):
            GridDensity(x, 2 * np.ones_like(x), normalized=True)

    def test_negative_rejected(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(NumericsError):
            GridDensity(x, -np.ones_like(x))

    def test_gaussian_moments_validation(self):
        with pytest.raises(NumericsError):
            GaussianMoments([0.0], [[-1.0]])
        gm = GaussianMoments([0.0], [[1.0]])
        x = np.linspace(-8, 8, 2001)
        assert np.trapezoid(gm.density(x), x) == pytest.approx(1.0, abs=1e-9)
