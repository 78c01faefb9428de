import numpy as np
import pytest

from repmut.closed_form import (EngineError, HorizonError, RejectedCondition, RiccatiError,
                                affine_engine, eigenpair_residual, linear_engine, riccati_residual,
                                solve_linear_v, solve_riccati, tilted_engine)
from repmut.model import DiffusionModel, DomainSpec, FitnessFunction, InitialLaw
from repmut.numerics import GridDensity, trapezoid_weights
from repmut.numerics import covariance_integral, expm_integral, matrix_exp
from repmut.scenarios import (affine_quadratic_fitness, bm_model, gamma_like_law,
                              linear_bm_scenario, ou_linear_scenario, ou_model,
                              quadratic_decay_fitness)
from repmut.sde import TimeGrid


def affine_model(b, B, sigma) -> DiffusionModel:
    b = np.atleast_1d(np.asarray(b, float))
    return DiffusionModel(domain=DomainSpec("full-space", b.size), kind="affine",
                          params={"b": b, "B": B, "sigma": sigma})


class TestLinearEngine:
    def test_gaussian_tilt_algebra(self):
        # b=0, sigma=sqrt2, g=x, u0=N(m0,s0^2) -> N(m0+s0^2 t+t^2, s0^2+2t)
        sc = linear_bm_scenario(m0=0.3, s0=0.8)
        sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
        for t in (0.25, 0.5, 1.0):
            x = np.linspace(-5, 7, 801)
            mean = 0.3 + 0.64 * t + t * t
            var = 0.64 + 2 * t
            target = np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
            rel = np.abs(sol.u(t, x) - target).max() / target.max()
            assert rel < 1e-12

    def test_brute_force_representation_oracle(self):
        # independent quadrature of e^{tg(x)} (u0 * kernel)(x) / Z
        sc = linear_bm_scenario(m0=0.0, s0=1.0)
        sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
        t = 0.7
        y = np.linspace(-14, 14, 6001)
        u0 = sc.initial_law.density(y)
        x = np.linspace(-6, 8, 501)
        # kernel mean shift bt - sigma C2^T t^2/2 = -t^2, covariance 2t
        k = np.exp(-0.5 * (x[:, None] - y[None, :] + t * t) ** 2 / (2 * t))
        conv = np.trapezoid(k * u0[None, :], y, axis=1)
        vals = np.exp(t * x) * conv
        xz = np.linspace(-14, 16, 12001)
        kz = np.exp(-0.5 * (xz[:, None] - y[None, :] + t * t) ** 2 / (2 * t))
        convz = np.trapezoid(kz * u0[None, :], y, axis=1)
        z = np.trapezoid(np.exp(t * xz) * convz, xz)
        oracle = vals / z
        assert np.abs(sol.u(t, x) - oracle).max() / oracle.max() < 1e-8

    def test_short_time_recovers_initial(self):
        sc = linear_bm_scenario()
        sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
        x = np.linspace(-8, 8, 2001)
        l1 = np.trapezoid(np.abs(sol.u(1e-4, x) - sc.initial_law.density(x)), x)
        assert l1 <= 1e-3

    def test_avron_herbst_form(self):
        # engine output equals e^{tx}/sqrt(4 pi t) * (u0 * heat kernel shifted) / E[e^{tY}]
        sc = linear_bm_scenario()
        sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
        t = 1.0
        x = np.linspace(-6, 8, 1001)
        y = np.linspace(-12, 12, 8001)
        u0 = sc.initial_law.density(y)
        k = np.exp(-((x[:, None] - y[None, :] + t * t) ** 2) / (4 * t))
        num = np.exp(t * x) / np.sqrt(4 * np.pi * t) \
            * np.trapezoid(k * u0[None, :], y, axis=1)
        den = np.trapezoid(np.exp(t * y) * u0, y)
        target = num / den
        assert np.abs(sol.u(t, x) - target).max() / target.max() < 1e-8

    def test_normalization_identity(self):
        # int e^{tz} (u0 * kernel)(z) dz = sqrt(4 pi t) int e^{ty} u0(y) dy
        t = 1.0
        y = np.linspace(-14, 14, 8001)
        u0 = np.exp(-0.5 * y ** 2) / np.sqrt(2 * np.pi)
        z = np.linspace(-16, 18, 16001)
        k = np.exp(-((z[:, None] - y[None, :] + t * t) ** 2) / (4 * t))
        lhs = np.trapezoid(np.exp(t * z) * np.trapezoid(k * u0[None, :], y, axis=1), z)
        rhs = np.sqrt(4 * np.pi * t) * np.trapezoid(np.exp(t * y) * u0, y)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_mass_factor_formula(self):
        sc = linear_bm_scenario(m0=0.4, s0=1.2)
        sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
        for t in (0.0, 0.3, 1.0):
            target = np.exp(t * 0.4 + t * t * 1.44 / 2 + t ** 3 / 3)
            assert sol.mass(t) == pytest.approx(target, rel=1e-12)
        assert sol.mass_factor(0.0) == 1.0
        shifted = sol.mass_factor(1.0, shifted=True)
        assert shifted == pytest.approx(sol.mass(1.0) * np.exp(-sc.fitness.g_max), rel=1e-12)

    def test_zero_fitness_mass_one(self, std_normal_law):
        zero = affine_quadratic_fitness(0.0, [0.0], [[0.0]], g_max=0.0)
        sol = linear_engine(bm_model(0.0, np.sqrt(2.0)), zero, std_normal_law)
        assert sol.mass(0.7) == pytest.approx(1.0, abs=1e-12)

    def test_grid_density_initial_matches_gaussian_path(self):
        x = np.linspace(-10, 10, 4001)
        law_grid = InitialLaw("grid-density",
                              {"x": x, "values": np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi)})
        sc = linear_bm_scenario()
        ana = linear_engine(sc.model, sc.fitness, sc.initial_law)
        num = linear_engine(sc.model, sc.fitness, law_grid)
        assert num.engine == "linear-quadrature"
        assert num.mass(0.0) == 1.0 and num.u(0.0, x).tolist() == law_grid.density(x).tolist()
        xs = np.linspace(-4, 7, 501)
        l1 = np.trapezoid(np.abs(ana.u(0.8, xs) - num.u(0.8, xs)), xs)
        assert l1 < 1e-6

    def test_constant_shift_invariance(self):
        sc = linear_bm_scenario()
        base = linear_engine(sc.model, sc.fitness, sc.initial_law)
        c = 5.0
        fit5 = affine_quadratic_fitness(-c, [-1.0], [[0.0]], g_max=sc.fitness.g_max + c,
                                        bound_region=sc.fitness.bound_region)
        other = linear_engine(sc.model, fit5, sc.initial_law)
        x = np.linspace(-5, 7, 601)
        t = 0.9
        assert np.abs(base.u(t, x) - other.u(t, x)).max() <= 1e-12
        assert other.mass(t) == pytest.approx(base.mass(t) * np.exp(c * t), rel=1e-10)

    def test_undeclared_fitness_rejected_by_both_closed_forms(self):
        # g(x) = x is linear, but the closed forms read only a declared form
        sc = linear_bm_scenario()
        bare = FitnessFunction(g=lambda x: np.asarray(x, float), g_max=sc.fitness.g_max)
        for engine in (linear_engine, affine_engine):
            with pytest.raises(RejectedCondition, match="declared affine-quadratic form"):
                engine(sc.model, bare, sc.initial_law)

    def test_quadratic_fitness_rejected(self):
        sc = linear_bm_scenario()
        with pytest.raises(RejectedCondition, match="G = 0"):
            linear_engine(sc.model, quadratic_decay_fitness(), sc.initial_law)


class TestRiccati:
    def test_zero_g_hurwitz_b(self):
        H = solve_riccati(np.eye(2), -np.eye(2), np.zeros((2, 2)))
        assert np.abs(H).max() == 0.0

    def test_scalar_formula(self):
        # H = (b + sqrt(b^2 + 2 sigma^2 g0)) / (2 sigma^2), stabilizing root
        s2, b, g0 = 1.7, 0.4, 0.9
        H = solve_riccati([[s2]], [[b]], [[g0]])
        target = (b + np.sqrt(b * b + 2 * s2 * g0)) / (2 * s2)
        assert H[0, 0] == pytest.approx(target, abs=1e-12)
        assert b - 2 * s2 * H[0, 0] < 0

    def test_random_instances_residual_and_stability(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            R = gen.standard_normal((3, 3))
            a = R @ R.T + 0.2 * np.eye(3)
            B = gen.standard_normal((3, 3))
            Q = gen.standard_normal((3, 3))
            G = Q @ Q.T + 0.05 * np.eye(3)
            H = solve_riccati(a, B, G)
            res = np.linalg.norm(riccati_residual(H, a, B, G))
            assert res <= 1e-10 * max(1.0, np.linalg.norm(G))
            assert np.linalg.eigvals(B - 2 * a @ H).real.max() < 0

    def test_no_stabilizing_solution_raises(self):
        # G = 0 and B a rotation: B's eigenvalues +-i stay on the imaginary
        # axis for every admissible H, so no solution makes B - 2 a H Hurwitz
        with pytest.raises(RiccatiError, match="stabilizing"):
            solve_riccati(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)))

    def test_solve_linear_v_scalar(self):
        # H=0, B=-kappa, delta: v = delta / kappa
        v = solve_linear_v([[0.0]], [[1.0]], [[-2.0]], [0.7], [1.0])
        assert v[0] == pytest.approx(0.5, abs=1e-13)

    def test_solve_linear_v_zero(self):
        v = solve_linear_v([[0.3]], [[1.0]], [[-1.0]], [0.0], [0.0])
        assert v[0] == 0.0

    def test_solve_linear_v_residual_n2(self):
        gen = np.random.default_rng(7)
        H = gen.standard_normal((2, 2)); H = H + H.T
        R = gen.standard_normal((2, 2)); a = R @ R.T + 0.2 * np.eye(2)
        B = gen.standard_normal((2, 2))
        b = gen.standard_normal(2)
        delta = gen.standard_normal(2)
        v = solve_linear_v(H, a, B, b, delta)
        res = 2 * H @ a @ v - B.T @ v - 2 * H @ b - delta
        assert np.linalg.norm(res) <= 1e-12 * max(1, np.linalg.norm(2 * H @ b + delta))

    def test_singular_system_raises(self):
        with pytest.raises(RiccatiError, match="singular"):
            solve_linear_v([[0.0]], [[1.0]], [[0.0]], [0.0], [1.0])


class TestAffineEngine:
    def test_no_tilt_reduces_to_plain_marginal(self):
        # G=0, delta=0, alpha=0: u(t,.) is the OU marginal law
        m = ou_model(1.2, 0.4, 0.9)
        fit = affine_quadratic_fitness(0.0, [0.0], [[0.0]])
        law = InitialLaw("gaussian", {"mean": [1.0], "cov": [[0.25]]})
        sol = affine_engine(m, fit, law)
        t = 0.8
        mean = 0.4 + (1.0 - 0.4) * np.exp(-1.2 * t)
        var = 0.25 * np.exp(-2 * 1.2 * t) + 0.81 * (1 - np.exp(-2 * 1.2 * t)) / 2.4
        x = np.linspace(-3, 4, 801)
        target = np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
        assert np.abs(sol.u(t, x) - target).max() / target.max() < 1e-9
        assert sol.mass(t) == pytest.approx(1.0, rel=1e-9)

    def test_ou_linear_brute_force_oracle(self):
        sc = ou_linear_scenario()
        sol = affine_engine(sc.model, sc.fitness, sc.initial_law)
        H = sol.meta["H"][0, 0]
        v = sol.meta["v"][0]
        assert H == pytest.approx(0.0, abs=1e-14)
        assert v == pytest.approx(1.0, abs=1e-12)
        pair = sol.meta["eigenpair"]
        assert pair.lam == pytest.approx(-0.5, abs=1e-12)
        # quadrature of phi(x)^{-1} int phi(y) pbar(t,y;x) u0(y) dy
        t = 1.0
        A = np.exp(-1.0 * t)
        r = -(1 - np.exp(-t))  # int_0^t e^{Gam(t-s)} beta ds with beta=-1
        S = (1 - np.exp(-2 * t)) / 2
        y = np.linspace(-12, 12, 8001)
        u0 = sc.initial_law.density(y)
        x = np.linspace(-5, 5, 601)
        pbar = np.exp(-0.5 * (x[:, None] - A * y[None, :] - r) ** 2 / S) / np.sqrt(2 * np.pi * S)
        vals = np.exp(x) * np.trapezoid(np.exp(-y)[None, :] * pbar * u0[None, :], y, axis=1)
        vals /= np.trapezoid(vals, x)
        assert np.abs(sol.u(t, x) - vals).max() / vals.max() < 1e-9

    def test_eigenpair_residual_random_n2(self):
        gen = np.random.default_rng(8)
        R = gen.standard_normal((2, 2))
        sig = R + 2 * np.eye(2)
        B = gen.standard_normal((2, 2)) - 2 * np.eye(2)
        b = gen.standard_normal(2)
        m = affine_model(b, B, sig)
        Q = gen.standard_normal((2, 2))
        G = Q @ Q.T + 0.1 * np.eye(2)
        delta = gen.standard_normal(2)
        fit = affine_quadratic_fitness(0.5, delta, G, g_max=10.0)
        sol = affine_engine(m, fit, InitialLaw("gaussian",
                                               {"mean": [0.0, 0.0], "cov": np.eye(2) * 0.5}))
        pair = sol.meta["eigenpair"]
        pts = gen.uniform(-2, 2, (64, 2))
        res = eigenpair_residual(m, fit, pair, pts)
        assert res <= 1e-6

    def test_eigenpair_residual_n2_needs_d2phi(self):
        import dataclasses
        m = affine_model([0.0, 0.0], -np.eye(2), np.eye(2))
        fit = affine_quadratic_fitness(0.0, [0.3, -0.2], np.eye(2), g_max=10.0)
        sol = affine_engine(m, fit, InitialLaw("gaussian",
                                               {"mean": [0.0, 0.0], "cov": np.eye(2) * 0.5}))
        pair = dataclasses.replace(sol.meta["eigenpair"], d2phi=None)
        with pytest.raises(EngineError, match="d2phi"):
            eigenpair_residual(m, fit, pair, np.zeros((4, 2)))
        # on the line too, unless the pair carries its grid
        sc = ou_linear_scenario()
        pair = affine_engine(sc.model, sc.fitness, sc.initial_law).meta["eigenpair"]
        assert eigenpair_residual(sc.model, sc.fitness, pair, np.zeros(4)) <= 1e-12
        with pytest.raises(EngineError, match="d2phi"):
            eigenpair_residual(sc.model, sc.fitness, dataclasses.replace(pair, d2phi=None),
                               np.zeros(4))

    def test_gaussian_posterior_vs_quadrature_n1(self):
        # full pipeline check at n=1 with G > 0 (nonzero H)
        m = ou_model(1.0, 0.0, 1.0)
        fit = affine_quadratic_fitness(0.0, [0.2], [[0.5]])
        law = InitialLaw("gaussian", {"mean": [0.5], "cov": [[0.3]]})
        sol = affine_engine(m, fit, law)
        pair = sol.meta["eigenpair"]
        t = 0.6
        from repmut.numerics import covariance_integral, expm_integral, matrix_exp
        Gam, beta = sol.meta["Gamma"], sol.meta["beta"]
        A = matrix_exp(Gam, t)[0, 0]
        r = (expm_integral(Gam, t) @ beta)[0]
        S = covariance_integral(Gam, np.array([[1.0]]), t)[0, 0]
        y = np.linspace(-10, 10, 6001)
        u0 = law.density(y)
        x = np.linspace(-4, 4, 501)
        pbar = np.exp(-0.5 * (x[:, None] - A * y[None, :] - r) ** 2 / S) \
            / np.sqrt(2 * np.pi * S)
        vals = np.exp(-pair.log_phi(x)) \
            * np.trapezoid(np.exp(pair.log_phi(y))[None, :] * pbar * u0[None, :],
                           y, axis=1)
        vals /= np.trapezoid(vals, x)
        assert np.abs(sol.u(t, x) - vals).max() / vals.max() < 1e-9

    def test_degenerate_bm_falls_back(self):
        # B = 0, G = 0 is the linear engine's case: the same solution, bit for bit
        sc = linear_bm_scenario()
        sol = affine_engine(sc.model, sc.fitness, sc.initial_law)
        ana = linear_engine(sc.model, sc.fitness, sc.initial_law)
        assert sol.engine == "linear-analytic"
        assert sol.grid.tolist() == ana.grid.tolist()
        x = np.linspace(-4, 7, 801)
        for t in (0.0, 0.3, 1.0):
            assert sol.u(t, x).tolist() == ana.u(t, x).tolist()
            assert sol.mass(t) == ana.mass(t)

    def test_degenerate_bm_2d_gaussian(self):
        # N(m0, S0) under b + sigma W and g = c.x - alpha stays Gaussian:
        # V = S0 + a t, mean m0 + b t - a c t^2 / 2 + t V c, and
        # h(t) = exp(-alpha t + t c.m0 + t^2 (c.S0 c + c.b) / 2 + t^3 c.a c / 6)
        b, sig = np.array([0.1, -0.2]), np.array([[1.0, 0.0], [0.3, 0.8]])
        m0, S0 = np.array([0.2, -0.1]), np.array([[0.5, 0.1], [0.1, 0.4]])
        alpha, c = 0.3, np.array([1.0, -0.5])
        fit = affine_quadratic_fitness(alpha, -c, np.zeros((2, 2)), g_max=5.0)
        law = InitialLaw("gaussian", {"mean": m0, "cov": S0})
        a = sig @ sig.T
        for model in (bm_model(b, sig, n=2), affine_model(b, np.zeros((2, 2)), sig)):
            sol = affine_engine(model, fit, law)
            assert sol.engine == "linear-analytic"
            x = np.random.default_rng(4).normal(0.0, 1.5, (50, 2))
            for t in (0.25, 1.0):
                V = S0 + a * t
                d = x - (m0 + b * t - a @ c * t * t / 2 + t * V @ c)
                q = np.einsum("pi,ij,pj->p", d, np.linalg.inv(V), d)
                want = np.exp(-0.5 * q) / (2 * np.pi * np.sqrt(np.linalg.det(V)))
                assert np.abs(sol.u(t, x) - want).max() <= 1e-12 * want.max()
                h = np.exp(-alpha * t + t * c @ m0 + t * t * (c @ S0 @ c + c @ b) / 2
                           + t ** 3 * (c @ a @ c) / 6)
                assert sol.mass(t) == pytest.approx(h, rel=1e-12)
            assert sol.mass(0.0) == 1.0

    def test_mixture_law_rejected_by_both_kernel_routes(self):
        sc = linear_bm_scenario()
        law = InitialLaw("mixture", {"components": [(0.5, -1.0, 0.5), (0.5, 1.0, 0.5)]})
        for engine in (linear_engine, affine_engine):
            with pytest.raises(RejectedCondition, match="not mixture"):
                engine(sc.model, sc.fitness, law)

    def test_shift_invariance(self):
        m = ou_model(1.0, 0.0, 1.0)
        fit = affine_quadratic_fitness(0.0, [1.0], [[0.0]], g_max=4.0)
        fitc = affine_quadratic_fitness(-5.0, [1.0], [[0.0]], g_max=9.0)
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[0.25]]})
        a = affine_engine(m, fit, law)
        bshift = affine_engine(m, fitc, law)
        x = np.linspace(-4, 4, 401)
        assert np.abs(a.u(0.7, x) - bshift.u(0.7, x)).max() <= 1e-12
        assert bshift.mass(0.7) == pytest.approx(a.mass(0.7) * np.exp(5 * 0.7), rel=1e-6)


def mean_fitness_mass(sol, fitness, t, nodes=257):
    """h(t) by d/dt log h = E_u(t)[g]: exp of the trapezoid rule in s, on 257
    nodes, of the mean fitness of u(s, .), whose moments are taken by
    quadrature.  An independent route with an O(ds^2) error."""
    st = fitness.structure
    alpha, delta, G = st["alpha"], st["delta"][0], st["G"][0][0]
    x = np.linspace(-15.0, 15.0, 6001)
    s_nodes = np.linspace(0.0, t, nodes)
    vals = []
    for s in s_nodes:
        u = sol.u(s, x)
        mean = np.trapezoid(x * u, x)
        var = np.trapezoid((x - mean) ** 2 * u, x)
        vals.append(-(alpha + delta * mean + G * (var + mean * mean)))
    return float(np.exp(np.trapezoid(vals, s_nodes)))


class TestAffineMass:
    def test_vasicek_bond_price_on_ou_linear(self):
        # kappa = sigma = 1, theta = 0, g = -x: the Vasicek bond price
        # exp(A - B x0), B = 1 - e^{-t}, A = (t - B) / 2 - B^2 / 4, averaged
        # over X0 ~ N(0, 1/4), is exp(A + B^2 / 8)
        sc = ou_linear_scenario()
        sol = affine_engine(sc.model, sc.fitness, sc.initial_law)
        for t in (0.1, 0.5, 1.0):
            B = 1.0 - np.exp(-t)
            A = -0.5 * (B - t) - 0.25 * B * B
            assert sol.mass(t) == pytest.approx(np.exp(A + 0.125 * B * B), rel=1e-12)

    def test_gaussian_and_tabulated_branches_agree(self):
        from repmut.validate import VALIDATORS, _check_affine_mass_branches
        assert ("closed_form.affine-mass-branches", _check_affine_mass_branches) \
            in VALIDATORS
        ok, detail = _check_affine_mass_branches()
        assert ok, detail

    def test_mean_fitness_route_oracle(self):
        m = ou_model(0.7, 0.3, 0.8)
        fit = affine_quadratic_fitness(0.2, [0.5], [[0.6]])
        sol = affine_engine(m, fit, InitialLaw("gaussian", {"mean": [0.4], "cov": [[0.3]]}))
        assert sol.mass(1.0) == pytest.approx(mean_fitness_mass(sol, fit, 1.0), rel=1e-6)

    def test_grid_density_mass_independent_of_call_order(self):
        law = gamma_like_law()
        first = affine_engine(ou_model(1.0, 0.0, 1.0), quadratic_decay_fitness(), law,
                              horizon=0.5)
        later = affine_engine(ou_model(1.0, 0.0, 1.0), quadratic_decay_fitness(), law,
                              horizon=0.5)
        later.u(0.5, np.linspace(-1.0, 3.0, 77))  # off the grid: caches the normalizer
        assert later.mass(0.5) == first.mass(0.5)


class TestTiltedEngine:
    def test_matches_affine_on_ou(self):
        sc = ou_linear_scenario()
        ana = affine_engine(sc.model, sc.fitness, sc.initial_law)
        pair = ana.meta["eigenpair"]
        mc = tilted_engine(sc.model, sc.fitness, pair, sc.initial_law, 1.0,
                           n_paths=30_000, seed=4)
        x = np.linspace(-4, 4, 601)
        l1 = np.trapezoid(np.abs(mc.u(1.0, x) - ana.u(1.0, x)), x)
        assert l1 <= 0.05

    def test_trivial_eigenpair_is_plain_kde(self, zero_fitness):
        from repmut.closed_form import Eigenpair
        from repmut.numerics import kde
        from repmut.sde import simulate
        from repmut.model import sample_initial
        m = bm_model(0.0, 1.0)
        xg = np.linspace(-8, 8, 4096)
        law = InitialLaw("grid-density",
                         {"x": xg, "values": np.exp(-0.5 * xg ** 2) / np.sqrt(2 * np.pi)})
        ones = Eigenpair(lam=0.0, phi=lambda x: np.ones_like(np.asarray(x, float)),
                         dphi=lambda x: np.zeros_like(np.asarray(x, float)),
                         source="affine-analytic",
                         log_phi=lambda x: np.zeros_like(np.asarray(x, float)),
                         grad_log_phi=lambda x: np.zeros_like(np.asarray(x, float)),
                         d2phi=lambda x: np.zeros_like(np.asarray(x, float)))
        sol = tilted_engine(m, zero_fitness, ones, law, 0.5, n_paths=5000, seed=9)
        # plain-path KDE with the identical seed and sampling route
        x0 = sample_initial(law, 5000, 9)
        grid_t = TimeGrid(0, 0.5, 200)
        b = simulate(m, x0, grid_t, 9, store=grid_t.checkpoint_indices(17))
        ref = kde(b.positions[:, -1, 0])
        xs = np.linspace(-4, 4, 401)
        assert np.abs(sol.u(0.5, xs) - ref(xs)).max() < 1e-10

    def test_normalized_and_nonnegative_over_time(self):
        sc = ou_linear_scenario()
        ana = affine_engine(sc.model, sc.fitness, sc.initial_law)
        mc = tilted_engine(sc.model, sc.fitness, ana.meta["eigenpair"],
                           sc.initial_law, 1.0, n_paths=5000, seed=10,
                           checkpoints=17)
        for t in mc.times[1:]:
            d = GridDensity(mc.grid, np.maximum(mc.u(t, mc.grid), 0.0)).normalize()
            assert d.values.min() >= 0
            assert d.integral() == pytest.approx(1.0, abs=1e-6)


class TestEngineAgreementOU:
    def test_four_routes_agree(self):
        # mean-reversion with linear decay fitness: eigen-tilt analytic,
        # eigen-tilt Monte Carlo, weighted particles and the PDE oracle
        from repmut.numerics import kde
        from repmut.particle import normalized_measure, run_particles
        from repmut.pde import PdeScheme, solve_rm_pde
        sc = ou_linear_scenario()
        t_end = 1.0
        ana = affine_engine(sc.model, sc.fitness, sc.initial_law)
        mc = tilted_engine(sc.model, sc.fitness, ana.meta["eigenpair"],
                           sc.initial_law, t_end, n_paths=50_000, seed=71)
        ens = run_particles(sc.model, sc.fitness, sc.initial_law, 50_000,
                            TimeGrid(0, t_end, 400), seed=72, checkpoints=3)
        nm = normalized_measure(ens, t_end)
        part = kde(nm.atoms[:, 0], nm.masses)
        xg = np.linspace(-10, 10, 1024)
        u0 = GridDensity(xg, sc.initial_law.density(xg))
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=t_end,
                            scheme=PdeScheme(half_width=10.0, nodes=1024))
        xs = np.linspace(-4.5, 4.5, 901)
        dens = {
            "affine": np.maximum(ana.u(t_end, xs), 0),
            "tilted": np.maximum(mc.u(t_end, xs), 0),
            "particle": part(xs),
            "pde": traj.density(t_end)(xs),
        }
        for k in dens:
            dens[k] = dens[k] / np.trapezoid(dens[k], xs)
        names = sorted(dens)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                l1 = np.trapezoid(np.abs(dens[a] - dens[b]), xs)
                assert l1 <= 5e-2, f"{a} vs {b}: L1 = {l1:.3f}"


class TestLongHorizon:
    """The linear kernel quadrature at horizons where e^{T g} overflows: at T
    the tilted law sits near the law's nodes shifted by b T + a c T^2 / 2,
    which is T^2 on linear-bm."""

    @staticmethod
    def wide_law(sc):  # u0 = N(0, 1), the analytic route's law, on [-10, 40]
        y = np.linspace(-10.0, 40.0, 5001)
        return InitialLaw("grid-density", {"x": y, "values": sc.initial_law.density(y)})

    def test_grid_follows_the_tilt(self):
        sc = linear_bm_scenario()
        law = self.wide_law(sc)
        for T in (6.0, 10.0, 20.0):
            num = linear_engine(sc.model, sc.fitness, law, horizon=T)
            ana = linear_engine(sc.model, sc.fitness, sc.initial_law, horizon=T)
            x = num.grid
            # t = 0 is u0 itself, all of whose mass the grid holds
            assert np.trapezoid(num.u(0.0, x), x) == pytest.approx(1.0, abs=1e-6)
            for t in (T / 3, 2 * T / 3, T):
                assert np.trapezoid(np.abs(num.u(t, x) - ana.u(t, x)), x) < 1e-11

    def test_mass_in_log_space(self):
        # h_T is e^{383} at T = 10, past e^{709} at T = 20, where e^{T g}
        # times the law's weights is inf times 0 at the grid's upper end
        sc = linear_bm_scenario()
        law = self.wide_law(sc)
        ana = linear_engine(sc.model, sc.fitness, sc.initial_law, horizon=10.0)
        num = linear_engine(sc.model, sc.fitness, law, horizon=10.0)
        assert num.mass(10.0) == pytest.approx(ana.mass(10.0), rel=1e-12)
        num = linear_engine(sc.model, sc.fitness, law, horizon=20.0)
        with pytest.raises(HorizonError, match="overflows"):
            num.mass(20.0)

    def test_truncated_law_mean(self):
        # N(0, 1) cut to [-10, 10]: e^{T x} times the kernel sum is a mixture
        # of N(y + T^2, 2 T) over the nodes y, weighted by e^{T y} times the
        # trapezoid weight of u0(y), so its mean is theirs plus T^2
        sc = linear_bm_scenario()
        y = np.linspace(-10.0, 10.0, 2001)
        law = InitialLaw("grid-density", {"x": y, "values": sc.initial_law.density(y)})
        T = 10.0
        sol = linear_engine(sc.model, sc.fitness, law, horizon=T)
        w = trapezoid_weights(y) * law.params["values"] * np.exp(T * (y - y.max()))
        mean = np.trapezoid(sol.grid * sol.u(T, sol.grid), sol.grid)
        assert mean == pytest.approx(w @ y / w.sum() + T * T, rel=1e-12)


# The dense np.trapezoid forms of the two kernel quadratures (the linear one,
# which the degenerate affine case shares, and the affine one), as the engines
# evaluated them before the blocked numerics._gauss_kernel_sum: a full
# (x, y) kernel matrix per call.  Oracles for the blocked evaluation.


def dense_normalized(numerator, grid, x):
    return numerator(x) / np.trapezoid(numerator(grid), grid)


def dense_linear_u(sol, model, fitness, u0, t, x):
    sig, b = model.params["sigma"], model.params["b"]
    a = sig @ sig.T
    c = -np.asarray(fitness.structure["delta"], float)
    mshift = float((b * t - (a @ c) * t * t / 2.0)[0])
    var = float(a[0, 0]) * t

    def numerator(xx):
        if u0.kind == "grid-density":
            ygrid, yvals = u0.params["x"], u0.params["values"]
            diff = xx[:, None] - ygrid[None, :] - mshift
            conv = np.trapezoid(np.exp(-0.5 * diff * diff / var) * yvals[None, :],
                                ygrid, axis=1)
        else:
            diff = xx[:, None] - u0.params["points"][:, 0][None, :] - mshift
            conv = np.exp(-0.5 * diff * diff / var) @ u0.params["weights"]
        conv /= np.sqrt(2 * np.pi * var)
        return np.exp(t * np.asarray(fitness.g(xx), float)) * conv

    return dense_normalized(numerator, sol.grid, x)


def dense_affine_u(sol, B, b, a, u0, t, x):
    pair, H, v = sol.meta["eigenpair"], sol.meta["H"], sol.meta["v"]
    Gamma, beta = B - 2 * a @ H, b - a @ v
    A1 = matrix_exp(Gamma, t)[0, 0]
    r1 = (expm_integral(Gamma, t) @ beta)[0]
    s1 = covariance_integral(Gamma, a, t)[0, 0]
    ygrid, yvals = u0.params["x"], u0.params["values"]

    def log_numerator(xx):
        diff = xx[:, None] - A1 * ygrid[None, :] - r1
        log_k = -0.5 * diff * diff / s1 - 0.5 * np.log(2 * np.pi * s1)
        log_int = log_k + pair.log_phi(ygrid)[None, :] \
            + np.log(np.maximum(yvals, 1e-300))[None, :]
        m = log_int.max(axis=1)
        integ = np.trapezoid(np.exp(log_int - m[:, None]), ygrid, axis=1)
        return m + np.log(integ) - pair.log_phi(xx)

    lz = log_numerator(sol.grid)
    mref = lz[np.isfinite(lz)].max()
    return np.exp(log_numerator(x) - mref) / np.trapezoid(np.exp(lz - mref), sol.grid)


class TestBlockedKernelQuadrature:
    """Engines against the dense oracles above, at a sup-relative gap of
    1e-12, on the engine grid and on 333 points off it (which leave a
    partial last block of rows)."""

    xs = np.linspace(-6.0, 8.0, 333)

    @staticmethod
    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def assert_same_solution(sol, ref, cases):
        for t, x in cases:
            assert sol.u(t, x).tolist() == ref.u(t, x).tolist()
            assert sol.mass(t) == ref.mass(t)

    def test_fallback_gaussian_law(self):
        # the B = 0, G = 0 affine case is linear_engine's analytic Gaussian,
        # which the dense quadrature of the law tabulated on 4096 nodes over
        # +-13 matches
        sc = linear_bm_scenario()
        sol = affine_engine(sc.model, sc.fitness, sc.initial_law, horizon=0.5)
        ref = linear_engine(sc.model, sc.fitness, sc.initial_law, horizon=0.5)
        assert sol.engine == "linear-analytic"
        cases = ((0.0, self.xs), (0.05, self.xs), (0.5, sol.grid), (0.5, self.xs))
        self.assert_same_solution(sol, ref, cases)
        ygrid = np.linspace(-13.0, 13.0, 4096)
        table = InitialLaw("grid-density", {"x": ygrid,
                                            "values": sc.initial_law.density(ygrid)})
        for t, x in cases[1:]:
            self.assert_close(sol.u(t, x), dense_linear_u(sol, sc.model, sc.fitness,
                                                          table, t, x))
        assert sol.u(0.0, self.xs).tolist() == sc.initial_law.density(self.xs).tolist()
        assert sol.mass(0.0) == 1.0

    def test_fallback_grid_density_law_on_nonuniform_grid(self):
        y = 3.0 * np.sinh(np.linspace(-2.5, 2.5, 1500))
        law = InitialLaw("grid-density", {"x": y, "values": np.exp(-0.5 * (y - 0.3) ** 2)
                                          / np.sqrt(2 * np.pi)})
        sc = linear_bm_scenario()
        sol = affine_engine(sc.model, sc.fitness, law, horizon=0.5)
        ref = linear_engine(sc.model, sc.fitness, law, horizon=0.5)
        assert sol.engine == "linear-quadrature"
        assert sol.grid.tolist() == ref.grid.tolist()
        cases = ((0.0, self.xs), (0.1, sol.grid), (0.5, self.xs))
        self.assert_same_solution(sol, ref, cases)
        for t, x in cases[1:]:
            self.assert_close(sol.u(t, x), dense_linear_u(sol, sc.model, sc.fitness,
                                                          law, t, x))

    def test_linear_engine_grid_density_law(self):
        y = 3.0 * np.sinh(np.linspace(-2.5, 2.5, 1500))
        law = InitialLaw("grid-density", {"x": y, "values": np.exp(-0.5 * (y + 0.2) ** 2)
                                          / np.sqrt(2 * np.pi)})
        sc = linear_bm_scenario()
        sol = linear_engine(sc.model, sc.fitness, law, horizon=0.5)
        assert sol.engine == "linear-quadrature"
        for t, x in ((0.1, sol.grid), (0.5, self.xs)):
            self.assert_close(sol.u(t, x), dense_linear_u(sol, sc.model, sc.fitness,
                                                          law, t, x))

    def test_linear_engine_point_cloud_law(self):
        gen = np.random.default_rng(12)
        wts = gen.uniform(0.5, 1.5, 400)
        law = InitialLaw("point-cloud", {"points": gen.normal(0.2, 0.8, (400, 1)),
                                         "weights": wts / wts.sum()})
        sc = linear_bm_scenario()
        sol = linear_engine(sc.model, sc.fitness, law, horizon=0.5)
        for t, x in ((0.1, sol.grid), (0.5, self.xs)):
            self.assert_close(sol.u(t, x), dense_linear_u(sol, sc.model, sc.fitness,
                                                          law, t, x))

    def test_affine_engine_grid_density_law(self):
        # the custom OU(kappa=1, sigma=1) / quadratic-decay / gamma-like case;
        # the engine's affine form is b = kappa theta = 0, B = -kappa
        law = gamma_like_law()
        sol = affine_engine(ou_model(1.0, 0.0, 1.0), quadratic_decay_fitness(), law,
                            horizon=0.5)
        assert sol.engine == "affine-quadrature"
        B, b, a = np.array([[-1.0]]), np.zeros(1), np.eye(1)
        for t, x in ((0.1, self.xs), (0.5, sol.grid), (0.5, self.xs)):
            self.assert_close(sol.u(t, x), dense_affine_u(sol, B, b, a, law, t, x))
