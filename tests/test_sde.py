import numpy as np
import pytest

from repmut import rng
from repmut.model import FitnessFunction
from repmut.scenarios import bm_model, cir_model, linear_fitness, ou_model
from repmut.sde import SimulationError, TimeGrid, TiltedDrift, simulate


CIR_FIT = FitnessFunction(g=lambda x: -np.asarray(x, float), g_max=0.0)


def accumulate_log_weight(bundle, fitness):
    """Trapezoid of the shifted fitness along a 1D bundle stored on its full
    integration grid; (N, S) array, the oracle for the fused weights."""
    g = fitness.g(bundle.positions[:, :, 0]) - fitness.g_max
    seg = 0.5 * np.diff(bundle.times) * (g[:, 1:] + g[:, :-1])
    return np.concatenate([np.zeros((len(g), 1)), np.cumsum(seg, axis=1)], axis=1)


class TestRng:
    def test_counter_determinism(self):
        ids = np.arange(100, dtype=np.uint64)
        a = rng.normals(5, ids, 3, 2)
        b = rng.normals(5, ids, 3, 2)
        assert (a == b).all()

    def test_streams_differ_across_particles_and_steps(self):
        ids = np.arange(2, dtype=np.uint64)
        z0 = rng.normals(5, ids, 0, 1)
        z1 = rng.normals(5, ids, 1, 1)
        assert z0[0, 0] != z0[1, 0]
        assert z0[0, 0] != z1[0, 0]

    def test_moments_sane(self):
        ids = np.arange(200_000, dtype=np.uint64)
        z = rng.normals(17, ids, 0, 2)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs((z[:, 0] * z[:, 1]).mean()) < 0.01

    def test_derive_seed_stable_and_distinct(self):
        assert rng.derive_seed(1, "stage-a") == rng.derive_seed(1, "stage-a")
        assert rng.derive_seed(1, "stage-a") != rng.derive_seed(1, "stage-b")
        assert rng.derive_seed(1, "stage-a") != rng.derive_seed(2, "stage-a")

    def test_known_answers(self):
        ids = np.array([0, 1, 2, 7], dtype=np.uint64)
        z1, z2 = rng.normal_pair(20240601, ids, 3, rng.STREAM_PATH, 5)
        np.testing.assert_allclose(z1, [-1.3296906564426918, 0.027685167261365877,
                                        -0.2880460662500013, 0.514538262753368],
                                   rtol=1e-14)
        np.testing.assert_allclose(z2, [1.6564298298567783, -1.7576331648075476,
                                        1.322196973330277, -0.2907822716498515],
                                   rtol=1e-14)
        # uniforms are exact dyadic rationals: no transcendental rounding
        u = rng.uniforms(20240601, ids, 3, 3)
        assert u.tolist() == [
            [0.8206315720886778, 0.308984104031209, 0.5341292797749727],
            [0.643639407233828, 0.8441640559210212, 0.15516962614735463],
            [0.30697088357613944, 0.2209431318760161, 0.7975819209581619],
            [0.1907805701703048, 0.19800894692308602, 0.685068682404626]]
        assert rng.derive_seed(7, "particles") == 604877873457469580
        assert rng.derive_seed(-1, "x") == 13692771310096562787

    def test_counter_layout_is_numpy_philox_plus_one(self):
        # key (seed, 0), counter (id, step, stream << 20 | block, 0); numpy
        # increments the counter before each block, so id i is the first
        # block that a Philox started at counter (i, ...) returns
        seed, step, stream, block = 99, 4, rng.STREAM_INIT, 0
        for i in (0, 7, 2 ** 40):
            w = np.random.Philox(key=[seed, 0], counter=np.array(
                [i, step, stream << 20 | block, 0], dtype=np.uint64)).random_raw(4)
            expect = ((w[:2] >> 11) | 1) * 2.0 ** -53
            got = rng.uniforms(seed, np.array([i], dtype=np.uint64), step, 2, stream)[0]
            assert got.tolist() == expect.tolist()

    def test_permuted_and_repeated_ids_match_per_id_draws(self):
        ids = np.array([9, 3, 4, 3, 1000, 5, 9, 0], dtype=np.uint64)
        z1, z2 = rng.normal_pair(11, ids, 2, rng.STREAM_PATH, 1)
        for k, i in enumerate(ids):
            a1, a2 = rng.normal_pair(11, ids[k:k + 1], 2, rng.STREAM_PATH, 1)
            assert (z1[k], z2[k]) == (a1[0], a2[0])
        perm = np.random.default_rng(3).permutation(4096).astype(np.uint64)
        full = rng.normals(11, np.arange(4096, dtype=np.uint64), 6, 3)
        assert (rng.normals(11, perm, 6, 3) == full[perm.astype(np.int64)]).all()

    def test_prefix_of_ids_gives_prefix_of_draws(self):
        ids = np.arange(3, 5003, dtype=np.uint64)
        z = rng.normals(13, ids, 1, 2)
        u = rng.uniforms(13, ids, 1, 3)
        for k in (1, 17, 4096):
            assert (rng.normals(13, ids[:k], 1, 2) == z[:k]).all()
            assert (rng.uniforms(13, ids[:k], 1, 3) == u[:k]).all()

    def test_uniforms_strictly_inside_unit_interval(self):
        u = rng.uniforms(5, np.arange(100_000, dtype=np.uint64), 0, 4)
        # every value is an odd multiple of 2**-53, so neither 0 nor 1
        scaled = u * 2.0 ** 53
        assert (scaled % 2 == 1).all()
        assert u.min() > 0.0 and u.max() < 1.0

    def test_block_out_of_range(self):
        ids = np.arange(4, dtype=np.uint64)
        with pytest.raises(ValueError):
            rng.normal_pair(1, ids, 0, rng.STREAM_PATH, 2 ** 20)
        with pytest.raises(ValueError):
            rng.normal_pair(1, ids, 0, rng.STREAM_PATH, -1)
        rng.normal_pair(1, ids, 0, rng.STREAM_PATH, 2 ** 20 - 1)


class TestSimulate:
    def test_deterministic_ode(self):
        # sigma = 0, b = 1: terminal value is exactly 1 for any step count
        m = bm_model(1.0, 0.0)
        for steps in (1, 7, 100):
            b = simulate(m, np.zeros((1, 1)), TimeGrid(0, 1.0, steps), 0)
            assert b.positions[0, -1, 0] == pytest.approx(1.0, abs=1e-14)

    def test_ou_exact_update_vs_fine_euler(self):
        # OU(kappa=1, theta=0, sigma=1), x0 = 2: exact mean e^{-1} * 2
        m = ou_model(1.0, 0.0, 1.0)
        n = 20_000
        x0 = np.full((n, 1), 2.0)
        exact = simulate(m, x0, TimeGrid(0, 1.0, 64), 3,
                         store=TimeGrid(0, 1.0, 64).checkpoint_indices(2))
        assert exact.scheme == "exact-gaussian"
        tilt = TiltedDrift(m, lambda t, x: np.zeros_like(x))  # forces Euler
        grid_f = TimeGrid(0, 1.0, 2 ** 14)
        fine = simulate(tilt, x0[:2000], grid_f, 4,
                        store=grid_f.checkpoint_indices(2))
        assert fine.scheme == "euler-maruyama"
        target = 2.0 * np.exp(-1.0)
        se_e = exact.positions[:, -1, 0].std() / np.sqrt(n)
        se_f = fine.positions[:, -1, 0].std() / np.sqrt(2000)
        assert abs(exact.positions[:, -1, 0].mean() - target) < 3 * se_e
        assert abs(fine.positions[:, -1, 0].mean() - target) < 3 * se_f

    def test_thread_count_invariance(self):
        m = bm_model(0.0, 1.0)
        grid = TimeGrid(0, 0.5, 50)
        x0 = np.zeros((4096, 1))
        b1 = simulate(m, x0, grid, 9, threads=1)
        b8 = simulate(m, x0, grid, 9, threads=8)
        assert (b1.positions == b8.positions).all()

    def test_initial_points_one_per_row(self):
        # a (d, N) block is not read as N points, and at N = d not as rows
        # either way: only (N, d), or (N,) on a 1-D model, is accepted
        grid = TimeGrid(0, 0.5, 10)
        for shape in ((2, 3), (3,), (2, 2, 1)):
            with pytest.raises(SimulationError, match="initial points of shape"):
                simulate(bm_model(n=2), np.zeros(shape), grid, 1)
        with pytest.raises(SimulationError, match=r"need \(N, 1\) or \(N,\)"):
            simulate(bm_model(), np.zeros((1, 3)), grid, 1)
        x0 = np.linspace(-1.0, 1.0, 5)
        flat = simulate(bm_model(0.3, 1.0), x0, grid, 2)
        column = simulate(bm_model(0.3, 1.0), x0[:, None], grid, 2)
        assert flat.positions.tobytes() == column.positions.tobytes()
        assert simulate(bm_model(n=2), np.zeros((3, 2)), grid, 1).positions.shape == (3, 11, 2)

    def test_removing_particles_leaves_prefix(self):
        m = bm_model(0.0, 1.0)
        grid = TimeGrid(0, 0.5, 50)
        big = simulate(m, np.zeros((6, 1)), grid, 42)
        small = simulate(m, np.zeros((4, 1)), grid, 42)
        assert (big.positions[:4] == small.positions).all()

    def test_nonfinite_state_aborts(self):
        from repmut.model import DiffusionModel, DomainSpec
        m = DiffusionModel(domain=DomainSpec("full-space", 1), kind="custom",
                           drift=lambda x: x ** 3,  # explosive
                           diffusion=lambda x: np.ones(x.shape[:-1] + (1, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="non-finite"):
                simulate(m, np.full((4, 1), 30.0), TimeGrid(0, 5.0, 50), 0)

    def test_bm_weak_error_bands(self):
        m = bm_model(0.7, 1.3)
        n = 100_000
        grid = TimeGrid(0, 1.0, 128)
        b = simulate(m, np.zeros((n, 1)), grid, 6, store=grid.checkpoint_indices(2))
        xt = b.positions[:, -1, 0]
        assert abs(xt.mean() - 0.7) <= 4 * 1.3 / np.sqrt(n)
        assert abs(xt.var() - 1.69) <= 4 * 1.69 * np.sqrt(2 / n)


class TestCir:
    def test_deterministic_growth(self):
        # a=1, b=0, sigma=0: pure ODE dx = dt, so x_1 = 2 from x_0 = 1
        from repmut.model import DiffusionModel, DomainSpec
        m = DiffusionModel(domain=DomainSpec("half-line", 1), kind="cir",
                           params={"a": 1.0, "b": 0.0, "sigma": 1e-12})
        b = simulate(m, np.ones((1, 1)), TimeGrid(0, 1.0, 1000), 0)
        assert b.positions[0, -1, 0] == pytest.approx(2.0, rel=1e-6)

    def test_terminal_mean_matches_ode(self):
        # E X_t = a/(-b) (1 - e^{bt}) + x0 e^{bt} = 1 for a=1, b=-1, x0=1
        m = cir_model(1.0, -1.0, 1.0)
        n = 100_000
        grid = TimeGrid(0, 1.0, 256)
        b = simulate(m, np.ones((n, 1)), grid, 12,
                         store=grid.checkpoint_indices(2))
        xt = b.positions[:, -1, 0]
        se = xt.std() / np.sqrt(n)
        assert abs(xt.mean() - 1.0) <= 3 * se

    def test_recorded_states_nonnegative(self):
        m = cir_model(0.5, -1.0, 1.0)  # Feller boundary: 2a = sigma^2
        # weighted paths keep full truncation; unweighted ones would be exact
        b = simulate(m, np.full((2000, 1), 0.05), TimeGrid(0, 1.0, 200), 3, fitness=CIR_FIT)
        assert b.positions.min() >= 0.0
        assert b.scheme == "cir-full-truncation"


def cir_moments(a, b, sigma, x, t):
    """Mean and variance of X_t for the CIR model dX = (a + bX) dt + sigma sqrt(X) dW
    from X_0 = x, gamma = -b > 0."""
    g = -b
    e = np.exp(-g * t)
    mean = x * e + (a / g) * (1.0 - e)
    var = x * sigma ** 2 * (e - e * e) / g + a * sigma ** 2 * (1.0 - e) ** 2 / (2.0 * g * g)
    return mean, var


class TestCirExact:
    # 4 * 0.64 / 0.8**2 is 3.9999999999999996 in floating point
    @pytest.mark.parametrize("a,sigma,x0", [(0.64, 0.8, 0.7), (0.125, 0.5, 0.05)],
                             ids=["d=4", "d=2-feller"])
    def test_moments_match_closed_forms(self, a, sigma, x0):
        m = cir_model(a, -1.3, sigma)
        n = 200_000
        grid = TimeGrid(0, 0.6, 240)
        b = simulate(m, np.full((n, 1), x0), grid, 17, store=grid.checkpoint_indices(4))
        assert (b.scheme, b.fine_steps) == ("exact-noncentral-chi2", 3)
        for j, t in enumerate(b.times[1:], start=1):
            xt = b.positions[:, j, 0]
            mean, var = cir_moments(a, -1.3, sigma, x0, t)
            assert xt.min() >= 0.0
            assert abs(xt.mean() - mean) <= 5 * np.sqrt(var / n)
            m4 = ((xt - mean) ** 4).mean()
            assert abs(((xt - mean) ** 2).mean() - var) <= 5 * np.sqrt((m4 - var * var) / n)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_chi2_sum_is_the_normals_sum(self, d):
        ids = np.arange(5000, dtype=np.uint64)
        r = np.linspace(0.0, 4.0, ids.size)
        z = rng.normals(11, ids, 3, d)
        direct = (z[:, 0] + r) ** 2 + (z[:, 1:] ** 2).sum(axis=1)
        got = rng.noncentral_chi2(11, ids, 3, d, r)
        assert np.abs(got - direct).max() <= 1e-12 * max(1.0, direct.max())

    def test_thread_count_and_prefix_invariance(self):
        m = cir_model(1.0, -1.0, 1.0)
        grid = TimeGrid(0, 0.5, 200)
        store = grid.checkpoint_indices(5)
        x0 = np.linspace(0.01, 3.0, 4096)[:, None]
        b1 = simulate(m, x0, grid, 9, store=store, threads=1)
        b8 = simulate(m, x0, grid, 9, store=store, threads=8)
        assert b1.scheme == "exact-noncentral-chi2"
        assert (b1.positions == b8.positions).all()
        small = simulate(m, x0[:1000], grid, 9, store=store)
        assert (small.positions == b1.positions[:1000]).all()

    def test_other_cir_cases_keep_full_truncation(self):
        grid = TimeGrid(0, 0.5, 20)
        cases = [(cir_model(0.6, -1.0, 1.0), None),     # d = 2.4
                 (cir_model(5.0, -1.0, 1.0), None),     # d = 20 > CHI2_MAX_DOF
                 (cir_model(1.0, -1.0, 1.0), CIR_FIT),  # weighted paths
                 (TiltedDrift(cir_model(1.0, -1.0, 1.0), lambda t, x: np.zeros_like(x)), None)]
        for model, fit in cases:
            b = simulate(model, np.full((4, 1), 0.5), grid, 1, fitness=fit)
            assert (b.scheme, b.fine_steps) == ("cir-full-truncation", 20)


class TestLogWeight:
    def test_constant_fitness_shifts_to_zero(self):
        m = bm_model(0.0, 1.0)
        fit = FitnessFunction(g=lambda x: np.full_like(np.asarray(x, float), 3.0),
                              g_max=3.0)
        b = simulate(m, np.zeros((8, 1)), TimeGrid(0, 1.0, 64), 1, fitness=fit)
        assert np.abs(b.logw).max() == 0.0
        # unshifted value c*t is recoverable from the recorded shift
        assert b.shift * 1.0 == pytest.approx(3.0)

    def test_deterministic_path_integral(self, linear_fit_unshifted):
        # x_s = s, g(x) = x: int_0^1 s ds = 1/2
        m = bm_model(1.0, 0.0)
        b = simulate(m, np.zeros((1, 1)), TimeGrid(0, 1.0, 2 ** 10), 0,
                     fitness=linear_fit_unshifted)
        assert abs(b.logw[0, -1] - 0.5) < 1e-6

    def test_trapezoid_second_order(self, linear_fit_unshifted):
        # deterministic smooth path: halving dt cuts the quadrature error ~4x
        m = bm_model(1.0, 0.0)
        fit = FitnessFunction(g=lambda x: np.asarray(x, float) ** 2, g_max=0.0)
        errs = []
        for steps in (2 ** 5, 2 ** 6):
            b = simulate(m, np.zeros((1, 1)), TimeGrid(0, 1.0, steps), 0, fitness=fit)
            errs.append(abs(b.logw[0, -1] - 1.0 / 3.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_accumulate_matches_fused(self):
        # g(x) = x without declared structure: the fused trapezoid path
        fit = FitnessFunction(g=lambda x: np.asarray(x, float), g_max=0.0)
        m = bm_model(0.0, 1.0)
        grid = TimeGrid(0, 1.0, 128)
        b = simulate(m, np.zeros((16, 1)), grid, 5, fitness=fit)
        assert b.scheme == "exact-gaussian"
        post = accumulate_log_weight(b, fit)
        assert np.abs(post - b.logw).max() < 1e-12

    def test_additivity_over_concatenated_grids(self):
        # g(x) = x without declared structure: the fine-grid trapezoid path
        fit = FitnessFunction(g=lambda x: np.asarray(x, float), g_max=0.0)
        m = bm_model(1.0, 0.0)
        whole = simulate(m, np.zeros((1, 1)), TimeGrid(0, 1.0, 512), 0, fitness=fit)
        first = simulate(m, np.zeros((1, 1)), TimeGrid(0, 0.5, 256), 0, fitness=fit)
        second = simulate(m, np.array([[0.5]]), TimeGrid(0.5, 1.0, 256), 0, fitness=fit)
        assert {b.scheme for b in (whole, first, second)} == {"exact-gaussian"}
        assert (first.logw[0, -1] + second.logw[0, -1]
                == pytest.approx(whole.logw[0, -1], abs=1e-12))


class TestJointGaussian:
    """BM/OU with affine fitness: (X, int X ds) drawn exactly per stored interval."""

    @staticmethod
    def bm_moments(b, sig, x0, T):
        # X_T, int_0^T X ds and their covariance for dX = b dt + sig dW
        s2 = sig * sig
        return (x0 + b * T, s2 * T, x0 * T + 0.5 * b * T * T, s2 * T ** 3 / 3.0,
                0.5 * s2 * T * T)

    @staticmethod
    def ou_moments(kappa, theta, sig, x0, T):
        e = np.exp(-kappa * T)
        s2 = sig * sig
        return (theta + (x0 - theta) * e, s2 * (1 - e * e) / (2 * kappa),
                theta * T + (x0 - theta) * (1 - e) / kappa,
                s2 / kappa ** 2 * (T - 2 * (1 - e) / kappa + (1 - e * e) / (2 * kappa)),
                s2 / kappa * ((1 - e) / kappa - (1 - e * e) / (2 * kappa)))

    def test_sigma_zero_integral_exact_in_one_interval(self):
        # g(x) = 2x - 1 along deterministic paths, one stored interval of 50 fine steps
        fit = linear_fitness(slope=2.0, g_max=1.0)
        grid = TimeGrid(0, 1.0, 50)
        store = grid.checkpoint_indices(2)
        x0 = np.array([[0.7], [-1.3]])
        bm = simulate(bm_model(0.3, 0.0), x0, grid, 0, fitness=fit, store=store)
        assert bm.fine_steps == 1
        np.testing.assert_allclose(bm.logw[:, -1], 2.0 * (x0[:, 0] + 0.15) - 1.0,
                                   rtol=0, atol=1e-14)
        kappa, theta = 1.5, 0.5
        ou = simulate(ou_model(kappa, theta, 0.0), x0, grid, 0, fitness=fit, store=store)
        integral = theta + (x0[:, 0] - theta) * (1 - np.exp(-kappa)) / kappa
        np.testing.assert_allclose(ou.positions[:, -1, 0],
                                   theta + (x0[:, 0] - theta) * np.exp(-kappa),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(ou.logw[:, -1], 2.0 * integral - 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind,params", [("bm", (0.3, 1.2)), ("ou", (1.0, 0.5, 0.8)),
                                             ("ou", (-2.0, 0.0, 0.5))],
                             ids=["bm", "ou", "ou-explosive"])
    def test_joint_moments_match_closed_form(self, kind, params):
        # stored gaps 1/3 and 2/3 on a 3-step grid: a trapezoid on that grid
        # would bias Var(int X ds) by several standard errors
        n, x0, T = 400_000, 1.0, 1.0
        if kind == "bm":
            model, mom = bm_model(*params), self.bm_moments(*params, x0, T)
        else:
            model, mom = ou_model(*params), self.ou_moments(*params, x0, T)
        mx, vx, mi, vi, c = mom
        fit = linear_fitness(slope=1.0, g_max=0.0, bound_lo=-50.0)
        b = simulate(model, np.full((n, 1), x0), TimeGrid(0, T, 3), 23, fitness=fit,
                     store=np.array([0, 1, 3]))
        x, lw = b.positions[:, -1, 0], b.logw[:, -1]
        assert abs(x.mean() - mx) <= 5 * np.sqrt(vx / n)
        assert abs(lw.mean() - mi) <= 5 * np.sqrt(vi / n)
        assert abs(x.var() - vx) <= 5 * vx * np.sqrt(2.0 / n)
        assert abs(lw.var() - vi) <= 5 * vi * np.sqrt(2.0 / n)
        cov = np.mean((x - x.mean()) * (lw - lw.mean()))
        assert abs(cov - c) <= 5 * np.sqrt((vx * vi + c * c) / n)

    @pytest.mark.parametrize("name", ["linear-bm", "ou-linear"])
    def test_mass_matches_affine_engine(self, name):
        from repmut.closed_form import affine_engine
        from repmut.model import sample_initial
        from repmut.scenarios import CANONICAL
        sc = CANONICAL[name]()
        n = 400_000
        x0 = sample_initial(sc.initial_law, n, seed=29)
        grid = TimeGrid(0, 1.0, 2)
        b = simulate(sc.model, x0, grid, 29, fitness=sc.fitness)
        eng = affine_engine(sc.model, sc.fitness, sc.initial_law)
        for j, t in enumerate(b.times[1:], start=1):
            w = np.exp(b.logw[:, j] + sc.fitness.g_max * t)
            assert abs(w.mean() - eng.mass(t)) <= 5 * w.std(ddof=1) / np.sqrt(n)

    def test_one_normal_pair_per_stored_interval(self, monkeypatch):
        calls = []
        orig = rng.normal_pair

        def counting(seed, ids, step, *args):
            calls.append(step)
            return orig(seed, ids, step, *args)

        monkeypatch.setattr(rng, "normal_pair", counting)
        fit = linear_fitness(slope=1.0, g_max=0.0, bound_lo=-50.0)
        grid = TimeGrid(0, 1.0, 450)
        store = grid.checkpoint_indices(7)
        for model in (bm_model(0.0, 1.0), ou_model(1.0, 0.0, 1.0)):
            calls.clear()
            b = simulate(model, np.zeros((8, 1)), grid, 1, fitness=fit, store=store)
            assert b.scheme == "exact-gaussian-joint"
            assert b.fine_steps == store.size - 1
            assert calls == list(range(store.size - 1))

    def test_other_cases_keep_fine_grid(self):
        # quadratic fitness, no fitness, m > 1 and the tilted drift still step finely
        grid = TimeGrid(0, 1.0, 16)
        store = grid.checkpoint_indices(3)
        lin = linear_fitness(slope=1.0, g_max=0.0, bound_lo=-50.0)
        quad = FitnessFunction(g=lambda x: -np.asarray(x, float) ** 2, g_max=0.0,
                               structure={"kind": "affine-quadratic", "alpha": 0.0,
                                          "delta": [0.0], "G": [[1.0]]})
        bm = bm_model(0.0, 1.0)
        cases = [(bm, quad, 1, "exact-gaussian"), (bm, None, 1, "exact-gaussian"),
                 (bm_model(0.0, 1.0, n=2), None, 2, "exact-gaussian"),
                 (TiltedDrift(bm, lambda t, x: np.zeros_like(x)), lin, 1, "euler-maruyama")]
        for model, fit, dim, scheme in cases:
            b = simulate(model, np.zeros((4, dim)), grid, 1, fitness=fit, store=store)
            assert (b.scheme, b.fine_steps) == (scheme, 16)

    def test_thread_count_invariance(self):
        fit = linear_fitness(slope=1.0, g_max=2.0)
        grid = TimeGrid(0, 0.5, 50)
        store = grid.checkpoint_indices(6)
        x0 = np.linspace(-1.0, 1.0, 4096)[:, None]
        for model in (bm_model(0.2, 1.0), ou_model(1.0, 0.5, 0.8)):
            b1 = simulate(model, x0, grid, 9, fitness=fit, store=store, threads=1)
            b8 = simulate(model, x0, grid, 9, fitness=fit, store=store, threads=8)
            assert b1.scheme == "exact-gaussian-joint"
            assert (b1.positions == b8.positions).all() and (b1.logw == b8.logw).all()

    def test_removing_particles_leaves_prefix(self):
        fit = linear_fitness(slope=1.0, g_max=2.0)
        grid = TimeGrid(0, 0.5, 50)
        store = grid.checkpoint_indices(6)
        for model in (bm_model(0.2, 1.0), ou_model(1.0, 0.5, 0.8)):
            big = simulate(model, np.zeros((6, 1)), grid, 42, fitness=fit, store=store)
            small = simulate(model, np.zeros((4, 1)), grid, 42, fitness=fit, store=store)
            assert big.scheme == "exact-gaussian-joint"
            assert (big.positions[:4] == small.positions).all()
            assert (big.logw[:4] == small.logw).all()
