import numpy as np
import pytest
import scipy.linalg

from repmut.constants import TOL
from repmut.model import FitnessFunction
from repmut.numerics import GridDensity
from repmut.pde import (DT_MULTIPLE, PdeError, PdeScheme, _build_grid, _Strang,
                        solve_rm_pde, weak_form_residual)
from repmut.scenarios import (bm_model, cir_linear_scenario, cir_model,
                              harmonic_scenario, linear_bm_scenario)


def fitness_mean_trace(traj, fitness):
    """Time series of the population mean fitness along the trajectory."""
    g = np.asarray(fitness.g(traj.grid), float)
    vals = [np.trapezoid(g * u, traj.grid) / np.trapezoid(u, traj.grid)
            for u in traj.densities]
    return traj.times.copy(), np.asarray(vals)


def gaussian_grid_density(var=0.25, half_width=12.0, nodes=2048):
    x = np.linspace(-half_width, half_width, nodes)
    return GridDensity(x, np.exp(-0.5 * x ** 2 / var) / np.sqrt(2 * np.pi * var))


class TestHeatLimit:
    def test_zero_fitness_matches_heat_kernel(self, zero_fitness):
        m = bm_model(0.0, np.sqrt(2.0))
        u0 = gaussian_grid_density(0.25)
        traj = solve_rm_pde(m, zero_fitness, u0, T=1.0,
                            scheme=PdeScheme(half_width=12.0, nodes=2048))
        var = 0.25 + 2.0
        exact = np.exp(-0.5 * traj.grid ** 2 / var) / np.sqrt(2 * np.pi * var)
        l1 = np.trapezoid(np.abs(traj.density(1.0).values - exact), traj.grid)
        assert l1 <= 5e-3

    def test_normalized_after_every_stored_step(self, zero_fitness):
        m = bm_model(0.0, np.sqrt(2.0))
        u0 = gaussian_grid_density(0.25, half_width=10.0, nodes=512)
        traj = solve_rm_pde(m, zero_fitness, u0, T=0.3,
                            scheme=PdeScheme(half_width=10.0, nodes=512),
                            store_every=1)
        for i in range(len(traj.times)):
            total = np.trapezoid(traj.densities[i], traj.grid)
            assert abs(total - 1.0) <= 1e-9


class TestLinearFitness:
    def test_matches_analytic_gaussian(self):
        sc = linear_bm_scenario()
        u0 = gaussian_grid_density(1.0)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=1.0,
                            scheme=PdeScheme(half_width=12.0, nodes=2048))
        mean, var = 2.0, 3.0
        exact = np.exp(-0.5 * (traj.grid - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
        l1 = np.trapezoid(np.abs(traj.density(1.0).values - exact), traj.grid)
        assert l1 <= 2e-2

    def test_mean_fitness_trace(self):
        sc = linear_bm_scenario()
        u0 = gaussian_grid_density(1.0)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=1.0,
                            scheme=PdeScheme(half_width=12.0, nodes=1024))
        ts, trace = fitness_mean_trace(traj, sc.fitness)
        target = ts + ts ** 2  # m0 + s0^2 t + t^2 with m0=0, s0=1
        assert np.abs(trace - target).max() <= 2e-2

    def test_constant_fitness_trace(self):
        m = bm_model(0.0, 1.0)
        fit = FitnessFunction(g=lambda x: np.full_like(np.asarray(x, float), 3.0),
                              g_max=3.0)
        u0 = gaussian_grid_density(0.5, half_width=10.0, nodes=512)
        traj = solve_rm_pde(m, fit, u0, T=0.2,
                            scheme=PdeScheme(half_width=10.0, nodes=512))
        _, trace = fitness_mean_trace(traj, fit)
        assert np.abs(trace - 3.0).max() <= 1e-12


class TestHarmonic:
    def test_trace_finite_and_continuous(self):
        sc = harmonic_scenario()
        u0 = gaussian_grid_density(0.25, half_width=10.0, nodes=1024)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=1.0,
                            scheme=PdeScheme(half_width=10.0, nodes=1024))
        ts, trace = fitness_mean_trace(traj, sc.fitness)
        assert np.isfinite(trace).all()
        assert np.abs(np.diff(trace)).max() < 0.5

    def test_positivity_audit(self):
        sc = harmonic_scenario()
        u0 = gaussian_grid_density(0.25, half_width=10.0, nodes=1024)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=1.0,
                            scheme=PdeScheme(half_width=10.0, nodes=1024))
        assert traj.negativity_clips == 0
        assert traj.densities.min() >= 0.0


class TestHalfLine:
    def test_cir_preserves_stationary_density(self):
        # Gamma(2a/s^2, 2|b|/s^2) = Gamma(2, 2) is stationary for g = 0
        m = cir_model(1.0, -1.0, 1.0)
        fit = FitnessFunction(g=lambda x: np.zeros_like(np.asarray(x, float)),
                              g_max=0.0)
        dx = 14.0 / 1024
        x = (np.arange(1024) + 0.5) * dx
        u0 = GridDensity(x, 4.0 * x * np.exp(-2.0 * x)).normalize()
        traj = solve_rm_pde(m, fit, u0, T=0.5,
                            scheme=PdeScheme(half_width=14.0, nodes=1024))
        l1 = np.trapezoid(np.abs(traj.density(0.5).values - u0.values), x)
        assert l1 <= 5e-3
        assert traj.mass_leak <= 1e-4

    def test_mass_leak_guard_raises(self):
        m = bm_model(0.0, np.sqrt(2.0))
        fit = FitnessFunction(g=lambda x: np.zeros_like(np.asarray(x, float)),
                              g_max=0.0)
        x = np.linspace(-3, 3, 256)
        u0 = GridDensity(x, np.exp(-0.5 * x ** 2)).normalize()
        with pytest.raises(PdeError, match="leak"):
            solve_rm_pde(m, fit, u0, T=4.0, scheme=PdeScheme(half_width=3.0, nodes=256))


class TestRefinement:
    def test_weak_form_residual_second_order(self):
        sc = linear_bm_scenario()
        u0 = gaussian_grid_density(1.0, half_width=12.0, nodes=512)

        def f(x):
            return np.exp(-0.5 * (x - 1.0) ** 2)

        def df(x):
            return -(x - 1.0) * f(x)

        def d2f(x):
            return ((x - 1.0) ** 2 - 1.0) * f(x)

        res = []
        for nodes in (512, 1024):
            traj = solve_rm_pde(sc.model, sc.fitness,
                                gaussian_grid_density(1.0, 12.0, nodes), T=0.5,
                                scheme=PdeScheme(half_width=12.0, nodes=nodes),
                                store_every=1)
            res.append(weak_form_residual(sc.model, sc.fitness, traj, f, df, d2f))
        assert res[0] / res[1] >= 3.0

    def test_l1_error_refinement_order(self):
        sc = linear_bm_scenario()
        errs = []
        for nodes in (512, 1024):
            u0 = gaussian_grid_density(1.0, 12.0, nodes)
            traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5,
                                scheme=PdeScheme(half_width=12.0, nodes=nodes))
            mean, var = 0.5 + 0.25, 2.0
            exact = np.exp(-0.5 * (traj.grid - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
            errs.append(np.trapezoid(np.abs(traj.density(0.5).values - exact), traj.grid))
        factor = errs[0] / errs[1]
        assert 4.0 * 0.6 <= factor <= 4.0 * 1.4

    def test_step_policy(self):
        # each store interval takes at most ceil(len / (16 dt_bound)) equal
        # steps, and either met the time-error tolerance or took exactly that
        # ceiling; the stored times are the requested ones bit for bit
        sc = cir_linear_scenario()
        scheme = PdeScheme(half_width=14.0, nodes=512)
        x, dx, _ = _build_grid(sc.model, scheme)
        u0 = GridDensity(x, sc.initial_law.density(x)).normalize()
        dt_bound = dx * dx / (2.0 * (sc.model.diffusion(x[:, None])[:, 0, 0] ** 2).max())
        store = np.array([0.0, 0.0123, 0.0005, 0.07, 0.0123, 0.1])
        traj = solve_rm_pde(sc.model, sc.fitness, u0, 0.1, scheme, store_times=store)
        assert traj.times.tolist() == [0.0, 0.0005, 0.0123, 0.07, 0.1]
        lengths = np.diff(traj.times)
        ceilings = np.ceil(lengths / (DT_MULTIPLE * dt_bound)).astype(int)
        counts = np.array(traj.meta["interval_steps"])
        estimates = traj.meta["interval_estimates"]
        assert (counts <= ceilings).all()
        assert traj.steps == counts.sum() < ceilings.sum()
        for n, ceiling, est in zip(counts, ceilings, estimates):
            assert (est is None and n == ceiling) or est <= TOL["pde_time_l1"]
        met = [e for e in estimates if e is not None]
        assert traj.ceiling_intervals == len(estimates) - len(met)
        assert traj.time_l1_estimate == max(met)
        assert traj.meta["dt_bound"] == dt_bound
        # the largest accepted step, which may pass the ceiling's step
        assert traj.meta["dt"] == (lengths / counts).max() > DT_MULTIPLE * dt_bound
        assert (lengths / ceilings <= DT_MULTIPLE * dt_bound).all()

    def test_store_every_keeps_every_kth_step(self):
        sc = linear_bm_scenario()
        scheme = PdeScheme(half_width=12.0, nodes=256)
        x, dx, _ = _build_grid(sc.model, scheme)
        u0 = GridDensity(x, sc.initial_law.density(x)).normalize()
        n = int(np.ceil(0.5 / (DT_MULTIPLE * dx * dx / 4.0)))  # sigma^2 = 2
        assert n % 4 != 0
        traj = solve_rm_pde(sc.model, sc.fitness, u0, 0.5, scheme, store_every=4)
        # marched to T, which is not a 4th step, in at most the ceiling count
        assert len(traj.meta["interval_steps"]) == n // 4 + 1
        assert traj.steps <= n
        np.testing.assert_array_equal(traj.times, np.linspace(0.0, 0.5, n + 1)[::4])

    def test_unrequested_horizon_is_marched_but_not_stored(self):
        sc = linear_bm_scenario()
        scheme = PdeScheme(half_width=12.0, nodes=256)
        x = _build_grid(sc.model, scheme)[0]
        u0 = GridDensity(x, sc.initial_law.density(x)).normalize()
        traj = solve_rm_pde(sc.model, sc.fitness, u0, 0.2, scheme,
                            store_times=[0.05, 0.3, -1.0])
        assert traj.times.tolist() == [0.0, 0.05, 0.2]  # 0.3 clips to T
        short = solve_rm_pde(sc.model, sc.fitness, u0, 0.2, scheme, store_times=[0.05])
        assert short.times.tolist() == [0.0, 0.05]
        assert short.steps == traj.steps
        np.testing.assert_array_equal(short.densities, traj.densities[:2])


class TestSummary:
    def test_summary_json(self, tmp_path, zero_fitness):
        import json
        m = bm_model(0.0, 1.0)
        x = np.linspace(-8, 8, 256)
        u0 = GridDensity(x, np.exp(-0.5 * x ** 2)).normalize()
        traj = solve_rm_pde(m, zero_fitness, u0, T=0.05,
                            scheme=PdeScheme(half_width=8.0, nodes=256))
        path = tmp_path / "summary.json"
        traj.summary_json(path)
        data = json.loads(path.read_text())
        assert set(data) >= {"mass_leak", "steps", "runtime_s"}
        assert data["steps"] == traj.steps

    def test_failed_write_leaves_no_file(self, tmp_path, zero_fitness):
        m = bm_model(0.0, 1.0)
        x = np.linspace(-8, 8, 256)
        u0 = GridDensity(x, np.exp(-0.5 * x ** 2)).normalize()
        traj = solve_rm_pde(m, zero_fitness, u0, T=0.05,
                            scheme=PdeScheme(half_width=8.0, nodes=256))
        # "a" serializes, then the object after it raises
        traj.summary = lambda: {"a": 1.0, "b": object()}
        with pytest.raises(TypeError):
            traj.summary_json(tmp_path / "pde_summary.json")
        assert list(tmp_path.iterdir()) == []


def reference_solve(model, fitness, u0, T, scheme, store_times, multiple=DT_MULTIPLE,
                    counts=None):
    """The solver as first written: per-node flux assembly, a banded solve
    that refactors at every step, trapezoid calls and two reaction half
    steps per Strang step.  It marches from stored time to stored time (and
    on to T), each interval in ``counts[i]`` equal steps, or by default in
    equal steps of at most ``multiple`` times the explicit bound.  Kept as
    the oracle of the factored solver."""
    if model.domain.kind == "half-line":
        dx = scheme.half_width / scheme.nodes
        x = (np.arange(scheme.nodes) + 0.5) * dx
    else:
        x = np.linspace(-scheme.half_width, scheme.half_width, scheme.nodes)
        dx = x[1] - x[0]
    half_line = model.domain.kind == "half-line"
    dt_max = multiple * dx * dx / (2.0 * (model.diffusion(x[:, None])[:, 0, 0] ** 2).max())
    u = np.maximum(u0(x), 0.0)
    u = u / np.trapezoid(u, x)
    gvals = np.asarray(fitness.g(x), float)

    M = x.size
    D = model.diffusion(x[:, None])[:, 0, 0] ** 2 / 2.0
    xc = np.concatenate([[x[0] - dx], x, [x[-1] + dx]])
    bmid = model.drift(0.5 * (xc[1:] + xc[:-1])[:, None])[:, 0]
    lower, diag, upper = np.zeros(M), np.zeros(M), np.zeros(M)
    for j in range(M):
        if j < M - 1:
            upper[j] += (D[j + 1] / dx - bmid[j + 1] / 2.0) / dx
        diag[j] += (-D[j] / dx - bmid[j + 1] / 2.0) / dx
        if j > 0:
            lower[j] -= (-D[j - 1] / dx - bmid[j] / 2.0) / dx
            diag[j] -= (D[j] / dx - bmid[j] / 2.0) / dx
        elif not half_line:
            diag[j] -= (D[j] / dx - bmid[j] / 2.0) / dx

    def react(vec, factor):
        w = vec * factor
        return w / np.trapezoid(w, x)

    stored = [t for t in sorted(set(np.clip(store_times, 0.0, T).tolist())) if t > 0]
    times, dens, clips, steps, start = [0.0], [u.copy()], 0, 0, 0.0
    for i, stop in enumerate(sorted(set(stored) | {T})):
        n = int(np.ceil((stop - start) / dt_max)) if counts is None else counts[i]
        dt = (stop - start) / n
        half_react = np.exp(0.5 * dt * (gvals - gvals.max()))
        ab = np.zeros((3, M))
        ab[0, 1:] = -0.5 * dt * upper[:-1]
        ab[1, :] = 1.0 - 0.5 * dt * diag
        ab[2, :-1] = -0.5 * dt * lower[1:]
        for _ in range(n):
            u = react(u, half_react)
            before = np.trapezoid(u, x)
            rhs = (1.0 + 0.5 * dt * diag) * u
            rhs[:-1] += 0.5 * dt * upper[:-1] * u[1:]
            rhs[1:] += 0.5 * dt * lower[1:] * u[:-1]
            u = scipy.linalg.solve_banded((1, 1), ab, rhs)
            neg = u < 0
            if neg.any():
                if u[neg].min() < -1e-12:
                    clips += int((u < -1e-14).sum())
                u = np.maximum(u, 0.0)
            after = np.trapezoid(u, x)
            assert abs(before - after) <= TOL["pde_mass_leak"]
            u = u / after * before
            u = react(u, half_react)
        steps += n
        start = stop
        if stop in stored:
            times.append(stop)
            dens.append(u.copy())
    return np.asarray(times), np.asarray(dens), steps, clips


def _initial_on_grid(sc, half_width, box=False):
    x = _build_grid(sc.model, PdeScheme(half_width=half_width, nodes=2048))[0]
    vals = (np.abs(x) <= 1.0).astype(float) if box else sc.initial_law.density(x)
    return GridDensity(x, np.maximum(vals, 0.0)).normalize()


class TestAgainstReference:
    """The factored, fused solver reproduces the step-by-step one, marched
    with the step counts the estimate chose, to roundoff: same steps, store
    times and clip count."""

    @pytest.mark.parametrize("scenario,T,half_width", [
        (cir_linear_scenario, 0.015, 14.0),
        (linear_bm_scenario, 0.1, 12.0),
    ])
    def test_matches_reference(self, scenario, T, half_width):
        sc = scenario()
        scheme = PdeScheme(half_width=half_width, nodes=2048)
        u0 = _initial_on_grid(sc, half_width)
        store = np.linspace(0.0, T, 3)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T, scheme, store_times=store)
        times, dens, steps, clips = reference_solve(sc.model, sc.fitness, u0, T,
                                                    scheme, store,
                                                    counts=traj.meta["interval_steps"])
        assert traj.steps == steps
        assert traj.negativity_clips == clips
        np.testing.assert_array_equal(traj.times, times)
        np.testing.assert_array_equal(traj.times, store)
        gap = np.abs(traj.densities - dens).max() / np.abs(dens).max()
        assert gap <= 1e-12


class TestStepAccuracy:
    """With the step counts the estimate chooses, at most those of 16 times
    the explicit bound, the solution stays within 1e-5 L1 of the bound-step
    march at every stored time, also from a discontinuous initial density."""

    @pytest.mark.parametrize("scenario,T,half_width,box", [
        (linear_bm_scenario, 0.1, 12.0, False),
        (cir_linear_scenario, 0.015, 14.0, False),
        (linear_bm_scenario, 0.1, 12.0, True),
    ], ids=["linear-bm", "cir", "box"])
    def test_close_to_bound_step(self, scenario, T, half_width, box):
        sc = scenario()
        scheme = PdeScheme(half_width=half_width, nodes=2048)
        u0 = _initial_on_grid(sc, half_width, box)
        store = np.linspace(0.0, T, 4)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T, scheme, store_times=store)
        times, dens, steps, clips = reference_solve(sc.model, sc.fitness, u0, T,
                                                    scheme, store, multiple=1)
        np.testing.assert_array_equal(traj.times, times)
        assert traj.negativity_clips == clips == 0
        assert traj.steps * 15 < steps
        l1 = np.trapezoid(np.abs(traj.densities - dens), traj.grid, axis=1)
        assert l1.max() <= 1e-5


class TestTimeEstimate:
    """The step-doubling estimate per store interval: it bounds the L1 gap
    to a march 4x finer, it leaves a rough start at the ceiling, and it
    leaves marches of at most 2 steps per interval as they were."""

    def test_estimate_bounds_the_gap_to_a_finer_march(self):
        from repmut.validate import VALIDATORS
        ok, detail = dict(VALIDATORS)["pde.time-estimate"]()
        assert ok, detail

    def test_box_stops_at_the_ceiling(self):
        sc = linear_bm_scenario()
        scheme = PdeScheme(half_width=12.0, nodes=2048)
        u0 = _initial_on_grid(sc, 12.0, box=True)
        dx = _build_grid(sc.model, scheme)[1]
        traj = solve_rm_pde(sc.model, sc.fitness, u0, 0.1, scheme,
                            store_times=np.linspace(0.0, 0.1, 4))
        ceiling = int(np.ceil((0.1 / 3) / (DT_MULTIPLE * dx * dx / 4.0)))  # sigma^2 = 2
        assert traj.meta["interval_steps"] == [ceiling] * 3
        assert traj.steps == 3 * ceiling == 183
        assert traj.ceiling_intervals == 3 and traj.time_l1_estimate == 0.0
        assert traj.meta["interval_estimates"] == [None] * 3
        assert traj.trial_steps > 0 and traj.negativity_clips == 0

    def test_store_every_step_marches_without_trials(self):
        # every interval's ceiling is 1 step, so each is marched as one
        # Strang step from the last, exactly as a fixed-step march does
        sc = linear_bm_scenario()
        scheme = PdeScheme(half_width=12.0, nodes=512)
        x, dx, half_line = _build_grid(sc.model, scheme)
        u0 = GridDensity(x, sc.initial_law.density(x))
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5, scheme=scheme, store_every=1)
        assert traj.trial_steps == 0
        assert traj.meta["interval_steps"] == [1] * (len(traj.times) - 1)
        assert traj.ceiling_intervals == len(traj.times) - 1
        strang = _Strang(sc.model, sc.fitness, x, dx, half_line)
        u = traj.densities[0]
        for i in range(1, len(traj.times)):
            u = strang.march(u, traj.times[i] - traj.times[i - 1], 1)[0]
            np.testing.assert_array_equal(traj.densities[i], u)

    def test_cir_half_unit_march_is_short(self):
        # acceptance 5's march: cir-linear to T = 0.5 on 2048 nodes, 33
        # stored times; 18,720 steps at 16 times the bound
        sc = cir_linear_scenario()
        dx = 14.0 / 2048
        xh = (np.arange(2048) + 0.5) * dx
        u0 = GridDensity(xh, sc.initial_law.density(xh)).normalize()
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5,
                            scheme=PdeScheme(half_width=14.0, nodes=2048))
        assert traj.steps <= 2000
        assert traj.ceiling_intervals == 0
        assert traj.time_l1_estimate <= TOL["pde_time_l1"]
        assert traj.negativity_clips == 0
