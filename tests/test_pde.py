import numpy as np
import pytest
import scipy.linalg

from repmut.constants import TOL
from repmut.model import FitnessFunction
from repmut.numerics import GridDensity
from repmut.pde import (PdeError, PdeScheme, fitness_mean_trace, solve_rm_pde,
                        weak_form_residual)
from repmut.scenarios import (bm_model, cir_linear_scenario, cir_model,
                              harmonic_scenario, linear_bm_scenario)


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
                              g_max=3.0, q_coeffs=[0.0])
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
                              g_max=0.0, q_coeffs=[0.0])
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
                              g_max=0.0, q_coeffs=[0.0])
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

    def test_dt_safety_bound_enforced(self):
        sc = linear_bm_scenario()
        u0 = gaussian_grid_density(1.0, 12.0, 512)
        with pytest.raises(PdeError, match="safety"):
            solve_rm_pde(sc.model, sc.fitness, u0, T=0.5,
                         scheme=PdeScheme(half_width=12.0, nodes=512, dt=0.01))


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


def reference_solve(model, fitness, u0, T, scheme, store_times):
    """The solver as first written: per-node flux assembly, a banded solve
    that refactors at every step, trapezoid calls and two reaction half
    steps per Strang step.  Kept as the oracle of the factored solver."""
    if model.domain.kind == "half-line":
        dx = scheme.half_width / scheme.nodes
        x = (np.arange(scheme.nodes) + 0.5) * dx
    else:
        x = np.linspace(-scheme.half_width, scheme.half_width, scheme.nodes)
        dx = x[1] - x[0]
    half_line = model.domain.kind == "half-line"
    dt = dx * dx / (2.0 * (model.diffusion(x[:, None])[:, 0, 0] ** 2).max())
    steps = int(np.ceil(T / dt))
    dt = T / steps
    u = np.maximum(u0(x), 0.0)
    u = u / np.trapezoid(u, x)
    gvals = np.asarray(fitness.g(x), float)
    half_react = np.exp(0.5 * dt * (gvals - gvals.max()))

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
    ab = np.zeros((3, M))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]

    def explicit(vec):
        out = (1.0 + 0.5 * dt * diag) * vec
        out[:-1] += 0.5 * dt * upper[:-1] * vec[1:]
        out[1:] += 0.5 * dt * lower[1:] * vec[:-1]
        return out

    def react(vec, factor):
        w = vec * factor
        return w / np.trapezoid(w, x)

    snap = np.unique(np.clip(np.round(np.asarray(store_times) / dt).astype(int),
                             0, steps))
    times, dens, clips = [0.0], [u.copy()], 0
    for k in range(steps):
        u = react(u, half_react)
        before = np.trapezoid(u, x)
        u = scipy.linalg.solve_banded((1, 1), ab, explicit(u))
        neg = u < 0
        if neg.any():
            if u[neg].min() < -1e-12:
                clips += int((u < -1e-14).sum())
            u = np.maximum(u, 0.0)
        after = np.trapezoid(u, x)
        assert abs(before - after) <= TOL["pde_mass_leak"]
        u = u / after * before
        u = react(u, half_react)
        if (k + 1) in snap:
            times.append((k + 1) * dt)
            dens.append(u.copy())
    return np.asarray(times), np.asarray(dens), steps, clips


class TestAgainstReference:
    """The factored, fused solver reproduces the step-by-step one to
    roundoff: same steps, store times and clip count."""

    @pytest.mark.parametrize("scenario,T,half_width", [
        (cir_linear_scenario, 0.015, 14.0),
        (linear_bm_scenario, 0.1, 12.0),
    ])
    def test_matches_reference(self, scenario, T, half_width):
        sc = scenario()
        scheme = PdeScheme(half_width=half_width, nodes=2048)
        if sc.model.domain.kind == "half-line":
            x = (np.arange(2048) + 0.5) * half_width / 2048
        else:
            x = np.linspace(-half_width, half_width, 2048)
        u0 = GridDensity(x, np.maximum(sc.initial_law.density(x), 0.0)).normalize()
        store = np.linspace(0.0, T, 3)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T, scheme, store_times=store)
        times, dens, steps, clips = reference_solve(sc.model, sc.fitness, u0, T,
                                                    scheme, store)
        assert traj.steps == steps
        assert traj.negativity_clips == clips
        np.testing.assert_array_equal(traj.times, times)
        gap = np.abs(traj.densities - dens).max() / np.abs(dens).max()
        assert gap <= 1e-12
