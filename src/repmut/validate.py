"""Runtime invariant suite behind the ``validate`` subcommand.

Each check has a stable identifier, reads its tolerance from the central
table at call time, and returns (ok, detail).  The full matrix covers the
metric axioms, mass identities, Riccati residuals, eigenpair residuals,
refinement orders and the determinism contracts.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .constants import TOL
from .closed_form import (affine_engine, eigenpair_residual, linear_engine,
                          riccati_residual, solve_riccati)
from .metric import (CompactifiedMeasure, _pair_violation_dense, _pair_violation_sweep,
                     bl_distance, bl_dirac_formula, bl_flow_bound, check_certificate,
                     dstar)
from .model import FitnessFunction, InitialLaw, check_fitness_bound
from .numerics import GridDensity, covariance_integral, kde, matrix_exp
from .particle import (ensemble_from_bundle, mass_estimate, normalized_measure,
                       run_particles, tilted_measure)
from .pde import PdeScheme, _build_grid, _Strang, solve_rm_pde, weak_form_residual
from .scenarios import (affine_quadratic_fitness, bm_model, cir_linear_scenario, cir_model,
                        gamma_like_law, harmonic_scenario, linear_bm_scenario,
                        linear_fitness, ou_model, quadratic_decay_fitness)
from .sde import TimeGrid, simulate
from .spectral import SchrodingerProblem, cir_eigenpair, schrodinger_ground_state


def _check_fitness_bound_probe():
    sc = linear_bm_scenario()
    rep = check_fitness_bound(sc.fitness, sc.model.domain, count=1000)
    qd = quadratic_decay_fitness()
    rep2 = check_fitness_bound(qd, bm_model().domain, count=1000)
    ok = rep["violations"] == 0 and rep2["violations"] == 0
    return ok, f"violations {rep['violations']}/{rep2['violations']}"


def _check_law_normalization():
    law = gamma_like_law()
    total = np.trapezoid(law.params["values"], law.params["x"])
    ok = abs(total - 1.0) <= TOL["law_normalization"]
    return ok, f"integral {total:.12f}"


def _check_rng_determinism():
    ids = np.arange(64, dtype=np.uint64)
    a = rng.normals(99, ids, 7, 2)
    b = rng.normals(99, ids, 7, 2)
    return bool((a == b).all()), "bit-identical"


def _check_thread_independence():
    sc = linear_bm_scenario()
    grid = TimeGrid(0, 0.5, 100)
    from .model import sample_initial
    x0 = sample_initial(sc.initial_law, 4096, seed=5)
    b1 = simulate(sc.model, x0, grid, 5, fitness=sc.fitness, threads=1)
    b8 = simulate(sc.model, x0, grid, 5, fitness=sc.fitness, threads=8)
    ok = (b1.positions == b8.positions).all() and (b1.logw == b8.logw).all()
    return bool(ok), "1 vs 8 threads bit-identical"


def _check_stream_independence():
    m = bm_model(0.0, 1.0)
    grid = TimeGrid(0, 0.5, 50)
    big = simulate(m, np.zeros((5, 1)), grid, 42)
    small = simulate(m, np.zeros((3, 1)), grid, 42)
    ok = (big.positions[:3] == small.positions).all()
    return bool(ok), "prefix paths unchanged by removing particles"


def _check_bm_weak_error():
    m = bm_model(0.7, 1.3)
    grid = TimeGrid(0, 1.0, 200)
    n = 100_000
    b = simulate(m, np.zeros((n, 1)), grid, 17, store=grid.checkpoint_indices(2))
    xt = b.positions[:, -1, 0]
    se_mean = 1.3 / np.sqrt(n)
    ok = abs(xt.mean() - 0.7) <= 4 * se_mean
    var_err = abs(xt.var() - 1.69)
    ok = ok and var_err <= 4 * 1.69 * np.sqrt(2.0 / n)
    return bool(ok), f"mean {xt.mean():.4f} var {xt.var():.4f}"


def _check_trapezoid_additivity():
    m = bm_model(1.0, 0.0)  # deterministic path x_t = t
    # g(x) = x without declared structure, so the fine-grid trapezoid runs
    # (declared-affine fitness takes the exact joint step instead)
    fit = FitnessFunction(g=lambda x: np.asarray(x, float), g_max=0.0)
    whole = simulate(m, np.zeros((1, 1)), TimeGrid(0, 1.0, 512), 0, fitness=fit)
    first = simulate(m, np.zeros((1, 1)), TimeGrid(0, 0.5, 256), 0, fitness=fit)
    second = simulate(m, np.array([[0.5]]), TimeGrid(0.5, 1.0, 256), 0, fitness=fit)
    total = first.logw[0, -1] + second.logw[0, -1]
    schemes = {b.scheme for b in (whole, first, second)}
    ok = schemes == {"exact-gaussian"} and abs(whole.logw[0, -1] - total) <= 1e-12
    return bool(ok), (f"concatenated {total:.12f} vs whole {whole.logw[0, -1]:.12f}, "
                      f"scheme {'/'.join(sorted(schemes))}")


def _check_matrix_exp_semigroup():
    gen = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        n = int(gen.integers(2, 7))
        A = gen.standard_normal((n, n))
        A -= (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(n)
        s, t = gen.uniform(0.1, 1.5, 2)
        err = np.abs(matrix_exp(A, s + t) - matrix_exp(A, s) @ matrix_exp(A, t)).max()
        worst = max(worst, err)
    return worst <= TOL["matrix_exp_residual"], f"worst semigroup gap {worst:.2e}"


def _check_covariance_symmetry():
    gen = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        n = int(gen.integers(1, 5))
        G = gen.standard_normal((n, n)) - 2 * np.eye(n)
        R = gen.standard_normal((n, n))
        a = R @ R.T + 0.1 * np.eye(n)
        S = covariance_integral(G, a, 0.7)
        worst = max(worst, np.abs(S - S.T).max())
    return worst <= TOL["covariance_symmetry"], f"worst asymmetry {worst:.2e}"


def _check_kde_normalized():
    gen = np.random.default_rng(4)
    pts = gen.standard_normal(5000)
    w = gen.uniform(0, 1, 5000)
    d = kde(pts, w)
    total = d.integral()
    ok = d.values.min() >= 0 and abs(total - 1.0) <= TOL["law_normalization"]
    return ok, f"integral {total:.10f}"


def _check_shift_invariance():
    sc = linear_bm_scenario()
    base = linear_engine(sc.model, sc.fitness, sc.initial_law)
    c = 5.0
    shifted_fit = affine_quadratic_fitness(-c, [-1.0], [[0.0]], g_max=sc.fitness.g_max + c,
                                           bound_region=sc.fitness.bound_region)
    other = linear_engine(sc.model, shifted_fit, sc.initial_law)
    x = np.linspace(-4, 6, 257)
    du = np.abs(base.u(0.7, x) - other.u(0.7, x)).max()
    h_ratio = other.mass(0.7) / base.mass(0.7)
    ok = du <= TOL["shift_invariance"] and abs(h_ratio - np.exp(c * 0.7)) <= 1e-9 * np.exp(c * 0.7)
    return ok, f"max density gap {du:.2e}, mass ratio error {abs(h_ratio - np.exp(c*0.7)):.2e}"


def _check_riccati():
    gen = np.random.default_rng(5)
    for _ in range(5):
        n = 3
        R = gen.standard_normal((n, n))
        a = R @ R.T + 0.2 * np.eye(n)
        B = gen.standard_normal((n, n)) - 2.5 * np.eye(n)
        Q = gen.standard_normal((n, n))
        G = Q @ Q.T
        H = solve_riccati(a, B, G)
        res = np.linalg.norm(riccati_residual(H, a, B, G))
        gam_eigs = np.linalg.eigvals(B - 2 * a @ H).real
        if res > TOL["riccati_residual"] * max(1, np.linalg.norm(G)) or gam_eigs.max() >= 0:
            return False, f"residual {res:.2e}, max Re eig {gam_eigs.max():.3f}"
    return True, "stabilizing solves within tolerance"


def _check_density_normalization():
    sc = linear_bm_scenario()
    sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
    worst = 0.0
    for t in np.linspace(1.0 / 16, 1.0, 16):
        d = GridDensity(sol.grid, np.maximum(sol.u(t, sol.grid), 0.0))
        worst = max(worst, abs(np.trapezoid(sol.u(t, sol.grid), sol.grid) - 1.0))
        if d.values.min() < 0:
            return False, "negative density"
    return worst <= TOL["density_normalization"], f"worst mass defect {worst:.2e}"


def _check_affine_mass_branches():
    """The affine engine's mass on one Gaussian law, in closed form and
    through that law tabulated on 4096 nodes over +-12 sd."""
    m, fit = ou_model(0.7, 0.3, 0.8), affine_quadratic_fitness(0.2, [0.5], [[0.6]])
    law = InitialLaw("gaussian", {"mean": [0.4], "cov": [[0.3]]})
    y = np.linspace(0.4 - 12 * np.sqrt(0.3), 0.4 + 12 * np.sqrt(0.3), 4096)
    gauss = affine_engine(m, fit, law)
    tab = affine_engine(m, fit, InitialLaw("grid-density", {"x": y, "values": law.density(y)}))
    worst = max(abs(tab.mass(t) / gauss.mass(t) - 1.0) for t in (0.05, 0.2, 1.0))
    return worst <= TOL["affine_mass_branches_rel"], f"worst relative gap {worst:.2e}"


def _check_eigen_residuals():
    fit = FitnessFunction(g=lambda x: -np.asarray(x, float), g_max=0.0)
    m = cir_model(1.0, -1.0, 1.0)
    pair = cir_eigenpair(1.0, -1.0, 1.0)
    r1 = eigenpair_residual(m, fit, pair, np.linspace(0.1, 5, 64))
    sc = harmonic_scenario()
    gs = schrodinger_ground_state(SchrodingerProblem(
        sigma=1.0, g=lambda x: -x ** 2, half_width=8.0, nodes=2048))
    r2 = eigenpair_residual(sc.model, sc.fitness, gs, np.linspace(-4, 4, 64))
    lam_err = abs(gs.lam - 1.0)
    ok = r1 <= TOL["eigenpair_residual_rel"] and r2 <= TOL["eigenpair_residual_rel"] \
        and lam_err <= 1e-4
    return ok, f"cir {r1:.2e}, grid {r2:.2e}, lam err {lam_err:.2e}"


def _check_schrodinger_order():
    lams = []
    for nodes in (512, 1024, 2048):
        gs = schrodinger_ground_state(SchrodingerProblem(
            sigma=1.0, g=lambda x: -x ** 2, half_width=8.0, nodes=nodes))
        lams.append(gs.lam)
    r = abs(lams[0] - lams[1]) / abs(lams[1] - lams[2])
    ok = 4.0 * 0.7 <= r <= 4.0 * 1.3
    return ok, f"eigenvalue error reduction factor {r:.2f}"


def _small_ensemble():
    sc = linear_bm_scenario()
    return run_particles(sc.model, sc.fitness, sc.initial_law, 512,
                         TimeGrid(0, 1.0, 128), seed=21, checkpoints=9), sc


def _check_measure_identity():
    ens, _ = _small_ensemble()
    worst = 0.0
    for t in ens.times[1:]:
        nm = normalized_measure(ens, t)
        tm = tilted_measure(ens, t)
        h = mass_estimate(ens, t)
        worst = max(worst, np.abs(nm.masses * h - tm.masses).max())
        worst = max(worst, abs(tm.total_mass - h))
    return worst <= TOL["measure_identity"], f"worst identity gap {worst:.2e}"


def _check_shift_cancellation():
    sc = linear_bm_scenario()
    grid = TimeGrid(0, 1.0, 128)
    from .model import sample_initial
    x0 = sample_initial(sc.initial_law, 512, seed=21)
    b1 = simulate(sc.model, x0, grid, 21, fitness=sc.fitness,
                  store=grid.checkpoint_indices(9))
    # g + 5 declared affine too, so both runs take the same (joint) scheme
    fit5 = affine_quadratic_fitness(alpha=-5.0, delta=[-1.0], G=[[0.0]],
                                    g_max=sc.fitness.g_max + 5.0)
    b2 = simulate(sc.model, x0, grid, 21, fitness=fit5,
                  store=grid.checkpoint_indices(9))
    e1, e2 = ensemble_from_bundle(b1), ensemble_from_bundle(b2)
    worst = 0.0
    for t in e1.times[1:]:
        m1 = normalized_measure(e1, t).masses
        m2 = normalized_measure(e2, t).masses
        worst = max(worst, np.abs(m1 - m2).max())
    return worst <= TOL["measure_identity"], f"worst shifted-mass gap {worst:.2e}"


def _check_exchangeability():
    m = bm_model(0.0, 1.0)
    fit = linear_fitness(1.0, g_max=2.0)
    law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
    grid = TimeGrid(0, 0.5, 64)
    from .model import sample_initial
    n = 64
    perm = np.random.default_rng(9).permutation(n).astype(np.uint64)
    x0 = sample_initial(law, n, seed=31)
    a = simulate(m, x0, grid, 31, fitness=fit)
    # permuted stream keys with matching initial points
    xp = np.empty_like(x0)
    xp[:] = x0[perm.astype(int)]
    b = simulate(m, xp, grid, 31, fitness=fit, particle_ids=perm)
    sa = np.sort(a.positions[:, -1, 0])
    sb = np.sort(b.positions[:, -1, 0])
    ok = (sa == sb).all() and (np.sort(a.logw[:, -1]) == np.sort(b.logw[:, -1])).all()
    return bool(ok), "sorted atom/weight multisets identical"


def _check_dstar_triangle(n_triples=10_000):
    gen = np.random.default_rng(7)
    x = gen.uniform(-50, 50, (n_triples, 3))
    d12 = np.array([dstar(a, b) for a, b in zip(x[:, 0], x[:, 1])])
    d13 = np.array([dstar(a, b) for a, b in zip(x[:, 0], x[:, 2])])
    d32 = np.array([dstar(a, b) for a, b in zip(x[:, 2], x[:, 1])])
    worst = float((d12 - d13 - d32).max())
    return worst <= 1e-12, f"worst triangle excess {worst:.2e}"


def _check_metric_axioms(n_triples=1000):
    gen = np.random.default_rng(8)
    worst_sym, worst_tri, worst_feas = 0.0, 0.0, 0.0
    for _ in range(n_triples):
        ms = []
        for _ in range(3):
            k = int(gen.integers(1, 5))
            atoms = gen.uniform(-6, 6, k)[:, None]
            masses = gen.dirichlet(np.ones(k)) * gen.uniform(0.2, 1.0)
            ms.append(CompactifiedMeasure(atoms, masses))
        rab = bl_distance(ms[0], ms[1])
        rba = bl_distance(ms[1], ms[0])
        rac = bl_distance(ms[0], ms[2])
        rcb = bl_distance(ms[2], ms[1])
        worst_sym = max(worst_sym, abs(rab.value - rba.value))
        worst_tri = max(worst_tri, rab.value - rac.value - rcb.value)
        worst_feas = max(worst_feas, check_certificate(rab))
    ok = worst_sym <= TOL["bl_symmetry"] and worst_tri <= TOL["bl_triangle_slack"] \
        and worst_feas <= TOL["lp_certificate_feasibility"]
    return ok, f"sym {worst_sym:.2e}, tri {worst_tri:.2e}, feas {worst_feas:.2e}"


def _check_dirac_formula(n_pairs=100):
    gen = np.random.default_rng(9)
    worst = 0.0
    for _ in range(n_pairs):
        x, y = gen.uniform(-8, 8, 2)
        mu = CompactifiedMeasure(np.array([[x]]), np.array([1.0]))
        nu = CompactifiedMeasure(np.array([[y]]), np.array([1.0]))
        worst = max(worst, abs(bl_distance(mu, nu).value - bl_dirac_formula(x, y)))
    return worst <= TOL["bl_small_exact"], f"worst gap {worst:.2e}"


def _check_bl_bounds():
    gen = np.random.default_rng(10)
    for _ in range(100):
        k1, k2 = gen.integers(1, 6, 2)
        mu = CompactifiedMeasure(gen.uniform(-9, 9, int(k1))[:, None],
                                 gen.dirichlet(np.ones(int(k1))) * gen.uniform(0.1, 1))
        nu = CompactifiedMeasure(gen.uniform(-9, 9, int(k2))[:, None],
                                 gen.dirichlet(np.ones(int(k2))) * gen.uniform(0.1, 1))
        val = bl_distance(mu, nu).value
        tv = 0.5 * (np.abs(np.concatenate([mu.masses, -nu.masses])).sum()
                    + abs(mu.star_mass - nu.star_mass))
        if val > 2.0 + 1e-12 or val > 2 * tv + 1e-9:
            return False, f"value {val:.4f} exceeds bound (tv {tv:.4f})"
    return True, "values within 2 and 2*TV"


def _check_certificate_sweep(n_cases=400):
    # random sorted supports with arbitrary (mostly infeasible) psi; a wide
    # spread puts hub routes l_i + l_{i+1} below the chain gaps
    gen = np.random.default_rng(11)
    worst, hub_shorter = 0.0, 0
    for i in range(n_cases):
        k = int(gen.integers(1, 80))
        x = np.sort(gen.uniform(-1.0, 1.0, k) * (2.0, 8.0, 30.0)[i % 3])
        lv = 1.0 / (1.0 + np.abs(x))
        hub_shorter += bool(np.any(lv[:-1] + lv[1:] < np.diff(x)))
        psi = gen.uniform(-1.0, 1.0, k)
        lip = float(gen.uniform(0.0, 1.0))
        worst = max(worst, abs(_pair_violation_sweep(x, psi, lip, lv)
                               - _pair_violation_dense(x, psi, lip, lv)))
    ok = worst <= 1e-14 and hub_shorter > 0
    return ok, f"worst gap {worst:.2e} to the pairwise check, {hub_shorter} hub-shorter supports"


def _check_flow_upper_bound(n_cases=60):
    # small (1-8 atoms) and large (30-150 atoms) merged supports, each LP on
    # its own cold HiGHS model; every third case shares one grid
    gen = np.random.default_rng(12)
    worst, unbounded = np.inf, 0
    grid = np.linspace(-9.0, 9.0, 257)
    for i in range(n_cases):
        k1, k2 = gen.integers(1, 9, 2) if i % 2 else gen.integers(30, 150, 2)
        ms = []
        for k in (int(k1), int(k2)):
            atoms = (gen.choice(grid, k, replace=False) if i % 3 == 0
                     else gen.uniform(-9.0, 9.0, k))
            ms.append(CompactifiedMeasure(atoms[:, None],
                                          gen.dirichlet(np.ones(k)) * gen.uniform(0.1, 1.0)))
        res = bl_distance(*ms)
        unbounded += not res.meta.get("dual_bound", -np.inf) >= res.value
        worst = min(worst, bl_flow_bound(*ms) - res.value)
    ok = worst >= -1e-12 and unbounded == 0
    return ok, f"least bound slack {worst:.2e}, {unbounded} results without a dual bound"


def _check_pde_weak_form():
    sc = linear_bm_scenario()
    x = np.linspace(-12, 12, 1024)
    u0 = GridDensity(x, sc.initial_law.density(x))

    def f(xx):
        return np.exp(-0.5 * (xx - 1.0) ** 2)

    def df(xx):
        return -(xx - 1.0) * f(xx)

    def d2f(xx):
        return ((xx - 1.0) ** 2 - 1.0) * f(xx)

    res = []
    for nodes in (512, 1024):
        sch = PdeScheme(half_width=12.0, nodes=nodes)
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5, scheme=sch,
                            store_every=1)
        res.append(weak_form_residual(sc.model, sc.fitness, traj, f, df, d2f))
    factor = res[0] / max(res[1], 1e-300)
    return factor >= 3.0, f"residual reduction factor {factor:.2f}"


def _check_pde_positivity():
    sc = harmonic_scenario()
    x = np.linspace(-10, 10, 1024)
    u0 = GridDensity(x, sc.initial_law.density(x))
    traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5,
                        scheme=PdeScheme(half_width=10.0, nodes=1024))
    ok = traj.negativity_clips == 0 and traj.densities.min() >= 0
    return ok, f"clips {traj.negativity_clips}"


def _check_pde_time_estimate():
    """Each store interval's march lies within its step-doubling estimate
    (L1) of a march 4x finer from the same start, and each stored density
    within the sum of the estimates so far of the 4x finer march from t = 0.
    The cases are the solve runs of the benchmark: linear-bm to T = 0.1 and
    cir-linear to T = 0.015, stored at T/2 and T on the CLI's grids."""
    worst, ceiling = 0.0, 0
    for sc, T, half_width in ((linear_bm_scenario(), 0.1, 12.0),
                              (cir_linear_scenario(), 0.015, 14.0)):
        scheme = PdeScheme(half_width=half_width, nodes=2048)
        x, dx, half_line = _build_grid(sc.model, scheme)
        u0 = GridDensity(x, sc.initial_law.density(x)).normalize()
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T, scheme,
                            store_times=np.linspace(0.0, T, 3))
        strang = _Strang(sc.model, sc.fitness, x, dx, half_line)
        ceiling += traj.ceiling_intervals
        fine, budget = traj.densities[0], 0.0
        for i, (n, est) in enumerate(zip(traj.meta["interval_steps"],
                                         traj.meta["interval_estimates"])):
            if est is None:
                break
            length = traj.times[i + 1] - traj.times[i]
            local = strang.march(traj.densities[i], length, 4 * n)[0]
            fine = strang.march(fine, length, 4 * n)[0]
            budget += est
            worst = max(worst,
                        strang.wq @ np.abs(local - traj.densities[i + 1]) / est,
                        strang.wq @ np.abs(fine - traj.densities[i + 1]) / budget)
    return bool(worst <= 1.0 and ceiling == 0), \
        f"worst gap / estimate {worst:.2f}, {ceiling} intervals at the ceiling"


VALIDATORS = [
    ("model.fitness-bound-probe", _check_fitness_bound_probe),
    ("model.law-normalization", _check_law_normalization),
    ("rng.determinism", _check_rng_determinism),
    ("sde.thread-independence", _check_thread_independence),
    ("sde.stream-independence", _check_stream_independence),
    ("sde.bm-weak-error", _check_bm_weak_error),
    ("sde.trapezoid-additivity", _check_trapezoid_additivity),
    ("numerics.matrix-exp-semigroup", _check_matrix_exp_semigroup),
    ("numerics.covariance-symmetry", _check_covariance_symmetry),
    ("numerics.kde-normalized", _check_kde_normalized),
    ("closed_form.shift-invariance", _check_shift_invariance),
    ("closed_form.riccati-stabilizing", _check_riccati),
    ("closed_form.density-normalization", _check_density_normalization),
    ("closed_form.affine-mass-branches", _check_affine_mass_branches),
    ("spectral.eigenpair-residuals", _check_eigen_residuals),
    ("spectral.schrodinger-order", _check_schrodinger_order),
    ("particle.measure-identity", _check_measure_identity),
    ("particle.shift-cancellation", _check_shift_cancellation),
    ("particle.exchangeability", _check_exchangeability),
    ("metric.dstar-triangle", _check_dstar_triangle),
    ("metric.bl-axioms", _check_metric_axioms),
    ("metric.dirac-formula", _check_dirac_formula),
    ("metric.bl-bounds", _check_bl_bounds),
    ("metric.certificate-sweep", _check_certificate_sweep),
    ("metric.flow-upper-bound", _check_flow_upper_bound),
    ("pde.weak-form-order", _check_pde_weak_form),
    ("pde.positivity-audit", _check_pde_positivity),
    ("pde.time-estimate", _check_pde_time_estimate),
]


def run_all(full: bool = True):
    """Runs every validator; returns (all_ok, list of (id, ok, detail))."""
    results = []
    all_ok = True
    for name, fn in VALIDATORS:
        try:
            if name == "metric.bl-axioms" and full:
                ok, detail = _check_metric_axioms(10_000)
            else:
                ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
        all_ok = all_ok and ok
    return all_ok, results
