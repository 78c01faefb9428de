"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities (run with -s to stream them).

Criteria are pinned to their stated tolerances and runtime budgets; nothing
here is calibrated after the fact.
"""

import time

import numpy as np

from repmut.closed_form import (affine_engine, eigenpair_residual, linear_engine,
                                riccati_residual, solve_riccati, tilted_engine)
from repmut.metric import dqt_estimate
from repmut.model import InitialLaw, sample_initial
from repmut.numerics import GridDensity, kde
from repmut.particle import (ensemble_from_bundle, mass_estimate, mass_estimate_se,
                             normalized_measure, run_particles, tilted_measure)
from repmut.pde import PdeScheme, solve_rm_pde, weak_form_residual
from repmut.scenarios import (affine_quadratic_fitness, bm_model, cir_linear_scenario,
                              harmonic_scenario, linear_bm_scenario, linear_fitness)
from repmut.sde import TimeGrid, simulate
from repmut.spectral import SchrodingerProblem, cir_eigenpair, schrodinger_ground_state
from repmut.validate import VALIDATORS


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_linear_closed_form():
    m0, s0 = 0.3, 1.1
    sc = linear_bm_scenario(m0=m0, s0=s0)
    # timed section: engine construction plus density evaluations
    t0 = time.time()
    sol = linear_engine(sc.model, sc.fitness, sc.initial_law)
    evals = {}
    for t in (0.25, 0.5, 1.0):
        mean = m0 + s0 ** 2 * t + t * t
        var = s0 ** 2 + 2 * t
        x = np.linspace(mean - 10 * np.sqrt(var), mean + 10 * np.sqrt(var), 2001)
        evals[t] = (x, sol.u(t, x))
    elapsed = time.time() - t0
    worst = 0.0
    for t, (x, u) in evals.items():
        mean = m0 + s0 ** 2 * t + t * t
        var = s0 ** 2 + 2 * t
        oracle = np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
        worst = max(worst, np.abs(u - oracle).max() / oracle.max())
    # independent brute-force quadrature of the representation formula
    # (oracle cost excluded from the engine's runtime budget)
    t = 1.0
    y = np.linspace(-14, 14, 6001)
    u0 = sc.initial_law.density(y)
    x = np.linspace(-6, 9, 1001)
    k = np.exp(-((x[:, None] - y[None, :] + t * t) ** 2) / (4 * t))
    num = np.exp(t * x) * np.trapezoid(k * u0[None, :], y, axis=1)
    xz = np.linspace(-16, 18, 12001)
    kz = np.exp(-((xz[:, None] - y[None, :] + t * t) ** 2) / (4 * t))
    z = np.trapezoid(np.exp(t * xz) * np.trapezoid(kz * u0[None, :], y, axis=1), xz)
    brute = num / z
    worst_bf = np.abs(sol.u(t, x) - brute).max() / brute.max()
    ok = worst <= 1e-6 and worst_bf <= 1e-6 and elapsed < 1.0
    report(1, "gaussian linear-fitness closed form", ok,
           f"sup rel err {worst:.2e}, brute-force gap {worst_bf:.2e}, {elapsed:.2f}s")


def test_criterion_2_normalization_identity():
    t = 1.0
    y = np.linspace(-14, 14, 8001)
    u0 = np.exp(-0.5 * y ** 2) / np.sqrt(2 * np.pi)
    z = np.linspace(-16, 18, 16001)
    k = np.exp(-((z[:, None] - y[None, :] + t * t) ** 2) / (4 * t))
    lhs = np.trapezoid(np.exp(t * z) * np.trapezoid(k * u0[None, :], y, axis=1), z)
    rhs = np.sqrt(4 * np.pi * t) * np.trapezoid(np.exp(t * y) * u0, y)
    rel = abs(lhs - rhs) / abs(rhs)
    report(2, "tilted-kernel normalization identity", rel <= 1e-8,
           f"lhs {lhs:.10f}, rhs {rhs:.10f}, rel gap {rel:.2e}")


def test_criterion_3_triangulation():
    t0 = time.time()
    sc = linear_bm_scenario()  # u0 = N(0,1), g_max = 2
    t_end = 1.0
    sols = {
        "linear": linear_engine(sc.model, sc.fitness, sc.initial_law),
        "affine": affine_engine(sc.model, sc.fitness, sc.initial_law),
    }
    x = np.linspace(-12, 12, 2048)
    u0 = GridDensity(x, sc.initial_law.density(x))
    traj = solve_rm_pde(sc.model, sc.fitness, u0, T=t_end,
                        scheme=PdeScheme(half_width=12.0, nodes=2048))
    ens = run_particles(sc.model, sc.fitness, sc.initial_law, 100_000,
                        TimeGrid(0, t_end, 400), seed=31, checkpoints=3)
    nm = normalized_measure(ens, t_end)
    kde_dens = kde(nm.atoms[:, 0], nm.masses)

    grid = np.linspace(-6, 9, 1501)
    dens = {name: np.maximum(s.u(t_end, grid), 0) for name, s in sols.items()}
    dens["pde"] = traj.density(t_end)(grid)
    dens["particle"] = kde_dens(grid)
    for k_ in dens:
        dens[k_] = dens[k_] / np.trapezoid(dens[k_], grid)
    names = sorted(dens)
    worst = 0.0
    details = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            l1 = np.trapezoid(np.abs(dens[a] - dens[b]), grid)
            worst = max(worst, l1)
            details.append(f"{a}/{b}={l1:.3f}")
    pde_vs_analytic = np.trapezoid(np.abs(dens["pde"] - dens["linear"]), grid)
    elapsed = time.time() - t0
    ok = worst <= 5e-2 and pde_vs_analytic <= 2e-2 and elapsed < 60.0
    report(3, "four-route triangulation", ok,
           "; ".join(details) + f"; pde/analytic={pde_vs_analytic:.3f}; {elapsed:.0f}s")


def test_criterion_4_harmonic_confining():
    t0 = time.time()
    sc = harmonic_scenario()
    gs = schrodinger_ground_state(SchrodingerProblem(
        sigma=1.0, g=lambda x: -x ** 2, half_width=8.0, nodes=2048))
    lam_err = abs(gs.lam - 1.0)
    mc = tilted_engine(sc.model, sc.fitness, gs, sc.initial_law, 1.0,
                       n_paths=100_000, seed=41)
    x = np.linspace(-12, 12, 2048)
    u0 = GridDensity(x, sc.initial_law.density(x))
    traj = solve_rm_pde(sc.model, sc.fitness, u0, T=1.0,
                        scheme=PdeScheme(half_width=12.0, nodes=2048))
    xs = np.linspace(-6, 6, 1201)
    l1 = np.trapezoid(np.abs(mc.u(1.0, xs) - traj.density(1.0)(xs)), xs)
    elapsed = time.time() - t0
    ok = lam_err <= 1e-4 and l1 <= 5e-2 and elapsed < 120.0
    report(4, "harmonic confining scenario", ok,
           f"lam0 err {lam_err:.2e}, tilted/pde L1 {l1:.3f}, {elapsed:.0f}s")


def test_criterion_5_cir_scenario():
    t0 = time.time()
    sc = cir_linear_scenario()
    p = sc.model.params
    pair = cir_eigenpair(p["a"], p["b"], p["sigma"])
    res = eigenpair_residual(sc.model, sc.fitness, pair, np.linspace(0.1, 5, 64))
    mc = tilted_engine(sc.model, sc.fitness, pair, sc.initial_law, 0.5,
                       n_paths=100_000, seed=51)
    states_ok = True
    # direct base-model run for the positivity contract
    base = run_particles(sc.model, sc.fitness, sc.initial_law, 20_000,
                         TimeGrid(0, 0.5, 200), seed=52, checkpoints=9)
    states_ok = base.positions.min() >= 0.0
    dx = 14.0 / 2048
    xh = (np.arange(2048) + 0.5) * dx
    u0 = GridDensity(xh, sc.initial_law.density(xh)).normalize()
    traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5,
                        scheme=PdeScheme(half_width=14.0, nodes=2048))
    xs = np.linspace(0.005, 8, 1200)
    l1 = np.trapezoid(np.abs(mc.u(0.5, xs) - traj.density(0.5)(xs)), xs)
    elapsed = time.time() - t0
    ok = res <= 1e-6 and states_ok and l1 <= 8e-2 and elapsed < 120.0
    report(5, "cir scenario", ok,
           f"eigen residual {res:.2e}, states>=0 {states_ok}, "
           f"tilted/pde L1 {l1:.3f}, {elapsed:.0f}s")


def test_criterion_6_mass_factor():
    t0 = time.time()
    m = bm_model(0.0, np.sqrt(2.0))
    fit = linear_fitness(slope=1.0, g_max=0.0, bound_lo=-50.0)  # shift 0
    law = InitialLaw("point-cloud", {"points": [[0.0]]})
    n = 1_000_000
    x0 = sample_initial(law, n, seed=61)
    grid = TimeGrid(0.0, 1.0, 256)
    bundle = simulate(m, x0, grid, seed=61, fitness=fit,
                      store=grid.checkpoint_indices(2))
    ens = ensemble_from_bundle(bundle)
    h = mass_estimate(ens, 1.0)
    se = mass_estimate_se(ens, 1.0)
    target = np.exp(1.0 / 3.0)
    gap = abs(h - target)
    elapsed = time.time() - t0
    ok = gap <= 3 * se and elapsed < 60.0
    report(6, "mass factor e^(1/3)", ok,
           f"h_mc {h:.6f} vs {target:.6f}, gap/se {gap / se:.2f}, {elapsed:.0f}s")


def test_criterion_7_metric_module():
    # the validate registry's checks: 10,000 random triples for symmetry,
    # the triangle inequality and certificate feasibility, then 100 pairs
    # of unit Diracs against the closed form, each gated by TOL
    t0 = time.time()
    checks = dict(VALIDATORS)
    axioms_ok, axioms = checks["metric.bl-axioms"](10_000)
    dirac_ok, dirac = checks["metric.dirac-formula"]()
    elapsed = time.time() - t0
    ok = axioms_ok and dirac_ok and elapsed < 60.0
    report(7, "metric module", ok, f"{axioms}; dirac {dirac}, {elapsed:.0f}s")


def test_criterion_8_chaos_rate():
    t0 = time.time()
    sc = linear_bm_scenario()
    ref = linear_engine(sc.model, sc.fitness, sc.initial_law)
    ladder = [250, 500, 1000, 2000, 4000]
    values = []
    lp_models = {}  # one held BL model per checkpoint time, shared by the rungs as in chaos
    for n in ladder:
        res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, T=1.0,
                           N=n, q=2.0, reps=20, seed=81, checkpoints=32,
                           ref_atoms=512, steps_per_unit=400, lp_models=lp_models)
        values.append(res.value)
    slope = np.polyfit(np.log(ladder), np.log(values), 1)[0]
    elapsed = time.time() - t0
    ok = -0.75 <= slope <= -0.30 and values[-1] < values[0] and elapsed < 600.0
    report(8, "propagation-of-chaos rate", ok,
           f"D(N) {['%.4f' % v for v in values]}, slope {slope:.3f} "
           f"(theory -1/2), {elapsed:.0f}s")


def test_criterion_9_exact_invariants():
    details = []
    # constant-shift invariance of normalized measures (<= 1e-15)
    m = bm_model(0.0, np.sqrt(2.0))
    law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
    grid = TimeGrid(0, 1.0, 128)
    x0 = sample_initial(law, 512, seed=91)
    fit_a = linear_fitness(slope=1.0, g_max=2.0)
    fit_b = affine_quadratic_fitness(alpha=-5.0, delta=[-1.0], G=[[0.0]], g_max=7.0)
    ens_a = ensemble_from_bundle(simulate(m, x0, grid, 91, fitness=fit_a,
                                          store=grid.checkpoint_indices(9)))
    ens_b = ensemble_from_bundle(simulate(m, x0, grid, 91, fitness=fit_b,
                                          store=grid.checkpoint_indices(9)))
    shift_gap = max(np.abs(normalized_measure(ens_a, t).masses
                           - normalized_measure(ens_b, t).masses).max()
                    for t in ens_a.times[1:])
    details.append(f"shift {shift_gap:.1e}")
    ok = shift_gap <= 1e-15

    # tilted-mass identity (<= 1e-15)
    id_gap = 0.0
    for t in ens_a.times:
        nm = normalized_measure(ens_a, t)
        tm = tilted_measure(ens_a, t)
        h = mass_estimate(ens_a, t)
        id_gap = max(id_gap, np.abs(nm.masses * h - tm.masses).max())
        id_gap = max(id_gap, abs(tm.total_mass - h))
    details.append(f"identity {id_gap:.1e}")
    ok = ok and id_gap <= 1e-15

    # weak-form residual second-order reduction (factor >= 3)
    sc = linear_bm_scenario()

    def f(x):
        return np.exp(-0.5 * (x - 1.0) ** 2)

    def df(x):
        return -(x - 1.0) * f(x)

    def d2f(x):
        return ((x - 1.0) ** 2 - 1.0) * f(x)

    res = []
    for nodes in (512, 1024):
        xg = np.linspace(-12, 12, nodes)
        u0 = GridDensity(xg, sc.initial_law.density(xg))
        traj = solve_rm_pde(sc.model, sc.fitness, u0, T=0.5,
                            scheme=PdeScheme(half_width=12.0, nodes=nodes),
                            store_every=1)
        res.append(weak_form_residual(sc.model, sc.fitness, traj, f, df, d2f))
    factor = res[0] / res[1]
    details.append(f"weak-form factor {factor:.1f}")
    ok = ok and factor >= 3.0

    # Riccati residual (<= 1e-10)
    gen = np.random.default_rng(92)
    worst_ric = 0.0
    for _ in range(5):
        R = gen.standard_normal((3, 3))
        a = R @ R.T + 0.2 * np.eye(3)
        B = gen.standard_normal((3, 3))
        Q = gen.standard_normal((3, 3))
        G = Q @ Q.T
        H = solve_riccati(a, B, G)
        worst_ric = max(worst_ric, np.linalg.norm(riccati_residual(H, a, B, G))
                        / max(1.0, np.linalg.norm(G)))
    details.append(f"riccati {worst_ric:.1e}")
    ok = ok and worst_ric <= 1e-10

    # thread-count-independent bit-identical outputs: the registry's check
    # runs 4096 particles, enough for simulate to split them across threads
    bits, _ = dict(VALIDATORS)["sde.thread-independence"]()
    details.append(f"threads bit-identical {bits}")
    ok = ok and bits

    report(9, "exact algebraic invariants", ok, "; ".join(details))
