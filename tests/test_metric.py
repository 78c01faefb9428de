import numpy as np
import pytest
import scipy.sparse

import repmut.metric as metric_mod
from repmut.metric import (STAR, CompactifiedMeasure, MetricError, bl_dirac_formula,
                           bl_distance, bin_measure, check_certificate, dqt_estimate,
                           dstar)


class TestDstar:
    def test_identity(self):
        assert dstar(2.3, 2.3) == 0.0
        assert dstar(STAR, STAR) == 0.0

    def test_shortcut_value(self):
        # d(0, 5) = min(5, 1 + 1/6) = 7/6
        assert dstar(0.0, 5.0) == pytest.approx(7.0 / 6.0, abs=1e-15)

    def test_star_distance(self):
        assert dstar(3.0, STAR) == pytest.approx(0.25, abs=1e-15)

    def test_symmetry_random(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            x, y = gen.uniform(-30, 30, 2)
            assert dstar(x, y) == dstar(y, x)

    def test_bounded_by_two(self):
        gen = np.random.default_rng(1)
        pts = gen.uniform(-1e6, 1e6, (100, 2))
        assert all(dstar(x, y) <= 2.0 for x, y in pts)

    def test_triangle_inequality_bulk(self):
        gen = np.random.default_rng(2)
        x = gen.uniform(-50, 50, (10_000, 3))
        d12 = np.array([dstar(a, b) for a, b in zip(x[:, 0], x[:, 1])])
        d13 = np.array([dstar(a, b) for a, b in zip(x[:, 0], x[:, 2])])
        d32 = np.array([dstar(a, b) for a, b in zip(x[:, 2], x[:, 1])])
        assert (d12 <= d13 + d32 + 1e-12).all()

    def test_triangle_with_star(self):
        gen = np.random.default_rng(3)
        for _ in range(1000):
            x, y = gen.uniform(-20, 20, 2)
            assert dstar(x, STAR) <= dstar(x, y) + dstar(y, STAR) + 1e-12


class TestCompactify:
    def test_probability_measure_no_star_mass(self):
        m = CompactifiedMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        assert m.star_mass == 0.0

    def test_tilted_deficit_to_star(self):
        m = CompactifiedMeasure(np.array([[0.0]]), np.array([np.exp(-1.0)]))
        assert m.star_mass == pytest.approx(1 - np.exp(-1.0), abs=1e-15)

    def test_empty_measure_is_pure_star(self):
        m = CompactifiedMeasure(np.zeros((0, 1)), np.zeros(0))
        assert m.star_mass == 1.0

    def test_excess_mass_fails(self):
        with pytest.raises(MetricError, match="exceeds"):
            CompactifiedMeasure(np.array([[0.0]]), np.array([1.1]))

    def test_one_mass_per_atom(self):
        # two atoms with three masses used to build, and a BL value came out
        for atoms, masses in (([0.0, 1.0], [0.2, 0.3, 0.1]), ([[0.0], [1.0]], [0.3]),
                              ([[0.0], [1.0]], [[0.2, 0.3]])):
            with pytest.raises(MetricError, match="one per atom"):
                CompactifiedMeasure(np.array(atoms), np.array(masses))
        assert CompactifiedMeasure(np.array([0.0, 1.0]), np.array([0.2, 0.3])).atoms.shape == (2, 1)

    def test_non_finite_atoms_and_masses_rejected(self):
        # each of these once built, and its BL distance to a unit Dirac at 0
        # came out finite: a NaN atom was dropped from the merged support
        for atoms, masses in (([0.0, 1.0], [np.nan, 0.3]), ([np.nan, 1.0], [0.2, 0.3]),
                              ([np.inf, 1.0], [0.2, 0.3])):
            with pytest.raises(MetricError, match="finite"):
                CompactifiedMeasure(np.array(atoms), np.array(masses))

    def test_atoms_off_the_line_rejected(self):
        # a (1, 2) row is a point in the plane, not two atoms, whatever the masses
        for atoms, masses in ((np.zeros((3, 2)), np.full(3, 0.2)),
                              (np.array([[0.0, 1.0]]), np.array([0.2, 0.3])),
                              (np.array([[0.0, 1.0]]), np.array([0.5])),
                              (np.zeros((3, 1, 1)), np.full(3, 0.2)),
                              (np.zeros((2, 2, 2)), np.full(2, 0.2))):
            with pytest.raises(MetricError, match="1D"):
                CompactifiedMeasure(atoms, masses)

    def test_vector_and_column_atoms_agree(self):
        gen = np.random.default_rng(24)
        for k1, k2 in ((1, 1), (3, 5), (40, 30)):
            xs = [gen.uniform(-6, 6, k) for k in (k1, k2)]
            ms = [gen.dirichlet(np.ones(k)) * 0.7 for k in (k1, k2)]
            flat = bl_distance(*(CompactifiedMeasure(x, m) for x, m in zip(xs, ms)))
            col = bl_distance(*(CompactifiedMeasure(x[:, None], m) for x, m in zip(xs, ms)))
            assert flat.value == col.value
            for a, b in ((flat.psi, col.psi), (flat.atoms, col.atoms),
                         (flat.meta["delta"], col.meta["delta"])):
                assert np.array_equal(a, b)
            assert flat.atoms.shape == (k1 + k2, 1)


class TestBlDistance:
    def test_identical_measures(self):
        mu = CompactifiedMeasure(np.array([[0.0], [2.0]]), np.array([0.3, 0.4]))
        assert bl_distance(mu, mu).value <= 1e-12

    def test_dirac_formula_random_pairs(self):
        gen = np.random.default_rng(4)
        for _ in range(100):
            x, y = gen.uniform(-8, 8, 2)
            mu = CompactifiedMeasure(np.array([[x]]), np.array([1.0]))
            nu = CompactifiedMeasure(np.array([[y]]), np.array([1.0]))
            r = bl_distance(mu, nu)
            assert abs(r.value - bl_dirac_formula(x, y)) <= 1e-9
            assert check_certificate(r) <= metric_mod.TOL["lp_certificate_feasibility"]

    def test_far_diracs_saturate(self):
        # d_star = 2 is unreachable but large separations approach value 1
        mu = CompactifiedMeasure(np.array([[-600.0]]), np.array([1.0]))
        nu = CompactifiedMeasure(np.array([[700.0]]), np.array([1.0]))
        d = dstar(-600.0, 700.0)
        assert bl_distance(mu, nu).value == pytest.approx(2 * d / (2 + d), abs=1e-9)

    def test_half_dirac_analytic(self):
        # delta_x vs (1/2) delta_x: optimum l(x)/(2 + l(x)) (star shortcut)
        x0 = 1.3
        lx = 1.0 / (1.0 + abs(x0))
        mu = CompactifiedMeasure(np.array([[x0]]), np.array([1.0]))
        nu = CompactifiedMeasure(np.array([[x0]]), np.array([0.5]))
        r = bl_distance(mu, nu)
        assert r.value == pytest.approx(lx / (2 + lx), abs=1e-9)

    def test_half_dirac_brute_force(self):
        x0 = 1.3
        lx = 1.0 / (1.0 + abs(x0))
        r = bl_distance(CompactifiedMeasure(np.array([[x0]]), np.array([1.0])),
                        CompactifiedMeasure(np.array([[x0]]), np.array([0.5])))

        def value_at(s):
            # inner maximization over (psi1, psi_star) is analytic: stretch
            # against the star point within the Lipschitz and sup budgets
            lip = 1.0 - s
            psi_star = -s
            psi1 = min(s, psi_star + lip * lx)
            return 0.5 * psi1 - 0.5 * psi_star

        # coarse grid search plus ternary refinement of the concave profile
        ss = np.linspace(0, 1, 4001)
        s_lo, s_hi = 0.0, 1.0
        s_best = ss[np.argmax([value_at(s) for s in ss])]
        s_lo, s_hi = max(0.0, s_best - 1e-3), min(1.0, s_best + 1e-3)
        for _ in range(80):
            m1 = s_lo + (s_hi - s_lo) / 3
            m2 = s_hi - (s_hi - s_lo) / 3
            if value_at(m1) < value_at(m2):
                s_lo = m1
            else:
                s_hi = m2
        best = value_at(0.5 * (s_lo + s_hi))
        assert r.value == pytest.approx(best, abs=1e-9)

    def test_axioms_on_random_triples(self):
        gen = np.random.default_rng(5)
        for _ in range(300):
            ms = []
            for _ in range(3):
                k = int(gen.integers(1, 5))
                atoms = gen.uniform(-6, 6, k)[:, None]
                masses = gen.dirichlet(np.ones(k)) * gen.uniform(0.2, 1.0)
                ms.append(CompactifiedMeasure(atoms, masses))
            dab = bl_distance(ms[0], ms[1]).value
            dba = bl_distance(ms[1], ms[0]).value
            dac = bl_distance(ms[0], ms[2]).value
            dcb = bl_distance(ms[2], ms[1]).value
            assert abs(dab - dba) <= 1e-10
            assert dab <= dac + dcb + 1e-9

    def test_certificates_feasible(self):
        gen = np.random.default_rng(6)
        for _ in range(50):
            k1, k2 = gen.integers(1, 8, 2)
            mu = CompactifiedMeasure(gen.uniform(-6, 6, int(k1))[:, None],
                                     gen.dirichlet(np.ones(int(k1))) * 0.8)
            nu = CompactifiedMeasure(gen.uniform(-6, 6, int(k2))[:, None],
                                     gen.dirichlet(np.ones(int(k2))) * 0.9)
            viol = check_certificate(bl_distance(mu, nu))
            assert viol <= metric_mod.TOL["lp_certificate_feasibility"]

    def test_upper_bounds(self):
        gen = np.random.default_rng(8)
        for _ in range(50):
            k = int(gen.integers(1, 6))
            mu = CompactifiedMeasure(gen.uniform(-9, 9, k)[:, None],
                                     gen.dirichlet(np.ones(k)) * gen.uniform(0.1, 1))
            nu = CompactifiedMeasure(gen.uniform(-9, 9, k)[:, None],
                                     gen.dirichlet(np.ones(k)) * gen.uniform(0.1, 1))
            val = bl_distance(mu, nu).value
            tv = 0.5 * (np.abs(np.concatenate([mu.masses, -nu.masses])).sum()
                        + abs(mu.star_mass - nu.star_mass))
            assert val <= 2.0 + 1e-12
            assert val <= 2 * tv + 1e-9

    def test_star_only_difference(self):
        # same atoms, different masses: value positive, certificate feasible
        atoms = np.array([[0.0], [1.0]])
        mu = CompactifiedMeasure(atoms, np.array([0.4, 0.4]))
        nu = CompactifiedMeasure(atoms, np.array([0.3, 0.3]))
        r = bl_distance(mu, nu)
        assert 0 < r.value <= 0.2
        assert check_certificate(r) <= metric_mod.TOL["lp_certificate_feasibility"]


class TestDqt:
    def _setup(self):
        from repmut.closed_form import linear_engine
        from repmut.scenarios import linear_bm_scenario
        sc = linear_bm_scenario()
        ref = linear_engine(sc.model, sc.fitness, sc.initial_law)
        return sc, ref

    def test_self_reference_is_zero(self):
        # replicate the reference measure on both sides: distance 0 at each t
        sc, ref = self._setup()
        edges = np.linspace(ref.grid[0], ref.grid[-1], 257)
        mids = 0.5 * (edges[1:] + edges[:-1])
        for t in (0.25, 1.0):
            h = ref.mass_factor(t, shifted=True)
            cell = np.maximum(ref.u(t, mids), 0) * np.diff(edges)
            m = cell / cell.sum() * h
            c = CompactifiedMeasure(mids[:, None], m)
            assert bl_distance(c, c).value <= 1e-12

    def test_value_in_metric_range_single_particle(self):
        sc, ref = self._setup()
        res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref,
                           T=0.5, N=1, q=2.0, reps=2, seed=3, checkpoints=5,
                           ref_atoms=128, steps_per_unit=100)
        assert 0.0 < res.value <= 2.0
        assert not res.reliable_ci

    def test_tilted_mass_above_one_raises_the_shift(self):
        # g = x is not bounded by g_max = 2: a particle that stays above 2
        # gains weight, and its tilted mass exp(L) leaves the compactification
        from repmut.particle import WeightedParticleEnsemble
        sc, ref = self._setup()
        logw = np.array([[0.0, 0.05, 0.18]])

        def runner(model, fitness, law, n, grid, seed, checkpoints, threads):
            return WeightedParticleEnsemble(
                times=np.array([0.0, 0.25, 0.5]), positions=np.array([[[2.2], [2.6], [2.9]]]),
                logw=logw, shift=sc.fitness.g_max, seed=seed)

        res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, T=0.5, N=1,
                           reps=2, seed=3, ref_atoms=128, _particle_runner=runner)
        # the least constant extra shift with exp(L(t) - delta t) <= 1
        assert res.extra_shift == pytest.approx([0.36, 0.36], rel=1e-12)
        assert 0.0 < res.value <= 2.0
        logw = np.array([[0.0, -0.05, -0.18]])
        res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, T=0.5, N=1,
                           reps=2, seed=3, ref_atoms=128, _particle_runner=runner)
        assert (res.extra_shift == 0.0).all()

    def test_nan_reference_density_raises(self):
        # a NaN reference density once gave the value 0, every LP pruned
        import types
        sc, ref = self._setup()
        nan_ref = types.SimpleNamespace(grid=ref.grid, mass_factor=ref.mass_factor,
                                        u=lambda t, x: np.full(np.shape(x), np.nan))
        with pytest.raises(MetricError, match="finite"):
            dqt_estimate(sc.model, sc.fitness, sc.initial_law, nan_ref, T=0.5, N=1,
                         reps=1, seed=3, checkpoints=3, ref_atoms=64, steps_per_unit=100)

    def test_decay_with_n(self):
        sc, ref = self._setup()
        vals = []
        for n in (64, 1024):
            res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref,
                               T=0.5, N=n, q=2.0, reps=4, seed=5, checkpoints=5,
                               ref_atoms=256, steps_per_unit=100)
            vals.append(res.value)
        assert vals[1] < vals[0]

    def test_bin_measure_preserves_weight(self):
        gen = np.random.default_rng(10)
        atoms = gen.uniform(-3, 3, 500)
        masses = gen.uniform(0, 1, 500) / 600
        edges = np.linspace(-4, 4, 65)
        mids, binned = bin_measure(atoms, masses, edges)
        assert binned.sum() == pytest.approx(masses.sum(), rel=1e-12)


# ---------------------------------------------------------------------------
# the LP build, the O(K) certificate sweep and the pruned time-sup against
# the forms they replaced


def loop_highs_matrix(edges, weights, K):
    """The constraint matrix as the HiGHS route first built it with a Python loop."""
    nv = K + 1
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for (u, v), w in zip(edges, weights):
        rows += [r, r, r, r + 1, r + 1, r + 1]
        cols += [u, v, nv + 1, u, v, nv + 1]
        vals += [1.0, -1.0, -w, -1.0, 1.0, -w]
        rhs += [0.0, 0.0]
        r += 2
    for k in range(nv):
        rows += [r, r, r + 1, r + 1]
        cols += [k, nv, k, nv]
        vals += [1.0, -1.0, -1.0, -1.0]
        rhs += [0.0, 0.0]
        r += 2
    rows += [r, r]
    cols += [nv, nv + 1]
    vals += [1.0, 1.0]
    rhs += [1.0]
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(r + 1, nv + 2))
    return A, np.asarray(rhs)


def linprog_value(obj, A, rhs):
    """The LP's optimum by scipy's linprog at feasibility tolerances of 1e-10,
    the oracle for the held HiGHS model."""
    import scipy.optimize
    nv = len(obj)
    c = np.zeros(nv + 2)
    c[:nv] = -obj
    bounds = [(None, None)] * nv + [(0, None), (0, None)]
    res = scipy.optimize.linprog(c, A_ub=A, b_ub=rhs, bounds=bounds, method="highs",
                                 options={"primal_feasibility_tolerance": 1e-10,
                                          "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(-res.fun)


def dqt_pairs(ens, reference, edges):
    """dqt_estimate's (empirical, reference) measure pairs of one replicate."""
    from repmut.particle import tilted_measure
    mids = 0.5 * (edges[1:] + edges[:-1])
    later = ens.times > 0
    log_mass = np.log(np.exp(ens.logw[:, later]).mean(axis=0))
    extra = max(0.0, float(np.max(log_mass / ens.times[later], initial=0.0)))
    pairs = []
    for t in ens.times:
        scale = np.exp(-extra * t)
        emp = tilted_measure(ens, t)
        ea, em = bin_measure(emp.atoms, emp.masses * scale, edges)
        h_ref = reference.mass_factor(t, shifted=True) * scale
        cell = np.maximum(reference.u(t, mids), 0.0) * np.diff(edges)
        total = cell.sum()
        ref_m = cell / total * h_ref if total > 0 else cell
        pairs.append((CompactifiedMeasure(ea[:, None], em),
                      CompactifiedMeasure(mids[:, None], ref_m)))
    return pairs


def full_support_sups(ensembles, reference, ref_atoms):
    """dqt_estimate's time-sup with every checkpoint's LP solved on all
    midpoints, as before the flow-bound pruning and the tail fold, on one
    held model anchored at the cold solve of replicate 0's largest-bound LP."""
    edges = np.linspace(reference.grid[0], reference.grid[-1], ref_atoms + 1)
    model = metric_mod.BLModel(0.5 * (edges[1:] + edges[:-1])[:, None])
    reps = [dqt_pairs(ens, reference, edges) for ens in ensembles]
    first = int(np.argmax([metric_mod.bl_flow_bound(*p) for p in reps[0]]))
    values = {(0, first): bl_distance(*reps[0][first], model=model).value}
    for r, pairs in enumerate(reps):
        for i, pair in enumerate(pairs):
            if (r, i) not in values:
                values[r, i] = bl_distance(*pair, model=model).value
    return np.array([max(values[r, i] for i in range(len(pairs)))
                     for r, pairs in enumerate(reps)])


def folded_pairs(ens, reference, edges):
    """dqt_estimate's LP pairs of one replicate with their held-model keys:
    each checkpoint's pair restricted to the cells that fold_tail keeps at
    unit shift, or on all midpoints with key None where the empirical side
    has mass on a folded cell."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    out = []
    for t, (emp, ref) in zip(ens.times, dqt_pairs(ens, reference, edges)):
        cell = np.maximum(reference.u(t, mids), 0.0) * np.diff(edges)
        keep = metric_mod.fold_tail(cell / cell.sum() * reference.mass_factor(t, shifted=True))
        if emp.masses[~keep].any():
            out.append((emp, ref, None))
            continue
        kept = mids[keep, None]
        out.append((CompactifiedMeasure(kept, emp.masses[keep]),
                    CompactifiedMeasure(kept, ref.masses[keep]), (float(t), kept.tobytes())))
    return out


def unpruned_sups(ensembles, reference, ref_atoms):
    """dqt_estimate's time-sup with every checkpoint's LP solved, as before
    the flow-bound pruning, on the same folded supports.  Each checkpoint's
    held model takes its anchor, as in dqt_estimate, from the first LP that
    dqt_estimate solves on it: an LP whose bound would be pruned waits until
    its model is anchored (its value cannot set the sup in any case)."""
    edges = np.linspace(reference.grid[0], reference.grid[-1], ref_atoms + 1)
    models, waiting, sups = {}, [], []
    for r, ens in enumerate(ensembles):
        pairs = folded_pairs(ens, reference, edges)
        bounds = np.array([metric_mod.bl_flow_bound(mu, nu) for mu, nu, _ in pairs])
        best = 0.0
        for i in np.argsort(-bounds, kind="stable"):
            mu, nu, key = pairs[i]
            if key is None:
                model = metric_mod.BLModel(mu.atoms)
            elif key not in models:
                model = models[key] = metric_mod.BLModel(mu.atoms)
            else:
                model = models[key]
            if model.anchor is None and bounds[i] <= best * (1.0 - metric_mod.PRUNE_MARGIN):
                waiting.append((r, mu, nu, model))
                continue
            best = max(best, bl_distance(mu, nu, model=model).value)
        sups.append(best)
    for r, mu, nu, model in waiting:
        sups[r] = max(sups[r], bl_distance(mu, nu, model=model).value)
    return np.array(sups)


class TestLpBuild:
    def test_matrix_and_solution_match_loop_build(self):
        # the CSC matrix handed to HiGHS, the optimum against linprog, and
        # the dual bound with A'y from scipy's product on the loop build
        gen = np.random.default_rng(20)
        for k in (1, 5, 60, 300):
            x = np.sort(gen.uniform(-9, 9, k))
            lv = metric_mod._l(x)
            edges, w = metric_mod._edges_1d(x, lv)
            edges = np.vstack([edges, np.stack([np.arange(k), np.full(k, k)], axis=1)])
            w = np.concatenate([w, lv])
            obj = np.concatenate([gen.standard_normal(k), [0.0]])
            obj[-1] = -obj.sum()
            obj /= np.abs(obj).sum()
            model = metric_mod.BLModel(x[:, None])
            A_old, rhs_old = loop_highs_matrix(edges, w, k)
            A_old = A_old.tocsc()
            assert np.array_equal(model.rhs, rhs_old)
            for new, attr in zip(model.csc, ("data", "indices", "indptr")):
                assert np.array_equal(new, getattr(A_old, attr))
            val, upper = model.solve(obj)[3:]
            assert val == pytest.approx(linprog_value(obj, A_old, rhs_old), rel=1e-9, abs=0.0)
            y = np.maximum(-np.asarray(metric_mod._highs.getSolution().row_dual), 0.0)
            red = A_old.T @ y
            red[:k + 1] -= obj
            assert upper == (y @ rhs_old + np.abs(red[:k + 1]).sum()
                             + np.maximum(-red[k + 1:], 0.0).sum())


def shifted_certificate(solve):
    """A solver whose certificate is moved by +3: the value is the same
    (Delta sums to zero with the star), but |psi| now exceeds s <= 1."""
    def corrupt(*args):
        psi, *rest = solve(*args)
        return (psi + 3.0, *rest)
    return corrupt


class TestSolveRoutes:
    @staticmethod
    def pair(k, seed):
        gen = np.random.default_rng(seed)
        return (CompactifiedMeasure(gen.uniform(-6, 6, k)[:, None], gen.dirichlet(np.ones(k)) * 0.8),
                CompactifiedMeasure(gen.uniform(-6, 6, k)[:, None], gen.dirichlet(np.ones(k)) * 0.6))

    def test_no_certified_route_raises(self, monkeypatch):
        small, large = self.pair(4, 31), self.pair(40, 32)
        monkeypatch.setattr(metric_mod.BLModel, "solve", shifted_certificate(metric_mod.BLModel.solve))
        for mu, nu in (small, large):
            with pytest.raises(metric_mod.LPError, match="no certificate"):
                bl_distance(mu, nu)

    def test_gate_reads_the_tolerance_table(self, monkeypatch):
        # no violation is negative, so a negative gate certifies nothing
        monkeypatch.setitem(metric_mod.TOL, "lp_certificate_feasibility", -1.0)
        for mu, nu in (self.pair(4, 33), self.pair(40, 34)):
            with pytest.raises(metric_mod.LPError, match="no certificate within -1 "):
                bl_distance(mu, nu)

    def test_chaos_exits_numeric_failure_without_a_certificate(self, tmp_path, monkeypatch):
        import json
        from repmut.cli import EXIT_NUMERIC, main
        cfg = {"scenario": "linear-bm", "horizon": 0.5,
               "particles": {"N": [20, 40, 80], "reps": 2, "q": 2.0},
               "metric": {"checkpoints": 3, "ref_atoms": 128},
               "steps_per_unit": 100, "seed": 7}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(metric_mod.BLModel, "solve", shifted_certificate(metric_mod.BLModel.solve))
        assert main(["chaos", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_NUMERIC


class TestCertificateSweep:
    def test_path_violation_beyond_adjacent_edges(self):
        # each adjacent edge exceeds its bound by 0.05, the end points theirs
        # by 0.1: on an infeasible psi a check of adjacent edges under-reports
        x = np.array([0.0, 0.1, 0.2])
        psi = np.array([0.0, 0.15, 0.3])
        lip = 1.0
        lv = metric_mod._l(x)
        local = (np.abs(np.diff(psi)) - lip * np.diff(x)).max()
        assert local == pytest.approx(0.05)
        full = metric_mod._pair_violation_dense(x, psi, lip, lv)
        assert full == pytest.approx(0.1, abs=1e-15)
        assert metric_mod._pair_violation_sweep(x, psi, lip, lv) == pytest.approx(full, abs=1e-15)

    def test_hub_route_shorter_than_chain(self):
        # far atoms: d_star takes l_i + l_j, which the sweep's hub branch sees
        x = np.array([-40.0, 40.0])
        lv = metric_mod._l(x)
        psi = np.array([-0.2, 0.2])
        dense = metric_mod._pair_violation_dense(x, psi, 1.0, lv)
        assert dense == pytest.approx(0.4 - 2.0 / 41.0, abs=1e-15)
        assert metric_mod._pair_violation_sweep(x, psi, 1.0, lv) == pytest.approx(dense, abs=1e-15)

    def test_unsorted_support(self):
        gen = np.random.default_rng(23)
        x = gen.uniform(-5, 5, 30)
        lv = metric_mod._l(x)
        psi = gen.uniform(-1, 1, 30)
        assert metric_mod._pair_violation_sweep(x, psi, 0.4, lv) == pytest.approx(
            metric_mod._pair_violation_dense(x, psi, 0.4, lv), abs=1e-14)


class TestFlowBound:
    def test_tight_on_unit_diracs(self):
        # transport cost d and leak 2 blend to 2 d / (2 + d), the exact value
        for x, y in ((0.0, 0.3), (-2.0, 5.0), (-600.0, 700.0)):
            mu = CompactifiedMeasure(np.array([[x]]), np.array([1.0]))
            nu = CompactifiedMeasure(np.array([[y]]), np.array([1.0]))
            assert metric_mod.bl_flow_bound(mu, nu) == pytest.approx(
                bl_dirac_formula(x, y), rel=1e-12)

    def test_identical_measures_and_dimension(self):
        mu = CompactifiedMeasure(np.array([[0.0], [2.0]]), np.array([0.3, 0.4]))
        assert metric_mod.bl_flow_bound(mu, mu) == 0.0
        # the constructor is the one check of a support's shape
        with pytest.raises(MetricError, match="1D"):
            CompactifiedMeasure(np.array([[0.0, 1.0]]), np.array([0.5]))


def test_sweep_and_flow_bound_validators():
    # random supports: sweep against the pairwise check, bound against the LP
    from repmut.validate import VALIDATORS
    checks = dict(VALIDATORS)
    for name in ("metric.certificate-sweep", "metric.flow-upper-bound"):
        ok, detail = checks[name]()
        assert ok, detail


def recorded(store):
    """run_particles, keeping each ensemble in ``store``."""
    from repmut.particle import run_particles

    def runner(*args, **kwargs):
        ens = run_particles(*args, **kwargs)
        store.append(ens)
        return ens
    return runner


@pytest.fixture(scope="module")
def acceptance8_runs():
    """dqt_estimate at acceptance 8's settings for N = 250 (32 checkpoints,
    512 atoms), 2 replicates at seeds 81-83: (result, ensembles, reference)."""
    from repmut.closed_form import linear_engine
    from repmut.scenarios import linear_bm_scenario
    sc = linear_bm_scenario()
    ref = linear_engine(sc.model, sc.fitness, sc.initial_law)
    runs = []
    for seed in (81, 82, 83):
        store = []
        res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, T=1.0, N=250,
                           reps=2, seed=seed, checkpoints=32, ref_atoms=512,
                           steps_per_unit=400, _particle_runner=recorded(store))
        runs.append((res, store, ref))
    return runs


class TestPrunedSup:
    def test_sups_match_unpruned_loop(self, acceptance8_runs):
        pruned = 0
        for res, store, ref in acceptance8_runs:
            assert np.array_equal(res.sups, unpruned_sups(store, ref, 512))
            assert res.lp_solved + res.lp_pruned == 2 * 32
            pruned += res.lp_pruned
        assert pruned > 0


class TestTailFold:
    def test_sups_within_the_fold_bound_of_full_support(self, acceptance8_runs):
        tol = metric_mod.TOL["bl_tail_mass"]
        for res, store, ref in acceptance8_runs:
            full = full_support_sups(store, ref, 512)
            assert np.all(np.abs(res.sups - full) <= tol + 1e-9 * full)
            # the folds shrink the LPs: fewer atoms than 512 per LP on average
            assert res.lp_atoms < 512 * res.lp_solved and res.lp_full_support == 0

    def test_fold_keeps_the_largest_cells(self):
        masses = np.array([3e-13, 0.5, 2e-13, 0.0, 6e-13, 0.5])
        # ascending: 0, 2e-13, 3e-13 sum to 5e-13; adding 6e-13 would pass 1e-12
        assert metric_mod.fold_tail(masses).tolist() == [False, True, False, False, True, True]
        assert metric_mod.fold_tail(np.zeros(4)).sum() == 1

    def test_empirical_mass_on_a_folded_cell_solves_on_all_midpoints(self, monkeypatch):
        # particle 0 sits in the reference grid's first cell at every time,
        # far in the reference's folded tail
        from repmut.closed_form import linear_engine
        from repmut.particle import run_particles
        from repmut.scenarios import linear_bm_scenario
        sc = linear_bm_scenario()
        ref = linear_engine(sc.model, sc.fitness, sc.initial_law)

        def tail_runner(*args, **kwargs):
            ens = run_particles(*args, **kwargs)
            ens.positions[0] = ref.grid[0] + 1e-3
            return ens

        seen = []
        real = metric_mod.bl_distance

        def spy(mu, nu, x0=0.0, *, model=None):
            result = real(mu, nu, x0, model=model)
            seen.append((mu, nu, result))
            return result

        monkeypatch.setattr(metric_mod, "bl_distance", spy)
        kwargs = dict(T=1.0, N=250, reps=1, seed=84, checkpoints=3, ref_atoms=512)
        res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref,
                           _particle_runner=tail_runner, **kwargs)
        assert res.lp_solved == len(seen) > 0
        assert res.lp_full_support == res.lp_cold == res.lp_solved
        assert res.lp_atoms == 512 * res.lp_solved
        for mu, nu, result in seen:
            cold = real(mu, nu, model=metric_mod.BLModel(mu.atoms))
            assert len(result.atoms) == 512
            assert result.value == cold.value and result.psi.tobytes() == cold.psi.tobytes()
        # without the tail particle every LP runs folded
        plain = dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, **kwargs)
        assert plain.lp_full_support == 0 and plain.lp_atoms < 512 * plain.lp_solved


def scaled_primal(solve, factor):
    """A HiGHS solve whose primal is psi * factor: still feasible, but its
    value sits below the optimum by 1 - factor, relative."""
    def shrunk(*args):
        psi, s, lip, val, upper = solve(*args)
        return psi * factor, s, lip, val * factor, upper
    return shrunk


class TestDualityGap:
    pair = staticmethod(TestSolveRoutes.pair)

    def test_highs_results_carry_a_bound_above_the_value(self):
        for seed in range(40, 45):
            r = bl_distance(*self.pair(60, seed))
            assert r.solver == "highs"
            assert r.meta["dual_bound"] >= r.value
            assert 0.0 <= r.meta["gap_rel"] <= metric_mod.TOL["lp_duality_gap_rel"]
            assert r.meta["gap_rel"] == pytest.approx(
                1.0 - r.value / r.meta["dual_bound"], rel=1e-6, abs=1e-15)
        small = bl_distance(*self.pair(4, 45))
        assert small.meta["dual_bound"] >= small.value
        assert small.meta["gap_rel"] <= metric_mod.TOL["lp_duality_gap_rel"]

    def test_perturbed_primal_trips_the_gate(self, monkeypatch):
        small, large = self.pair(4, 46), self.pair(60, 47)
        solve = metric_mod.BLModel.solve
        monkeypatch.setattr(metric_mod.BLModel, "solve", scaled_primal(solve, 1.0 - 1e-6))
        for pair, atoms in ((small, 8), (large, 120)):
            with pytest.raises(metric_mod.LPError,
                               match=f"of optimal on {atoms} atoms \\(highs: violation .*gap 1.0"):
                bl_distance(*pair)
        # a primal within the gate still passes
        monkeypatch.setattr(metric_mod.BLModel, "solve", scaled_primal(solve, 1.0 - 1e-9))
        for pair in (small, large):
            assert bl_distance(*pair).meta["gap_rel"] <= 1e-7

    def test_gap_gate_reads_the_tolerance_table(self, monkeypatch):
        monkeypatch.setitem(metric_mod.TOL, "lp_duality_gap_rel", -1.0)
        with pytest.raises(metric_mod.LPError, match="and -1 of optimal"):
            bl_distance(*self.pair(60, 48))


class TestHeldModel:
    @staticmethod
    def captured_pairs(monkeypatch, reps):
        """The (mu, nu, model) triples that dqt_estimate hands to bl_distance
        at acceptance 8's settings for N = 250 on linear-bm."""
        from repmut.closed_form import linear_engine
        from repmut.scenarios import linear_bm_scenario
        sc = linear_bm_scenario()
        ref = linear_engine(sc.model, sc.fitness, sc.initial_law)
        seen = []
        real = metric_mod.bl_distance

        def spy(mu, nu, x0=0.0, *, model=None):
            seen.append((mu, nu, model))
            return real(mu, nu, x0, model=model)

        with monkeypatch.context() as m:
            m.setattr(metric_mod, "bl_distance", spy)
            dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, T=1.0, N=250, reps=reps,
                         seed=81, checkpoints=32, ref_atoms=512, steps_per_unit=400)
        return seen

    def test_values_match_linprog_oracle(self, monkeypatch):
        triples = self.captured_pairs(monkeypatch, reps=2)
        assert len(triples) >= 10
        models = {}  # a new held model per support, solved in dqt_estimate's order
        for mu, nu, held in triples:
            key = held.atoms.tobytes()
            if key not in models:
                models[key] = metric_mod.BLModel(held.atoms)
            model = models[key]
            A = scipy.sparse.csc_array(model.csc, shape=(len(model.rhs), model.nv + 2))
            r = bl_distance(mu, nu, model=model)
            assert r.solver == "highs" and np.array_equal(r.atoms, held.atoms)
            oracle = linprog_value(r.meta["delta"] / np.abs(r.meta["delta"]).sum(), A, model.rhs)
            assert r.value == pytest.approx(oracle * np.abs(r.meta["delta"]).sum(),
                                            rel=1e-9, abs=0.0)
        # the checkpoints' folded supports: one per time, all below 512 atoms
        assert len(models) > 1 and all(len(m.atoms) < 512 for m in models.values())

    def test_result_does_not_depend_on_the_solve_sequence(self):
        # the first 6 checkpoints' pairs of one replicate on all 512 midpoints
        from repmut.closed_form import linear_engine
        from repmut.scenarios import linear_bm_scenario
        sc = linear_bm_scenario()
        ref = linear_engine(sc.model, sc.fitness, sc.initial_law)
        store = []
        dqt_estimate(sc.model, sc.fitness, sc.initial_law, ref, T=1.0, N=250, reps=1,
                     seed=81, checkpoints=32, ref_atoms=512, steps_per_unit=400,
                     _particle_runner=recorded(store))
        edges = np.linspace(ref.grid[0], ref.grid[-1], 513)
        pairs = dqt_pairs(store[0], ref, edges)[:6]
        mids = pairs[0][1].atoms
        results = []
        for order in ([0, 1, 2, 3, 4, 5], [0, 4, 2, 5], [0, 3, 1, 5]):
            model = metric_mod.BLModel(mids)
            for i in order:
                r = bl_distance(*pairs[i], model=model)
            results.append(r)
        first = results[0]
        for r in results[1:]:
            assert r.value == first.value
            assert r.psi.tobytes() == first.psi.tobytes()
            assert (r.s, r.lip, r.solver) == (first.s, first.lip, first.solver)
            assert (r.meta["dual_bound"], r.meta["gap_rel"]) == \
                (first.meta["dual_bound"], first.meta["gap_rel"])

    def test_interleaved_models_match_models_solved_alone(self):
        # all models share one HiGHS instance; switching between them, or a
        # one-shot solve in between, changes no bit of a held model's result
        gen = np.random.default_rng(50)
        supports = [np.sort(gen.uniform(-6, 6, k))[:, None] for k in (512, 200)]
        pairs = [[(CompactifiedMeasure(x, gen.dirichlet(np.ones(len(x))) * 0.9),
                   CompactifiedMeasure(x, gen.dirichlet(np.ones(len(x))) * 0.7))
                  for _ in range(4)] for x in supports]
        alone = []
        for x, ps in zip(supports, pairs):
            model = metric_mod.BLModel(x)
            alone.append([bl_distance(*p, model=model) for p in ps])
        models = [metric_mod.BLModel(x) for x in supports]
        for j in range(4):
            for m in (1, 0) if j % 2 else (0, 1):
                r = bl_distance(*pairs[m][j], model=models[m])
                a = alone[m][j]
                assert r.value == a.value and r.psi.tobytes() == a.psi.tobytes()
                assert r.meta["dual_bound"] == a.meta["dual_bound"]
            bl_distance(*TestSolveRoutes.pair(30, 51 + j))

    def test_zero_difference_atoms_are_kept_and_checked(self):
        x = np.linspace(-3.0, 3.0, 60)[:, None]
        mu = CompactifiedMeasure(x, np.r_[np.full(30, 1 / 60), np.zeros(30)])
        nu = CompactifiedMeasure(x, np.r_[np.full(30, 1 / 60), np.full(30, 1 / 80)])
        held = bl_distance(mu, nu, model=metric_mod.BLModel(x))
        one_shot = bl_distance(mu, nu)
        assert len(held.atoms) == 60 and len(one_shot.atoms) == 30
        assert held.value == pytest.approx(one_shot.value, rel=1e-9)
        with pytest.raises(MetricError, match="held model"):
            bl_distance(mu, nu, model=metric_mod.BLModel(x[1:]))
        with pytest.raises(MetricError, match="held model"):
            bl_distance(mu, nu, x0=1.0, model=metric_mod.BLModel(x))

    def test_uses_only_the_declared_highs_methods(self, monkeypatch):
        # the _Highs methods that scipy 1.15, the declared floor, binds too
        allowed = {"passModel", "changeColsCost", "run", "clearSolver", "setBasis",
                   "getBasis", "getSolution", "getInfo", "getModelStatus", "setOptionValue"}
        used = set()
        real = metric_mod.highs_core._Highs

        class Guarded:
            def __init__(self):
                self._real = real()

            def __getattr__(self, name):
                assert name in allowed, name
                used.add(name)
                return getattr(self._real, name)

        monkeypatch.setattr(metric_mod.highs_core, "_Highs", Guarded)
        monkeypatch.setattr(metric_mod, "_highs", None)  # the shared instance, made anew
        x = np.linspace(-3.0, 3.0, 60)[:, None]
        gen = np.random.default_rng(49)
        model = metric_mod.BLModel(x)
        for _ in range(2):
            mu = CompactifiedMeasure(x, gen.dirichlet(np.ones(60)) * 0.9)
            bl_distance(mu, CompactifiedMeasure(x, np.full(60, 1 / 70)), model=model)
        assert isinstance(metric_mod._highs, Guarded)
        # passModel sets the costs and resets the solver at every solve, so
        # the declared changeColsCost and clearSolver are no longer called
        assert used == allowed - {"changeColsCost", "clearSolver"}
