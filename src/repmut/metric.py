"""Metric machinery on the one-point compactification of the line.

Sub-probability measures on the line are mapped to probability measures on
the line plus an added point (the "star") absorbing the mass deficit.  The
bounded-Lipschitz (Fortet-Mourier) distance between two compactified
measures is the LP

    maximize  sum_k psi_k Delta_k
    s.t.      |psi_k| <= s,   |psi_j - psi_k| <= l * d_star(x_j, x_k),
              s + l <= 1,

solved exactly on a sparse, provably equivalent constraint set (on a sorted
support the star metric is the geodesic metric of the chain-plus-hub graph,
so adjacent and hub edges imply all pairwise Lipschitz constraints).
Every LP runs on HiGHS through :class:`BLModel`, one model of the LP built
from sparse triplets whose column costs change per solve.  All models solve
on one process-wide HiGHS instance, created at the first solve, which loads
the model afresh for every solve.  A one-shot call solves on a new model,
cold.  A held model solves cold once, and each later solve restarts from the
basis of that first solve, so a value does not depend on the solves before
it, on this model or on any other.

Each solve also returns a weak-duality upper bound from its row duals (the
flow-and-leak dual, the flat-norm form of Piccoli & Rossi, ARMA 2014), so
the optimum is bracketed, not assumed.  A result is returned only if its
certificate passes the check and its relative duality gap is within
``TOL["lp_duality_gap_rel"]``; otherwise ``bl_distance`` raises ``LPError``
(the CLI exits with status 3) rather than returning an unchecked value.

Every certificate is checked against all pairwise constraints, by an O(K)
sweep of running extremes rather than a K x K matrix; a check of the
graph's edges alone would not do, since on an infeasible certificate
violations add up along paths.

The time-sup estimator ``dqt_estimate`` bounds each checkpoint's distance
from above by a feasible flow of the LP's dual (``bl_flow_bound``), solves
the LPs in descending order of that bound, and skips a checkpoint whose
bound is already below the running sup, which leaves the sup unchanged.
Its LPs live on per-checkpoint supports: the reference grid is much wider
than the reference's mass, so at each checkpoint time the smallest
reference cells, together holding at most ``TOL["bl_tail_mass"]``, are
folded into the star.  Moving mass m to the star changes a BL value by at
most m, since |psi_i - psi_star| <= 1 (the leak term of the flat norm), so
a folded value is within that tolerance of the full one.  Each checkpoint
time's LPs then solve on one held model over the kept midpoints; a pair
whose empirical side has mass on a folded cell solves cold on the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as highs_core

from .constants import TOL

STAR = "star"
# relative margin by which a flow bound must stay below the running sup for
# dqt_estimate to skip its LP; covers the roundoff of bound and LP value
PRUNE_MARGIN = 1e-6


class MetricError(RuntimeError):
    pass


class LPError(MetricError):
    pass


# ---------------------------------------------------------------------------
# the compactified metric


def _l(x, x0=0.0):
    return 1.0 / (1.0 + np.abs(np.asarray(x, float) - x0))


def dstar(p, q, x0=0.0):
    """Metric on the compactified line; pass STAR for the added point."""
    on_star = [isinstance(z, str) and z == STAR for z in (p, q)]
    if any(on_star):
        return 0.0 if all(on_star) else _l(q if on_star[0] else p, x0)
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    return np.minimum(np.abs(p - q), _l(p, x0) + _l(q, x0))


# ---------------------------------------------------------------------------
# compactified measures


@dataclass(frozen=True)
class CompactifiedMeasure:
    """Atoms on the line, given as (K,) or (K, 1) and stored as a (K, 1)
    column, with masses plus the deficit mass on the star point."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, float)
        atoms = atoms[:, None] if atoms.ndim == 1 else atoms
        if atoms.shape[1:] != (1,):
            raise MetricError(f"atoms of shape {atoms.shape}; the metric is 1D: (K,) or (K, 1)")
        masses = np.asarray(self.masses, float)
        if masses.ndim != 1 or len(masses) != len(atoms):
            raise MetricError(f"{masses.shape} masses for {len(atoms)} atoms; one per atom needed")
        if not (np.isfinite(atoms).all() and np.isfinite(masses).all()):
            raise MetricError("atoms and masses must be finite")
        if masses.size and masses.min() < -1e-15:
            raise MetricError("negative atom mass")
        total = masses.sum()
        if total > 1.0 + TOL["compactify_mass_slack"]:
            raise MetricError(f"total mass {total!r} exceeds one")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", np.maximum(masses, 0.0))

    @property
    def star_mass(self) -> float:
        return max(1.0 - float(self.masses.sum()), 0.0)


def bin_measure(atoms: np.ndarray, masses: np.ndarray, edges: np.ndarray):
    """Weight-preserving binning of a 1D atomic measure onto cell midpoints.

    Mass outside the edge range is dropped (it reappears as star mass after
    compactification).
    """
    pos = np.asarray(atoms, float).reshape(-1)
    hist, _ = np.histogram(pos, bins=edges, weights=masses)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return mids, hist


def fold_tail(masses: np.ndarray) -> np.ndarray:
    """Mask of the cells kept on the line: the smallest cells, taken in
    ascending order of mass while their sum stays at most
    ``TOL["bl_tail_mass"]``, go to the star; at least one cell stays."""
    order = np.argsort(masses, kind="stable")
    drop = np.searchsorted(np.cumsum(masses[order]), TOL["bl_tail_mass"], side="right")
    keep = np.ones(len(masses), bool)
    keep[order[:min(drop, len(masses) - 1)]] = False
    return keep


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance


@dataclass(frozen=True)
class BLResult:
    value: float
    psi: np.ndarray       # certificate on merged atoms, star value last
    s: float
    lip: float
    atoms: np.ndarray
    solver: str
    meta: dict = field(default_factory=dict)


def _merged_support(mu: CompactifiedMeasure, nu: CompactifiedMeasure,
                    keep_zero: bool = False):
    """The atoms of both measures ascending on the line as a (K, 1) column,
    coincident ones merged, with the mass differences mu - nu; atoms whose
    difference is exactly zero are dropped unless ``keep_zero``."""
    x = np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]])
    delta = np.concatenate([mu.masses, -nu.masses])
    # merge exactly coincident atoms (binned supports)
    order = np.argsort(x, kind="stable")
    x, delta = x[order], delta[order]
    keep_first = np.ones(len(x), bool)
    keep_first[1:] = x[1:] != x[:-1]
    grp = np.cumsum(keep_first) - 1
    merged = x[keep_first, None]
    dsum = np.bincount(grp, weights=delta, minlength=len(merged))
    if keep_zero:
        return merged, dsum
    live = np.abs(dsum) > 0.0
    return merged[live], dsum[live]


def _edges_1d(x: np.ndarray, lvals: np.ndarray):
    """Adjacent chain edges with d_star weights; hub edges added separately."""
    k = len(x)
    w = np.minimum(np.abs(np.diff(x)), lvals[:-1] + lvals[1:])
    return np.stack([np.arange(k - 1), np.arange(1, k)], axis=1), w


def bl_distance(mu: CompactifiedMeasure, nu: CompactifiedMeasure,
                x0: float = 0.0, *, model: Optional[BLModel] = None) -> BLResult:
    """Fortet-Mourier distance between compactified measures.

    Returns the optimum with a certifying test function on the merged
    support (star value last), solved on a :class:`BLModel`.  The
    certificate satisfies every pairwise Lipschitz constraint and the norm
    budget to ``TOL["lp_certificate_feasibility"]``, and the result carries
    its weak-duality bound (``meta["dual_bound"]``) and relative duality gap
    (``meta["gap_rel"]``), gated at ``TOL["lp_duality_gap_rel"]``.  A solve
    that fails either gate raises ``LPError``.

    ``model`` is a held :class:`BLModel` on the merged support with its
    zero-difference atoms kept (``dqt_estimate`` builds one per call); without
    it, the LP is solved on a new, cold model.
    """
    atoms, delta = _merged_support(mu, nu, keep_zero=model is not None)
    if model is not None and (x0 != model.x0 or not np.array_equal(atoms, model.atoms)):
        raise MetricError("the merged support is not the held model's")
    delta_star = -float(delta.sum())  # star masses difference balances atoms
    K = len(atoms)
    if K == 0:
        return BLResult(0.0, np.zeros(1), 0.0, 1.0, atoms, "trivial")
    if K > 4096:
        raise MetricError("merged support too large; coarsen the measures first")
    obj = np.concatenate([delta, [delta_star]])
    scale = np.abs(obj).sum()
    if scale <= 0:
        return BLResult(0.0, np.zeros(K + 1), 0.0, 1.0, atoms, "trivial")

    model = BLModel(atoms, x0) if model is None else model
    psi, s, lip, val, upper = model.solve(obj / scale)
    gap = (upper - val) / upper if upper > 0 else 0.0
    result = BLResult(value=val * scale, psi=psi, s=s, lip=lip, atoms=atoms, solver="highs",
                      meta={"delta": obj, "x0": x0, "dual_bound": upper * scale,
                            "gap_rel": gap})
    viol = check_certificate(result, x0)
    if viol <= TOL["lp_certificate_feasibility"] and gap <= TOL["lp_duality_gap_rel"]:
        return result
    raise LPError(f"no certificate within {TOL['lp_certificate_feasibility']:g} of feasible "
                  f"and {TOL['lp_duality_gap_rel']:g} of optimal on {K} atoms "
                  f"(highs: violation {viol:.2e}, gap {gap:.2e})")


def bl_flow_bound(mu: CompactifiedMeasure, nu: CompactifiedMeasure,
                  x0: float = 0.0) -> float:
    """Upper bound on ``bl_distance(mu, nu).value`` by weak duality from one
    feasible flow of the LP's dual.

    The dual sends the difference Delta = mu - nu (star included) along the
    chain-plus-hub graph at cost sum |f_e| w_e, or leaks it at cost |r|
    (Piccoli & Rossi, ARMA 2014).  Two feasible choices: the cumulative chain
    flow F, with the imbalance F_K entering the star through the cheapest hub
    edge j, costs W = min_j [sum_{i<j} w_i |F_i| + sum_{i>=j} w_i |F_i - F_K|
    + l_j |F_K|]; the pure leak costs R = |Delta|_1.  As s + L <= 1, their
    best blend bounds the value by W R / (W + R).
    """
    atoms, delta = _merged_support(mu, nu)
    leak = float(np.abs(delta).sum() + abs(delta.sum()))
    if leak <= 0:
        return 0.0
    x = atoms[:, 0]  # sorted by _merged_support
    lvals = _l(x, x0)
    _, w = _edges_1d(x, lvals)
    F = np.cumsum(delta)
    below = np.concatenate([[0.0], np.cumsum(w * np.abs(F[:-1]))])
    above = np.concatenate([np.cumsum((w * np.abs(F[:-1] - F[-1]))[::-1])[::-1], [0.0]])
    flow = float((below + above + lvals * abs(F[-1])).min())
    return flow * leak / (flow + leak)


def _lp_constraints(edges, weights, K):
    """The LP's rows A z <= rhs over z = (psi_0..psi_K, s, l) as sparse
    triplets (rows, cols, vals, rhs), psi_K being the star value.

    Rows 2e, 2e+1 hold +-(psi_u - psi_v) <= l w_e for edge e = (u, v); rows
    2ne+2k, 2ne+2k+1 hold +-psi_k <= s; the last row is s + l <= 1.
    """
    nv = K + 1
    ne = len(edges)
    r = 2 * ne + 2 * nv
    ecols = np.empty((ne, 6), np.intp)
    ecols[:, 0] = ecols[:, 3] = edges[:, 0]
    ecols[:, 1] = ecols[:, 4] = edges[:, 1]
    ecols[:, 2] = ecols[:, 5] = nv + 1
    evals = np.empty((ne, 6))
    evals[:] = (1.0, -1.0, 0.0, -1.0, 1.0, 0.0)
    evals[:, 2] = evals[:, 5] = -weights
    ncols = np.empty((nv, 4), np.intp)
    ncols[:, 0] = ncols[:, 2] = np.arange(nv)
    ncols[:, 1] = ncols[:, 3] = nv
    rows = np.concatenate([np.arange(6 * ne) // 3, 2 * ne + np.arange(4 * nv) // 2, [r, r]])
    cols = np.concatenate([ecols.ravel(), ncols.ravel(), [nv, nv + 1]])
    vals = np.concatenate([evals.ravel(), np.tile([1.0, -1.0, -1.0, -1.0], nv), [1.0, 1.0]])
    rhs = np.zeros(r + 1)
    rhs[r] = 1.0
    return rows, cols, vals, rhs


def _support_lp(atoms: np.ndarray, x0: float):
    """The LP's constraint triplets (:func:`_lp_constraints`) on a merged
    support, sorted on the line by :func:`_merged_support`: the chain of
    adjacent atoms plus a hub edge from every atom to the star."""
    K = len(atoms)
    lvals = _l(atoms[:, 0], x0)
    edges, weights = _edges_1d(atoms[:, 0], lvals)
    # hub edges to the star node (index K)
    hub = np.stack([np.arange(K), np.full(K, K)], axis=1)
    return _lp_constraints(np.vstack([edges, hub]), np.concatenate([weights, lvals]), K)


# HiGHS options of every solve: no log, presolve off (it slows a small LP),
# feasibility tolerances 1e-10; the simplex strategy is set per solve
_HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"),
                  ("primal_feasibility_tolerance", 1e-10), ("dual_feasibility_tolerance", 1e-10))
_highs = None  # the process-wide HiGHS instance; _instance creates it


def _instance():
    global _highs
    if _highs is None:
        _highs = highs_core._Highs()
        for key, value in _HIGHS_OPTIONS:
            _highs.setOptionValue(key, value)
    return _highs


class BLModel:
    """The BL LP on one merged support, solved by HiGHS through scipy's
    private ``_highspy`` binding; every ``bl_distance`` solve runs on one,
    held or new.

    A model keeps only its LP, as CSC arrays (``csc``) built with numpy and
    the row bounds ``rhs``, and its anchor basis.  Every solve loads the LP
    with that solve's costs into the one process-wide HiGHS instance
    (``passModel`` replaces whatever it held), so a model costs no HiGHS
    memory of its own.  A fresh load on every solve, not only when the
    instance holds another model, is what makes a result independent of
    the solves before it: a run leaves state in the instance that changes
    the next run on the same model in its last bits.  The first solve is
    cold, by dual simplex, and its optimal basis becomes the anchor.  Every
    later solve runs primal simplex from the anchor, which stays primal
    feasible as only the costs change; so its result depends on the anchor
    only.  The shared instance makes solves unsafe from concurrent threads;
    every caller in the package solves from one thread.

    Besides the primal optimum, a solve returns the weak-duality bound
    U = y'b + |(A'y - c)_psi|_1 + sum_{s, l} max(c - A'y, 0) from the row
    duals y >= 0 (clipped), which holds for any y >= 0 because every
    feasible point has |psi| <= s <= 1 and s, l in [0, 1].
    """

    def __init__(self, atoms: np.ndarray, x0: float = 0.0):
        self.atoms = atoms
        self.x0 = x0
        rows, cols, vals, rhs = _support_lp(atoms, x0)
        self.nv = len(atoms) + 1  # psi (free, star last), then s, l >= 0
        n = self.nv + 2
        # the CSC arrays (data, indices, indptr): entries by column, then row
        # (the triplets come in ascending rows, which a stable sort keeps)
        order = np.argsort(cols, kind="stable")
        self._cols = cols[order]
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(self._cols, minlength=n), out=indptr[1:])
        self.csc = (vals[order], rows[order], indptr)
        self.rhs = rhs
        self.anchor = None

    def solve(self, obj):
        """max obj'psi over the LP; returns (psi, s, l, value, U)."""
        h, nv = _instance(), self.nv
        data, index, indptr = self.csc
        n, inf = nv + 2, highs_core.kHighsInf
        cost = np.zeros(n)
        cost[:nv] = -obj  # HiGHS minimizes
        lower = np.zeros(n)
        lower[:nv] = -inf
        # the model from arrays: sizes, column-wise format, minimize, offset 0,
        # costs, column and row bounds, the CSC arrays, every column continuous
        h.passModel(n, len(self.rhs), len(data), int(highs_core.MatrixFormat.kColwise),
                    int(highs_core.ObjSense.kMinimize), 0.0, cost, lower, np.full(n, inf),
                    np.full(len(self.rhs), -inf), self.rhs, indptr, index, data,
                    np.zeros(n, np.int32))
        h.setOptionValue("simplex_strategy", 1 if self.anchor is None else 4)  # dual, primal
        if self.anchor is not None:
            h.setBasis(self.anchor)
        h.run()
        status = h.getModelStatus()
        if status != highs_core.HighsModelStatus.kOptimal:
            raise LPError(f"HiGHS failed: {status}")
        if self.anchor is None:
            self.anchor = h.getBasis()
        sol = h.getSolution()
        z = np.asarray(sol.col_value)
        y = np.maximum(-np.asarray(sol.row_dual), 0.0)
        red = np.bincount(self._cols, data * y[index], n)  # A'y - c, c = 0 on s, l
        red[:nv] -= obj
        upper = y @ self.rhs + np.abs(red[:nv]).sum() + np.maximum(-red[nv:], 0.0).sum()
        return (z[:nv], float(z[nv]), float(z[nv + 1]),
                -h.getInfo().objective_function_value, float(upper))


def check_certificate(result: BLResult, x0: float = 0.0) -> float:
    """Max constraint violation of the certificate over all pairs.

    The pairwise maximum over the atoms on the line is swept in O(K)
    (:func:`_pair_violation_sweep`), the star's pairs are formed directly.
    """
    psi = result.psi
    K = len(result.atoms)
    viol = max(np.abs(psi).max() - result.s, 0.0)
    viol = max(viol, result.s + result.lip - 1.0)
    if K:
        x = result.atoms[:, 0]
        lv = _l(x, x0)
        viol = max(viol, _pair_violation_sweep(x, psi[:K], result.lip, lv))
        vstar = np.abs(psi[:K] - psi[K]) - result.lip * lv
        viol = max(viol, float(vstar.max()))
    return float(viol)


def _pair_violation_dense(x, psi, lip, lv) -> float:
    """max over all pairs i, j of |psi_i - psi_j| - lip d_star(x_i, x_j); O(K^2),
    the oracle of :func:`_pair_violation_sweep`."""
    dmat = np.minimum(np.abs(x[:, None] - x[None, :]), lv[:, None] + lv[None, :])
    lhs = np.abs(psi[:, None] - psi[None, :])
    return float((lhs - lip * dmat).max())


def _pair_violation_sweep(x, psi, lip, lv) -> float:
    """The maximum of :func:`_pair_violation_dense` in O(K).

    d_star is the smaller of |x_i - x_j| and l_i + l_j, so the maximum is
    the larger of two branches.  Chain: for x_i <= x_j the pair's excess is
    a_j - a_i with a = psi - lip x, or b_i - b_j with b = psi + lip x, so
    running extremes give every pair (the diagonal's 0 included).  Hub: the
    excess separates into max(psi - lip l) - min(psi + lip l).
    """
    if (np.diff(x) < 0).any():
        order = np.argsort(x, kind="stable")
        x, psi, lv = x[order], psi[order], lv[order]
    a = psi - lip * x
    b = psi + lip * x
    chain = max((a - np.minimum.accumulate(a)).max(),
                (np.maximum.accumulate(b) - b).max())
    hub = (psi - lip * lv).max() - (psi + lip * lv).min()
    return float(max(chain, hub))


def bl_dirac_formula(x, y, x0: float = 0.0) -> float:
    """Distance between unit Diracs: 2 d / (2 + d) with d = d_star(x, y)."""
    d = dstar(x, y, x0)
    return 2.0 * d / (2.0 + d)


# ---------------------------------------------------------------------------
# the time-sup metric estimator


@dataclass(frozen=True)
class DqtResult:
    value: float
    ci_low: float
    ci_high: float
    sups: np.ndarray
    checkpoint_times: np.ndarray
    n_particles: int
    q: float
    reliable_ci: bool
    extra_shift: np.ndarray  # (reps,); 0 where the fitness shift g_max sufficed
    lp_solved: int  # BL LPs solved over all replicates
    lp_pruned: int  # checkpoints skipped by their flow bound
    lp_cold: int  # LPs solved cold: a held model's first, and every full-support one
    lp_full_support: int  # LPs on all ref_atoms midpoints (empirical mass on a folded cell)
    lp_atoms: int  # atoms summed over the LPs solved


def dqt_estimate(model, fitness, initial_law, reference, *, T: float, N: int,
                 q: float = 2.0, reps: int = 20, seed: int = 0,
                 checkpoints: int = 32, ref_atoms: int = 512,
                 steps_per_unit: int = 400, threads: int = 1,
                 lp_models: Optional[dict] = None,
                 _particle_runner=None) -> DqtResult:
    """Monte Carlo estimate of the q-norm of the sup-over-time BL distance
    between the tilted empirical measure and the tilted reference.

    Both measures are discretized onto the reference's midpoint grid (the
    empirical side by weight-preserving binning), compactified, and compared
    checkpoint by checkpoint; the sup uses the stored checkpoints only.
    The LPs run in descending order of the checkpoints' flow bounds
    (:func:`bl_flow_bound`), and a checkpoint whose bound is below the
    running sup by more than ``PRUNE_MARGIN`` is skipped: its value cannot
    set the sup, so ``sups`` is the same as with every LP solved.
    ``lp_solved`` and ``lp_pruned`` count the two cases.

    At each checkpoint time, :func:`fold_tail` folds the reference's
    smallest cells (at unit fitness shift) into the star, and the LPs run on
    the held model of the kept midpoints in ``lp_models``, a table keyed by
    the time and the kept midpoints; pass one table to calls on the same
    reference grid and checkpoint times to share their models and anchors.
    A value moves by at most ``TOL["bl_tail_mass"]`` from the full-support
    one.  A pair whose binned empirical measure has mass on a folded cell
    is solved cold on all ``ref_atoms`` midpoints instead.

    The fitness shift g_max need not bound g on the realized paths (linear
    fitness has no upper bound), so a tilted empirical mass can exceed one,
    outside the compactification.  That replicate's shift is then raised
    by the least constant that keeps its masses at most one, on both
    measures alike (the BL distance scales with them); ``extra_shift``
    records it.
    """
    from . import rng
    from .particle import run_particles, tilted_measure
    from .sde import TimeGrid

    runner = run_particles if _particle_runner is None else _particle_runner
    lp_models = {} if lp_models is None else lp_models
    grid_t = TimeGrid.per_unit(T, steps_per_unit)
    lo, hi = reference.grid[0], reference.grid[-1]
    edges = np.linspace(lo, hi, ref_atoms + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    cells = {}  # checkpoint time -> (reference cell shares, mass factor, kept cells, held model)
    sups = np.empty(reps)
    extra = np.zeros(reps)
    times_used = None
    lp_solved = lp_pruned = lp_cold = lp_full = lp_atoms = 0
    for r in range(reps):
        rep_seed = rng.derive_seed(seed, f"dqt-rep-{r}")
        ens = runner(model, fitness, initial_law, N, grid_t, rep_seed,
                     checkpoints=checkpoints, threads=threads)
        times_used = ens.times
        later = ens.times > 0
        log_mass = np.log(np.exp(ens.logw[:, later]).mean(axis=0))
        extra[r] = max(0.0, float(np.max(log_mass / ens.times[later], initial=0.0)))
        pairs = []
        for t in ens.times:
            if t not in cells:
                cell = np.maximum(reference.u(t, mids), 0.0) * np.diff(edges)
                total = cell.sum()
                share = cell / total if total > 0 else cell
                factor = reference.mass_factor(t, shifted=True)
                keep = fold_tail(share * factor)
                key = (float(t), mids[keep].tobytes())
                if key not in lp_models:
                    lp_models[key] = BLModel(mids[keep, None])
                cells[t] = share, factor, keep, lp_models[key]
            share, factor, keep, held = cells[t]
            scale = np.exp(-extra[r] * t)
            emp = tilted_measure(ens, t)
            ea, em = bin_measure(emp.atoms, emp.masses * scale, edges)
            ref_m = share * (factor * scale)
            if em[~keep].any():  # solved on all midpoints, cold
                pairs.append((CompactifiedMeasure(ea[:, None], em),
                              CompactifiedMeasure(mids[:, None], ref_m), None))
            else:
                pairs.append((CompactifiedMeasure(held.atoms, em[keep]),
                              CompactifiedMeasure(held.atoms, ref_m[keep]), held))
        # largest bound first; a checkpoint whose bound stays below the best
        # value so far (with a margin for roundoff) cannot set the sup
        bounds = np.array([bl_flow_bound(e, c) for e, c, _ in pairs])
        best = 0.0
        for i in np.argsort(-bounds, kind="stable"):
            if bounds[i] <= best * (1.0 - PRUNE_MARGIN):
                lp_pruned += 1
                continue
            emp_c, ref_c, lp_model = pairs[i]
            if lp_model is None:
                lp_model = BLModel(mids[:, None])
                lp_full += 1
            cold = lp_model.anchor is None
            res = bl_distance(emp_c, ref_c, model=lp_model)
            lp_cold += cold and lp_model.anchor is not None  # a zero difference solves nothing
            lp_atoms += len(res.atoms)
            best = max(best, res.value)
            lp_solved += 1
        sups[r] = best
    value = float(np.mean(sups ** q) ** (1.0 / q))
    if reps >= 3:
        gen = np.random.default_rng(rng.derive_seed(seed, "dqt-bootstrap"))
        idx = gen.integers(0, reps, size=(1000, reps))
        boots = np.mean(sups[idx] ** q, axis=1) ** (1.0 / q)
        ci_low, ci_high = np.percentile(boots, [2.5, 97.5])
        reliable = True
    else:
        ci_low = ci_high = value
        reliable = False
    return DqtResult(value=value, ci_low=float(ci_low), ci_high=float(ci_high),
                     sups=sups, checkpoint_times=times_used, n_particles=N,
                     q=q, reliable_ci=reliable, extra_shift=extra,
                     lp_solved=lp_solved, lp_pruned=lp_pruned, lp_cold=lp_cold,
                     lp_full_support=lp_full, lp_atoms=lp_atoms)
