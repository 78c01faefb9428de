"""Output checks for the benchmark workloads.

Every reference value here is computed apart from ``repmut``: closed forms
derived by hand for the canonical scenarios, and a feasibility check of
bounded-Lipschitz certificates written from the LP's definition.  Nothing
is compared against stored copies of earlier output.

A check returns ``op(name, ok, detail)``; each one is one operation of the
benchmark.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# ---------------------------------------------------------------------------
# closed forms

# linear-bm: X = X0 + sqrt(2) W, X0 ~ N(0, S0_SQ), fitness g(x) = x.
S0_SQ = 1.0
# cir-linear: dX = (a + b X) dt + sigma sqrt(X) dW, fitness g(x) = -x,
# X0 with density proportional to x^(shape-1) exp(-rate x).
CIR = {"a": 1.0, "b": -1.0, "sigma": 1.0, "shape": 2.0, "rate": 2.0}


def linear_bm_moments(t: float) -> tuple[float, float]:
    """Mean and variance of the normalized linear-bm density at time t.

    The tilt by exp(int_0^t X ds) shifts the Gaussian path law; the result
    is N(S0^2 t + t^2, S0^2 + 2 t).
    """
    return S0_SQ * t + t * t, S0_SQ + 2.0 * t


def linear_bm_mass(t) -> np.ndarray:
    """h_t = E exp(int_0^t X_s ds) = exp(S0^2 t^2 / 2 + t^3 / 3)."""
    t = np.asarray(t, float)
    return np.exp(0.5 * S0_SQ * t * t + t ** 3 / 3.0)


def gaussian_pdf(x, mean: float, var: float) -> np.ndarray:
    x = np.asarray(x, float)
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def cir_bond_AB(t, a=CIR["a"], b=CIR["b"], sigma=CIR["sigma"]):
    """A(t), B(t) with E_x exp(-int_0^t X ds) = A(t) exp(-B(t) x).

    Classical CIR bond price for dX = kappa (theta - X) dt + sigma sqrt(X) dW
    with kappa = -b, kappa theta = a.
    """
    t = np.asarray(t, float)
    kappa = -b
    gamma = math.sqrt(kappa * kappa + 2.0 * sigma * sigma)
    e = np.expm1(gamma * t)
    den = (gamma + kappa) * e + 2.0 * gamma
    B = 2.0 * e / den
    A = (2.0 * gamma * np.exp(0.5 * (kappa + gamma) * t) / den) ** (2.0 * a / sigma ** 2)
    return A, B


def cir_mass(t) -> np.ndarray:
    """h_t = A(t) E exp(-B(t) X0) for the gamma(shape, rate) initial law."""
    A, B = cir_bond_AB(t)
    return A * (CIR["rate"] / (CIR["rate"] + B)) ** CIR["shape"]


# ---------------------------------------------------------------------------
# bounded-Lipschitz certificates


def star_distance_matrix(x: np.ndarray, x0: float = 0.0):
    """Pairwise d_star on 1D atoms and the atoms' distances to the star.

    d_star(x, y) = min(|x - y|, l(x) + l(y)), d_star(x, star) = l(x),
    l(x) = 1 / (1 + |x - x0|).
    """
    x = np.asarray(x, float)
    lv = 1.0 / (1.0 + np.abs(x - x0))
    d = np.minimum(np.abs(x[:, None] - x[None, :]), lv[:, None] + lv[None, :])
    return d, lv


def bl_certificate_gaps(atoms, psi, s, lip, delta, value, x0: float = 0.0):
    """Feasibility violation and value gap of a BL certificate.

    ``psi`` holds the test function on the atoms with the star value last;
    ``delta`` the signed mass difference in the same order.  Feasible means
    |psi| <= s, s + lip <= 1 and |psi_j - psi_k| <= lip d_star(x_j, x_k) for
    every pair, the star included.  Returns (max violation, |psi.delta -
    value| relative to max(1, |value|)).
    """
    psi = np.asarray(psi, float)
    x = np.asarray(atoms, float).reshape(-1)
    k = x.size
    d, lv = star_distance_matrix(x, x0)
    viol = max(float(np.abs(psi).max()) - s, s + lip - 1.0, -s, -lip)
    if k:
        pair = np.abs(psi[:k, None] - psi[None, :k]) - lip * d
        star = np.abs(psi[:k] - psi[k]) - lip * lv
        viol = max(viol, float(pair.max()), float(star.max()))
    gap = abs(float(psi @ np.asarray(delta, float)) - value) / max(1.0, abs(value))
    return viol, gap


# tolerance for certificate feasibility and for psi.delta against the value
CERT_TOL = 1e-9


# ---------------------------------------------------------------------------
# file readers


def read_table(path) -> dict:
    """Numeric CSV with a header line -> {column: array}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def density_at(path, t: float):
    """Grid and density values stored for time t in a density CSV."""
    tab = read_table(path)
    rows = np.abs(tab["t"] - t) <= 1e-9 * max(1.0, t)
    return tab["x"][rows], tab["u"][rows]


def trapezoid(y, x) -> float:
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


# ---------------------------------------------------------------------------
# checks shared by the workloads


def op(name, ok, detail=""):
    """One operation's outcome."""
    return (name, bool(ok), detail)


def _guard(name, fn):
    """Runs one check; a missing or malformed file fails the check."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return op(name, False, f"{type(exc).__name__}: {exc}")


def check_exit(rc: int):
    return op("exit_code_0", rc == 0, f"rc={rc}")


def check_engines(out, engines):
    """One operation per engine: its density file exists and solve did not
    list it under failed engines."""
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            status = json.load(fh).get("status", "")
    except (OSError, ValueError):
        status = "unreadable"
    failed = status.split(":", 1)[1].split(",") if status.startswith("failed-engines") else []
    failed = {f.strip() for f in failed}
    return [op(f"engine_{e}", e not in failed and status != "unreadable"
               and os.path.exists(os.path.join(out, f"density_{e}.csv")),
               f"status={status!r}")
            for e in engines]


def check_mass_se(out, name, exact, k_se):
    """h_t_mc within k_se standard errors of the exact mass at every node."""
    def run():
        tab = read_table(os.path.join(out, "masses.csv"))
        t, h, se = tab["t"], tab["h_t_mc"], tab["se"]
        ref = exact(t)
        gap = np.abs(h - ref)
        ok = bool(np.all(gap <= k_se * se) and np.isfinite(h).all() and t.size >= 2)
        z = np.where(se > 0, gap / np.where(se > 0, se, 1.0), np.where(gap > 0, np.inf, 0.0))
        return op(name, ok, f"worst gap {float(z.max()):.3f} se at {t.size} nodes")
    return _guard(name, run)


# ---------------------------------------------------------------------------
# per-workload checks


def checks_solve_linear_bm(out, cfg):
    T = float(cfg["horizon"])
    engines = cfg["engines"]
    mean, var = linear_bm_moments(T)
    res = check_engines(out, engines)

    def sup_rel(engine):
        name = f"density_{engine}_exact_sup_rel_1e-6"

        def run():
            x, u = density_at(os.path.join(out, f"density_{engine}.csv"), T)
            ex = gaussian_pdf(x, mean, var)
            err = float(np.abs(u - ex).max() / ex.max())
            return op(name, x.size > 0 and err <= 1e-6, f"sup-rel {err:.3e}")
        return _guard(name, run)

    def l1(engine, tol):
        name = f"density_{engine}_exact_l1_{tol:g}"

        def run():
            x, u = density_at(os.path.join(out, f"density_{engine}.csv"), T)
            err = trapezoid(np.abs(u - gaussian_pdf(x, mean, var)), x)
            return op(name, x.size > 0 and err <= tol, f"L1 {err:.3e}")
        return _guard(name, run)

    def analytic_mass():
        name = "mass_h_t_exact_1e-9"

        def run():
            tab = read_table(os.path.join(out, "masses.csv"))
            err = float(np.max(np.abs(tab["h_t"] / linear_bm_mass(tab["t"]) - 1.0)))
            return op(name, err <= 1e-9, f"rel {err:.2e}")
        return _guard(name, run)

    res += [sup_rel("linear"), sup_rel("affine"), l1("pde", 2e-2),
            l1("particle", 5e-2), analytic_mass(),
            check_mass_se(out, "mass_h_t_mc_5se", linear_bm_mass, 5.0)]
    return res


def checks_solve_cir(out, cfg):
    T = float(cfg["horizon"])
    engines = sorted(cfg["engines"])
    res = check_engines(out, engines)
    res.append(check_mass_se(out, "mass_h_t_mc_5se_bond_price", cir_mass, 5.0))

    def pair(a, b):
        name = f"l1_{a}_{b}_0.08"

        def run():
            xa, ua = density_at(os.path.join(out, f"density_{a}.csv"), T)
            xb, ub = density_at(os.path.join(out, f"density_{b}.csv"), T)
            if xa.size == 0 or not np.array_equal(xa, xb):
                return op(name, False, "grids differ or time T missing")
            err = trapezoid(np.abs(ua - ub), xa)
            return op(name, err <= 8e-2, f"L1 {err:.3e}")
        return _guard(name, run)

    res += [pair(a, b) for i, a in enumerate(engines) for b in engines[i + 1:]]

    # Non-negativity and unit mass (within 1e-2) are checked at every stored
    # time; vanishing below the wall at T, where the export grid is the
    # tilted engine's own KDE grid.  The export grid cuts up to ~2e-3 of the
    # other engines' mass, and at earlier times the tilted density is
    # interpolated across the wall; both vary with the seed (see the FOUND
    # lines in CHANGES.md), so tighter forms of these checks are left out.
    for e in engines:
        names = [f"density_{e}_{k}" for k in ("nonnegative", "zero_below_0_at_T", "integral_1")]
        try:
            res += _density_shape(os.path.join(out, f"density_{e}.csv"), T, names)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res += [op(n, False, f"{type(exc).__name__}: {exc}") for n in names]

    def clips():
        name = "pde_zero_negativity_clips"

        def run():
            with open(os.path.join(out, "pde_summary.json")) as fh:
                n = int(json.load(fh)["negativity_clips"])
            return op(name, n == 0, f"clips={n}")
        return _guard(name, run)

    res.append(clips())
    return res


def _density_shape(path, T, names):
    tab = read_table(path)
    times = np.unique(tab["t"])
    rows = [tab["t"] == t for t in times]
    neg = max(float(-tab["u"][r].min()) for r in rows)
    mass = max(abs(trapezoid(tab["u"][r], tab["x"][r]) - 1.0) for r in rows)
    x, u = density_at(path, T)
    below = float(np.abs(u[x < 0]).max(initial=0.0)) if x.size else float("inf")
    return [op(names[0], neg <= 0.0, f"min {-neg:.3e} over {times.size} times"),
            op(names[1], below == 0.0, f"max u(T, x<0) {below:.3e}"),
            op(names[2], mass <= 1e-2, f"worst |mass-1| {mass:.3e} over {times.size} times")]


def checks_chaos(out, cfg):
    ladder = [int(n) for n in cfg["particles"]["N"]]
    try:
        tab = read_table(os.path.join(out, "rates.csv"))
        n_col, d_col = tab["N"].astype(int), tab["D"]
        note = f"{n_col.size} rows"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        n_col, d_col = np.zeros(0, int), np.zeros(0)
        note = f"{type(exc).__name__}: {exc}"
    res = [op(f"ladder_N={n}", np.count_nonzero(n_col == n) == 1
              and np.isfinite(d_col[n_col == n]).all(), f"D={d_col[n_col == n].tolist()}")
           for n in ladder]
    if not (np.array_equal(n_col, ladder) and np.all(d_col > 0)):
        return res + [op(name, False, f"ladder incomplete ({note})") for name in
                      ("D_in_(0,2]", "slope_in_[-0.75,-0.30]", "D_largest_N_below_D_smallest_N")]
    slope = float(np.polyfit(np.log(n_col), np.log(d_col), 1)[0])
    return res + [
        op("D_in_(0,2]", bool(np.all(d_col <= 2)), f"min {d_col.min():.4g} max {d_col.max():.4g}"),
        op("slope_in_[-0.75,-0.30]", -0.75 <= slope <= -0.30, f"slope {slope:.3f}"),
        op("D_largest_N_below_D_smallest_N", d_col[-1] < d_col[0],
           f"{d_col[-1]:.4g} < {d_col[0]:.4g}")]


def checks_particles(out, cfg):
    T = float(cfg["horizon"])
    n = int(cfg["particles"]["n_kde"])

    def ensemble():
        try:
            tab = read_table(os.path.join(out, "ensemble.csv"))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [op(nm, False, f"{type(exc).__name__}: {exc}")
                    for nm in ("ensemble_rows_N_x_S", "ensemble_logw_0_at_t0",
                               "positions_T_mean_5se", "positions_T_var_5se")]
        times = np.unique(tab["t"])
        rows = tab["t"].size
        out_checks = [op("ensemble_rows_N_x_S", rows == n * times.size
                         and np.unique(tab["particle"]).size == n,
                         f"{rows} rows, {times.size} times")]
        first = tab["t"] == times[0]
        out_checks.append(op("ensemble_logw_0_at_t0",
                             times[0] == 0.0 and bool(np.all(tab["logw"][first] == 0.0)),
                             f"t0={float(times[0])!r}"))
        last = np.abs(tab["t"] - T) <= 1e-9 * max(1.0, T)
        x = tab["x0"][last]
        var_exact = S0_SQ + 2.0 * T
        m_se = math.sqrt(var_exact / max(x.size, 1))
        mean = float(x.mean()) if x.size else float("nan")
        out_checks.append(op("positions_T_mean_5se", x.size == n and abs(mean) <= 5 * m_se,
                             f"mean {mean:.4g}, se {m_se:.3g}"))
        v = float(x.var(ddof=1)) if x.size > 1 else float("nan")
        v_se = var_exact * math.sqrt(2.0 / max(x.size - 1, 1))
        out_checks.append(op("positions_T_var_5se",
                             x.size == n and abs(v - var_exact) <= 5 * v_se,
                             f"var {v:.4g} vs {var_exact:g}, se {v_se:.3g}"))
        return out_checks

    return ensemble() + [check_mass_se(out, "mass_h_t_mc_5se", linear_bm_mass, 5.0)]
