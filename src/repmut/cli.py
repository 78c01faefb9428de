"""Scenario-driven command line front end.

Subcommands: solve, chaos, particles, validate, manifest.  All randomness
flows from a master seed through named stage derivations; outputs are CSV
and SVG files written atomically.  Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .closed_form import (EngineError, RejectedCondition, Solution, _no_mass,
                          affine_eigenpair, affine_engine, affine_form,
                          checkpoint_density_u, linear_engine, tilted_engine)
from .constants import TOL, DEFAULT_CHECKPOINTS, DEFAULT_STEPS_PER_UNIT
from .metric import MetricError, dqt_estimate
from .model import InitialLaw, ModelError, _check_law_domain
from .numerics import GridDensity, NumericsError, kde, stored_index
from .particle import (ParticleError, mass_estimate, mass_estimate_se, normalized_measure,
                       run_particles)
from .pde import PdeError, PdeScheme, _build_grid, solve_rm_pde
from .report import atomic_write_text, density_prefix, loglog_svg, write_csv
from .scenarios import (CANONICAL, Scenario, affine_quadratic_fitness, bm_model,
                        cir_model, gamma_like_law, linear_fitness, ou_model,
                        quadratic_decay_fitness)
from .sde import SimulationError, TimeGrid
from .spectral import SpectralError, cir_eigenpair
from .spectral import schrodinger_ground_state  # noqa: F401  (benchmarks/tracer.py patches it)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


DEFAULT_CONFIG = {
    "scenario": None,
    "model": None,
    "fitness": None,
    "initial": None,
    "horizon": 1.0,
    "engines": None,
    "particles": {"N": [250, 500, 1000, 2000, 4000], "reps": 20, "q": 2.0,
                  "n_kde": 100_000},
    "metric": {"checkpoints": DEFAULT_CHECKPOINTS, "ref_atoms": 512},
    "steps_per_unit": DEFAULT_STEPS_PER_UNIT,
    "output": "out",
    "seed": 20240801,
}


ENGINES = ("linear", "affine", "tilted", "pde", "particle")


def _int_at_least(lo: int):
    return lambda v: type(v) is int and v >= lo


_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v < np.inf, "a finite number > 0")
_OBJECT = (lambda v: type(v) is dict, "an object")
_OBJECT_OR_NULL = (lambda v: v is None or type(v) is dict, "an object")
# dotted config key -> (accepts the value, what the value must be); a section
# precedes its keys
CONFIG_RULES = {
    "scenario": (lambda v: v is None or type(v) is str, "a scenario name"),
    "model": _OBJECT_OR_NULL,
    "fitness": _OBJECT_OR_NULL,
    "initial": _OBJECT_OR_NULL,
    "output": (lambda v: type(v) is str, "a path"),
    "particles": _OBJECT,
    "metric": _OBJECT,
    "horizon": _POSITIVE,
    "seed": (lambda v: type(v) is int, "an integer"),
    "steps_per_unit": (_int_at_least(1), "an integer >= 1"),
    "engines": (lambda v: v is None or (type(v) is list and set(v) <= set(ENGINES)),
                f"a list of engine names from {list(ENGINES)}"),
    "particles.N": (lambda v: type(v) is list and all(map(_int_at_least(1), v)),
                    "a list of integers >= 1"),
    "particles.reps": (_int_at_least(1), "an integer >= 1"),
    "particles.n_kde": (_int_at_least(1), "an integer >= 1"),
    "particles.q": _POSITIVE,
    "metric.checkpoints": (_int_at_least(2), "an integer >= 2"),
    "metric.ref_atoms": (_int_at_least(1), "an integer >= 1"),
}


def _numbers(v) -> bool:
    return type(v) in (int, float) or (type(v) is list and all(map(_numbers, v)))


_NUMBER = (lambda v: type(v) in (int, float), "a number")
_ARRAY = (_numbers, "a number or a list of numbers")


def _law(kind: str):
    return lambda **params: InitialLaw(kind, params)


# custom section -> kind -> (builder, {key beside "kind": (accepts the value,
# what it must be[, default])}); the builder takes every key as a keyword,
# and a key without a default must be given
CUSTOM_RULES = {
    "model": {
        "arithmetic-bm": (bm_model, {"b": (*_ARRAY, 0.0), "sigma": (*_ARRAY, 1.0),
                                     "n": (_int_at_least(1), "an integer >= 1", 1)}),
        "ou": (ou_model, {"kappa": _NUMBER, "theta": (*_NUMBER, 0.0), "sigma": _NUMBER}),
        "cir": (cir_model, dict.fromkeys(("a", "b", "sigma"), _NUMBER))},
    "fitness": {
        "linear": (linear_fitness, {"slope": (*_NUMBER, 1.0), "g_max": (*_NUMBER, 2.0)}),
        "quadratic-decay": (quadratic_decay_fitness, {"scale": (*_NUMBER, 1.0)}),
        "affine-quadratic": (affine_quadratic_fitness,
                             {"alpha": _NUMBER, "delta": _ARRAY, "G": _ARRAY,
                              "g_max": (*_NUMBER, None)})},
    "initial": {
        "gamma-like": (gamma_like_law, {"shape": (*_NUMBER, 2.0), "rate": (*_NUMBER, 2.0)}),
        "gaussian": (_law("gaussian"), dict.fromkeys(("mean", "cov"), _ARRAY)),
        "mixture": (_law("mixture"), {"components": _ARRAY}),
        "point-cloud": (_law("point-cloud"), {"points": _ARRAY, "weights": (*_ARRAY, None)}),
        "grid-density": (_law("grid-density"), dict.fromkeys(("x", "values"), _ARRAY))},
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, val in raw.items():
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(DEFAULT_CONFIG[key], dict) and isinstance(val, dict):
            unknown = sorted(set(val) - set(DEFAULT_CONFIG[key]))
            if unknown:
                raise ConfigError(f"unknown config key {key}.{unknown[0]}")
            cfg[key].update(val)
        else:
            cfg[key] = val
    for key, (accepts, rule) in CONFIG_RULES.items():
        section, _, sub = key.partition(".")
        val = cfg[section][sub] if sub else cfg[section]
        if not accepts(val):
            raise ConfigError(f"{key} must be {rule}, not {val!r}")
    custom = [key for key in ("model", "fitness", "initial") if cfg[key] is not None]
    if cfg["scenario"] and custom:
        raise ConfigError(f"scenario {cfg['scenario']!r} sets the model, fitness and "
                          f"initial law; drop it or the {', '.join(custom)} section(s)")
    return cfg


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def build_scenario(cfg: dict) -> Scenario:
    if cfg.get("scenario"):
        name = cfg["scenario"]
        if name not in CANONICAL:
            raise ConfigError(f"unknown scenario {name!r}; "
                              f"choose from {sorted(CANONICAL)}")
        sc = CANONICAL[name](horizon=cfg["horizon"])
        if cfg.get("engines"):
            sc = replace(sc, engines=tuple(cfg["engines"]))
        return sc
    if not (cfg.get("model") and cfg.get("fitness") and cfg.get("initial")):
        raise ConfigError("config needs either a scenario name or "
                          "model+fitness+initial sections")
    model, fitness, initial = (_build_custom(key, cfg[key])
                               for key in ("model", "fitness", "initial"))
    form = fitness.declared_form()
    if form is not None and (form[1].size, *form[2].shape) != (model.dim,) * 3:
        raise ConfigError(f"fitness {cfg['fitness'].get('kind')!r} has delta of size "
                          f"{form[1].size} and G of shape {form[2].shape}; the model "
                          f"has dimension {model.dim}")
    if initial.dim != model.dim:
        raise ConfigError(f"initial law {initial.kind!r} has dimension {initial.dim}; "
                          f"the model has dimension {model.dim}")
    try:
        _check_law_domain(initial, model.domain)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    engines = tuple(cfg.get("engines") or ("pde", "particle"))
    return Scenario("custom", model, fitness, initial, float(cfg["horizon"]),
                    engines)


def _build_custom(section: str, spec: dict):
    """Builds a custom section from its kind's keys in ``CUSTOM_RULES``."""
    kinds = CUSTOM_RULES[section]
    kind = spec.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise ConfigError(f"unknown {section} kind {kind!r}; choose from {sorted(kinds)}")
    build, rules = kinds[kind]
    for key, val in spec.items():
        if key == "kind":
            continue
        if key not in rules:
            raise ConfigError(f"unknown config key {section}.{key}; {section} kind "
                              f"{kind!r} takes {', '.join(rules)}")
        accepts, what, *_ = rules[key]
        if not accepts(val):
            raise ConfigError(f"{section}.{key} must be {what}, not {val!r}")
    for key, (_, _, *default) in rules.items():
        if key not in spec and not default:
            raise ConfigError(f"{section} kind {kind!r} needs {section}.{key}")
    args = {key: spec.get(key, *default) for key, (_, _, *default) in rules.items()}
    try:
        return build(**args)
    except (ModelError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    config_hash: str
    master_seed: int
    artifact_version: str
    stage_seeds: dict = field(default_factory=dict)
    wallclock: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=lambda: dict(TOL))
    status: str = "running"
    counters: dict = field(default_factory=dict)  # per stage; omitted while empty

    def stage_seed(self, stage: str) -> int:
        s = rng.derive_seed(self.master_seed, stage)
        self.stage_seeds[stage] = s
        return s

    def to_json(self) -> str:
        fields = {k: v for k, v in self.__dict__.items() if k != "counters" or v}
        return json.dumps(fields, indent=2, sort_keys=True)

    def write(self, path: str):
        atomic_write_text(path, self.to_json())

    @contextlib.contextmanager
    def running(self, out: str):
        """Write the manifest into ``out`` as the block starts and again as it
        ends: with the status the block set, or "failed: ..." if it raised."""
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "manifest.json")
        self.write(path)
        try:
            yield
        except Exception as exc:
            self.status = f"failed: {exc}"
            raise
        finally:
            self.write(path)


def _new_manifest(cfg: dict, seed) -> RunManifest:
    from . import __version__
    master = int(seed if seed is not None else cfg["seed"])
    return RunManifest(config_hash=config_hash(cfg), master_seed=master,
                       artifact_version=__version__)


# ---------------------------------------------------------------------------
# engine construction


def _build_eigenpair(sc: Scenario):
    """The tilted engine's eigenpair for the scenario's model: Kummer for CIR,
    the exponential-quadratic pair for every model ``affine_form`` accepts."""
    model = sc.model
    if model.kind == "cir":
        p = model.params
        return cir_eigenpair(p["a"], p["b"], p["sigma"])
    model, alpha, delta, G = affine_form(sc.model, sc.fitness)
    if not G.any() and not model.params["B"].any():
        raise RejectedCondition("no exponential-quadratic eigenpair for B = 0, G = 0")
    return affine_eigenpair(model, alpha, delta, G)[0]


def build_solution(engine: str, sc: Scenario, cfg: dict, seed: int,
                   threads: int = 1):
    """One engine's solution object; raises RejectedCondition and friends."""
    spu = int(cfg["steps_per_unit"])
    checkpoints = int(cfg["metric"]["checkpoints"])
    if engine == "linear":
        return linear_engine(sc.model, sc.fitness, sc.initial_law, sc.horizon)
    if engine == "affine":
        return affine_engine(sc.model, sc.fitness, sc.initial_law, sc.horizon)
    if engine == "tilted":
        pair = _build_eigenpair(sc)
        return tilted_engine(sc.model, sc.fitness, pair, sc.initial_law,
                             sc.horizon, n_paths=int(cfg["particles"]["n_kde"]),
                             seed=seed, steps_per_unit=spu,
                             checkpoints=checkpoints, threads=threads)
    if engine == "pde":
        return _pde_solution(sc, cfg)
    if engine == "particle":
        return _particle_solution(sc, cfg, seed, threads)
    raise ConfigError(f"unknown engine {engine!r}")


def _checkpoint_times(sc: Scenario, cfg: dict) -> np.ndarray:
    """The step nodes at which the tilted and particle engines store; every
    engine's density table uses them."""
    grid_t = TimeGrid.per_unit(sc.horizon, int(cfg["steps_per_unit"]))
    return grid_t.checkpoint_times(int(cfg["metric"]["checkpoints"]))


def _pde_solution(sc: Scenario, cfg: dict) -> Solution:
    scheme = PdeScheme(half_width=14.0 if sc.model.domain.kind == "half-line" else 12.0,
                       nodes=2048)
    x = _build_grid(sc.model, scheme)[0]
    u0 = GridDensity(x, np.maximum(sc.initial_law.density(x), 0.0)).normalize()
    traj = solve_rm_pde(sc.model, sc.fitness, u0, sc.horizon, scheme,
                        store_times=_checkpoint_times(sc, cfg))

    def u(t, x):
        return traj.density(t)(np.asarray(x, float))

    return Solution(engine="pde-oracle", horizon=sc.horizon, shift=sc.fitness.g_max,
                    u=u, mass=_no_mass, grid=traj.grid, times=traj.times,
                    meta={"trajectory": traj})


def _particle_solution(sc: Scenario, cfg: dict, seed: int,
                       threads: int = 1) -> Solution:
    """The weighted particle system; ``repmut particles`` runs it too."""
    grid_t = TimeGrid.per_unit(sc.horizon, int(cfg["steps_per_unit"]))
    ens = run_particles(sc.model, sc.fitness, sc.initial_law,
                        int(cfg["particles"]["n_kde"]), grid_t, seed,
                        checkpoints=int(cfg["metric"]["checkpoints"]),
                        threads=threads)
    half_line = sc.model.domain.kind == "half-line"
    cache = {}

    def density_at(t):
        j = stored_index(ens.times, t)
        if j not in cache:
            nm = normalized_measure(ens, ens.times[j])
            est = kde(nm.atoms[:, 0], nm.masses)
            if half_line:
                est = GridDensity(est.x, np.where(est.x > 0, est.values, 0.0)).normalize()
            cache[j] = est
        return cache[j]

    u = checkpoint_density_u(sc.initial_law, density_at, half_line)

    def mass(t):
        return mass_estimate(ens, t) * np.exp(sc.fitness.g_max * t)

    xs = ens.positions[:, -1, 0]
    grid = np.linspace(xs.min() - 1, xs.max() + 1, 1024)
    return Solution(engine="particle-kde", horizon=sc.horizon, shift=sc.fitness.g_max,
                    u=u, mass=mass, grid=grid, times=ens.times, meta={"ensemble": ens})


def _write_masses(path: str, times, analytic, particle) -> None:
    """masses.csv: the analytic h_t (NaN without an analytic solution) and the
    particle estimate with its standard error (exact at t = 0 without one).
    A particle estimate that is not finite is a numeric failure."""
    rows = []
    for t in times:
        h = analytic.mass(t) if analytic is not None else float("nan")
        if particle is not None:
            h_mc = particle.mass(t)
            if not np.isfinite(h_mc):
                raise ParticleError(f"particle mass factor h_t_mc = {h_mc} at t = {t:g}; "
                                    f"lower the shift g_max = {particle.shift:g}")
            se = mass_estimate_se(particle.meta["ensemble"], t) * np.exp(particle.shift * t)
        else:
            h_mc, se = (1.0, 0.0) if t == 0 else (float("nan"),) * 2
        rows.append([t, h, h_mc, se])
    write_csv(path, "t,h_t,h_t_mc,se", rows)


# ---------------------------------------------------------------------------
# subcommands


def _density_scenario(cfg: dict, command: str, reads: str) -> Scenario:
    """The scenario of ``solve`` or ``chaos``: both read the density of a
    1-D initial law from t = 0 on, so a 2-D model or a point cloud fails
    before any output."""
    sc = build_scenario(cfg)
    if sc.model.dim != 1:
        raise ConfigError(f"{command} {reads}; the model has dimension {sc.model.dim}")
    if sc.initial_law.kind == "point-cloud":
        raise ConfigError(f"{command} reads the initial law's density at t = 0, "
                          f"and a point-cloud law has none")
    return sc


def cmd_solve(cfg: dict, out: str, seed, threads: int) -> int:
    sc = _density_scenario(cfg, "solve", "exports 1-D densities")
    manifest = _new_manifest(cfg, seed)
    with manifest.running(out):
        times = _checkpoint_times(sc, cfg)
        solutions = {}
        failures = {}
        for engine in sc.engines:
            t0 = time.time()
            stage_seed = manifest.stage_seed(f"solve/{engine}")
            try:
                solutions[engine] = build_solution(engine, sc, cfg, stage_seed, threads)
            except (RejectedCondition, EngineError, SpectralError) as exc:
                failures[engine] = str(exc)
                print(f"[solve] engine {engine}: skipped ({exc})")
            manifest.wallclock[f"solve/{engine}"] = time.time() - t0

        if not solutions:
            raise EngineError("no engine produced a solution")

        ref_grid = next(iter(solutions.values())).grid
        prefix = density_prefix(times, ref_grid)  # shared by every table; u is per table
        reused = {sol.meta.get("same_as") for sol in solutions.values()}
        tables = {}  # engine -> the bytes of its density table, where another reuses it
        at_end = {}  # engine -> its density at T (the last checkpoint time)
        for engine, sol in solutions.items():
            path = os.path.join(out, f"density_{engine}.csv")
            same_as = sol.meta.get("same_as")
            if same_as in tables:  # another engine's solution: its bytes and rows
                atomic_write_text(path, tables[same_as])
                if same_as in at_end:
                    at_end[engine] = at_end[same_as]
                continue
            u, kept = [np.empty(0)], np.zeros(len(times), bool)
            for j, t in enumerate(times):
                try:
                    u.append(np.maximum(sol.u(t, ref_grid), 0.0))
                except (EngineError, KeyError):
                    continue
                kept[j] = True
            if kept[-1]:
                at_end[engine] = u[-1]
            data = write_csv(path, "t,x,u", np.concatenate(u)[:, None],
                             prefix=prefix if kept.all()
                             else prefix[np.repeat(kept, len(ref_grid))])
            if engine in reused:
                tables[engine] = data

        if "pde" in solutions:
            solutions["pde"].meta["trajectory"].summary_json(
                os.path.join(out, "pde_summary.json"))

        names = sorted(solutions)
        l1_rows = []
        t_end = sc.horizon  # == times[-1]: TimeGrid's last node is T exactly
        for name in names if len(names) > 1 else ():
            dens = (at_end[name] if name in at_end
                    else np.maximum(solutions[name].u(t_end, ref_grid), 0.0))
            at_end[name] = dens / np.trapezoid(dens, ref_grid)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                l1_rows.append([a, b, np.trapezoid(np.abs(at_end[a] - at_end[b]), ref_grid)])
                print(f"[solve] L1({a}, {b}) at t={t_end:g}: {l1_rows[-1][2]:.4f}")
        write_csv(os.path.join(out, "l1_table.csv"), "engine_a,engine_b,l1", l1_rows)

        analytic = next((solutions[e] for e in ("linear", "affine") if e in solutions), None)
        particle = solutions.get("particle")
        _write_masses(os.path.join(out, "masses.csv"), times, analytic, particle)

        manifest.status = "failed-engines: " + ",".join(failures) if failures else "complete"
    return EXIT_OK


def bootstrap_slopes(x: np.ndarray, y: np.ndarray, gen) -> np.ndarray:
    """Least-squares slopes of y on x over 500 resampled index rows, drawn
    at once (the same stream as one row per draw); rows whose x has no
    spread, such as a row of one repeated index, are dropped."""
    idx = gen.integers(0, len(x), (500, len(x)))
    spread = (x[idx] != x[idx[:, :1]]).any(axis=1)
    xs, ys = x[idx[spread]], y[idx[spread]]
    xc = xs - xs.mean(axis=1, keepdims=True)
    return (xc * (ys - ys.mean(axis=1, keepdims=True))).sum(axis=1) / (xc * xc).sum(axis=1)


def cmd_chaos(cfg: dict, out: str, seed, threads: int) -> int:
    sc = _density_scenario(cfg, "chaos", "bins 1-D measures")
    n_ladder = [int(n) for n in cfg["particles"]["N"]]
    if len(n_ladder) < 3 or min(np.diff(n_ladder)) <= 0:
        raise ConfigError(f"chaos study needs at least 3 strictly increasing particle "
                          f"counts, not {n_ladder}")
    reps = int(cfg["particles"]["reps"])
    q = float(cfg["particles"]["q"])
    try:  # on B = 0, G = 0 the affine engine returns the linear engine's solution
        reference = affine_engine(sc.model, sc.fitness, sc.initial_law, sc.horizon)
    except RejectedCondition as exc:
        raise ConfigError(f"chaos needs a closed-form reference: {exc}") from exc
    manifest = _new_manifest(cfg, seed)
    with manifest.running(out):
        rows = []
        values = []
        lp_models = {}  # one held BL model per checkpoint time, shared by the rungs
        for n in n_ladder:
            t0 = time.time()
            stage_seed = manifest.stage_seed(f"chaos/N={n}")
            res = dqt_estimate(sc.model, sc.fitness, sc.initial_law, reference,
                               T=sc.horizon, N=n, q=q, reps=reps, seed=stage_seed,
                               checkpoints=int(cfg["metric"]["checkpoints"]),
                               ref_atoms=int(cfg["metric"]["ref_atoms"]),
                               steps_per_unit=int(cfg["steps_per_unit"]),
                               threads=threads, lp_models=lp_models)
            manifest.wallclock[f"chaos/N={n}"] = time.time() - t0
            manifest.counters[f"chaos/N={n}"] = {
                "lp_solved": res.lp_solved, "lp_pruned": res.lp_pruned,
                "lp_cold": res.lp_cold, "lp_full_support": res.lp_full_support,
                "lp_atoms": res.lp_atoms}
            rows.append([n, res.value, res.ci_low, res.ci_high])
            values.append(res.value)
            flag = "" if res.reliable_ci else "  (CI unreliable: too few reps)"
            print(f"[chaos] N={n}: D={res.value:.6f} CI=({res.ci_low:.6f}, "
                  f"{res.ci_high:.6f}){flag}")
        write_csv(os.path.join(out, "rates.csv"), "N,D,ci_lo,ci_hi", rows)

        logN = np.log(np.asarray(n_ladder, float))
        logD = np.log(np.asarray(values))
        slope, intercept = np.polyfit(logN, logD, 1)
        gen = np.random.default_rng(rng.derive_seed(manifest.master_seed, "chaos-slope-boot"))
        slopes = bootstrap_slopes(logN, logD, gen)
        s_lo, s_hi = (np.percentile(slopes, [2.5, 97.5]) if slopes.size
                      else (slope, slope))
        inversions = int(np.sum(np.diff(values) > 0))
        if inversions > 1:
            print(f"[chaos] warning: {inversions} inversions in D(N)")
        theory = -0.5 if q > sc.model.dim / 2 else -q / sc.model.dim
        print(f"[chaos] fitted slope {slope:.3f} (bootstrap CI [{s_lo:.3f}, {s_hi:.3f}]); "
              f"theoretical leading exponent {theory:g}")
        loglog_svg(os.path.join(out, "rates.svg"),
                   n_ladder, values,
                   ci=[(r[2], r[3]) for r in rows],
                   fit=(slope, intercept / np.log(10.0)),  # axes are log10
                   annotation=f"fit slope {slope:.3f}; theory {theory:g}",
                   title=f"decay of D(N), scenario {sc.name}")
        slope_rows = [[slope, s_lo, s_hi, theory, inversions]]
        write_csv(os.path.join(out, "slope.csv"),
                  "slope,ci_lo,ci_hi,theory,inversions", slope_rows)
        manifest.status = "complete"
    return EXIT_OK


def cmd_particles(cfg: dict, out: str, seed, threads: int) -> int:
    sc = build_scenario(cfg)
    manifest = _new_manifest(cfg, seed)
    with manifest.running(out):
        stage_seed = manifest.stage_seed("particles")
        t0 = time.time()
        sol = _particle_solution(sc, cfg, stage_seed, threads)
        manifest.wallclock["particles"] = time.time() - t0
        ens = sol.meta["ensemble"]
        ens.to_csv(os.path.join(out, "ensemble.csv"))
        _write_masses(os.path.join(out, "masses.csv"), sol.times, None, sol)
        manifest.status = "complete"
    print(f"[particles] wrote {ens.n_particles} particles x {len(sol.times)} checkpoints")
    return EXIT_OK


def cmd_validate(full: bool = True) -> int:
    from .validate import run_all
    ok, results = run_all(full=full)
    width = max(len(name) for name, _, _ in results)
    for name, good, detail in results:
        print(f"{name:<{width}}  {'PASS' if good else 'FAIL'}  {detail}")
    print(f"[validate] {sum(g for _, g, _ in results)}/{len(results)} invariants pass")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_manifest(cfg: dict, out, seed) -> int:
    build_scenario(cfg)  # a config the other commands reject fails here too
    manifest = _new_manifest(cfg, seed)
    for stage in [f"solve/{e}" for e in ENGINES] + ["particles", "chaos/N=*"]:
        manifest.stage_seed(stage)
    text = manifest.to_json()
    if out:
        os.makedirs(out, exist_ok=True)
        manifest.write(os.path.join(out, "manifest.json"))
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repmut",
        description="replicator-mutator solvers: closed forms, particles, PDE oracle")
    parser.add_argument("command",
                        choices=["solve", "chaos", "particles", "validate", "manifest"])
    parser.add_argument("--config", help="path to a JSON scenario configuration")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads, up to the CPU count (results do not depend on it)")
    parser.add_argument("--quick", action="store_true",
                        help="validate: reduced sample counts")
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            return cmd_validate(full=not args.quick)
        if not args.config:
            raise ConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config)
        out = args.out or cfg["output"]
        if args.command == "solve":
            return cmd_solve(cfg, out, args.seed, args.threads)
        if args.command == "chaos":
            return cmd_chaos(cfg, out, args.seed, args.threads)
        if args.command == "particles":
            return cmd_particles(cfg, out, args.seed, args.threads)
        if args.command == "manifest":
            return cmd_manifest(cfg, args.out, args.seed)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EngineError, SimulationError, PdeError, MetricError, NumericsError,
            SpectralError, ParticleError, RejectedCondition) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
