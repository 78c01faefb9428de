"""Span timing of ``repmut``'s modules from outside the package.

``Tracer.install`` replaces public functions and methods at the names their
callers look up (``repmut.cli.solve_rm_pde``, ``repmut.metric.check_certificate``,
``repmut.rng.normal_pair``, ...) by wrappers that time each call and keep
counters.  ``Tracer.remove`` puts the originals back.  Nothing under the
package is edited; with the wrappers removed the package is unchanged.

Spans nest on a stack (the traced run is single-threaded).  A span's self
time is its duration minus the time of the spans it directly contains.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, capture_bl: bool = False):
        self.spans = {}                 # name -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self.bl_results = [] if capture_bl else None
        self._stack = []                # child time of each open span
        self._patches = []              # (owner, attribute, original)

    # -- span recording -------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Timed stand-in for ``fn``; ``after(args, result)`` may count and
        may return a replacement result."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur
            if after is not None:
                replaced = after(args, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def remove(self):
        """Restores every patched name; returns the names still wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{o.__name__}.{a}" for o, a, orig in self._patches
                if getattr(o, a) is not orig]
        self._patches = []
        return left

    # -- counters -------------------------------------------------------

    def _count_rows(self, args, result):
        self.counters["report.rows"] += len(args[2])

    def _count_normals(self, args, result):
        self.counters["rng.normals"] += 2 * len(args[1])

    def _count_simulate(self, args, result):
        self.counters["sde.particle_steps"] += result.positions.shape[0] * result.fine_steps

    def _count_kde(self, args, result):
        self.counters["numerics.kde_point_evals"] += len(args[0]) * result.x.size

    def _count_pde(self, args, result):
        self.counters["pde.steps"] += result.steps
        self.counters["pde.negativity_clips"] += result.negativity_clips

    def _count_bl(self, args, result):
        c = self.counters
        c["metric.bl_support_atoms"] += len(result.atoms)
        solver = result.solver
        c["metric.bl_dense"] += solver.startswith("dense-simplex")
        c["metric.bl_highs"] += solver.startswith("highs")
        c["metric.bl_fallbacks"] += "fallback" in solver
        c["metric.bl_repairs"] += solver.endswith("+repair")
        if self.bl_results is not None:
            self.bl_results.append(
                (result.atoms[:, 0].copy(), result.psi.copy(), float(result.s),
                 float(result.lip), result.meta["delta"].copy(), float(result.value),
                 float(result.meta.get("x0", 0.0))))

    def _count_dqt(self, args, result):
        self.counters["metric.dqt_checkpoints"] += len(result.sups) * len(result.checkpoint_times)

    def _wrap_solution(self, args, result):
        """Times the density and mass evaluators of a closed-form solution."""
        return dataclasses.replace(
            result, u=self.wrap("closed_form.u_eval", result.u),
            mass=self.wrap("closed_form.mass_eval", result.mass))

    def _wrap_eigenpair(self, args, result):
        """Times the eigenfunction evaluations (Kummer functions for CIR),
        which the tilted engine makes inside its SDE steps."""
        fields = {f: self.wrap("spectral.eigen_eval", getattr(result, f))
                  for f in ("phi", "dphi", "log_phi", "grad_log_phi", "d2phi")
                  if getattr(result, f) is not None}
        return dataclasses.replace(result, **fields)

    # -- installation ---------------------------------------------------

    def install(self):
        import repmut.cli as cli
        import repmut.closed_form as closed_form
        import repmut.metric as metric
        import repmut.particle as particle
        import repmut.pde as pde
        import repmut.rng as rng

        p = self._patch
        # cli: its own entry points; the rest of main is not spanned
        for attr in ("cmd_solve", "cmd_chaos", "cmd_particles", "load_config",
                     "build_scenario", "build_solution"):
            p(cli, attr, f"cli.{attr}")
        # report
        p(cli, "write_csv", "report.write_csv", self._count_rows)
        p(cli, "loglog_svg", "report.loglog_svg")
        p(cli, "atomic_write_text", "report.atomic_write_text")
        # rng: sde and model call through the module, and rng.normals calls
        # normal_pair through the module too
        p(rng, "normal_pair", "rng.normal_pair", self._count_normals)
        p(rng, "normals", "rng.normals")
        p(rng, "uniforms", "rng.uniforms")
        p(rng, "derive_seed", "rng.derive_seed")
        # sde and model, at the names particle and closed_form imported
        for mod in (particle, closed_form):
            p(mod, "simulate", "sde.simulate", self._count_simulate)
            p(mod, "sample_initial", "model.sample_initial")
        # particle (metric.dqt_estimate imports run_particles and
        # tilted_measure from repmut.particle at call time)
        p(cli, "run_particles", "particle.run_particles")
        p(particle, "run_particles", "particle.run_particles")
        p(cli, "normalized_measure", "particle.measure")
        p(particle, "tilted_measure", "particle.measure")
        p(cli, "mass_estimate", "particle.mass_estimate")
        p(cli, "mass_estimate_se", "particle.mass_estimate")
        p(particle.WeightedParticleEnsemble, "to_csv", "particle.to_csv")
        # numerics
        p(cli, "kde", "numerics.kde", self._count_kde)
        p(closed_form, "kde", "numerics.kde", self._count_kde)
        # closed_form: engine builds, then every u and mass evaluation
        for attr in ("linear_engine", "affine_engine", "tilted_engine"):
            p(cli, attr, "closed_form.engine_build", self._wrap_solution)
        # spectral
        p(cli, "cir_eigenpair", "spectral.eigenpair", self._wrap_eigenpair)
        p(cli, "schrodinger_ground_state", "spectral.eigenpair", self._wrap_eigenpair)
        # pde
        p(cli, "solve_rm_pde", "pde.solve", self._count_pde)
        p(pde.PdeTrajectory, "density", "pde.density")
        p(pde.PdeTrajectory, "summary_json", "pde.summary_json")
        # metric
        p(cli, "dqt_estimate", "metric.dqt", self._count_dqt)
        p(metric, "bl_distance", "metric.bl_distance", self._count_bl)
        p(metric, "check_certificate", "metric.check_certificate")
        p(metric, "bin_measure", "metric.bin_measure")

    # -- results --------------------------------------------------------

    def total(self, name) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_time(self, prefix="") -> float:
        return sum(rec[2] for n, rec in self.spans.items() if n.startswith(prefix))
