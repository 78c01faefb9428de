"""Benchmark of the ``repmut`` command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every round runs one workload's CLI
command in a fresh interpreter (``worker.py``), single-threaded, and checks
its output files against computations made apart from the program
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh interpreter
to the start of the command; median over several set-ups), ``wall_s`` (the
command; median over the rounds) and ``peak_rss_mb`` (peak resident set of
the round's process; median over the rounds).  Rounds repeat while one more
still fits in ``--seconds``.

``--trace 1`` makes one untraced and one traced round and reports the
per-layer metrics of the traced one; see ``tracer.py``.  The traced outputs
must be byte-identical to the untraced ones (wall-clock fields aside), the
wrappers must be gone afterwards, and the spans' self times must cover at
least 90% of the traced round's ``wall_s``; otherwise ``correct`` is false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Setup-only interpreters per --trace 0 run; each round's own set-up is a
# sample too.  The median keeps out the first, cold import of a checkout.
SETUP_SAMPLES = 1
# Hard limit for everything a run starts; the whole run must end in 180 s.
RUN_DEADLINE_S = 170.0
MIN_COVERAGE = 0.90

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _span(name, field=1):
    return lambda t: t["spans"].get(name, [0, 0.0, 0.0])[field]


def _counter(name):
    return lambda t: t["counters"].get(name, 0.0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) > 0 else 0.0


# Per-layer metrics of the traced round: name -> (unit, value of the trace).
# A "_s" metric is the total time of its spans, nested spans included.
PER_LAYER = {
    "cli.self_s": ("s", lambda t: sum(r[2] for n, r in t["spans"].items()
                                      if n.startswith("cli."))),
    "report.write_csv_s": ("s", _span("report.write_csv")),
    "report.rows_written": ("count", _counter("report.rows")),
    "particle.to_csv_s": ("s", _span("particle.to_csv")),
    "rng.normal_pair_s": ("s", _span("rng.normal_pair")),
    "rng.normal_pair_calls": ("count", _span("rng.normal_pair", 0)),
    "rng.normals_per_s": ("1/s", _ratio(_counter("rng.normals"), _span("rng.normal_pair"))),
    "sde.simulate_s": ("s", _span("sde.simulate")),
    "sde.simulate_calls": ("count", _span("sde.simulate", 0)),
    "sde.particle_steps": ("count", _counter("sde.particle_steps")),
    "sde.particle_steps_per_s": ("1/s", _ratio(_counter("sde.particle_steps"),
                                               _span("sde.simulate"))),
    "model.sample_initial_s": ("s", _span("model.sample_initial")),
    "particle.measure_s": ("s", _span("particle.measure")),
    "particle.measure_calls": ("count", _span("particle.measure", 0)),
    "numerics.kde_s": ("s", _span("numerics.kde")),
    "numerics.kde_calls": ("count", _span("numerics.kde", 0)),
    "numerics.kde_point_evals": ("count", _counter("numerics.kde_point_evals")),
    "closed_form.engine_build_s": ("s", _span("closed_form.engine_build")),
    "closed_form.u_eval_s": ("s", _span("closed_form.u_eval")),
    "closed_form.u_eval_calls": ("count", _span("closed_form.u_eval", 0)),
    "spectral.eigenpair_s": ("s", lambda t: _span("spectral.eigenpair")(t)
                             + _span("spectral.eigen_eval")(t)),
    "pde.solve_s": ("s", _span("pde.solve")),
    "pde.steps": ("count", _counter("pde.steps")),
    "pde.us_per_step": ("us", _ratio(lambda t: 1e6 * _span("pde.solve")(t),
                                     _counter("pde.steps"))),
    "pde.negativity_clips": ("count", _counter("pde.negativity_clips")),
    "metric.bl_calls": ("count", _span("metric.bl_distance", 0)),
    "metric.bl_s": ("s", _span("metric.bl_distance")),
    "metric.bl_support_atoms": ("count", _counter("metric.bl_support_atoms")),
    "metric.bl_highs": ("count", _counter("metric.bl_highs")),
    "metric.bl_dense": ("count", _counter("metric.bl_dense")),
    "metric.bl_fallbacks": ("count", _counter("metric.bl_fallbacks")),
    "metric.bl_repairs": ("count", _counter("metric.bl_repairs")),
    "metric.check_certificate_s": ("s", _span("metric.check_certificate")),
    "metric.bin_measure_s": ("s", _span("metric.bin_measure")),
    "metric.dqt_s": ("s", _span("metric.dqt")),
    "metric.bl_calls_per_checkpoint": ("ratio", _ratio(_span("metric.bl_distance", 0),
                                                       _counter("metric.dqt_checkpoints"))),
}


class SetupFailed(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time and waits for each."""

    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.config = os.path.join(run_dir, "config.json")
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0"}
        with open(self.config, "w") as fh:
            json.dump(WORKLOADS[workload]["config"], fh)

    def launch(self, mode, tag) -> dict:
        out = os.path.join(self.run_dir, tag)
        result_path = os.path.join(self.run_dir, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.workload,
               self.config, out, str(self.seed), result_path]
        with open(os.path.join(self.run_dir, f"{tag}.log"), "w") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            status, usage = self._wait(proc)
            t_end = time.perf_counter()
        res = {"out": out, "elapsed_s": t_end - t_spawn, "exit": status,
               "rss_mb": usage.ru_maxrss / 1024.0 if usage else float("nan")}
        if status == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                res.update(json.load(fh))
            res["setup_s"] = res["t_ready"] - t_spawn
        return res

    def _wait(self, proc):
        """wait4 on the child, so that its own peak RSS is read; kills it
        at the run deadline."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.perf_counter() > self.deadline:
                proc.send_signal(signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, None
            time.sleep(0.01)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def setup(self, tag) -> float:
        res = self.launch("setup", tag)
        if "setup_s" not in res:
            raise SetupFailed(f"set-up of {self.workload} failed (exit {res['exit']}); "
                              f"see {os.path.join(self.run_dir, tag + '.log')}")
        return res["setup_s"]


def round_checks(runner, res) -> list:
    from checks import check_exit
    wl = WORKLOADS[runner.workload]
    return [check_exit(res.get("rc", res["exit"]))] + wl["checks"](res["out"], wl["config"])


def _tail(path, chars=2000):
    with open(path) as fh:
        return fh.read()[-chars:]


def _without(path, key):
    with open(path) as fh:
        data = json.load(fh)
    data.pop(key, None)
    return data


def same_outputs(a, b) -> tuple[bool, str]:
    """Byte equality of two output directories, except the wall-clock
    fields ``wallclock`` (manifest.json) and ``runtime_s`` (pde_summary.json)."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False, f"file sets differ: {names} vs {sorted(os.listdir(b))}"
    clock_fields = {"manifest.json": "wallclock", "pde_summary.json": "runtime_s"}
    for name in names:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if name in clock_fields:
            same = _without(pa, clock_fields[name]) == _without(pb, clock_fields[name])
        else:
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                same = fa.read() == fb.read()
        if not same:
            return False, f"{name} differs"
    return True, f"{len(names)} files identical"


def run_untraced(runner, seconds):
    setups = [runner.setup(f"setup{i}") for i in range(SETUP_SAMPLES)]
    rounds, ops = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        res = runner.launch("run", f"round{len(rounds)}")
        rounds.append(res)
        ops += round_checks(runner, res)
        now = time.perf_counter()
        # a further round only if one more like the last still fits
        if ("wall_s" not in res or (now - t_start) + (now - t_round) > seconds
                or (now - t_round) * 1.5 > runner.time_left()):
            break
    ok = [r for r in rounds if "wall_s" in r]
    metrics = {}
    if ok:
        metrics = {"setup_s": statistics.median(setups + [r["setup_s"] for r in ok]),
                   "wall_s": statistics.median(r["wall_s"] for r in ok),
                   "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok)}
    detail = {"setup_samples": setups, "rounds": [
        {k: r.get(k) for k in ("setup_s", "wall_s", "cpu_s", "rss_mb", "elapsed_s", "rc", "exit")}
        for r in rounds]}
    return metrics, END_TO_END_UNITS, ops, [], detail


def run_traced(runner):
    from checks import op
    base = runner.launch("run", "untraced")
    ops = round_checks(runner, base)
    traced = runner.launch("trace", "traced")
    ops += round_checks(runner, traced)
    gates, metrics = [], {}
    trace = traced.get("trace")
    if trace is None or "wall_s" not in base:
        gates.append(op("traced_round_completed", False, f"exit {traced['exit']}"))
        return metrics, {}, ops, gates, {}
    for i, (viol, gap, ok) in enumerate(trace.get("certificates", [])):
        ops.append(op(f"bl_certificate_{i}", ok, f"violation {viol:.2e}, value gap {gap:.2e}"))
    gates.append(op("traced_outputs_identical", *same_outputs(base["out"], traced["out"])))
    gates.append(op("wrappers_removed", not trace["still_wrapped"],
                        ",".join(trace["still_wrapped"])))
    # against the traced round's own wall time: the untraced round's differs
    # by round-to-round noise as well as by the tracing overhead
    coverage = sum(r[2] for r in trace["spans"].values()) / traced["wall_s"]
    gates.append(op("span_self_time_covers_90pct", coverage >= MIN_COVERAGE,
                        f"coverage {coverage:.4f}"))
    metrics = {"import.repmut_s": traced["import_s"]}
    units = {"import.repmut_s": "s"}
    for name, (unit, fn) in PER_LAYER.items():
        metrics[name] = float(fn(trace))
        units[name] = unit
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    metrics["trace.coverage"] = coverage
    units.update({"trace.overhead_s": "s", "trace.coverage": "ratio"})
    detail = {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
              "spans": trace["spans"], "counters": trace["counters"]}
    return metrics, units, ops, gates, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repmut", "cli.py")):
        print(f"no repmut sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    run_dir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(args.workload, args.seed, run_dir)
    try:
        if args.trace:
            metrics, units, ops, gates, detail = run_traced(runner)
        else:
            metrics, units, ops, gates, detail = run_untraced(runner, args.seconds)
    except SetupFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        logs = {n: _tail(os.path.join(run_dir, n))
                for n in os.listdir(run_dir) if n.endswith(".log")}
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [op for op in ops if not op[1]]
    correct = bool(metrics) and all(g[1] for g in gates)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "metrics": metrics, "operations": ops, "gates": gates, "detail": detail,
              "logs": logs if failed or not correct else {}}
    with open(os.path.join(HERE, "results",
                           f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for op in failed + [g for g in gates if not g[1]]:
        print(f"benchmark: check {op[0]} failed: {op[2]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
