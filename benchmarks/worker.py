"""One benchmark round in a fresh interpreter.

    python3 benchmarks/worker.py MODE WORKLOAD CONFIG OUT SEED RESULT

MODE is ``setup`` (import ``repmut.cli``, load the config, build the
scenario, stop), ``run`` (set up, then run the workload's CLI command) or
``trace`` (as ``run``, with the span wrappers of ``tracer.py`` installed
around the command).  The result is written as JSON to RESULT; times are
``time.perf_counter`` readings, which are system-wide on Linux, so the
parent can subtract its spawn time from ``t_ready``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def main(argv) -> int:
    mode, workload, config_path, out, seed, result_path = argv
    t0 = time.perf_counter()
    import repmut.cli as cli
    t_import = time.perf_counter()
    cli.build_scenario(cli.load_config(config_path))
    t_ready = time.perf_counter()
    result = {"t_ready": t_ready, "import_s": t_import - t0}

    if mode != "setup":
        from workloads import cli_argv
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer(capture_bl=workload.startswith("chaos"))
            tracer.install()
        args = cli_argv(workload, config_path, out, int(seed))
        t_start, c_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(args)
        finally:
            wall = time.perf_counter() - t_start
            cpu = time.process_time() - c_start
            left = tracer.remove() if tracer is not None else []
        result.update(rc=rc, wall_s=wall, cpu_s=cpu)
        if tracer is not None:
            result["trace"] = trace_summary(tracer, left)

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def trace_summary(tracer, left) -> dict:
    from checks import CERT_TOL, bl_certificate_gaps

    summary = {"spans": tracer.spans, "counters": dict(tracer.counters),
               "still_wrapped": left}
    if tracer.bl_results is not None:
        gaps = [bl_certificate_gaps(*r[:6], x0=r[6]) for r in tracer.bl_results]
        summary["certificates"] = [[v, g, v <= CERT_TOL and g <= CERT_TOL]
                                   for v, g in gaps]
    return summary


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
