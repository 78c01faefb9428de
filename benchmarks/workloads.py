"""The four benchmark workloads: one ``repmut`` CLI command on one config.

Each workload is sized so that one module does most of its work and one
round takes roughly 3-6 s on a 2-core machine, so that a run holds several
rounds and its median.  The config never changes with the seed; the
benchmark's ``--seed`` is passed to the CLI as the master seed.
"""

from __future__ import annotations

import checks

WORKLOADS = {
    # affine closed-form quadrature (B = 0, G = 0 fallback), the KDE and the
    # non-stiff PDE share the time; no LP.  The horizon is 0.1 because at
    # T = 1 the particle weights degenerate (log-weight variance 5/3) and the
    # particle-vs-exact L1 of acceptance 3 exceeds 5e-2 on some seeds (0.074
    # at n_kde = 2e4); at T = 0.1 it stayed below 0.028 over 25 seeds.
    "solve-linear-bm": {
        "command": "solve",
        "config": {"scenario": "linear-bm", "horizon": 0.1,
                   "engines": ["linear", "affine", "pde", "particle"],
                   "particles": {"n_kde": 20000},
                   "metric": {"checkpoints": 3}},
        "checks": checks.checks_solve_linear_bm,
    },
    # the stiff PDE (dt pinned by sigma^2 x up to x = 14), the Kummer
    # eigenpair, the tilted CIR SDE and the KDE of unweighted samples.
    # n_kde stays at 2e4: at 1e4 the pairwise L1 at T reached 0.066 of the
    # 0.08 allowed within 25 seeds.
    "solve-cir": {
        "command": "solve",
        "config": {"scenario": "cir-linear", "horizon": 0.015,
                   "engines": ["tilted", "pde", "particle"],
                   "particles": {"n_kde": 20000},
                   "metric": {"checkpoints": 3}},
        "checks": checks.checks_solve_cir,
    },
    # BL LPs at K ~ 512 atoms (HiGHS, certificate check, binning) dominate;
    # the SDE runs as many small batches.
    "chaos-linear-bm": {
        "command": "chaos",
        "config": {"scenario": "linear-bm", "horizon": 1.0,
                   "particles": {"N": [250, 500, 1000, 2000], "reps": 4, "q": 2.0},
                   "metric": {"checkpoints": 3, "ref_atoms": 512}},
        "checks": checks.checks_chaos,
    },
    # one large SDE batch (rng + sde) and the ensemble.csv export.
    "particles-linear-bm": {
        "command": "particles",
        "config": {"scenario": "linear-bm", "horizon": 1.0,
                   "particles": {"n_kde": 50000},
                   "metric": {"checkpoints": 3},
                   "steps_per_unit": 450},
        "checks": checks.checks_particles,
    },
}


def cli_argv(name: str, config_path: str, out: str, seed: int) -> list[str]:
    return [WORKLOADS[name]["command"], "--config", config_path, "--out", out,
            "--seed", str(seed), "--threads", "1"]
