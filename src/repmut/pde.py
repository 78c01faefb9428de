"""Finite-difference oracle for the 1D nonlocal replicator-mutator
Cauchy problem.

Strang splitting: an exact reaction half step (multiply by exp(g dt/2) and
renormalize, which handles the nonlocal mean-fitness term exactly) around a
Crank-Nicolson step for the conservative-form forward operator

    d_t u = d_xx (sigma^2 u / 2) - d_x (b u).

The march runs store interval by store interval, so every stored density
sits exactly at its requested time.  Each interval is split into equal
steps whose count a step-doubling estimate of the L1 time error chooses,
at most the count of steps of 16 times the explicit-scheme bound.

Full-line problems use Dirichlet-zero ends with a mass-leak audit;
half-line problems (square-root diffusions) use a staggered grid with a
zero-flux wall at the origin.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg.lapack

from .constants import TOL
from .model import DiffusionModel, FitnessFunction
from .numerics import GridDensity, stored_index, trapezoid_weights
from .report import atomic_write_text


class PdeError(RuntimeError):
    pass


# The Crank-Nicolson step is A-stable, so the step may exceed the explicit
# bound dx^2 / (2 max sigma^2).  The step-doubling estimate may choose a
# step of any size, but no store interval takes more steps than it would
# in steps of this multiple of the bound: the ceiling.  On linear-bm with a
# box initial density on [-1, 1] (2048 nodes, stores at T/3, 2T/3, T =
# 0.1), the worst L1 gap to the bound-step march is 4.3e-6 at 16x, 1.3e-4
# at 32x and 2.6e-3 at 64x, where the undamped Crank-Nicolson modes of the
# jump would need backward-Euler start-up steps; that case stays at the
# ceiling.
DT_MULTIPLE = 16


@dataclass(frozen=True)
class PdeScheme:
    """Spatial grid of the Strang-splitting solver; the time steps follow
    from it (the ceiling, ``DT_MULTIPLE`` times the explicit bound), the
    store times and the step-doubling estimate."""

    half_width: float = 12.0        # [-L, L], or (0, L] on the half line
    nodes: int = 2048


@dataclass
class PdeTrajectory:
    times: np.ndarray
    grid: np.ndarray
    densities: np.ndarray           # (len(times), M)
    mass_leak: float
    steps: int                      # accepted steps
    negativity_clips: int = 0
    trial_steps: int = 0            # steps of the marches not accepted
    time_l1_estimate: float = 0.0   # largest estimate met (0: none met)
    ceiling_intervals: int = 0      # intervals marched at the ceiling count
    meta: dict = field(default_factory=dict)

    def density(self, t: float) -> GridDensity:
        return GridDensity(self.grid, self.densities[stored_index(self.times, t)]).normalize()

    def summary(self) -> dict:
        return {
            "mass_leak": float(self.mass_leak),
            "steps": int(self.steps),
            "trial_steps": int(self.trial_steps),
            "time_l1_estimate": float(self.time_l1_estimate),
            "ceiling_intervals": int(self.ceiling_intervals),
            "interval_steps": [int(n) for n in self.meta.get("interval_steps", [])],
            "interval_estimates": self.meta.get("interval_estimates", []),
            "runtime_s": float(self.meta.get("runtime_s", float("nan"))),
            "negativity_clips": int(self.negativity_clips),
            "dx": float(self.meta.get("dx", float("nan"))),
            "dt": float(self.meta.get("dt", float("nan"))),
            "dt_bound": float(self.meta.get("dt_bound", float("nan"))),
        }

    def summary_json(self, path):
        atomic_write_text(path, json.dumps(self.summary(), indent=2, sort_keys=True))


def _build_grid(model: DiffusionModel, scheme: PdeScheme):
    if model.domain.kind == "half-line":
        dx = scheme.half_width / scheme.nodes
        x = (np.arange(scheme.nodes) + 0.5) * dx  # staggered off the wall
        return x, dx, True
    x = np.linspace(-scheme.half_width, scheme.half_width, scheme.nodes)
    return x, x[1] - x[0], False


def _flux_matrix(model: DiffusionModel, x: np.ndarray, dx: float, half_line: bool):
    """Tridiagonal generator of du/dt = (F_{j+1/2} - F_{j-1/2}) / dx with
    F = d_x(D u) - b u, D = sigma^2 / 2, as (lower, diag, upper): the
    coefficients of u_{j-1}, u_j and u_{j+1} in row j."""
    M = x.size
    D = model.diffusion(x[:, None])[:, 0, 0] ** 2 / 2.0
    xc = np.concatenate([[x[0] - dx], x, [x[-1] + dx]])
    bmid = model.drift(0.5 * (xc[1:] + xc[:-1])[:, None])[:, 0]  # b at j-1/2 faces
    # right face j+1/2: F = (D_{j+1} u_{j+1} - D_j u_j)/dx - b (u_j + u_{j+1})/2,
    # with a Dirichlet ghost u = 0 beyond the last node
    right = (-D / dx - bmid[1:] / 2.0) / dx
    # left face j-1/2 enters with a minus sign
    left = (D / dx - bmid[:-1] / 2.0) / dx
    diag = right - left
    if half_line:
        diag[0] = right[0]  # zero-flux wall: F_{-1/2} = 0
    upper = np.zeros(M)
    upper[:-1] = (D[1:] / dx - bmid[1:-1] / 2.0) / dx
    lower = np.zeros(M)
    lower[1:] = (D[:-1] / dx + bmid[1:-1] / 2.0) / dx
    return lower, diag, upper


class _Strang:
    """Strang steps R(dt/2) C R(dt/2) on one grid: C is the Crank-Nicolson
    step of the flux generator, R(h) the exact reaction step (multiply by
    exp(g h) and renormalize)."""

    def __init__(self, model: DiffusionModel, fitness: FitnessFunction,
                 x: np.ndarray, dx: float, half_line: bool):
        gvals = np.asarray(fitness.g(x), float)
        self.g = gvals - gvals.max()
        self.wq = trapezoid_weights(x)
        self.lower, self.diag, self.upper = _flux_matrix(model, x, dx, half_line)

    def react(self, vec, factor):
        w = vec * factor
        tot = self.wq @ w
        if not np.isfinite(tot) or tot <= 0:
            raise PdeError("reaction step lost all mass")
        w /= tot
        return w

    def march(self, u: np.ndarray, length: float, n: int):
        """n equal steps over ``length`` from u: (u, boundary leak, clips)."""
        dt = length / n
        wq, lower, diag, upper = self.wq, self.lower, self.diag, self.upper
        half_react = np.exp(0.5 * dt * self.g)
        full_react = half_react * half_react
        # (I - dt/2 A) factored once per march; (I + dt/2 A) applied by its
        # three diagonals
        *lu, info = scipy.linalg.lapack.dgttrf(
            -0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1])
        if info != 0:
            raise PdeError("Crank-Nicolson matrix is singular")
        ex_diag = 1.0 + 0.5 * dt * diag
        ex_upper = 0.5 * dt * upper[:-1]
        ex_lower = 0.5 * dt * lower[1:]
        leak, clips = 0.0, 0
        # the two half reactions that meet between steps are fused into one
        # full reaction; half steps remain only at the ends of the march
        pending = half_react
        for _ in range(n):
            u = self.react(u, pending)
            pending = full_react
            before = wq @ u
            rhs = ex_diag * u
            rhs[:-1] += ex_upper * u[1:]
            rhs[1:] += ex_lower * u[:-1]
            u = scipy.linalg.lapack.dgttrs(*lu, rhs, overwrite_b=1)[0]
            low = u.min()
            if low < 0:
                if low < -1e-12:
                    clips += int((u < -1e-14).sum())
                np.maximum(u, 0.0, out=u)
            after = wq @ u
            leak += abs(before - after)
            u *= before / after
        return self.react(u, half_react), leak, clips


def _interval(strang: _Strang, u: np.ndarray, length: float, dt_max: float):
    """One store interval's march from u, by step doubling: n and 2n equal
    steps (n = 1, 2, 4, ...), the 2n march accepted once the estimate is at
    most ``TOL["pde_time_l1"]``.  The estimate is ``wq @ |u_2n - u_n|`` and,
    for n >= 2, at least ``wq @ |u_2n - u_(2n-1)|``: Crank-Nicolson turns
    the sign of a stiff mode that it does not damp at every step, so two
    marches of even length carry the mode alike and only an odd one shows
    it.  The ceiling, the fewest equal steps of at most ``dt_max``, is
    marched with no trial when it is at most 2, and in place of further
    trials once the second-order prediction 2n sqrt(est / tol) or the next
    trial reaches past it.  Returns ((u, leak, clips), steps, trial steps,
    estimate, or None at the ceiling)."""
    ceiling = int(np.ceil(length / dt_max))
    ceiling += int(length / ceiling > dt_max)  # a quotient rounded up past dt_max
    if ceiling <= 2:
        return strang.march(u, length, ceiling), ceiling, 0, None
    tol = TOL["pde_time_l1"]
    n, trials = 1, 0
    coarse = strang.march(u, length, 1)
    while True:
        fine = strang.march(u, length, 2 * n)
        est = float(strang.wq @ np.abs(fine[0] - coarse[0]))
        trials += n
        if est <= tol and n > 1:
            probe = strang.march(u, length, 2 * n - 1)[0]
            trials += 2 * n - 1
            est = max(est, float(strang.wq @ np.abs(fine[0] - probe)))
        if est <= tol:
            return fine, 2 * n, trials, est
        if 2 * n * np.sqrt(est / tol) >= ceiling or 4 * n > ceiling:
            if 2 * n < ceiling:
                trials += 2 * n
                fine = strang.march(u, length, ceiling)
            return fine, ceiling, trials, None
        n, coarse = 2 * n, fine


def solve_rm_pde(model: DiffusionModel, fitness: FitnessFunction,
                 u0: GridDensity, T: float, scheme: Optional[PdeScheme] = None,
                 store_times: Optional[np.ndarray] = None,
                 store_every: Optional[int] = None) -> PdeTrajectory:
    """Splitting solver for the nonlocal Cauchy problem; densities stay
    normalized step by step, with the diffusion-step boundary leak audited
    separately (failure above the tolerance advises a larger grid).

    The march stops on every store time (default: 33 equally spaced ones;
    ``store_every=k``: every k-th step of a march in steps of
    ``DT_MULTIPLE`` times the explicit-scheme bound dx^2 / (2 max sigma^2)),
    so the stored times are the requested ones clipped to [0, T].  Each
    store interval takes its step count from a step-doubling estimate of
    its L1 time error (``_interval``), at most the count of steps of
    ``DT_MULTIPLE`` times the bound.  The leak, the leak gate and the clip
    count read the accepted marches only."""
    if model.dim != 1:
        raise PdeError("oracle is one-dimensional")
    if not T > 0:
        raise PdeError(f"horizon T = {T:g} is not positive")
    t_start = time.time()
    scheme = scheme or PdeScheme()
    x, dx, half_line = _build_grid(model, scheme)
    sig_max2 = float((model.diffusion(x[:, None])[:, 0, 0] ** 2).max())
    dt_bound = dx * dx / (2.0 * max(sig_max2, 1e-12))
    dt_max = DT_MULTIPLE * dt_bound
    if store_times is None:
        store_times = (np.linspace(0.0, T, 33) if store_every is None else
                       np.linspace(0.0, T, int(np.ceil(T / dt_max)) + 1)[::store_every])
    stored = np.unique(np.clip(np.asarray(store_times, float), 0.0, T))
    stored = stored[stored > 0]

    u = np.maximum(u0(x), 0.0)
    total = np.trapezoid(u, x)
    if total <= 0:
        raise PdeError("initial density vanishes on the grid")
    u = u / total

    strang = _Strang(model, fitness, x, dx, half_line)
    out_times = [0.0]
    out_dens = [u.copy()]
    leak, clips, trials, dt = 0.0, 0, 0, 0.0
    counts, estimates = [], []
    start = 0.0
    for stop in np.union1d(stored, [T]).tolist():
        length = stop - start
        (u, dleak, dclips), n, dtrials, est = _interval(strang, u, length, dt_max)
        leak += dleak
        if leak > TOL["pde_mass_leak"]:
            raise PdeError(
                f"boundary mass leak {leak:.2e} exceeds {TOL['pde_mass_leak']:g}; "
                "enlarge the grid half width")
        clips += dclips
        trials += dtrials
        dt = max(dt, length / n)
        counts.append(n)
        estimates.append(est)
        if stop in stored:
            out_times.append(stop)
            out_dens.append(u.copy())
        start = stop

    met = [e for e in estimates if e is not None]
    return PdeTrajectory(times=np.asarray(out_times), grid=x,
                         densities=np.asarray(out_dens), mass_leak=leak,
                         steps=sum(counts), negativity_clips=clips, trial_steps=trials,
                         time_l1_estimate=max(met, default=0.0),
                         ceiling_intervals=len(estimates) - len(met),
                         meta={"dx": dx, "dt": dt, "dt_bound": dt_bound,
                               "half_line": half_line, "interval_steps": counts,
                               "interval_estimates": estimates,
                               "runtime_s": time.time() - t_start})


def weak_form_residual(model: DiffusionModel, fitness: FitnessFunction,
                       traj: PdeTrajectory, f, df, d2f) -> float:
    """Residual of the variational identity for one smooth test function
    (derivatives supplied analytically); integrates checkpoints by trapezoid."""
    x = traj.grid
    fx = f(x)
    Af = model.drift(x[:, None])[:, 0] * df(x) \
        + 0.5 * model.diffusion(x[:, None])[:, 0, 0] ** 2 * d2f(x)
    g = np.asarray(fitness.g(x), float)
    uf, uAgf, ug = [], [], []
    for i in range(len(traj.times)):
        u = traj.densities[i]
        z = np.trapezoid(u, x)
        uf.append(np.trapezoid(u * fx, x) / z)
        uAgf.append(np.trapezoid(u * (Af + g * fx), x) / z)
        ug.append(np.trapezoid(u * g, x) / z)
    uf, uAgf, ug = map(np.asarray, (uf, uAgf, ug))
    t = traj.times
    lhs = uf[-1] - uf[0]
    rhs = np.trapezoid(uAgf - ug * uf, t)
    return float(abs(lhs - rhs))
