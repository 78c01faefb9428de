"""Finite-difference oracle for the 1D nonlocal replicator-mutator
Cauchy problem.

Strang splitting: an exact reaction half step (multiply by exp(g dt/2) and
renormalize, which handles the nonlocal mean-fitness term exactly) around a
Crank-Nicolson step for the conservative-form forward operator

    d_t u = d_xx (sigma^2 u / 2) - d_x (b u).

The march runs store interval by store interval, each split into equal
steps of at most 16 times the explicit-scheme bound, so every stored
density sits exactly at its requested time.

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
# bound dx^2 / (2 max sigma^2); it is capped at this multiple of it.  On
# linear-bm with a box initial density on [-1, 1] (2048 nodes, stores at
# T/3, 2T/3, T = 0.1), the worst L1 gap to the bound-step march is 4.3e-6
# at 16x, 1.3e-4 at 32x and 2.6e-3 at 64x, where the undamped
# Crank-Nicolson modes of the jump would need backward-Euler start-up steps.
DT_MULTIPLE = 16


@dataclass(frozen=True)
class PdeScheme:
    """Spatial grid of the Strang-splitting solver; the time step follows
    from it (``DT_MULTIPLE`` times the explicit bound) and the store times."""

    half_width: float = 12.0        # [-L, L], or (0, L] on the half line
    nodes: int = 2048


@dataclass
class PdeTrajectory:
    times: np.ndarray
    grid: np.ndarray
    densities: np.ndarray           # (len(times), M)
    mass_leak: float
    steps: int
    negativity_clips: int = 0
    meta: dict = field(default_factory=dict)

    def density(self, t: float) -> GridDensity:
        return GridDensity(self.grid, self.densities[stored_index(self.times, t)]).normalize()

    def summary(self) -> dict:
        return {
            "mass_leak": float(self.mass_leak),
            "steps": int(self.steps),
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


def _march_plan(T: float, dt_max: float, store_times):
    """The march as (stop, steps, step, stored) per store interval: the
    stops are the store times clipped to (0, T], and T, in increasing order,
    and each interval is split into equal steps of at most ``dt_max``."""
    stored = np.unique(np.clip(np.asarray(store_times, float), 0.0, T))
    stored = stored[stored > 0]
    plan, start = [], 0.0
    for stop in np.union1d(stored, [T]).tolist():
        n = int(np.ceil((stop - start) / dt_max))
        n += (stop - start) / n > dt_max  # a quotient rounded up past dt_max
        plan.append((stop, n, (stop - start) / n, stop in stored))
        start = stop
    return plan


def solve_rm_pde(model: DiffusionModel, fitness: FitnessFunction,
                 u0: GridDensity, T: float, scheme: Optional[PdeScheme] = None,
                 store_times: Optional[np.ndarray] = None,
                 store_every: Optional[int] = None) -> PdeTrajectory:
    """Splitting solver for the nonlocal Cauchy problem; densities stay
    normalized step by step, with the diffusion-step boundary leak audited
    separately (failure above the tolerance advises a larger grid).

    The step is at most ``DT_MULTIPLE`` times the explicit-scheme bound
    dx^2 / (2 max sigma^2).  The march stops on every store time (default:
    33 equally spaced ones; ``store_every=k``: every k-th step of a uniform
    march), so the stored times are the requested ones clipped to [0, T]."""
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
    plan = _march_plan(T, dt_max, store_times)

    u = np.maximum(u0(x), 0.0)
    total = np.trapezoid(u, x)
    if total <= 0:
        raise PdeError("initial density vanishes on the grid")
    u = u / total

    gvals = np.asarray(fitness.g(x), float)
    gvals = gvals - gvals.max()
    wq = trapezoid_weights(x)
    lower, diag, upper = _flux_matrix(model, x, dx, half_line)

    out_times = [0.0]
    out_dens = [u.copy()]
    leak = 0.0
    clips = 0

    def react(vec, factor):
        w = vec * factor
        tot = wq @ w
        if not np.isfinite(tot) or tot <= 0:
            raise PdeError("reaction step lost all mass")
        w /= tot
        return w

    for stop, n, dt, stored in plan:
        half_react = np.exp(0.5 * dt * gvals)
        full_react = half_react * half_react
        # (I - dt/2 A) factored once per interval; (I + dt/2 A) applied by
        # its three diagonals
        *lu, info = scipy.linalg.lapack.dgttrf(
            -0.5 * dt * lower[1:], 1.0 - 0.5 * dt * diag, -0.5 * dt * upper[:-1])
        if info != 0:
            raise PdeError("Crank-Nicolson matrix is singular")
        ex_diag = 1.0 + 0.5 * dt * diag
        ex_upper = 0.5 * dt * upper[:-1]
        ex_lower = 0.5 * dt * lower[1:]
        # Strang: R(dt/2) C R(dt/2) per step, with the two half reactions
        # that meet between steps fused into one full reaction; half steps
        # remain only at the ends of the interval.
        pending = half_react
        for _ in range(n):
            u = react(u, pending)
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
            if leak > TOL["pde_mass_leak"]:
                raise PdeError(
                    f"boundary mass leak {leak:.2e} exceeds {TOL['pde_mass_leak']:g}; "
                    "enlarge the grid half width")
            u *= before / after
        u = react(u, half_react)
        if stored:
            out_times.append(stop)
            out_dens.append(u.copy())

    return PdeTrajectory(times=np.asarray(out_times), grid=x,
                         densities=np.asarray(out_dens), mass_leak=leak,
                         steps=sum(n for _, n, _, _ in plan), negativity_clips=clips,
                         meta={"dx": dx, "dt": max(dt for _, _, dt, _ in plan),
                               "dt_bound": dt_bound, "half_line": half_line,
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
