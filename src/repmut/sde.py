"""Path simulation for base and tilted diffusions, in one stepping loop.

Euler-Maruyama by default, exact Gaussian updates for the constant
coefficient and OU kinds, full truncation for CIR.  An eigen-tilted model
is a plain "custom" ``DiffusionModel`` (``closed_form.tilted_extra_drift``)
and steps by Euler-Maruyama.  Noise comes from the
counter-based generator in :mod:`repmut.rng`, so a path is a pure function
of (seed, particle id, grid) regardless of batching or thread count.

Fitness weights are accumulated on the integration grid while stepping
(trapezoid rule on the shifted fitness g - g_max), which lets ensembles
store only sparse time checkpoints.  For arithmetic BM and OU driven by one
Brownian motion with affine fitness, (X_{t+h}, int_t^{t+h} X ds) is jointly
Gaussian, so the "exact-gaussian-joint" scheme draws it exactly, one step
per stored interval, and the weights carry no discretization error.

Unweighted CIR paths whose dimension d = 4a/sigma^2 is an integer (up to
``CHI2_MAX_DOF``) take the "exact-noncentral-chi2" scheme instead of full
truncation: the transition over a stored interval of length h is
X' = s chi'^2_d(lam), s = sigma^2 (1 - e^{-gamma h}) / (4 gamma),
lam = x e^{-gamma h} / s, gamma = -b (Cox, Ingersoll & Ross 1985;
Glasserman 2003, sec. 3.4), and for integer d the noncentral chi-square
is (Z_1 + sqrt(lam))^2 + Z_2^2 + ... + Z_d^2.  The eigen-tilted CIR
process at lambda_max is such a model (``closed_form.tilted_engine``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .model import DiffusionModel, FitnessFunction


class SimulationError(RuntimeError):
    pass


# largest integer CIR dimension 4a/sigma^2 drawn exactly: d normals per path
# and stored interval; larger d keeps full truncation
CHI2_MAX_DOF = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t0, T] with ``steps`` intervals."""

    t0: float
    T: float
    steps: int

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError("need t0 < T")
        if self.steps < 1:
            raise ValueError("need steps >= 1")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """t0 + k dt for k < steps, and exactly T last."""
        return np.linspace(self.t0, self.T, self.steps + 1)

    @classmethod
    def per_unit(cls, T: float, steps_per_unit: int) -> "TimeGrid":
        """[0, T] in round(steps_per_unit * T) steps, at least one."""
        return cls(0.0, T, max(1, int(round(steps_per_unit * T))))

    def checkpoint_indices(self, count: int) -> np.ndarray:
        """Indices of ~count stored nodes, always including both ends."""
        count = min(max(count, 2), self.steps + 1)
        return np.unique(np.round(np.linspace(0, self.steps, count)).astype(int))

    def checkpoint_times(self, count: int) -> np.ndarray:
        """The nodes at :meth:`checkpoint_indices`: the times the Monte Carlo
        engines store."""
        return self.nodes[self.checkpoint_indices(count)]


@dataclass(frozen=True)
class PathBundle:
    """Positions (and optionally log-weights) at the stored time nodes."""

    times: np.ndarray            # (S,)
    positions: np.ndarray        # (N, S, n)
    seed: int
    scheme: str
    logw: Optional[np.ndarray] = None   # (N, S), integral of g - shift
    shift: float = 0.0
    fine_steps: int = 0


def _shifted_fitness(fitness: FitnessFunction, x: np.ndarray) -> np.ndarray:
    return (fitness.g(x[:, 0]) if x.shape[1] == 1 else fitness.g(x)) - fitness.g_max


def _is_affine(fitness: Optional[FitnessFunction]) -> bool:
    """Fitness declared affine-quadratic with G == 0, i.e. affine in x."""
    form = fitness.declared_form() if fitness is not None else None
    return form is not None and not form[2].any()


def _chi2_dof(model: DiffusionModel) -> int:
    """d = 4a/sigma^2 of a CIR model when it is an integer in [1, CHI2_MAX_DOF]
    up to rounding (a = 0.64, sigma = 0.8 gives 3.9999999999999996), else 0."""
    d = 4.0 * model.params["a"] / model.params["sigma"] ** 2
    k = np.rint(d)
    return int(k) if 1 <= k <= CHI2_MAX_DOF and abs(d - k) <= 1e-12 * k else 0


def simulate(model: DiffusionModel, initial: np.ndarray, grid: TimeGrid, seed: int,
             *, fitness: Optional[FitnessFunction] = None,
             store: Optional[np.ndarray] = None,
             particle_ids: Optional[np.ndarray] = None,
             threads: int = 1) -> PathBundle:
    """Simulates N paths; returns positions (and weights) at stored nodes.

    ``initial`` holds one point per row, (N, d), or is a flat (N,) vector on
    a 1-D model; any other shape raises ``SimulationError``.  ``store`` is an
    index array into the fine grid nodes (defaults to all nodes).
    ``particle_ids`` are the RNG stream keys, defaulting to 0..N-1; passing a
    permutation permutes the realized paths.

    One loop advances the paths a stored interval j at a time.  The exact
    schemes visit only the stored nodes, so ``fine_steps`` is S - 1: the
    joint scheme takes one ``rng.normal_pair`` at counter step j, and the
    exact CIR scheme the d normals of ``rng.normals(seed, ids, j, d)``,
    summed by ``rng.noncentral_chi2``.  The other schemes take the fine steps
    k of the interval, a 1-D noise using both Box-Muller outputs of counter
    block k // 2 across interval ends.  ``threads`` sets the number of chunks,
    at most one per 256 paths, and these run on at most the CPU count of
    worker threads; the paths do not depend on either.
    """
    x0 = np.asarray(initial, float)
    if x0.ndim == 1 and model.dim == 1:
        x0 = x0[:, None]
    if x0.ndim != 2 or x0.shape[1] != model.dim:
        raise SimulationError(f"initial points of shape {x0.shape}; need (N, {model.dim})"
                              + (" or (N,)" if model.dim == 1 else ""))
    n_part = x0.shape[0]
    ids = (np.arange(n_part, dtype=np.uint64) if particle_ids is None
           else np.asarray(particle_ids, dtype=np.uint64))
    if ids.shape[0] != n_part:
        raise SimulationError("particle_ids length mismatch")
    store_idx = np.arange(grid.steps + 1) if store is None else np.asarray(store, int)
    if store_idx[0] != 0 or store_idx[-1] != grid.steps:
        raise SimulationError("stored nodes must include both grid ends")
    if np.any(np.diff(store_idx) <= 0):
        raise SimulationError("stored node indices must be strictly increasing")

    chi2_dof = _chi2_dof(model) if model.kind == "cir" and fitness is None else 0
    if chi2_dof:
        scheme = "exact-noncentral-chi2"
    elif model.kind == "cir":
        scheme = "cir-full-truncation"
    elif model.kind in ("arithmetic-bm", "ou"):
        scheme = ("exact-gaussian-joint" if model.m == 1 and _is_affine(fitness)
                  else "exact-gaussian")
    else:
        scheme = "euler-maruyama"
    exact = scheme in ("exact-gaussian-joint", "exact-noncentral-chi2")

    nodes = grid.nodes
    times = nodes[store_idx]
    bounds = store_idx.tolist()
    dt = grid.dt
    sqdt = np.sqrt(dt)
    positions = np.empty((n_part, len(bounds), model.dim))
    logw = np.zeros((n_part, len(bounds))) if fitness is not None else None

    def check_finite(x, k):
        if not np.isfinite(x).all():
            raise SimulationError(f"non-finite state at step {k} (t = {nodes[k]:g})")

    def fine_step(x, z):
        if scheme == "exact-gaussian":
            return _exact_step(model, x, z, dt, sqdt)
        if scheme == "cir-full-truncation":
            xp = np.maximum(x, 0.0)
            p = model.params
            return x + (p["a"] + p["b"] * xp) * dt + p["sigma"] * np.sqrt(xp) * z[:, :1] * sqdt
        sig = model.diffusion(x)
        if model.dim == 1 and model.m == 1:
            return x + model.drift(x) * dt + sig[:, :, 0] * z * sqdt
        return x + model.drift(x) * dt + np.einsum("pij,pj->pi", sig, z) * sqdt

    def run_chunk(sl: slice):
        x = x0[sl].copy()
        cid = ids[sl]
        acc = np.zeros(x.shape[0]) if fitness is not None else None
        g_prev = _shifted_fitness(fitness, x) if fitness is not None and not exact else None
        positions[sl, 0] = x
        z_carry = None
        for j in range(len(bounds) - 1):
            if exact:
                h = times[j + 1] - times[j]
                if chi2_dof:
                    x = _chi2_step(model, x, seed, cid, j, chi2_dof, h)
                else:
                    z1, z2 = rng.normal_pair(seed, cid, j)
                    x, integral = _joint_step(model, x, z1[:, None], z2[:, None], h)
                check_finite(x, bounds[j + 1])
                if fitness is not None:
                    # g affine: h g(mean of X over the interval) is its exact integral
                    acc = acc + h * _shifted_fitness(fitness, integral / h)
                x_rec = x
            else:
                for k in range(bounds[j], bounds[j + 1]):
                    if model.m == 1:
                        # consume both Box-Muller outputs of one counter block
                        if k % 2 == 0:
                            z1, z_carry = rng.normal_pair(seed, cid, k // 2)
                            z = z1[:, None]
                        else:
                            z = z_carry[:, None]
                    else:
                        z = rng.normals(seed, cid, k, model.m)
                    x = fine_step(x, z)
                    check_finite(x, k + 1)
                    x_rec = np.maximum(x, 0.0) if scheme == "cir-full-truncation" else x
                    if fitness is not None:
                        g_new = _shifted_fitness(fitness, x_rec)
                        acc = acc + 0.5 * dt * (g_prev + g_new)
                        g_prev = g_new
            positions[sl, j + 1] = x_rec
            if logw is not None:
                logw[sl, j + 1] = acc

    chunks = min(threads, n_part // 256)  # bounded by the paths, not the machine
    if chunks <= 1 or n_part < 2048:
        run_chunk(slice(0, n_part))
    else:
        edges = np.linspace(0, n_part, chunks + 1).astype(int)
        with ThreadPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
            list(pool.map(run_chunk, map(slice, edges[:-1], edges[1:])))

    return PathBundle(times=times, positions=positions, seed=int(seed),
                      scheme=scheme, logw=logw,
                      shift=(fitness.g_max if fitness is not None else 0.0),
                      fine_steps=len(bounds) - 1 if exact else grid.steps)


def _exact_step(model: DiffusionModel, x, z, dt, sqdt):
    if model.kind == "arithmetic-bm":
        b, sig = model.params["b"], model.params["sigma"]
        return x + b * dt + (z @ sig.T) * sqdt
    kappa = model.params["kappa"]
    theta = model.params["theta"]
    sig = model.params["sigma"]
    decay = np.exp(-kappa * dt)
    sd = sig * np.sqrt((1.0 - decay * decay) / (2.0 * kappa))
    return theta + (x - theta) * decay + sd * z[:, :1]


def _chi2_step(model: DiffusionModel, x, seed, ids, j, d, h):
    """Exact CIR draw X_{t+h} = s chi'^2_d(lam) given X_t = x (N, 1), d = 4a/sigma^2,
    from the normals of counter step j (Glasserman 2003, sec. 3.4)."""
    gamma, sig = -model.params["b"], model.params["sigma"]
    # s = sigma^2 (1 - e^{-gamma h}) / (4 gamma), and sigma^2 h / 4 at gamma = 0
    s = sig * sig * (-np.expm1(-gamma * h) / gamma if gamma else h) / 4.0
    root_lam = np.sqrt(np.maximum(x[:, 0], 0.0) * (np.exp(-gamma * h) / s))
    return (s * rng.noncentral_chi2(seed, ids, j, d, root_lam))[:, None]


def _joint_step(model: DiffusionModel, x, z1, z2, h):
    """Exact draw of (X_{t+h}, int_t^{t+h} X ds) given X_t = x, m = 1.

    z1 drives the position, z2 the part of the integral independent of it.
    OU is the Vasicek integrated short rate (Glasserman 2003, sec. 3.3).
    """
    if model.kind == "arithmetic-bm":
        b, sig = model.params["b"], model.params["sigma"][:, 0]
        x_new = x + b * h + sig * (np.sqrt(h) * z1)
        integral = (x * h + b * (0.5 * h * h)
                    + sig * (h ** 1.5 * (0.5 * z1 + z2 / np.sqrt(12.0))))
        return x_new, integral
    kappa, theta, sig = (model.params[k] for k in ("kappa", "theta", "sigma"))
    u = kappa * h
    one_e, one_e2 = -np.expm1(-u), -np.expm1(-2.0 * u)     # 1 - e, 1 - e^2
    # variances and covariance per unit sigma^2; C = (1 - e)^2 / 2 kappa^2
    v_x = one_e2 / (2.0 * kappa)
    cov = one_e * one_e / (2.0 * kappa * kappa)
    if abs(u) < 1e-3:  # h - 2(1-e)/kappa + (1-e^2)/2kappa cancels to O(u^3 / kappa)
        v_i = h ** 3 * (1.0 / 3.0 - u / 4.0 + 7.0 * u * u / 60.0)
    else:
        v_i = (h - 2.0 * one_e / kappa + one_e2 / (2.0 * kappa)) / (kappa * kappa)
    x_new = theta + (x - theta) * np.exp(-u) + sig * np.sqrt(v_x) * z1
    integral = (theta * h + (x - theta) * (one_e / kappa)
                + sig * (cov / np.sqrt(v_x) * z1 + np.sqrt(v_i - cov * cov / v_x) * z2))
    return x_new, integral
