"""Path simulation for base and tilted diffusions.

Euler-Maruyama by default, exact Gaussian updates for the constant
coefficient and OU kinds, full truncation for CIR.  Noise comes from the
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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

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
        return self.t0 + self.dt * np.arange(self.steps + 1)

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
class TiltedDrift:
    """Base model plus an extra drift term (t, x) -> R^n."""

    base: DiffusionModel
    extra: Callable[[float, np.ndarray], np.ndarray]


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

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]


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


def _drift_of(model_or_tilt, t: float, x: np.ndarray) -> np.ndarray:
    if isinstance(model_or_tilt, TiltedDrift):
        return model_or_tilt.base.drift(x) + model_or_tilt.extra(t, x)
    return model_or_tilt.drift(x)


def simulate(model_or_tilt, initial: np.ndarray, grid: TimeGrid, seed: int,
             *, fitness: Optional[FitnessFunction] = None,
             store: Optional[np.ndarray] = None,
             particle_ids: Optional[np.ndarray] = None,
             threads: int = 1) -> PathBundle:
    """Simulates N paths; returns positions (and weights) at stored nodes.

    ``initial`` holds one point per row, (N, d), or is a flat (N,) vector on
    a 1-D model; any other shape raises ``SimulationError``.  ``store`` is an index array into the fine grid nodes (defaults to all
    nodes).  ``particle_ids`` are the RNG stream keys, defaulting to
    0..N-1; passing a permutation permutes the realized paths.  Under the
    joint scheme only the stored nodes are visited: stored interval j takes
    one ``rng.normal_pair`` at counter step j, and ``fine_steps`` is S - 1.
    The exact CIR scheme visits only the stored nodes too: stored interval j
    takes the d normals of ``rng.normals(seed, ids, j, d)``, summed by
    ``rng.noncentral_chi2``.
    """
    base = model_or_tilt.base if isinstance(model_or_tilt, TiltedDrift) else model_or_tilt
    tilted = isinstance(model_or_tilt, TiltedDrift)
    x0 = np.asarray(initial, float)
    if x0.ndim == 1 and base.dim == 1:
        x0 = x0[:, None]
    if x0.ndim != 2 or x0.shape[1] != base.dim:
        raise SimulationError(f"initial points of shape {x0.shape}; need (N, {base.dim})"
                              + (" or (N,)" if base.dim == 1 else ""))
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

    chi2_dof = _chi2_dof(base) if base.kind == "cir" and not tilted and fitness is None else 0
    if chi2_dof:
        scheme = "exact-noncentral-chi2"
    elif base.kind == "cir":
        scheme = "cir-full-truncation"
    elif base.kind in ("arithmetic-bm", "ou") and not tilted:
        scheme = ("exact-gaussian-joint" if base.m == 1 and _is_affine(fitness)
                  else "exact-gaussian")
    else:
        scheme = "euler-maruyama"

    nodes = grid.nodes
    times = nodes[store_idx]
    n_dim, m_dim = base.dim, base.m
    # the chi2 scheme writes one stored node of all its paths at a time: rows
    # of an (S, N) array, which positions views as (N, S, 1)
    rows = np.empty((len(store_idx), n_part)) if chi2_dof else None
    positions = (rows.T[:, :, None] if chi2_dof
                 else np.empty((n_part, len(store_idx), n_dim)))
    logw = np.empty((n_part, len(store_idx))) if fitness is not None else None

    def check_finite(x, k):
        if not np.isfinite(x).all():
            raise SimulationError(f"non-finite state at step {k} (t = {nodes[k]:g})")

    def run_joint_chunk(sl: slice):
        x = x0[sl].copy()
        cid = ids[sl]
        acc = np.zeros(x.shape[0])
        positions[sl, 0] = x
        logw[sl, 0] = 0.0
        for j in range(len(store_idx) - 1):
            h = times[j + 1] - times[j]
            z1, z2 = rng.normal_pair(seed, cid, j)
            x, integral = _joint_step(base, x, z1[:, None], z2[:, None], h)
            check_finite(x, store_idx[j + 1])
            # g affine: h g(mean of X over the interval) is its exact integral
            acc = acc + h * _shifted_fitness(fitness, integral / h)
            positions[sl, j + 1] = x
            logw[sl, j + 1] = acc

    def run_chi2_chunk(sl: slice):
        x = rows[0, sl] = x0[sl, 0]
        cid = ids[sl]
        for j in range(len(store_idx) - 1):
            x = _chi2_step(base, x, seed, cid, j, chi2_dof, times[j + 1] - times[j])
            check_finite(x, store_idx[j + 1])
            rows[j + 1, sl] = x

    def run_chunk(sl: slice):
        x = x0[sl].copy()
        cid = ids[sl]
        acc = np.zeros(x.shape[0]) if fitness is not None else None
        g_prev = _shifted_fitness(fitness, x) if fitness is not None else None
        store_set = set(int(i) for i in store_idx)
        positions[sl, 0] = x
        if logw is not None:
            logw[sl, 0] = 0.0
        out_col = 1
        dt = grid.dt
        sqdt = np.sqrt(dt)
        z_carry = None
        for k in range(grid.steps):
            if m_dim == 1:
                # consume both Box-Muller outputs of one counter block
                if k % 2 == 0:
                    z1, z_carry = rng.normal_pair(seed, cid, k // 2)
                    z = z1[:, None]
                else:
                    z = z_carry[:, None]
            else:
                z = rng.normals(seed, cid, k, m_dim)
            t_k = nodes[k]
            if scheme == "exact-gaussian":
                x = _exact_step(base, x, z, dt, sqdt)
            elif scheme == "cir-full-truncation":
                xp = np.maximum(x, 0.0)
                a, bb = base.params["a"], base.params["b"]
                sg = base.params["sigma"]
                drift = a + bb * xp
                if tilted:
                    drift = drift + model_or_tilt.extra(t_k, xp)
                x = x + drift * dt + sg * np.sqrt(xp) * z[:, :1] * sqdt
            else:
                drift = _drift_of(model_or_tilt, t_k, x)
                sig = base.diffusion(x)
                if n_dim == 1 and m_dim == 1:
                    x = x + drift * dt + sig[:, :, 0] * z * sqdt
                else:
                    x = x + drift * dt + np.einsum("pij,pj->pi", sig, z) * sqdt
            check_finite(x, k + 1)
            x_rec = np.maximum(x, 0.0) if scheme == "cir-full-truncation" else x
            if fitness is not None:
                g_new = _shifted_fitness(fitness, x_rec)
                acc = acc + 0.5 * dt * (g_prev + g_new)
                g_prev = g_new
            if (k + 1) in store_set:
                positions[sl, out_col] = x_rec
                if logw is not None:
                    logw[sl, out_col] = acc
                out_col += 1

    joint = scheme in ("exact-gaussian-joint", "exact-noncentral-chi2")
    runner = run_chi2_chunk if chi2_dof else run_joint_chunk if joint else run_chunk
    if threads <= 1 or n_part < 2048:
        runner(slice(0, n_part))
    else:
        bounds = np.linspace(0, n_part, threads + 1).astype(int)
        chunks = [slice(bounds[i], bounds[i + 1]) for i in range(threads)
                  if bounds[i] < bounds[i + 1]]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(runner, chunks))

    return PathBundle(times=times, positions=positions, seed=int(seed),
                      scheme=scheme, logw=logw,
                      shift=(fitness.g_max if fitness is not None else 0.0),
                      fine_steps=len(store_idx) - 1 if joint else grid.steps)


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
    """Exact CIR draw X_{t+h} = s chi'^2_d(lam) given X_t = x, d = 4a/sigma^2,
    from the normals of counter step j (Glasserman 2003, sec. 3.4)."""
    gamma, sig = -model.params["b"], model.params["sigma"]
    # s = sigma^2 (1 - e^{-gamma h}) / (4 gamma), and sigma^2 h / 4 at gamma = 0
    s = sig * sig * (-np.expm1(-gamma * h) / gamma if gamma else h) / 4.0
    root_lam = np.sqrt(np.maximum(x, 0.0) * (np.exp(-gamma * h) / s))
    return s * rng.noncentral_chi2(seed, ids, j, d, root_lam)


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
