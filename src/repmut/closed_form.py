"""Closed-form and semi-analytic solution engines.

Three routes to the same normalized density flow.  The two closed forms
learn the fitness only from its declared affine-quadratic form
(``FitnessFunction.declared_form``) and reject fitness without one.

* ``linear_engine`` -- constant-coefficient models with linear fitness
  (declared G = 0); the solution is an exponentially tilted Gaussian
  convolution, fully analytic for Gaussian initial data and a kernel
  quadrature on the law's nodes (1D) otherwise.
* ``affine_engine`` -- affine drift, constant diffusion, concave quadratic
  fitness; an exponential-quadratic eigenfunction turns the weighted
  expectation into a Gaussian transition density.  Its degenerate case
  B = 0, G = 0 (arithmetic BM with linear fitness) has no such
  eigenfunction and is the linear engine's case, so it returns
  ``linear_engine``'s solution, marked ``meta["same_as"] = "linear"``.
* ``tilted_engine`` -- any model with a supplied positive eigenpair whose
  residual on that model is small (``affine_eigenpair`` for affine models,
  ``spectral.cir_eigenpair`` for CIR); the eigen-tilted SDE is simulated
  (exactly for CIR, whose principal pair tilts it to a CIR process) and the
  density recovered by KDE.

All five engines (these three, the particle system and the PDE oracle in
``cli``) return the same ``Solution``: a density evaluator u(t, x), an
(unshifted) mass-factor evaluator, a tag, a horizon, a grid and ``times``,
the stored checkpoint times of the Monte Carlo and PDE engines (None for
the closed forms, which evaluate at any t).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.special

from .constants import TOL, DEFAULT_STEPS_PER_UNIT
from .model import DiffusionModel, FitnessFunction, InitialLaw, probe_points, sample_initial
from .numerics import (GaussianMoments, GridDensity, _gauss_kernel_sum,
                       covariance_integral, expm_integral, kde, matrix_exp,
                       stored_index, trapezoid_weights)
from .sde import TimeGrid, simulate


class EngineError(RuntimeError):
    pass


class HorizonError(EngineError):
    """A quadrature normalizer or mass factor overflowed; the horizon is too long."""


class RejectedCondition(Exception):
    """Structured rejection: the model/fitness pair misses a precondition."""


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Eigenpair:
    """Positive eigenfunction with (A + g) phi = -lam phi.

    ``log_phi`` and ``grad_log_phi`` are the numerically robust primitives;
    ``phi``/``dphi`` satisfy the plain contract.  The residual probe needs
    either ``d2phi`` (analytic; the Hessian in d > 1) or, on the line, a
    uniform grid and phi tabulated on it (grid-backed pairs).  A pure
    exponential phi = e^{c x} (1-D) records its slope c in ``log_slope``, so
    that the tilted engine can read the tilted drift off the data.
    """

    lam: float
    phi: Callable
    dphi: Callable
    source: str
    log_phi: Callable
    grad_log_phi: Callable
    d2phi: Optional[Callable] = None
    grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None
    log_slope: Optional[float] = None


@dataclass(frozen=True)
class Solution:
    """Density evaluator u(t, x) plus the unshifted mass factor h_t."""

    engine: str
    horizon: float
    shift: float
    u: Callable  # u(t, x) -> density values
    mass: Callable  # t -> h_t (unshifted fitness); _no_mass where there is none
    grid: np.ndarray
    times: Optional[np.ndarray] = None  # stored times; None: any t
    meta: dict = field(default_factory=dict)

    def mass_factor(self, t: float, shifted: bool = False) -> float:
        """h_t; h_0 = 1, and it descends after the g <= 0 shift."""
        h = float(self.mass(t))
        return h * np.exp(-self.shift * t) if shifted else h


def _no_mass(t):
    raise EngineError("this engine tracks the normalized density only; "
                      "use the particle mass estimator")


# ---------------------------------------------------------------------------
# linear engine (constant coefficients, linear fitness)


def _auto_grid(mean, sd, width=10.0, size=2048):
    return np.linspace(mean - width * sd, mean + width * sd, size)


def _kernel_density(u0: InitialLaw, grid: np.ndarray, log_numerator: Callable):
    """(u, normalizer) of a kernel-quadrature density: u(t, x) is
    exp(log_numerator(t, x) - m) / z, where normalizer(t) = (m, z) holds the
    largest finite log numerator m on ``grid`` and the trapezoid integral z of
    exp(log_numerator - m) over it, computed once per t (from the same pass
    when x is ``grid``).  u is u0 at t <= 0; a z that is not finite and
    positive raises HorizonError."""
    cache = {}

    def normalizer(t, lz=None):
        if t not in cache:
            lz = log_numerator(t, grid) if lz is None else lz
            m = np.max(lz, initial=-np.inf, where=np.isfinite(lz))
            z = np.trapezoid(np.exp(lz - m), grid)
            if not np.isfinite(z) or z <= 0:
                raise HorizonError("normalizing quadrature overflowed")
            cache[t] = (m, z)
        return cache[t]

    def u(t, x):
        x = np.asarray(x, float)
        if t <= 0:
            return u0.density(x)
        lx = log_numerator(t, x)
        m, z = normalizer(t, lx if x is grid else None)
        return np.exp(lx - m) / z

    return u, normalizer


def linear_engine(model: DiffusionModel, fitness: FitnessFunction,
                  u0: InitialLaw, horizon: float = 1.0,
                  grid_size: int = 2048) -> Solution:
    """Tilted-convolution solution for constant (b, sigma) and fitness
    declared affine-quadratic with G = 0, g(x) = -(alpha + delta^T x).

    With a = sigma sigma^T and the gradient c = -delta, Gaussian initial
    data give the analytic Gaussian N(mu_v + t V c, V) with V = S0 + a t and
    kernel mean mu_v = m0 + b t - a c t^2 / 2; otherwise the convolution and
    normalization run on quadrature grids.
    """
    if model.kind != "arithmetic-bm":
        raise RejectedCondition("linear engine needs a constant-coefficient model")
    form = fitness.declared_form()
    if form is None or form[2].any():
        raise RejectedCondition("linear engine needs fitness with a declared "
                                "affine-quadratic form and G = 0")
    alpha, delta, _ = form
    c = -delta
    sig = model.params["sigma"]
    b = model.params["b"]
    n = model.dim
    a = sig @ sig.T
    if u0.kind != "gaussian":
        return _kernel_quadrature(u0, fitness, b, a, c, horizon, grid_size)
    m0, S0 = u0.params["mean"], u0.params["cov"]

    def moments(t):
        V = S0 + a * t
        kernel_mean = b * t - (a @ c) * t * t / 2.0
        return GaussianMoments(m0 + kernel_mean + t * (V @ c), V)

    def u(t, x):
        return u0.density(x) if t <= 0 else moments(t).density(x)

    def mass(t):
        cb, cac = float(c @ b), float(c @ a @ c)
        cm, cSc = float(c @ m0), float(c @ S0 @ c)
        return float(np.exp(-t * alpha + cb * t * t / 2.0 + cac * t ** 3 / 6.0
                            + t * cm + t * t * cSc / 2.0))

    mT = moments(horizon)
    grid = _auto_grid(float(mT.mean[0]), np.sqrt(float(mT.cov[0, 0]))) if n == 1 \
        else np.zeros(1)
    return Solution(engine="linear-analytic", horizon=horizon, shift=fitness.g_max,
                    u=u, mass=mass, grid=grid)


def _kernel_quadrature(u0: InitialLaw, fitness: FitnessFunction, b, a, c,
                       horizon: float, grid_size: int) -> Solution:
    """1D kernel route for constant (b, a = sigma sigma^T) and linear fitness
    with gradient c: e^{t g(x)} times u0 convolved with the Gaussian kernel
    of mean b t - a c t^2 / 2 and variance a t, formed in log space and
    normalized on a grid that covers the tilted law from t = 0 to T.

    u0's own nodes are the quadrature nodes: a grid density (trapezoid rule)
    or atoms.  The solution returns u0 at t <= 0, and h_0 = 1; an h_t past
    the largest float raises HorizonError.
    """
    if a.shape[0] != 1:
        raise RejectedCondition("non-Gaussian initial data supported in 1D only")
    if u0.kind == "grid-density":  # trapezoid rule on the law's grid
        nodes = u0.params["x"]
        wts = trapezoid_weights(nodes) * u0.params["values"]
        lo, hi = nodes.min(), nodes.max()
    elif u0.kind == "point-cloud":
        nodes, wts = u0.params["points"][:, 0], u0.params["weights"]
        span = max(nodes.max() - nodes.min(), 1.0)
        lo, hi = nodes.min() - 8 - span, nodes.max() + 8 + span
    else:
        raise RejectedCondition(f"kernel quadrature needs a grid-density or "
                                f"point-cloud law, not {u0.kind}")

    # at t the tilted law sits near the nodes shifted by b t + a c t^2 / 2;
    # the grid covers that shift over all of [0, T] (ends and vertex)
    a1, b1, ac = float(a[0, 0]), float(b[0]), float((a @ c)[0])
    sd_T = np.sqrt(a1 * horizon + 1.0)
    ts = [0.0, horizon] + ([min(max(-b1 / ac, 0.0), horizon)] if ac else [])
    shifts = [b1 * t + ac * t * t / 2.0 for t in ts]
    grid = np.linspace(lo - 10 * sd_T + min(shifts), hi + 10 * sd_T + max(shifts),
                       grid_size)

    def log_numerator(t, x):
        var = a1 * t
        r = float((b * t - (a @ c) * t * t / 2.0)[0])
        return (t * np.asarray(fitness.g(x), float) - 0.5 * np.log(2 * np.pi * var)
                + _gauss_kernel_sum(x, nodes, wts, 0.0, r=r, s=var))

    u = _kernel_density(u0, grid, log_numerator)[0]

    pos = wts > 0
    g_pos, w_pos = np.asarray(fitness.g(nodes[pos]), float), wts[pos]

    def mass(t):
        # e^{c b t^2 / 2 + c a c t^3 / 6} sum_j w_j e^{t g(y_j)}, in log space
        if t <= 0:
            return 1.0
        log_h = (scipy.special.logsumexp(t * g_pos, b=w_pos)
                 + float(c @ b) * t * t / 2.0 + float(c @ a @ c) * t ** 3 / 6.0)
        if not log_h < np.log(np.finfo(float).max):
            raise HorizonError(f"mass h_t overflows at t = {t:g}")
        return float(np.exp(log_h))

    return Solution(engine="linear-quadrature", horizon=horizon, shift=fitness.g_max,
                    u=u, mass=mass, grid=grid)


# ---------------------------------------------------------------------------
# Riccati machinery


class RiccatiError(EngineError):
    pass


def riccati_residual(H, a, B, G):
    return 2 * H @ a @ H - B.T @ H - H @ B - G


def solve_riccati(a, B, G) -> np.ndarray:
    """Stabilizing symmetric solution of 2 H a H - B^T H - H B - G = 0, the
    CARE B^T H + H B - H (2a) H + G = 0 with unit input matrix, by scipy's
    Schur-vector solver; exactly 0 where G = 0 and B is Hurwitz.  The
    residual must be within ``TOL["riccati_residual"]`` max(1, |G|) and
    B - 2 a H Hurwitz."""
    a = np.atleast_2d(np.asarray(a, float))
    B = np.atleast_2d(np.asarray(B, float))
    G = np.atleast_2d(np.asarray(G, float))
    n = a.shape[0]
    if np.linalg.eigvalsh(0.5 * (a + a.T)).min() <= 0:
        raise RiccatiError("a must be symmetric positive definite")
    if np.abs(G - G.T).max() > 1e-10:
        raise RiccatiError("G must be symmetric")
    if not G.any() and np.linalg.eigvals(B).real.max() < -1e-12:
        return np.zeros((n, n))
    try:
        H = scipy.linalg.solve_continuous_are(B, np.eye(n), G, np.linalg.inv(2 * a))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiError(f"CARE solver failed: {exc}") from exc
    res = np.linalg.norm(riccati_residual(H, a, B, G))
    if not res <= TOL["riccati_residual"] * max(1.0, np.linalg.norm(G)):
        raise RiccatiError(f"Riccati residual {res:.3e}")
    if not np.linalg.eigvals(B - 2 * a @ H).real.max() < 0:
        raise RiccatiError("no stabilizing solution: B - 2 a H is not Hurwitz")
    return H


def solve_linear_v(H, a, B, b, delta) -> np.ndarray:
    """Solve 2 H a v - B^T v - 2 H b - delta = 0 for v."""
    H = np.atleast_2d(np.asarray(H, float))
    a = np.atleast_2d(np.asarray(a, float))
    B = np.atleast_2d(np.asarray(B, float))
    b = np.atleast_1d(np.asarray(b, float))
    delta = np.atleast_1d(np.asarray(delta, float))
    A = 2 * H @ a - B.T
    rhs = 2 * H @ b + delta
    if np.linalg.cond(A) > 1e12:
        raise RiccatiError("linear system for v is singular")
    v = np.linalg.solve(A, rhs)
    if np.linalg.norm(A @ v - rhs) > TOL["linear_v_residual"] * max(1.0, np.linalg.norm(rhs)):
        raise RiccatiError("linear solve residual too large")
    return v


def affine_form(model: DiffusionModel, fitness: FitnessFunction):
    """(model, alpha, delta, G) for fitness -(alpha + delta^T x + x^T G x),
    with an arithmetic-BM or OU model restated as an affine-kind model."""
    form = fitness.declared_form()
    if form is None:
        raise RejectedCondition("fitness has no declared affine-quadratic form")
    if model.kind == "arithmetic-bm":
        model = DiffusionModel(domain=model.domain, kind="affine",
                               params={"b": model.params["b"],
                                       "B": np.zeros((model.dim, model.dim)),
                                       "sigma": model.params["sigma"]})
    elif model.kind == "ou":
        kp = model.params
        model = DiffusionModel(domain=model.domain, kind="affine",
                               params={"b": [kp["kappa"] * kp["theta"]],
                                       "B": [[-kp["kappa"]]],
                                       "sigma": [[kp["sigma"]]]})
    if model.kind != "affine":
        raise RejectedCondition("affine engine needs an affine-kind model")
    return (model, *form)


def affine_eigenpair(model: DiffusionModel, alpha: float, delta: np.ndarray,
                     G: np.ndarray):
    """Exponential-quadratic eigenpair phi = exp(-v^T x - x^T H x) for affine
    drift and quadratic decay fitness g(x) = -(alpha + delta^T x + x^T G x),
    as (pair, H, v); the arguments are those of ``affine_form``."""
    b = model.params["b"]
    B = model.params["B"]
    sig = model.params["sigma"]
    a = sig @ sig.T
    H = solve_riccati(a, B, G)
    v = solve_linear_v(H, a, B, b, delta)
    lam = float(alpha + np.trace(a @ H) + v @ b - 0.5 * v @ a @ v)

    def log_phi(x):
        x2 = np.atleast_2d(x) if np.ndim(x) > 0 else np.array([[x]])
        x2 = x2 if x2.shape[-1] == b.size else x2.reshape(-1, b.size)
        val = -(x2 @ v) - np.einsum("pi,ij,pj->p", x2, H, x2)
        return val if np.ndim(x) > 1 or b.size > 1 else val.reshape(np.shape(x))

    def phi(x):
        return np.exp(log_phi(x))

    def grad_log_phi(x):
        x2 = np.atleast_2d(x).reshape(-1, b.size)
        out = -(v + 2.0 * (x2 @ H))
        return out if b.size > 1 else out[:, 0].reshape(np.shape(x))

    def dphi(x):
        return phi(x) * grad_log_phi(x)

    def d2phi(x):
        x2 = np.atleast_2d(x).reshape(-1, b.size)
        gl = -(v + 2.0 * (x2 @ H))
        ph = np.exp(-(x2 @ v) - np.einsum("pi,ij,pj->p", x2, H, x2))
        hess = ph[:, None, None] * (gl[:, :, None] * gl[:, None, :] - 2.0 * H)
        return hess if b.size > 1 else hess[:, 0, 0].reshape(np.shape(x))

    return Eigenpair(lam=lam, phi=phi, dphi=dphi, source="affine-analytic",
                     log_phi=log_phi, grad_log_phi=grad_log_phi, d2phi=d2phi), H, v


def affine_engine(model: DiffusionModel, fitness: FitnessFunction,
                  u0: InitialLaw, horizon: float = 1.0,
                  grid_size: int = 2048) -> Solution:
    """Eigenfunction-tilted Gaussian solution for affine models with
    fitness -(alpha + delta^T x + x^T G x).

    B = 0, G = 0 (constant-coefficient model with linear fitness) admits no
    exponential-quadratic eigenfunction: that case is the linear engine's,
    and the engine returns ``linear_engine`` on the model restated as
    arithmetic BM with the same b and sigma, with ``meta["same_as"]``
    "linear" so that a caller holding both can use one for the other.
    """
    model, alpha, delta, G = affine_form(model, fitness)
    b, B, sig = model.params["b"], model.params["B"], model.params["sigma"]
    a = sig @ sig.T
    n = model.dim

    if not G.any() and not B.any():
        bm = DiffusionModel(domain=model.domain, kind="arithmetic-bm",
                            params={"b": b, "sigma": sig})
        sol = linear_engine(bm, fitness, u0, horizon, grid_size)
        return replace(sol, meta={**sol.meta, "same_as": "linear"})
    pair, H, v = affine_eigenpair(model, alpha, delta, G)
    Gamma = B - 2 * a @ H
    beta = b - a @ v

    def transition(t):
        return (matrix_exp(Gamma, t), expm_integral(Gamma, t) @ beta,
                covariance_integral(Gamma, a, t))

    if u0.kind == "gaussian":
        m0, S0 = u0.params["mean"], u0.params["cov"]

        def posterior(t):
            """The law at t and log h(t).  u0(y) phi(y) pbar(t, y; x) / phi(x) is
            Gaussian in (y, x); eliminating y leaves precision Lam and linear
            term eta in x, and h(t) is e^{-lam t} times its total mass."""
            A, r, S = transition(t)
            Sinv = np.linalg.inv(S)
            P = 2 * H + A.T @ Sinv @ A + np.linalg.inv(S0)
            Pinv = np.linalg.inv(P)
            M = A.T @ Sinv
            S0inv_m0 = np.linalg.solve(S0, m0)
            w = -v - A.T @ Sinv @ r + S0inv_m0
            Lam = Sinv - M.T @ Pinv @ M - 2 * H
            Lam = 0.5 * (Lam + Lam.T)
            eta = M.T @ Pinv @ w + Sinv @ r + v
            if np.linalg.eigvalsh(Lam).min() <= 0:
                raise HorizonError("tilted posterior covariance lost positivity")
            cov = np.linalg.inv(Lam)
            gm = GaussianMoments(cov @ eta, cov)
            log_det = sum(np.linalg.slogdet(m)[1] for m in (P, Lam, S0, S))
            log_mass = (-pair.lam * t - 0.5 * m0 @ S0inv_m0 - 0.5 * r @ Sinv @ r
                        + 0.5 * w @ Pinv @ w + 0.5 * eta @ gm.mean - 0.5 * log_det)
            return gm, float(log_mass)

        def u(t, x):
            return u0.density(x) if t <= 0 else posterior(t)[0].density(x)

        def mass(t):
            return 1.0 if t <= 0 else float(np.exp(posterior(t)[1]))

        gT = posterior(horizon)[0]
        grid = _auto_grid(float(gT.mean[0]), np.sqrt(float(gT.cov[0, 0]))) if n == 1 \
            else np.zeros(1)
        return Solution(engine="affine-analytic", horizon=horizon, shift=fitness.g_max,
                        u=u, mass=mass, grid=grid,
                        meta={"eigenpair": pair, "H": H, "v": v,
                              "Gamma": Gamma, "beta": beta})

    if n != 1:
        raise RejectedCondition("non-Gaussian initial data supported in 1D only")
    if u0.kind != "grid-density":
        raise RejectedCondition("affine engine needs gaussian or grid-density u0")
    ygrid, yvals = u0.params["x"], u0.params["values"]
    grid = _auto_grid(float(np.trapezoid(ygrid * yvals, ygrid)),
                      max(1.0, np.sqrt(float(a[0, 0]) * horizon)) + np.ptp(ygrid) / 4,
                      size=grid_size)

    wy = trapezoid_weights(ygrid)
    log_wy = pair.log_phi(ygrid) + np.log(np.maximum(yvals, 1e-300))

    def log_numerator(t, x):
        A, r, S = transition(t)
        s1 = float(S[0, 0])
        log_int = _gauss_kernel_sum(x, ygrid, wy, log_wy, float(A[0, 0]), float(r[0]), s1)
        return log_int - 0.5 * np.log(2 * np.pi * s1) - pair.log_phi(x)

    u, normalizer = _kernel_density(u0, grid, log_numerator)

    def mass(t):
        # h(t) = e^{-lam t} times the numerator's total mass, exp(m) z
        if t <= 0:
            return 1.0
        m, z = normalizer(t)
        return float(np.exp(m - pair.lam * t) * z)

    return Solution(engine="affine-quadrature", horizon=horizon, shift=fitness.g_max,
                    u=u, mass=mass, grid=grid, meta={"eigenpair": pair, "H": H, "v": v})


# ---------------------------------------------------------------------------
# generic eigen-tilted Monte Carlo engine


def tilted_extra_drift(model: DiffusionModel, pair: Eigenpair) -> DiffusionModel:
    """The eigen-tilted diffusion on the line: a "custom" model with the
    model's diffusion and its drift plus sigma^2 (log phi)'."""

    def drift(x):
        s = model.diffusion(x)[:, 0, 0]
        return model.drift(x) + (s * s * pair.grad_log_phi(x[:, 0]))[:, None]

    return DiffusionModel(model.domain, kind="custom", drift=drift,
                          diffusion=model.diffusion, m=model.m)


def _reweighted_initial(u0: InitialLaw, pair: Eigenpair, domain_kind: str) -> InitialLaw:
    """Initial law with density proportional to phi(y) u0(y)."""
    if u0.kind == "grid-density":
        xg, base = u0.params["x"], u0.params["values"]
    elif u0.kind == "gaussian":
        m0 = float(u0.params["mean"][0])
        s0 = float(np.sqrt(u0.params["cov"][0, 0]))
        lo, hi = m0 - 12 * s0, m0 + 12 * s0
        if domain_kind == "half-line":
            lo = max(lo, 1e-6)
        xg = np.linspace(lo, hi, 4096)
        base = u0.density(xg)
    elif u0.kind == "point-cloud":
        pts = u0.params["points"][:, 0]
        wts = u0.params["weights"] * np.exp(pair.log_phi(pts))
        return InitialLaw("point-cloud", {"points": pts[:, None],
                                          "weights": wts / wts.sum()})
    else:
        raise RejectedCondition("unsupported initial law for tilted engine")
    logw = pair.log_phi(xg) + np.log(np.maximum(base, 1e-300))
    vals = np.exp(logw - logw.max())
    total = np.trapezoid(vals, xg)
    return InitialLaw("grid-density", {"x": xg, "values": vals / total})


def checkpoint_density_u(u0: InitialLaw, density_at: Callable,
                         half_line: bool) -> Callable:
    """u(t, x) of a Monte Carlo engine: the initial density at t <= 0, else
    the grid density ``density_at(t)``; on the half line it is 0 for every
    x < 0, also between the two grid nodes around the wall."""
    def u(t, x):
        x = np.asarray(x, float)
        vals = u0.density(x) if t <= 0 else density_at(t)(x)
        return np.where(x < 0, 0.0, vals) if half_line else vals

    return u


def tilted_engine(model: DiffusionModel, fitness: FitnessFunction,
                  pair: Eigenpair, u0: InitialLaw, horizon: float,
                  n_paths: int = 100_000, seed: int = 0,
                  steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
                  checkpoints: int = 17, grid_size: int = 1024,
                  threads: int = 1) -> Solution:
    """Semi-analytic Monte Carlo engine: simulate the eigen-tilted SDE from
    the phi-reweighted initial law, estimate the terminal density by KDE
    and undo the tilt pointwise.

    For CIR with an exponential pair phi = e^{c x} (``log_slope`` c, as
    from ``spectral.cir_eigenpair``) the tilted drift a + (b + sigma^2 c) x
    is a CIR drift again, so the engine simulates the CIR model
    (a, b + sigma^2 c, sigma); ``sde.simulate`` draws it exactly at the
    stored nodes when 4a/sigma^2 is an integer.  Any other pair gives the
    "custom" model whose drift adds sigma sigma^T grad log phi to the model's
    (``tilted_extra_drift``), which ``sde.simulate`` steps by Euler-Maruyama.

    The density is available at the stored checkpoint times.  The mass
    factor is not produced here; use the particle system's estimator.
    A pair whose residual on the model exceeds
    ``TOL["eigenpair_residual_rel"]`` on 64 probe points is rejected.
    """
    if model.dim != 1:
        raise RejectedCondition("tilted engine densities are one-dimensional")
    res = eigenpair_residual(model, fitness, pair, probe_points(model.domain, 64))
    if not res <= TOL["eigenpair_residual_rel"]:
        raise RejectedCondition(f"eigenpair residual {res:.2e} on the model's probe box "
                                f"exceeds {TOL['eigenpair_residual_rel']:g}")
    law = _reweighted_initial(u0, pair, model.domain.kind)
    x0 = sample_initial(law, n_paths, seed, domain=model.domain)
    grid_t = TimeGrid.per_unit(horizon, steps_per_unit)
    store = grid_t.checkpoint_indices(checkpoints)
    if model.kind == "cir" and pair.log_slope is not None:
        p = model.params
        tilt = DiffusionModel(domain=model.domain, kind="cir", params={
            **p, "b": p["b"] + p["sigma"] ** 2 * pair.log_slope})
    else:
        tilt = tilted_extra_drift(model, pair)
    bundle = simulate(tilt, x0, grid_t, seed, store=store, threads=threads)

    cache: dict = {}

    def density_at(t):
        j = stored_index(bundle.times, t)
        if j in cache:
            return cache[j]
        pos = bundle.positions[:, j, 0]
        est = kde(pos, grid_size=grid_size)
        xg = est.x
        log_u = np.log(np.maximum(est.values, 1e-300)) - pair.log_phi(xg)
        clip = pair.log_phi(xg) < -700.0
        lost = est.values[clip].sum() * (xg[1] - xg[0]) if clip.any() else 0.0
        if lost > 1e-6:
            raise EngineError(f"phi underflow clipped mass {lost:.2e}")
        log_u[clip] = -np.inf
        vals = np.exp(log_u - log_u[np.isfinite(log_u)].max())
        if model.domain.kind == "half-line":
            vals = np.where(xg > 0, vals, 0.0)
        dens = GridDensity(xg, vals).normalize()
        cache[j] = dens
        return dens

    u = checkpoint_density_u(u0, density_at, model.domain.kind == "half-line")
    return Solution(engine="tilted-mc", horizon=horizon, shift=fitness.g_max, u=u,
                    mass=_no_mass, grid=density_at(horizon).x, times=bundle.times,
                    meta={"eigenpair": pair, "n_paths": n_paths, "scheme": bundle.scheme})


# ---------------------------------------------------------------------------
# residual probes


def eigenpair_residual(model: DiffusionModel, fitness: FitnessFunction,
                       pair: Eigenpair, points: np.ndarray) -> float:
    """Relative residual max |(A + g) phi + lam phi| / max |phi| on probes.

    Uses aligned grid differences for a grid-backed pair on the line, else
    the pair's analytic derivatives; a pair with neither is rejected.
    """
    g = fitness.g
    if pair.d2phi is None and (model.dim != 1 or pair.grid is None):
        raise EngineError(f"a {model.dim}-D eigenpair needs d2phi (or, on the line, a "
                          f"grid) for its residual (source {pair.source!r})")
    if model.dim != 1:
        pts = np.atleast_2d(points)
        res = []
        for x in pts:
            ph = float(np.asarray(pair.phi(x[None, :])).reshape(-1)[0])
            dp = np.asarray(pair.dphi(x[None, :])).reshape(-1)
            d2 = np.asarray(pair.d2phi(x[None, :])).reshape(len(x), len(x))
            sig = model.diffusion(x[None, :])[0]
            b = model.drift(x[None, :])[0]
            gval = float(np.asarray(g(x[None, :])).reshape(-1)[0])
            val = b @ dp + 0.5 * np.trace(sig @ sig.T @ d2) + gval * ph + pair.lam * ph
            res.append(abs(val) / max(abs(ph), 1e-300))
        return float(np.max(res))

    x = np.asarray(points, float).reshape(-1)
    if pair.grid is not None:
        h = pair.grid[1] - pair.grid[0]
        idx = np.clip(np.searchsorted(pair.grid, x), 1, len(pair.grid) - 2)
        ph = pair.phi_grid[idx]
        dp = (pair.phi_grid[idx + 1] - pair.phi_grid[idx - 1]) / (2 * h)
        d2 = (pair.phi_grid[idx + 1] - 2 * ph + pair.phi_grid[idx - 1]) / h ** 2
        xs = pair.grid[idx]
    else:
        xs = x
        ph, dp, d2 = pair.phi(xs), pair.dphi(xs), pair.d2phi(xs)
    bvec = model.drift(xs[:, None])[:, 0]
    svec = model.diffusion(xs[:, None])[:, 0, 0]
    res = bvec * dp + 0.5 * svec * svec * d2 + np.asarray(g(xs)) * ph + pair.lam * ph
    return float(np.abs(res).max() / np.abs(ph).max())
