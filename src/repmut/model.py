"""Diffusion models, fitness functions and initial laws.

Everything here is immutable after construction.  Construction fails hard
on conditions that make the downstream simulation meaningless (Feller
violation, singular diffusion).  The fitness bound check is probe-based:
g <= g_max is evaluated on sampled points and reported, never proven.

The probe points are a Halton sequence with Owen's random digit
permutations (A. B. Owen, "A randomized Halton algorithm in R",
arXiv:1706.02808, 2017), written here in numpy: ``halton`` reproduces
SciPy's ``qmc.Halton(d, scramble=True, seed=seed).random(n)`` bit for bit,
so the package never loads SciPy's statistics module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .numerics import GaussianMoments, NumericsError


class ModelError(ValueError):
    """Hard model validation failure."""


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class DomainSpec:
    """Open domain the state lives in: full space or half line."""

    kind: str  # "full-space" | "half-line"
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("full-space", "half-line"):
            raise ModelError(f"unknown domain kind {self.kind!r}")
        if self.dim < 1:
            raise ModelError("dimension must be positive")
        if self.kind == "half-line" and self.dim != 1:
            raise ModelError("half-line domain requires dim == 1")

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.kind == "full-space":
            return np.isfinite(x).all(axis=1)
        return np.isfinite(x).all(axis=1) & (x[:, 0] > 0.0)

    def probe_box(self):
        """Finite box for probe sampling: [1e-3, 10] on the half-line, else [-10, 10]^dim."""
        if self.kind == "half-line":
            return np.array([1e-3]), np.array([10.0])
        return np.full(self.dim, -10.0), np.full(self.dim, 10.0)


def halton(d: int, n: int, seed: int = 0) -> np.ndarray:
    """First n points of the Owen-scrambled Halton sequence in [0, 1)^d.

    Axis i is the van der Corput sequence in the i-th prime b.  Each of its
    ceil(54 / log2 b) - 1 digits, the ones a double resolves, goes through
    its own random permutation of range(b); the permutations are shuffles
    by one ``np.random.default_rng(seed)``, axis by axis.  The digits are
    summed in SciPy's order, so the points equal
    ``qmc.Halton(d, scramble=True, seed=seed).random(n)``.
    """
    gen = np.random.default_rng(seed)
    primes = []
    while len(primes) < d:
        b = primes[-1] + 1 if primes else 2
        while any(b % p == 0 for p in primes):
            b += 1
        primes.append(b)
    out = np.zeros((n, d))
    for axis, b in enumerate(primes):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            gen.shuffle(perm)
        k, b2r = np.arange(n), 1.0 / b
        for perm in perms:
            out[:, axis] += perm[k % b] * b2r
            k //= b
            b2r /= b
    return out


def probe_points(domain: DomainSpec, count: int, seed: int = 0,
                 box: Optional[tuple] = None) -> np.ndarray:
    """Quasi-random probe points inside the domain's probe box: the
    Owen-scrambled Halton points of ``halton`` (Owen, arXiv:1706.02808),
    mapped affinely onto the box."""
    lo, hi = domain.probe_box() if box is None else (np.asarray(box[0], float), np.asarray(box[1], float))
    return lo + halton(domain.dim, count, seed) * (hi - lo)


# ---------------------------------------------------------------------------
# diffusion models


@dataclass(frozen=True)
class DiffusionModel:
    """Drift/diffusion pair (b, sigma) on a domain.

    ``kind`` selects exact-update and positivity schemes downstream:
    "arithmetic-bm" and "ou" get exact Gaussian updates, "cir" the
    full-truncation scheme.  ``params`` carries the named coefficients for
    those kinds; ``drift``/``diffusion`` callables are derived from them
    (or user supplied for "custom").
    """

    domain: DomainSpec
    kind: str  # arithmetic-bm | ou | cir | affine | custom
    params: dict = field(default_factory=dict)
    drift: Callable[[np.ndarray], np.ndarray] = None
    diffusion: Callable[[np.ndarray], np.ndarray] = None
    m: int = 1  # driving Brownian dimension

    def __post_init__(self):
        n = self.domain.dim
        p = dict(self.params)
        if self.kind == "arithmetic-bm":
            b = np.broadcast_to(np.asarray(p.get("b", 0.0), float), (n,)).copy()
            sig = np.atleast_2d(np.asarray(p.get("sigma", 1.0), float))
            if sig.shape == (1, 1) and n > 1:
                sig = np.eye(n) * sig[0, 0]
            object.__setattr__(self, "m", sig.shape[1])
            object.__setattr__(self, "drift", lambda x: np.broadcast_to(b, x.shape))
            object.__setattr__(self, "diffusion", lambda x: np.broadcast_to(sig, x.shape[:-1] + sig.shape))
            p["b"], p["sigma"] = b, sig
        elif self.kind == "ou":
            kappa = float(p["kappa"])
            theta = float(p.get("theta", 0.0))
            sig = float(p["sigma"])
            if n != 1:
                raise ModelError("ou kind is one-dimensional; use affine for n > 1")
            if kappa == 0.0 or not np.isfinite(kappa):
                raise ModelError(f"ou kind needs a finite nonzero kappa, got {kappa!r}; "
                                 "a model without mean reversion is kind 'arithmetic-bm'")
            object.__setattr__(self, "m", 1)
            object.__setattr__(self, "drift", lambda x: kappa * (theta - x))
            object.__setattr__(self, "diffusion",
                               lambda x: np.broadcast_to(np.array([[sig]]), x.shape[:-1] + (1, 1)))
        elif self.kind == "cir":
            a, bb, sig = float(p["a"]), float(p["b"]), float(p["sigma"])
            if self.domain.kind != "half-line":
                raise ModelError("cir kind requires the half-line domain")
            if 2.0 * a < sig * sig:
                raise ModelError(
                    f"Feller condition violated: 2a = {2*a:g} < sigma^2 = {sig*sig:g}")
            object.__setattr__(self, "m", 1)
            object.__setattr__(self, "drift", lambda x: a + bb * x)
            object.__setattr__(self, "diffusion",
                               lambda x: (sig * np.sqrt(np.maximum(x, 0.0)))[..., None])
        elif self.kind == "affine":
            b = np.broadcast_to(np.asarray(p["b"], float), (n,)).copy()
            B = np.asarray(p["B"], float).reshape(n, n)
            sig = np.asarray(p["sigma"], float).reshape(n, -1)
            a = sig @ sig.T
            if np.linalg.eigvalsh(a).min() <= 0:
                raise ModelError("affine kind needs sigma*sigma^T strictly positive definite")
            object.__setattr__(self, "m", sig.shape[1])
            object.__setattr__(self, "drift", lambda x: b + x @ B.T)
            object.__setattr__(self, "diffusion", lambda x: np.broadcast_to(sig, x.shape[:-1] + sig.shape))
            p["b"], p["B"], p["sigma"] = b, B, sig
        elif self.kind == "custom":
            if self.drift is None or self.diffusion is None:
                raise ModelError("custom kind requires drift and diffusion callables")
        else:
            raise ModelError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "params", p)

    @property
    def dim(self) -> int:
        return self.domain.dim


# ---------------------------------------------------------------------------
# fitness functions


@dataclass(frozen=True)
class FitnessFunction:
    """Fitness g with its shift bound.

    ``g_max`` is the scenario's shift constant: weights downstream integrate
    g - g_max.  For fitness functions that are genuinely bounded above it
    should be a true upper bound; for scenarios with linearly growing
    fitness it is a declared effective bound, validated only on
    ``bound_region``.
    """

    g: Callable[[np.ndarray], np.ndarray]
    g_max: float
    bound_region: Optional[tuple] = None  # (lo, hi) arrays for probing
    structure: Optional[dict] = None      # declared form; read through declared_form

    def __post_init__(self):
        if not np.isfinite(self.g_max):
            raise ModelError("g_max must be finite")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.g(x)

    def declared_form(self) -> Optional[tuple]:
        """(alpha, delta, G) of a fitness declared affine-quadratic,
        g(x) = -(alpha + delta^T x + x^T G x), as a float, a vector and a
        matrix; None when no such form is declared."""
        st = self.structure
        if not st or st.get("kind") != "affine-quadratic":
            return None
        return (float(st["alpha"]), np.atleast_1d(np.asarray(st["delta"], float)),
                np.atleast_2d(np.asarray(st["G"], float)))


def check_fitness_bound(fitness: FitnessFunction, domain: DomainSpec,
                        count: int = 1000, seed: int = 0) -> dict:
    """Probes g <= g_max on quasi-random points of the declared region."""
    pts = probe_points(domain, count, seed=seed, box=fitness.bound_region)
    vals = np.asarray(fitness.g(pts if domain.dim > 1 else pts[:, 0]))
    over = vals > fitness.g_max
    return {
        "count": count,
        "violations": int(over.sum()),
        "worst_excess": float(np.maximum(vals - fitness.g_max, 0.0).max()),
    }


# ---------------------------------------------------------------------------
# initial laws


@dataclass(frozen=True)
class InitialLaw:
    """Sampleable initial distribution with an optional density.

    Kinds: gaussian(mean, cov), mixture of gaussians, point-cloud ((N, d) or,
    in 1-D, (N,) points with given weights, or equal ones if None) and
    grid-density (1D tabulated density, sampled by inverse CDF).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        p = dict(self.params)
        if self.kind == "gaussian":
            mean = np.atleast_1d(np.asarray(p["mean"], float))
            cov = np.atleast_2d(np.asarray(p["cov"], float))
            if cov.shape != (mean.size, mean.size):
                raise ModelError("gaussian cov shape mismatch")
            try:  # symmetric, so that sampling (one triangle) and density agree
                p["_moments"] = GaussianMoments(mean, cov)
            except NumericsError as exc:
                raise ModelError(f"gaussian {exc}") from None
            w, v = np.linalg.eigh(cov)
            p["mean"], p["cov"] = mean, cov
            p["_root"] = v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T
        elif self.kind == "mixture":
            comps = p["components"]  # list of (weight, mean, var), 1D
            wts = np.array([c[0] for c in comps], float)
            if wts.min() < 0 or abs(wts.sum() - 1.0) > 1e-12:
                raise ModelError("mixture weights must be a probability vector")
        elif self.kind == "point-cloud":
            pts = np.asarray(p["points"], float)  # (N, d), or (N,) in 1-D
            pts = pts[:, None] if pts.ndim == 1 else pts
            if pts.ndim != 2 or pts.size == 0:
                raise ModelError(f"point-cloud points of shape {pts.shape}; need (N, d) "
                                 f"or (N,) with N, d >= 1")
            wts = p.get("weights")  # None: equal weights
            wts = np.full(len(pts), 1.0 / len(pts)) if wts is None else np.asarray(wts, float)
            if wts.shape != (len(pts),) or wts.min() < 0 or abs(wts.sum() - 1.0) > 1e-9:
                raise ModelError("point-cloud weights must be a probability vector, "
                                 "one per point")
            p["points"], p["weights"] = pts, wts
        elif self.kind == "grid-density":
            x = np.asarray(p["x"], float)
            f = np.asarray(p["values"], float)
            if np.any(np.diff(x) <= 0):
                raise ModelError("grid must be strictly increasing")
            if f.min() < 0:
                raise ModelError("density values must be nonnegative")
            total = np.trapezoid(f, x)
            if abs(total - 1.0) > 1e-6:
                f = f / total
            p["x"], p["values"] = x, f
        else:
            raise ModelError(f"unknown initial law kind {self.kind!r}")
        object.__setattr__(self, "params", p)

    @property
    def dim(self) -> int:
        if self.kind == "gaussian":
            return self.params["mean"].size
        if self.kind == "point-cloud":
            return self.params["points"].shape[1]
        return 1

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if self.kind == "gaussian":
            return self.params["_moments"].density(x)
        if self.kind == "mixture":
            out = np.zeros_like(x, dtype=float)
            for w, m, v in self.params["components"]:
                out += w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)
            return out
        if self.kind == "grid-density":
            return np.interp(x, self.params["x"], self.params["values"],
                             left=0.0, right=0.0)
        raise ModelError(f"{self.kind} law has no density evaluator")


def sample_initial(law: InitialLaw, count: int, seed: int,
                   domain: Optional[DomainSpec] = None) -> np.ndarray:
    """Deterministic i.i.d. sample of the law; shape (count, dim).

    The draw for index i depends only on (seed, i), so prefixes of the
    sample agree across different counts.  When ``domain`` is given the
    configuration is rejected if the law can put mass outside it.
    """
    if count < 1:
        raise ModelError("count must be >= 1")
    if domain is not None:
        _check_law_domain(law, domain)
    ids = np.arange(count, dtype=np.uint64)
    if law.kind == "gaussian":
        mean, root = law.params["mean"], law.params["_root"]
        z = rng.normals(seed, ids, 0, mean.size, stream=rng.STREAM_INIT)
        return mean + z @ root.T
    if law.kind == "mixture":
        comps = law.params["components"]
        wts = np.array([c[0] for c in comps])
        means = np.array([c[1] for c in comps])
        sds = np.sqrt(np.array([c[2] for c in comps]))
        u = rng.uniforms(seed, ids, 0, 1, stream=rng.STREAM_INIT)[:, 0]
        idx = np.searchsorted(np.cumsum(wts), u, side="right").clip(0, len(comps) - 1)
        z = rng.normals(seed, ids, 1, 1, stream=rng.STREAM_INIT)[:, 0]
        return (means[idx] + sds[idx] * z)[:, None]
    if law.kind == "point-cloud":
        pts, wts = law.params["points"], law.params["weights"]
        if count == pts.shape[0] and np.allclose(wts, 1.0 / count):
            return pts.copy()
        u = rng.uniforms(seed, ids, 0, 1, stream=rng.STREAM_INIT)[:, 0]
        idx = np.searchsorted(np.cumsum(wts), u, side="right").clip(0, pts.shape[0] - 1)
        return pts[idx]
    if law.kind == "grid-density":
        x, f = law.params["x"], law.params["values"]
        cdf = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(x))])
        cdf /= cdf[-1]
        u = rng.uniforms(seed, ids, 0, 1, stream=rng.STREAM_INIT)[:, 0]
        return np.interp(u, cdf, x)[:, None]
    raise ModelError(f"cannot sample law kind {law.kind!r}")


def _check_law_domain(law: InitialLaw, domain: DomainSpec):
    if domain.kind == "full-space":
        return
    if law.kind == "gaussian" or law.kind == "mixture":
        raise ModelError(
            f"{law.kind} law puts mass outside the {domain.kind} domain; "
            "use a grid-density or point-cloud law")
    if law.kind == "point-cloud":
        if not domain.contains(law.params["points"]).all():
            raise ModelError("point-cloud atoms outside the domain")
    if law.kind == "grid-density":
        x = law.params["x"]
        pts = x[law.params["values"] > 0]
        if not domain.contains(pts[:, None]).all():
            raise ModelError("grid-density support outside the domain")
