"""Shared numerical kernels: quadrature, grid densities, weighted KDE,
matrix exponentials and covariance integrals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .constants import TOL


class NumericsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# grid densities


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative values tabulated on a strictly increasing 1D grid."""

    x: np.ndarray
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        x = np.asarray(self.x, float)
        v = np.asarray(self.values, float)
        if x.ndim != 1 or np.any(np.diff(x) <= 0):
            raise NumericsError("grid must be strictly increasing 1D")
        if v.shape != x.shape:
            raise NumericsError("values shape mismatch")
        if v.min() < -1e-13:
            raise NumericsError("density values must be nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", np.maximum(v, 0.0))
        if self.normalized:
            total = np.trapezoid(self.values, x)
            if abs(total - 1.0) > TOL["law_normalization"]:
                raise NumericsError(f"normalized density integrates to {total!r}")

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.x))

    def normalize(self) -> "GridDensity":
        total = self.integral()
        if total <= 0:
            raise NumericsError("cannot normalize zero density")
        return GridDensity(self.x, self.values / total, normalized=True)

    def __call__(self, xq: np.ndarray) -> np.ndarray:
        return np.interp(xq, self.x, self.values, left=0.0, right=0.0)


def stored_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time equal to t to 1e-9 relative; KeyError if none."""
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"time {t} not on the stored grid")
    return i


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, float))
        cov = np.atleast_2d(np.asarray(self.cov, float))
        if np.abs(cov - cov.T).max() > 1e-12:
            raise NumericsError("covariance not symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-12:
            raise NumericsError("covariance not PSD")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    def density(self, x: np.ndarray) -> np.ndarray:
        n = self.mean.size
        if n == 1:
            v = max(self.cov[0, 0], 1e-300)
            return np.exp(-0.5 * (np.asarray(x, float) - self.mean[0]) ** 2 / v) \
                / np.sqrt(2 * np.pi * v)
        d = np.atleast_2d(x) - self.mean
        sol = np.linalg.solve(self.cov, d.T).T
        q = np.einsum("...i,...i->...", d, sol)
        return np.exp(-0.5 * q) / np.sqrt((2 * np.pi) ** n * np.linalg.det(self.cov))


# ---------------------------------------------------------------------------
# quadrature


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights w such that w @ f is the trapezoid integral of f over x."""
    half = 0.5 * np.diff(x)
    return np.append(0.0, half) + np.append(half, 0.0)


_KERNEL_BLOCK_ROWS = 64  # rows of x per block: 2 MB of doubles against 4096 nodes


def _gauss_kernel_sum(x, y, w, log_w, A=1.0, r=0.0, s=1.0) -> np.ndarray:
    """log sum_j w_j exp(log_w[j] - (x_i - A y_j - r)^2 / (2 s)) for every x_i,
    formed in place a block of rows at a time, each row's largest exponent
    taken out before ``exp`` (log-sum-exp) and the rest reduced by one
    matrix-vector product per block."""
    xr = np.asarray(x, float) - r
    ay = A * np.asarray(y, float)
    out = np.empty(xr.size)
    for lo in range(0, xr.size, _KERNEL_BLOCK_ROWS):
        rows = slice(lo, lo + _KERNEL_BLOCK_ROWS)
        blk = np.subtract.outer(xr[rows], ay)
        np.square(blk, out=blk)
        blk *= -0.5 / s
        blk += log_w
        peak = blk.max(axis=1)
        blk -= peak[:, None]
        out[rows] = peak + np.log(np.exp(blk, out=blk) @ w)
    return out


# ---------------------------------------------------------------------------
# matrix kernels


def matrix_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling-and-squaring (scipy's Pade implementation)."""
    A = np.atleast_2d(np.asarray(A, float))
    if A.shape[0] != A.shape[1] or A.shape[0] > 16:
        raise NumericsError("matrix_exp expects square n <= 16")
    return scipy.linalg.expm(A * t)


def expm_integral(A: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(A u) du via the block-matrix exponential."""
    A = np.atleast_2d(np.asarray(A, float))
    n = A.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = A
    blk[:n, n:] = np.eye(n)
    return matrix_exp(blk, t)[:n, n:]


def covariance_integral(Gamma: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    """Sigma_t = int_0^t exp(Gamma u) a exp(Gamma^T u) du (van Loan block form)."""
    if t < 0:
        raise NumericsError("t must be >= 0")
    Gamma = np.atleast_2d(np.asarray(Gamma, float))
    a = np.atleast_2d(np.asarray(a, float))
    n = Gamma.shape[0]
    if t == 0.0:
        return np.zeros((n, n))
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -Gamma
    blk[:n, n:] = a
    blk[n:, n:] = Gamma.T
    E = matrix_exp(blk, t)
    sigma = E[n:, n:].T @ E[:n, n:]
    return 0.5 * (sigma + sigma.T)


# ---------------------------------------------------------------------------
# weighted kernel density estimation


def silverman_bandwidth(points: np.ndarray, weights: np.ndarray) -> float:
    """Silverman's rule with the effective sample size of the weights."""
    w = weights / weights.sum()
    n_eff = 1.0 / np.sum(w * w)
    mu = np.sum(w * points)
    sd = np.sqrt(max(np.sum(w * (points - mu) ** 2), 1e-300))
    order = np.argsort(points)
    cw = np.cumsum(w[order])
    q1 = np.interp(0.25, cw, points[order])
    q3 = np.interp(0.75, cw, points[order])
    spread = min(sd, (q3 - q1) / 1.34) if q3 > q1 else sd
    return 0.9 * spread * n_eff ** (-0.2)


_KDE_REFINE = 4  # lattice steps per grid step; binning error falls as its square


def kde(points: np.ndarray, weights: Optional[np.ndarray] = None,
        bandwidth: Optional[float] = None, grid: Optional[np.ndarray] = None,
        grid_size: int = 1024) -> GridDensity:
    """Weighted Gaussian-kernel density on a uniform grid, by default one
    that spans the points plus four bandwidths.

    The weights are linearly binned onto a lattice at a quarter of the grid
    spacing, extended over the points within eight bandwidths of the grid,
    and convolved with the kernel sampled at the lattice lags by one real
    FFT (Silverman, AS 176, 1982; Wand, JCGS 1994).  The binning error is of
    order (lattice spacing / bandwidth)^2, and points and kernel terms beyond
    eight bandwidths (below exp(-32) of the peak) are dropped: on the default
    grid of 2e4 points the result is within 1e-5 of the direct kernel sum,
    relative to its maximum.

    The output integrates to one; the weights only need to be nonnegative
    with a positive sum.  Equal points with stacked weight and duplicated
    points give identical results.
    """
    pts = np.asarray(points, float).reshape(-1)
    if weights is None:
        weights = np.full(pts.size, 1.0 / pts.size)
    w = np.asarray(weights, float)
    if w.min() < 0:
        raise NumericsError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise NumericsError("weights sum to zero")
    w = w / total
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(pts, w)
    if h <= 0:
        raise NumericsError("bandwidth must be positive")
    if grid is None:
        grid = np.linspace(pts.min() - 4 * h, pts.max() + 4 * h, grid_size)
    grid = np.asarray(grid, float)
    n = grid.size
    dx = (grid[-1] - grid[0]) / (n - 1) if n > 1 else 0.0
    if not dx > 0 or np.abs(grid - grid[0] - dx * np.arange(n)).max() > 1e-6 * dx:
        raise NumericsError("kde needs a uniform increasing grid")

    # lattice node m sits at grid[0] + m dx / _KDE_REFINE, so every grid node
    # is a lattice node; the lattice spans the grid and the points, but stops
    # `reach` nodes beyond the grid, where a point's kernel no longer touches
    # any grid node
    step = dx / _KDE_REFINE
    last = _KDE_REFINE * (n - 1)
    reach = int(np.ceil(8.0 * h / step))
    s = (pts - grid[0]) / step
    lo = max(-reach, min(0, int(np.floor(s.min()))))
    hi = min(last + reach, max(last, int(np.ceil(s.max()))))
    inside = (s >= lo) & (s <= hi)
    s, w = s[inside] - lo, w[inside]
    left = np.minimum(np.floor(s), hi - lo - 1).astype(np.intp)
    frac = s - left
    size = hi - lo + 1
    binned = np.bincount(left, w * (1.0 - frac), minlength=size) \
        + np.bincount(left + 1, w * frac, minlength=size)

    lags = np.arange(-reach, reach + 1) * (step / h)
    kernel = np.exp(-0.5 * lags * lags) / (h * np.sqrt(2 * np.pi))
    nfft = 1 << (size + 2 * reach - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(binned, nfft) * np.fft.rfft(kernel, nfft), nfft)
    vals = conv[reach - lo:reach - lo + last + 1:_KDE_REFINE]
    return GridDensity(grid, np.maximum(vals, 0.0)).normalize()
