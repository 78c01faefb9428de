"""Eigenpairs for the martingale-extraction engine.

Two concrete sources: the principal eigenpair of the CIR model with linear
decay fitness, the closed exponential e^{c x} at the largest eigenvalue,
whose slope makes the tilted process a CIR process again (sampled exactly
by ``closed_form.tilted_engine``); and finite-difference ground states of
the Schrodinger operator for polynomial confining fitness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .closed_form import Eigenpair
from .constants import TOL
from .model import ModelError


class SpectralError(RuntimeError):
    pass


class EnlargeGridError(SpectralError):
    """Ground state carries mass at the truncation boundary."""

    def __init__(self, msg, suggested_half_width):
        super().__init__(msg)
        self.suggested_half_width = suggested_half_width


# ---------------------------------------------------------------------------
# CIR eigenpair


def cir_eigenpair(a: float, b: float, sigma: float) -> Eigenpair:
    """Principal eigenpair of the CIR generator plus linear decay fitness
    g(x) = -x: the Kummer eigenfunction e^{c x} M(alpha, beta, q x) at the
    largest eigenvalue lam_max = a (gamma - kappa) / sigma^2, where alpha = 0
    and M = 1, so phi = e^{c x} with c = (kappa - gamma) / sigma^2, kappa = -b,
    gamma = sqrt(kappa^2 + 2 sigma^2).  Only this pair tilts to a recurrent
    process, a CIR process again (``log_slope`` c)."""
    if 2.0 * a < sigma * sigma:
        raise ModelError("Feller condition violated")
    kappa, gamma = -b, np.sqrt(b ** 2 + 2.0 * sigma ** 2)
    c = (kappa - gamma) / sigma ** 2

    def exp_phi(x):
        return np.exp(c * np.asarray(x, float))

    return Eigenpair(lam=float(a * (gamma - kappa) / sigma ** 2), source="kummer",
                     phi=exp_phi, dphi=lambda x: exp_phi(x) * c,
                     log_phi=lambda x: c * np.asarray(x, float),
                     grad_log_phi=lambda x: np.full(np.shape(x), c),
                     d2phi=lambda x: exp_phi(x) * (c * c), log_slope=float(c))


# ---------------------------------------------------------------------------
# Schrodinger ground states


@dataclass(frozen=True)
class SchrodingerProblem:
    """Ground-state problem -sigma^2 phi'' - g phi = lambda phi on [-L, L]."""

    sigma: float
    g: Callable[[np.ndarray], np.ndarray]
    half_width: float
    nodes: int = 2048

    def __post_init__(self):
        if self.sigma <= 0:
            raise SpectralError("sigma must be positive")
        if self.nodes < 256:
            raise SpectralError("need at least 256 grid nodes")
        gl = float(self.g(np.array([-self.half_width]))[0])
        gr = float(self.g(np.array([self.half_width]))[0])
        g0 = float(self.g(np.array([0.0]))[0])
        if not (gl < g0 - 1.0 and gr < g0 - 1.0):
            raise SpectralError("fitness does not look confining at the grid ends")


def schrodinger_ground_state(problem: SchrodingerProblem) -> Eigenpair:
    """Smallest eigenpair by shifted inverse iteration on the tridiagonal
    finite-difference matrix with Dirichlet ends.

    The fitness is shifted so g <= 0 before discretization (recorded and
    undone in the returned eigenvalue).  Fails with a grid-enlargement hint
    when the ground state touches the boundary.
    """
    L, M, sig2 = problem.half_width, problem.nodes, problem.sigma ** 2
    x = np.linspace(-L, L, M + 2)[1:-1]
    h = x[1] - x[0]
    gvals = np.asarray(problem.g(x), float)
    shift = max(gvals.max(), 0.0)
    potential = -(gvals - shift)  # >= 0 after the up-shift

    diag = 2.0 * sig2 / h ** 2 + potential
    off = np.full(M - 1, -sig2 / h ** 2)
    # banded Cholesky of the SPD matrix, reused across iterations
    ab = np.zeros((2, M))
    ab[0, :] = diag
    ab[1, :-1] = off
    cb = scipy.linalg.cholesky_banded(ab, lower=True)

    v = np.exp(-x ** 2 / (2.0 * max(L / 4.0, 1.0)))
    v /= np.linalg.norm(v)
    lam_shifted = np.inf
    for _ in range(500):
        w = scipy.linalg.cho_solve_banded((cb, True), v)
        w /= np.linalg.norm(w)
        av = diag * w
        av[:-1] += off * w[1:]
        av[1:] += off * w[:-1]
        rho = float(w @ av)
        res = np.linalg.norm(av - rho * w)
        v = w
        lam_shifted = rho
        if res <= 1e-12 * max(abs(rho), 1.0):
            break

    if v.sum() < 0:
        v = -v
    if np.any(v <= 0):
        # Perron ground state must be interior-positive
        if np.any(v[5:-5] <= 0):
            raise SpectralError("ground state changed sign on the interior grid")
        v = np.maximum(v, 1e-300)

    boundary = max(abs(v[0]), abs(v[-1])) / abs(v).max()
    if boundary > TOL["schrodinger_boundary_mass"]:
        raise EnlargeGridError(
            f"boundary amplitude {boundary:.2e} exceeds "
            f"{TOL['schrodinger_boundary_mass']:g}; enlarge the grid",
            suggested_half_width=1.5 * L)

    phi_grid = v / np.sqrt(h)  # L2-normalized on the line
    dphi_grid = np.gradient(phi_grid, h)
    log_grid = np.log(np.maximum(phi_grid, 1e-300))
    gl_grid = dphi_grid / np.maximum(phi_grid, 1e-300)

    def phi(xq):
        return np.interp(xq, x, phi_grid, left=0.0, right=0.0)

    def dphi(xq):
        return np.interp(xq, x, dphi_grid, left=0.0, right=0.0)

    def log_phi(xq):
        return np.interp(xq, x, log_grid)

    def grad_log_phi(xq):
        xq = np.asarray(xq, float)
        out = np.interp(xq, x, gl_grid)
        # linear continuation beyond the grid from the end slopes
        lo, hi = x[0], x[-1]
        slope_lo = (gl_grid[1] - gl_grid[0]) / h
        slope_hi = (gl_grid[-1] - gl_grid[-2]) / h
        out = np.where(xq < lo, gl_grid[0] + slope_lo * (xq - lo), out)
        out = np.where(xq > hi, gl_grid[-1] + slope_hi * (xq - hi), out)
        return out

    pair = Eigenpair(lam=float(lam_shifted - shift), phi=phi, dphi=dphi,
                     source="schrodinger-grid",
                     log_phi=log_phi, grad_log_phi=grad_log_phi,
                     grid=x, phi_grid=phi_grid)
    return pair
