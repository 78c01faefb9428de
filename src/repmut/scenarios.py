"""Canonical scenario library.

One scenario per closed-form family served by the engines: drifted
Brownian motion with linear fitness, OU with linear decay fitness, CIR
with linear decay fitness on the half line, and harmonic confining
fitness.  Factories below also build the fitness/model/law objects used
throughout the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DiffusionModel, DomainSpec, FitnessFunction, InitialLaw


def bm_model(b=0.0, sigma=1.0, n=1) -> DiffusionModel:
    return DiffusionModel(domain=DomainSpec("full-space", n), kind="arithmetic-bm",
                          params={"b": b, "sigma": sigma})


def ou_model(kappa=1.0, theta=0.0, sigma=1.0) -> DiffusionModel:
    return DiffusionModel(domain=DomainSpec("full-space", 1), kind="ou",
                          params={"kappa": kappa, "theta": theta, "sigma": sigma})


def cir_model(a=1.0, b=-1.0, sigma=1.0) -> DiffusionModel:
    return DiffusionModel(domain=DomainSpec("half-line", 1), kind="cir",
                          params={"a": a, "b": b, "sigma": sigma})


def linear_fitness(slope=1.0, g_max=2.0, bound_lo=-10.0) -> FitnessFunction:
    """g(x) = slope * x with a declared effective shift bound.

    Linear fitness has no global upper bound, so g_max is a scenario
    constant and the bound probe runs on the region where the scenario
    actually lives.  Slope 0 is pure mutation (g = 0), probed on
    [bound_lo, -bound_lo].
    """
    slope = float(slope)
    edge = g_max / slope if slope else bound_lo
    lo, hi = (bound_lo, edge) if slope > 0 else (edge, -bound_lo)
    return FitnessFunction(
        g=lambda x: slope * np.asarray(x, float),
        g_max=float(g_max),
        bound_region=(np.array([lo]), np.array([hi])),
        structure={"kind": "affine-quadratic", "alpha": 0.0,
                   "delta": [-slope], "G": [[0.0]]})


def quadratic_decay_fitness(scale=1.0) -> FitnessFunction:
    """g(x) = -scale * x^2; globally bounded above by zero."""
    scale = float(scale)
    return FitnessFunction(
        g=lambda x: -scale * np.asarray(x, float) ** 2,
        g_max=0.0,
        structure={"kind": "affine-quadratic", "alpha": 0.0,
                   "delta": [0.0], "G": [[scale]]})


def affine_quadratic_fitness(alpha, delta, G, g_max: Optional[float] = None,
                             bound_region=None) -> FitnessFunction:
    """g(x) = -(alpha + delta^T x + x^T G x) for PSD G."""
    delta_v = np.atleast_1d(np.asarray(delta, float))
    G_m = np.atleast_2d(np.asarray(G, float))
    n = delta_v.size

    def g(x):
        x2 = np.asarray(x, float)
        if n == 1:
            xv = x2
            return -(alpha + delta_v[0] * xv + G_m[0, 0] * xv * xv)
        return -(alpha + x2 @ delta_v + np.einsum("pi,ij,pj->p", x2, G_m, x2))

    if g_max is None:
        eig = np.linalg.eigvalsh(G_m)
        if eig.min() > 0:
            xstar = -0.5 * np.linalg.solve(G_m, delta_v)
            g_max = float(-(alpha + delta_v @ xstar + xstar @ G_m @ xstar))
        elif not delta_v.any():
            g_max = float(-alpha)
        else:
            raise ValueError("g is unbounded above; pass g_max explicitly")
    return FitnessFunction(g=g, g_max=float(g_max), bound_region=bound_region,
                           structure={"kind": "affine-quadratic", "alpha": float(alpha),
                                      "delta": delta_v.tolist(),
                                      "G": G_m.tolist()})


def gamma_like_law(shape=2.0, rate=2.0, half_width=12.0, nodes=4096) -> InitialLaw:
    """Grid-density law on the half line with x^(shape-1) exp(-rate x) profile."""
    x = np.linspace(half_width / nodes * 0.5, half_width, nodes)
    vals = x ** (shape - 1.0) * np.exp(-rate * x)
    vals /= np.trapezoid(vals, x)
    return InitialLaw("grid-density", {"x": x, "values": vals})


@dataclass(frozen=True)
class Scenario:
    name: str
    model: DiffusionModel
    fitness: FitnessFunction
    initial_law: InitialLaw
    horizon: float
    engines: tuple


def linear_bm_scenario(m0=0.0, s0=1.0, g_max=2.0, horizon=1.0) -> Scenario:
    return Scenario(
        name="linear-bm",
        model=bm_model(b=0.0, sigma=np.sqrt(2.0)),
        fitness=linear_fitness(slope=1.0, g_max=g_max),
        initial_law=InitialLaw("gaussian", {"mean": [m0], "cov": [[s0 ** 2]]}),
        horizon=horizon,
        engines=("linear", "affine", "pde", "particle"))


def ou_linear_scenario(kappa=1.0, theta=0.0, sigma=1.0, horizon=1.0) -> Scenario:
    return Scenario(
        name="ou-linear",
        model=ou_model(kappa, theta, sigma),
        fitness=linear_fitness(slope=-1.0, g_max=4.0),
        initial_law=InitialLaw("gaussian", {"mean": [0.0], "cov": [[0.25]]}),
        horizon=horizon,
        engines=("affine", "tilted", "pde", "particle"))


def cir_linear_scenario(a=1.0, b=-1.0, sigma=1.0, horizon=0.5) -> Scenario:
    return Scenario(
        name="cir-linear",
        model=cir_model(a, b, sigma),
        fitness=FitnessFunction(g=lambda x: -np.asarray(x, float), g_max=0.0),
        initial_law=gamma_like_law(),
        horizon=horizon,
        engines=("tilted", "pde", "particle"))


def harmonic_scenario(sigma_gen=1.0, horizon=1.0) -> Scenario:
    """Confining quadratic decay; generator sigma_gen^2 d^2/dx^2."""
    return Scenario(
        name="harmonic-confining",
        model=bm_model(b=0.0, sigma=np.sqrt(2.0) * sigma_gen),
        fitness=quadratic_decay_fitness(),
        initial_law=InitialLaw("gaussian", {"mean": [0.0], "cov": [[0.25]]}),
        horizon=horizon,
        engines=("tilted", "pde", "particle"))


CANONICAL = {
    "linear-bm": linear_bm_scenario,
    "ou-linear": ou_linear_scenario,
    "cir-linear": cir_linear_scenario,
    "harmonic-confining": harmonic_scenario,
}
