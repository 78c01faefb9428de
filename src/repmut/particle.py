"""Weighted particle system: N independent diffusions with exponential
fitness weights, yielding normalized and tilted empirical measures and the
total-mass estimator.

Weights are kept in log space throughout; the normalization uses
log-sum-exp so the fitness shift cancels exactly in normalized measures.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .constants import DEFAULT_CHECKPOINTS
from .model import DiffusionModel, FitnessFunction, InitialLaw, sample_initial
from .numerics import stored_index
from .report import atomic_open, format_e18, join_fields
from .sde import PathBundle, TimeGrid, simulate


# ensemble.csv rows formatted per write: bounds the text held in memory
CSV_CHUNK_ROWS = 8192


class ParticleError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeightedParticleEnsemble:
    """Particle positions and accumulated log-weights at stored nodes."""

    times: np.ndarray        # (S,)
    positions: np.ndarray    # (N, S, n)
    logw: np.ndarray         # (N, S); integral of g - shift, zero at t0
    shift: float
    seed: int

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    def to_csv(self, path):
        """Rows (particle, t, x0.., logw), particle-major, byte for byte as
        np.savetxt's "%.18e" writes them, to a temporary file that replaces
        ``path``.  Every number's text comes from ``format_e18`` (each particle
        index and time once per call), and each CSV_CHUNK_ROWS rows are laid
        out by ``join_fields``."""
        n, s, d = self.positions.shape
        index_text, time_text = format_e18(np.arange(n)), format_e18(self.times)
        columns = [*self.positions.reshape(n * s, d).T, self.logw.ravel()]
        with atomic_open(path) as fh:
            fh.write(("particle,t," + ",".join(f"x{k}" for k in range(d)) + ",logw\n").encode())
            for lo in range(0, n * s, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, n * s)
                i, j = np.divmod(np.arange(lo, hi), s)
                fh.write(join_fields([index_text[i], time_text[j],
                                      *(format_e18(c[lo:hi]) for c in columns)]))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Atoms with masses: normalized to 1, or tilted (exp(L_i) / N)."""

    atoms: np.ndarray   # (N, n)
    masses: np.ndarray  # (N,)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def run_particles(model: DiffusionModel, fitness: FitnessFunction,
                  initial_law: InitialLaw, n_particles: int, grid: TimeGrid,
                  seed: int, checkpoints: int = DEFAULT_CHECKPOINTS,
                  threads: int = 1) -> WeightedParticleEnsemble:
    """N independent paths with fused weight accumulation (see sde.simulate)."""
    x0 = sample_initial(initial_law, n_particles, seed, domain=model.domain)
    store = grid.checkpoint_indices(checkpoints)
    bundle = simulate(model, x0, grid, seed, fitness=fitness, store=store,
                      threads=threads)
    return ensemble_from_bundle(bundle)


def ensemble_from_bundle(bundle: PathBundle) -> WeightedParticleEnsemble:
    if bundle.logw is None:
        raise ParticleError("bundle carries no weights; simulate with fitness=")
    return WeightedParticleEnsemble(times=bundle.times, positions=bundle.positions,
                                    logw=bundle.logw, shift=bundle.shift,
                                    seed=bundle.seed)


def normalized_measure(ens: WeightedParticleEnsemble, t: float) -> EmpiricalMeasure:
    """Self-normalized weighted empirical measure at a stored node."""
    j = stored_index(ens.times, t)
    lw = ens.logw[:, j]
    m = lw.max()
    if not np.isfinite(m):
        raise ParticleError("all weights underflowed; shorten the horizon "
                            "or lower the shift")
    w = np.exp(lw - m)
    return EmpiricalMeasure(atoms=ens.positions[:, j], masses=w / w.sum())


def tilted_measure(ens: WeightedParticleEnsemble, t: float) -> EmpiricalMeasure:
    """Sub-probability measure with atom masses exp(L_i)/N."""
    j = stored_index(ens.times, t)
    masses = np.exp(ens.logw[:, j]) / ens.n_particles
    return EmpiricalMeasure(atoms=ens.positions[:, j], masses=masses)


def mass_estimate(ens: WeightedParticleEnsemble, t: float) -> float:
    """Unbiased estimator (1/N) sum exp(L_i(t)) of the shifted mass factor."""
    j = stored_index(ens.times, t)
    return float(np.exp(ens.logw[:, j]).mean())


def mass_estimate_se(ens: WeightedParticleEnsemble, t: float) -> float:
    j = stored_index(ens.times, t)
    w = np.exp(ens.logw[:, j])
    return float(w.std(ddof=1) / np.sqrt(ens.n_particles))
