"""Stochastic solver suite for extended replicator-mutator dynamics."""

from .model import (DiffusionModel, DomainSpec, FitnessFunction, InitialLaw,
                    check_fitness_bound, sample_initial)
from .sde import PathBundle, TiltedDrift, TimeGrid, simulate
from .numerics import GaussianMoments, GridDensity, covariance_integral, kde, matrix_exp
from .closed_form import (Eigenpair, Solution, affine_engine, eigenpair_residual,
                          linear_engine, solve_linear_v, solve_riccati,
                          tilted_engine)
from .spectral import SchrodingerProblem, cir_eigenpair, schrodinger_ground_state
from .particle import (EmpiricalMeasure, WeightedParticleEnsemble, mass_estimate,
                       normalized_measure, run_particles, tilted_measure)
from .metric import CompactifiedMeasure, bl_distance, dqt_estimate, dstar, STAR
from .pde import PdeScheme, solve_rm_pde

__version__ = "0.4.0"
