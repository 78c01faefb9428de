import numpy as np
import pytest

from repmut.model import FitnessFunction, InitialLaw
from repmut.scenarios import bm_model, linear_fitness


@pytest.fixture
def std_normal_law():
    return InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})


@pytest.fixture
def zero_fitness():
    return FitnessFunction(g=lambda x: np.zeros_like(np.asarray(x, float)),
                           g_max=0.0)


@pytest.fixture
def bm_sqrt2():
    return bm_model(0.0, np.sqrt(2.0))


@pytest.fixture
def linear_fit_unshifted():
    # g(x) = x with shift constant 0 (mass-estimator scenarios)
    return linear_fitness(slope=1.0, g_max=0.0, bound_lo=-50.0)
