import numpy as np
import pytest

from repmut.closed_form import eigenpair_residual, tilted_extra_drift
from repmut.model import FitnessFunction
from repmut.scenarios import cir_model
from repmut.spectral import (EnlargeGridError, SchrodingerProblem, SpectralError,
                             cir_eigenpair, schrodinger_ground_state)

CIR_FIT = FitnessFunction(g=lambda x: -np.asarray(x, float), g_max=0.0)


def cir_lam_max(a, b, sigma):
    return a * (np.sqrt(b * b + 2 * sigma * sigma) + b) / sigma ** 2


class TestCirEigenpair:
    def test_lam_max_boundary_form(self):
        # at the top eigenvalue, alpha = 0 so the Kummer factor is one
        a, b, sig = 1.0, -1.0, 1.0
        pair = cir_eigenpair(a, b, sig)
        assert pair.lam == pytest.approx(cir_lam_max(a, b, sig), abs=1e-15)
        x = np.linspace(0.1, 5, 40)
        kappa, gamma = 1.0, np.sqrt(3.0)
        target = np.exp((kappa - gamma) * x)
        assert np.abs(pair.phi(x) - target).max() < 1e-12
        # tilted drift reduces to a - gamma x
        drift = tilted_extra_drift(cir_model(a, b, sig), pair).drift(x[:, None])[:, 0]
        assert np.abs(drift - (a - gamma * x)).max() < 1e-10

    def test_lam_max_pair_is_exponential_without_series(self):
        import dataclasses

        from repmut.closed_form import tilted_engine
        from repmut.scenarios import cir_linear_scenario

        sc = cir_linear_scenario()
        p = sc.model.params
        pair = cir_eigenpair(p["a"], p["b"], p["sigma"])
        c = (1.0 - np.sqrt(3.0)) / 1.0
        assert pair.log_slope == pytest.approx(c, abs=1e-15)
        x = np.linspace(0.0, 8.0, 33)
        assert np.array_equal(pair.log_phi(x), pair.log_slope * x)
        assert np.array_equal(pair.grad_log_phi(x), np.full(x.shape, pair.log_slope))
        assert np.abs(pair.d2phi(x) - c * c * np.exp(c * x)).max() < 1e-14
        # a wrapped pair, as a tracer's dataclasses.replace makes it, keeps the
        # slope and so the exact sampler
        wrapped = dataclasses.replace(pair, **{f: (lambda fn: lambda x: fn(x))(getattr(pair, f))
                                               for f in ("phi", "dphi", "log_phi",
                                                         "grad_log_phi", "d2phi")})
        sol = tilted_engine(sc.model, sc.fitness, wrapped, sc.initial_law, 0.1,
                            n_paths=4000, seed=3, checkpoints=3)
        assert sol.meta["scheme"] == "exact-noncentral-chi2"
        assert np.trapezoid(sol.u(0.1, sol.grid), sol.grid) == pytest.approx(1.0, abs=1e-6)

    def test_residual_at_lam_max(self):
        pair = cir_eigenpair(1.0, -1.0, 1.0)
        res = eigenpair_residual(cir_model(), CIR_FIT, pair, np.linspace(0.1, 5, 64))
        assert res <= 1e-6

    def test_positivity(self):
        pair = cir_eigenpair(1.0, -1.0, 1.0)
        x = np.linspace(1e-3, 10, 500)
        assert (pair.phi(x) > 0).all()

    def test_feller_required(self):
        from repmut.model import ModelError
        with pytest.raises(ModelError):
            cir_eigenpair(0.3, -1.0, 1.0)


class TestSchrodinger:
    def test_harmonic_ground_state(self):
        gs = schrodinger_ground_state(SchrodingerProblem(
            sigma=1.0, g=lambda x: -x ** 2, half_width=8.0, nodes=2048))
        assert abs(gs.lam - 1.0) <= 1e-4
        x = np.linspace(-4, 4, 512)
        exact = np.exp(-x ** 2 / 2) / np.pi ** 0.25
        l2 = np.sqrt(np.trapezoid((gs.phi(x) - exact) ** 2, x))
        assert l2 <= 1e-3

    def test_sigma_scaling(self):
        # lambda_0 = sigma for -sigma^2 phi'' + x^2 phi
        gs = schrodinger_ground_state(SchrodingerProblem(
            sigma=2.0, g=lambda x: -x ** 2, half_width=10.0, nodes=2048))
        assert abs(gs.lam - 2.0) <= 1e-3

    def test_interior_positivity(self):
        gs = schrodinger_ground_state(SchrodingerProblem(
            sigma=1.0, g=lambda x: -x ** 4 + x, half_width=6.0, nodes=1024))
        assert (gs.phi_grid > 0).all()

    def test_grid_convergence_order(self):
        lams = [schrodinger_ground_state(SchrodingerProblem(
            sigma=1.0, g=lambda x: -x ** 2, half_width=8.0, nodes=n)).lam
            for n in (512, 1024, 2048)]
        factor = abs(lams[0] - lams[1]) / abs(lams[1] - lams[2])
        assert 4 * 0.7 <= factor <= 4 * 1.3

    def test_narrow_grid_raises_with_hint(self):
        with pytest.raises(EnlargeGridError) as err:
            schrodinger_ground_state(SchrodingerProblem(
                sigma=1.0, g=lambda x: -x ** 2, half_width=3.0, nodes=512))
        assert err.value.suggested_half_width > 3.0

    def test_non_confining_rejected(self):
        with pytest.raises(SpectralError, match="confining"):
            SchrodingerProblem(sigma=1.0, g=lambda x: np.zeros_like(x),
                               half_width=8.0, nodes=512)

    def test_up_shift_recorded_and_undone(self):
        # adding a constant to g shifts lambda by the same constant
        gs0 = schrodinger_ground_state(SchrodingerProblem(
            sigma=1.0, g=lambda x: -x ** 2, half_width=8.0, nodes=1024))
        gs5 = schrodinger_ground_state(SchrodingerProblem(
            sigma=1.0, g=lambda x: 5.0 - x ** 2, half_width=8.0, nodes=1024))
        assert gs5.lam == pytest.approx(gs0.lam - 5.0, abs=1e-10)
        x = np.linspace(-3, 3, 101)
        assert np.abs(gs5.phi(x) - gs0.phi(x)).max() < 1e-10

