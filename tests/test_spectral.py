import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repmut.closed_form import eigenpair_residual, tilted_extra_drift
from repmut.model import FitnessFunction
from repmut.scenarios import cir_model
from repmut.spectral import (EnlargeGridError, SchrodingerProblem, SpectralError,
                             cir_eigenpair, kummer_M, kummer_M_prime,
                             schrodinger_ground_state)

CIR_FIT = FitnessFunction(g=lambda x: -np.asarray(x, float), g_max=0.0)


def cir_lam_max(a, b, sigma):
    return a * (np.sqrt(b * b + 2 * sigma * sigma) + b) / sigma ** 2


class TestKummer:
    def test_value_at_zero(self):
        assert kummer_M(1.7, 2.3, 0.0) == 1.0

    def test_exponential_identity(self):
        # M(1, 2, z) = (e^z - 1)/z
        assert kummer_M(1.0, 2.0, 1.0) == pytest.approx(np.e - 1.0, abs=1e-12)

    def test_equal_parameters(self):
        assert kummer_M(3.5, 3.5, 2.0) == pytest.approx(np.exp(2.0), abs=1e-12)

    def test_against_scipy(self):
        from scipy.special import hyp1f1
        gen = np.random.default_rng(0)
        for _ in range(50):
            a = gen.uniform(-4, 4)
            b = gen.uniform(0.3, 6)
            z = gen.uniform(0, 30)
            ours = kummer_M(a, b, z)
            ref = hyp1f1(a, b, z)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(SpectralError, match="pole"):
            kummer_M(1.0, -2.0, 1.0)

    def test_large_z_rejected(self):
        with pytest.raises(SpectralError, match="50"):
            kummer_M(1.0, 2.0, np.array([60.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3, 3), st.floats(0.5, 5), st.floats(0, 12))
    def test_contiguous_recurrence(self, a, b, z):
        # z capped at 12: the alternating series' cancellation keeps the
        # float64 identity error under the 1e-10 gate in this regime
        # M(a,b,z) = M(a-1,b,z) + (z/b) M(a,b+1,z)
        lhs = kummer_M(a, b, z)
        rhs = kummer_M(a - 1, b, z) + (z / b) * kummer_M(a, b + 1, z)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_derivative_relation(self):
        a, b = 1.3, 2.7
        z = np.array([0.5, 2.0])
        h = 1e-6
        fd = (kummer_M(a, b, z + h) - kummer_M(a, b, z - h)) / (2 * h)
        assert np.abs(kummer_M_prime(a, b, z) - fd).max() < 1e-8


class TestCirEigenpair:
    def test_lam_max_boundary_form(self):
        # at the top eigenvalue, alpha = 0 so the Kummer factor is one
        a, b, sig = 1.0, -1.0, 1.0
        lam0 = cir_lam_max(a, b, sig)
        pair = cir_eigenpair(a, b, sig, lam0)
        x = np.linspace(0.1, 5, 40)
        kappa, gamma = 1.0, np.sqrt(3.0)
        target = np.exp((kappa - gamma) * x)
        assert np.abs(pair.phi(x) - target).max() < 1e-12
        # tilted drift reduces to a - gamma x
        extra = tilted_extra_drift(cir_model(a, b, sig), pair).extra
        drift = (a + b * x) + extra(0.0, x[:, None])[:, 0]
        assert np.abs(drift - (a - gamma * x)).max() < 1e-10

    def test_lam_max_pair_is_exponential_without_series(self, monkeypatch):
        import dataclasses

        import repmut.spectral as spectral
        from repmut.closed_form import tilted_engine
        from repmut.scenarios import cir_linear_scenario

        def no_series(*args):
            raise AssertionError("Kummer series summed")

        monkeypatch.setattr(spectral, "kummer_M", no_series)
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

    def test_below_lam_max_pair_sums_the_series(self, monkeypatch):
        import repmut.spectral as spectral
        pair = cir_eigenpair(1.0, -1.0, 1.0, cir_lam_max(1.0, -1.0, 1.0) - 0.4)
        assert pair.log_slope is None  # the tilted engine adds its drift per step

        def no_series(*args):
            raise AssertionError("Kummer series summed")

        monkeypatch.setattr(spectral, "kummer_M", no_series)
        with pytest.raises(AssertionError, match="series"):
            pair.grad_log_phi(np.array([1.0]))

    def test_below_lam_max_tilt_rejected_before_any_series(self, monkeypatch):
        # phi grows like exp((1 + sqrt 3) x), faster than the gamma-like law's
        # exp(-2 x) decays, so phi u0 is not integrable
        import repmut.spectral as spectral
        from repmut.closed_form import RejectedCondition, tilted_engine
        from repmut.scenarios import cir_linear_scenario

        def no_series(*args):
            raise AssertionError("Kummer series summed")

        sc = cir_linear_scenario(horizon=0.05)
        pair = cir_eigenpair(1.0, -1.0, 1.0, cir_lam_max(1.0, -1.0, 1.0) - 0.4)
        monkeypatch.setattr(spectral, "kummer_M", no_series)
        with pytest.raises(RejectedCondition, match="not integrable"):
            tilted_engine(sc.model, sc.fitness, pair, sc.initial_law, 0.05,
                          n_paths=2000, seed=0)

    def test_residual_at_lam_max(self):
        pair = cir_eigenpair(1.0, -1.0, 1.0, cir_lam_max(1.0, -1.0, 1.0))
        res = eigenpair_residual(cir_model(), CIR_FIT, pair, np.linspace(0.1, 5, 64))
        assert res <= 1e-6

    def test_residual_below_lam_max(self):
        lam = cir_lam_max(1.0, -1.0, 1.0) - 0.4
        pair = cir_eigenpair(1.0, -1.0, 1.0, lam)
        res = eigenpair_residual(cir_model(), CIR_FIT, pair, np.linspace(0.2, 4, 48))
        assert res <= 1e-6

    def test_positivity(self):
        pair = cir_eigenpair(1.0, -1.0, 1.0, cir_lam_max(1.0, -1.0, 1.0))
        x = np.linspace(1e-3, 10, 500)
        assert (pair.phi(x) > 0).all()

    def test_above_lam_max_rejected(self):
        with pytest.raises(SpectralError, match="admissible"):
            cir_eigenpair(1.0, -1.0, 1.0, cir_lam_max(1.0, -1.0, 1.0) + 0.1)

    def test_feller_required(self):
        from repmut.model import ModelError
        with pytest.raises(ModelError):
            cir_eigenpair(0.3, -1.0, 1.0, 0.0)


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

