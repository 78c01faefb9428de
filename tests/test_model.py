import numpy as np
import pytest

from repmut.model import (DiffusionModel, DomainSpec, FitnessFunction, InitialLaw,
                          ModelError, check_fitness_bound, halton, probe_points,
                          sample_initial)
from repmut.scenarios import bm_model, cir_model, gamma_like_law, linear_fitness, ou_model


class TestValidateModel:
    def test_cir_feller_violation_is_hard(self):
        with pytest.raises(ModelError, match="Feller"):
            cir_model(a=0.3, b=-1.0, sigma=1.0)

    def test_affine_singular_diffusion_rejected(self):
        with pytest.raises(ModelError, match="positive definite"):
            DiffusionModel(domain=DomainSpec("full-space", 2), kind="affine",
                           params={"b": [0.0, 0.0], "B": np.eye(2),
                                   "sigma": [[1.0, 0.0], [1.0, 0.0]]})

    @pytest.mark.parametrize("kappa", [0.0, -0.0, np.inf, -np.inf, np.nan])
    def test_ou_without_finite_reversion_rejected(self, kappa):
        # kappa = 0 once reached the exact OU step and died as a non-finite state
        with pytest.raises(ModelError, match="arithmetic-bm"):
            ou_model(kappa, 0.0, 1.0)


class TestFitnessBound:
    def test_bound_probe_on_declared_region(self):
        fit = linear_fitness(slope=1.0, g_max=2.0)
        rep = check_fitness_bound(fit, bm_model().domain, count=1000)
        assert rep["violations"] == 0

    def test_g_max_must_be_finite(self):
        with pytest.raises(ModelError):
            FitnessFunction(g=lambda x: x, g_max=np.inf)


class TestSampleInitial:
    def test_gaussian_clt_envelope(self):
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
        x = sample_initial(law, 100_000, seed=7)
        assert abs(x.mean()) <= 4.0 / np.sqrt(100_000)
        assert abs(x.std() - 1.0) <= 4.0 / np.sqrt(2 * 100_000)

    def test_point_cloud_identity(self):
        law = InitialLaw("point-cloud", {"points": [[1.0], [2.0]]})
        x = sample_initial(law, 2, seed=0)
        assert x.tolist() == [[1.0], [2.0]]

    def test_point_cloud_points_are_rows(self):
        # one 2-D point is not two 1-D points; a flat vector holds 1-D points
        law = InitialLaw("point-cloud", {"points": [[1.0, 2.0]]})
        assert law.dim == 2 and sample_initial(law, 3, seed=0).tolist() == [[1.0, 2.0]] * 3
        law = InitialLaw("point-cloud", {"points": [1.0, 2.0, 3.0]})
        assert law.dim == 1 and law.params["points"].tolist() == [[1.0], [2.0], [3.0]]
        for points, shape in [([[[0.0]]], r"\(1, 1, 1\)"), ([], r"\(0, 1\)"),
                              ([[]], r"\(1, 0\)")]:
            with pytest.raises(ModelError, match=rf"point-cloud points of shape {shape}"):
                InitialLaw("point-cloud", {"points": points})
        with pytest.raises(ModelError, match="one per point"):
            InitialLaw("point-cloud", {"points": [0.0, 1.0], "weights": [1.0]})

    def test_same_seed_bit_identical(self):
        law = InitialLaw("gaussian", {"mean": [1.0], "cov": [[4.0]]})
        a = sample_initial(law, 1000, seed=13)
        b = sample_initial(law, 1000, seed=13)
        assert (a == b).all()

    def test_prefix_stability_across_counts(self):
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
        a = sample_initial(law, 100, seed=3)
        b = sample_initial(law, 50, seed=3)
        assert (a[:50] == b).all()

    def test_gaussian_on_half_line_rejected(self):
        law = InitialLaw("gaussian", {"mean": [1.0], "cov": [[1.0]]})
        dom = DomainSpec("half-line", 1)
        with pytest.raises(ModelError, match="outside"):
            sample_initial(law, 10, seed=0, domain=dom)

    def test_grid_density_sampling_matches_moments(self):
        law = gamma_like_law()
        x = sample_initial(law, 200_000, seed=11)[:, 0]
        # gamma(2, 2): mean 1, var 1/2
        assert x.min() > 0
        assert abs(x.mean() - 1.0) < 0.01

    def test_mixture_sampling(self):
        law = InitialLaw("mixture", {"components": [(0.5, -2.0, 0.25),
                                                    (0.5, 2.0, 0.25)]})
        x = sample_initial(law, 100_000, seed=2)[:, 0]
        assert abs(x.mean()) < 0.05

    def test_count_must_be_positive(self):
        law = InitialLaw("point-cloud", {"points": [[0.0]]})
        with pytest.raises(ModelError):
            sample_initial(law, 0, seed=0)


class TestInitialLawInvariants:
    def test_grid_density_normalized(self):
        law = gamma_like_law()
        total = np.trapezoid(law.params["values"], law.params["x"])
        assert abs(total - 1.0) <= 1e-8

    def test_gaussian_density_integrates_to_one(self):
        law = InitialLaw("gaussian", {"mean": [0.5], "cov": [[2.0]]})
        x = np.linspace(-15, 15, 4001)
        assert np.trapezoid(law.density(x), x) == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_density_is_the_moments_density(self):
        from repmut.numerics import GaussianMoments

        for mean, cov in (([0.5], [[2.0]]), ([0.0, 1.0], [[1.0, 0.3], [0.3, 0.5]])):
            law = InitialLaw("gaussian", {"mean": mean, "cov": cov})
            x = np.linspace(-3.0, 3.0, 41)
            x = x if len(mean) == 1 else np.stack([x, -x], axis=1)
            assert np.array_equal(law.density(x), GaussianMoments(mean, cov).density(x))

    def test_asymmetric_gaussian_cov_rejected(self):
        # sampling reads one triangle of cov, the density all of it
        with pytest.raises(ModelError, match="gaussian covariance not symmetric"):
            InitialLaw("gaussian", {"mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]})

    def test_fitness_never_exceeds_bound_on_probes(self):
        fit = linear_fitness(slope=1.0, g_max=2.0)
        dom = bm_model().domain
        pts = probe_points(dom, 1000, seed=1, box=fit.bound_region)
        assert (fit.g(pts[:, 0]) <= fit.g_max + 1e-12).all()


class TestHalton:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_equal_to_scipy_scrambled_halton(self, d, seed):
        from scipy.stats import qmc
        for n in [*range(60), 64, 128, 256, 999, 1000, 4096]:
            ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = halton(d, n, seed)
            assert got.shape == ref.shape == (n, d)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), n

    def test_pinned_stream(self):
        # fixed independently of scipy, so the package's probe points stay put
        assert halton(1, 8, 0)[:, 0].tolist() == [
            0.0991217798843752, 0.5991217798843752, 0.3491217798843752, 0.8491217798843752,
            0.2241217798843752, 0.7241217798843752, 0.4741217798843752, 0.9741217798843752]
        assert halton(2, 5, 7).tolist() == [
            [0.10224233015287731, 0.9346983862017634],
            [0.6022423301528773, 0.2680317195350967],
            [0.3522423301528773, 0.6013650528684301],
            [0.8522423301528773, 0.7124761639795413],
            [0.22724233015287731, 0.045809497312874536]]
