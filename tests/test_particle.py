import numpy as np
import pytest

from repmut.model import FitnessFunction, InitialLaw
from repmut.particle import (ParticleError, ensemble_from_bundle, mass_estimate,
                             mass_estimate_se, normalized_measure, run_particles,
                             tilted_measure)
from repmut.scenarios import (affine_quadratic_fitness, bm_model, linear_fitness,
                              quadratic_decay_fitness)
from repmut.sde import TimeGrid, simulate


def small_ensemble(n=256, fitness=None, seed=3, steps=128, checkpoints=9):
    m = bm_model(0.0, np.sqrt(2.0))
    fit = fitness or linear_fitness(slope=1.0, g_max=2.0)
    law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
    return run_particles(m, fit, law, n, TimeGrid(0, 1.0, steps), seed,
                         checkpoints=checkpoints), fit


class TestRunParticles:
    def test_single_particle(self):
        m = bm_model(0.0, 1.0)
        fit = linear_fitness(1.0, g_max=0.0, bound_lo=-50)
        law = InitialLaw("point-cloud", {"points": [[0.0]]})
        ens = run_particles(m, fit, law, 1, TimeGrid(0, 1.0, 64), 7)
        assert ens.positions.shape[0] == 1
        assert ens.logw.shape[0] == 1
        assert ens.logw[0, 0] == 0.0

    def test_zero_fitness_weights(self, zero_fitness):
        m = bm_model(0.0, 1.0)
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
        ens = run_particles(m, zero_fitness, law, 64, TimeGrid(0, 1.0, 32), 1)
        assert np.abs(ens.logw).max() == 0.0

    def test_weighted_mean_matches_closed_form(self):
        # BM(0, sqrt2), g=x, rho0=delta_0: weighted mean at t=1 is t^2 = 1
        m = bm_model(0.0, np.sqrt(2.0))
        fit = linear_fitness(1.0, g_max=0.0, bound_lo=-50)
        law = InitialLaw("point-cloud", {"points": [[0.0]]})
        n = 100_000
        ens = run_particles(m, fit, law, n, TimeGrid(0, 1.0, 256), 5,
                            checkpoints=3)
        nm = normalized_measure(ens, 1.0)
        mean = float(nm.masses @ nm.atoms[:, 0])
        se = np.sqrt(float(nm.masses @ (nm.atoms[:, 0] - mean) ** 2)
                     * np.sum(nm.masses ** 2))
        assert abs(mean - 1.0) <= 4 * se

    def test_weights_nonincreasing_for_bounded_fitness(self):
        ens, _ = small_ensemble(fitness=quadratic_decay_fitness())
        assert (np.diff(ens.logw, axis=1) <= 1e-12).all()


class TestMeasures:
    def test_uniform_masses_for_constant_fitness(self):
        fit = FitnessFunction(g=lambda x: np.full_like(np.asarray(x, float), 2.0),
                              g_max=2.0)
        ens, _ = small_ensemble(fitness=fit)
        nm = normalized_measure(ens, 1.0)
        assert np.abs(nm.masses - 1.0 / 256).max() < 1e-15

    def test_uniform_at_time_zero(self):
        ens, _ = small_ensemble()
        nm = normalized_measure(ens, 0.0)
        assert np.abs(nm.masses - 1.0 / 256).max() < 1e-18

    def test_shift_cancellation_exact(self):
        m = bm_model(0.0, np.sqrt(2.0))
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
        grid = TimeGrid(0, 1.0, 128)
        from repmut.model import sample_initial
        x0 = sample_initial(law, 256, seed=3)
        fit_a = linear_fitness(slope=1.0, g_max=2.0)
        fit_b = affine_quadratic_fitness(alpha=-5.0, delta=[-1.0], G=[[0.0]], g_max=7.0)
        ens_a = ensemble_from_bundle(simulate(m, x0, grid, 3, fitness=fit_a,
                                              store=grid.checkpoint_indices(9)))
        ens_b = ensemble_from_bundle(simulate(m, x0, grid, 3, fitness=fit_b,
                                              store=grid.checkpoint_indices(9)))
        for t in ens_a.times[1:]:
            ma = normalized_measure(ens_a, t).masses
            mb = normalized_measure(ens_b, t).masses
            assert np.abs(ma - mb).max() <= 1e-15

    def test_shift_cancellation_exact_quadratic(self):
        # the same invariance on the fine-grid trapezoid path (G != 0)
        m = bm_model(0.0, np.sqrt(2.0))
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
        grid = TimeGrid(0, 1.0, 128)
        from repmut.model import sample_initial
        x0 = sample_initial(law, 256, seed=3)
        fit_a = quadratic_decay_fitness(scale=1.0)
        fit_b = affine_quadratic_fitness(alpha=-5.0, delta=[0.0], G=[[1.0]], g_max=5.0)
        bundles = [simulate(m, x0, grid, 3, fitness=f, store=grid.checkpoint_indices(9))
                   for f in (fit_a, fit_b)]
        assert {b.scheme for b in bundles} == {"exact-gaussian"}
        ens_a, ens_b = map(ensemble_from_bundle, bundles)
        for t in ens_a.times[1:]:
            ma = normalized_measure(ens_a, t).masses
            mb = normalized_measure(ens_b, t).masses
            assert np.abs(ma - mb).max() <= 1e-15

    def test_tilted_time_zero_total_mass_one(self):
        ens, _ = small_ensemble()
        tm = tilted_measure(ens, 0.0)
        assert tm.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_constant_negative_fitness_exact_mass(self):
        # shifted g = -1: total tilted mass e^{-t} exactly
        fit = FitnessFunction(g=lambda x: np.full_like(np.asarray(x, float), -1.0),
                              g_max=0.0)
        ens, _ = small_ensemble(fitness=fit)
        for t in ens.times:
            tm = tilted_measure(ens, t)
            assert tm.total_mass == pytest.approx(np.exp(-t), rel=1e-12)

    def test_tilted_mass_identity(self):
        ens, _ = small_ensemble()
        for t in ens.times:
            tm = tilted_measure(ens, t)
            assert tm.total_mass == pytest.approx(mass_estimate(ens, t), abs=1e-15)

    def test_normalized_times_mass_equals_tilted(self):
        ens, _ = small_ensemble()
        for t in ens.times:
            nm = normalized_measure(ens, t)
            tm = tilted_measure(ens, t)
            h = mass_estimate(ens, t)
            assert np.abs(nm.masses * h - tm.masses).max() <= 1e-15

    def test_unknown_time_rejected(self):
        ens, _ = small_ensemble()
        with pytest.raises(KeyError):
            normalized_measure(ens, 0.123456)


class TestMassEstimate:
    def test_zero_fitness_exactly_one(self, zero_fitness):
        ens, _ = small_ensemble(fitness=zero_fitness)
        assert mass_estimate(ens, 1.0) == 1.0

    def test_variance_scales_inverse_n(self):
        m = bm_model(0.0, np.sqrt(2.0))
        fit = linear_fitness(1.0, g_max=0.0, bound_lo=-50)
        law = InitialLaw("point-cloud", {"points": [[0.0]]})
        ses = []
        ns = [1000, 10_000, 100_000]
        for n in ns:
            ens = run_particles(m, fit, law, n, TimeGrid(0, 1.0, 128), 11,
                                checkpoints=3)
            ses.append(mass_estimate_se(ens, 1.0))
        slope = np.polyfit(np.log(ns), np.log(np.asarray(ses) ** 2), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_exchangeability_multisets(self):
        m = bm_model(0.0, 1.0)
        fit = linear_fitness(1.0, g_max=2.0)
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[1.0]]})
        grid = TimeGrid(0, 0.5, 64)
        from repmut.model import sample_initial
        n = 128
        x0 = sample_initial(law, n, seed=9)
        perm = np.random.default_rng(1).permutation(n)
        a = simulate(m, x0, grid, 9, fitness=fit)
        b = simulate(m, x0[perm], grid, 9, fitness=fit,
                     particle_ids=perm.astype(np.uint64))
        ea, eb = ensemble_from_bundle(a), ensemble_from_bundle(b)
        for t in (0.25, 0.5):
            ta, tb = tilted_measure(ea, t), tilted_measure(eb, t)
            assert (np.sort(ta.atoms[:, 0]) == np.sort(tb.atoms[:, 0])).all()
            assert (np.sort(ta.masses) == np.sort(tb.masses)).all()

    def test_ensemble_without_weights_rejected(self):
        m = bm_model(0.0, 1.0)
        b = simulate(m, np.zeros((4, 1)), TimeGrid(0, 1.0, 16), 0)
        with pytest.raises(ParticleError):
            ensemble_from_bundle(b)

    def test_csv_roundtrip(self, tmp_path):
        ens, _ = small_ensemble(n=8, checkpoints=3)
        path = tmp_path / "ens.csv"
        ens.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (8 * 3, 4)


def savetxt_ensemble_csv(ens, path):
    """The row-by-row np.savetxt writer that to_csv replaced, kept as the
    oracle of its byte-identity tests."""
    n, s, d = ens.positions.shape
    rows = []
    for i in range(n):
        for j in range(s):
            rows.append([i, ens.times[j], *ens.positions[i, j], ens.logw[i, j]])
    header = "particle,t," + ",".join(f"x{k}" for k in range(d)) + ",logw"
    np.savetxt(path, np.asarray(rows), delimiter=",", header=header, comments="")


class TestEnsembleCsv:
    def test_byte_identical_to_savetxt_1d(self, tmp_path):
        # 9000 particles x 3 checkpoints: 27000 rows, four 8192-row chunks
        ens, _ = small_ensemble(n=9000, steps=16, checkpoints=3)
        ens.to_csv(tmp_path / "new.csv")
        savetxt_ensemble_csv(ens, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("chunk_rows", [1, 7, 8192])
    def test_byte_identical_to_savetxt_2d(self, tmp_path, monkeypatch, chunk_rows):
        import repmut.particle
        from repmut.particle import WeightedParticleEnsemble
        monkeypatch.setattr(repmut.particle, "CSV_CHUNK_ROWS", chunk_rows)
        gen = np.random.default_rng(5)
        n, s = 300, 4
        positions = gen.normal(scale=1e3, size=(n, s, 2))
        positions[0, 0] = [-0.0, 1e-300]
        logw = -np.abs(gen.normal(scale=50.0, size=(n, s)))
        logw[:, 0] = 0.0
        logw[1, 3] = -np.inf
        ens = WeightedParticleEnsemble(times=np.array([0.0, 1 / 3, 2 / 3, 1.0]),
                                       positions=positions, logw=logw, shift=0.0,
                                       seed=0)
        ens.to_csv(tmp_path / "new.csv")
        savetxt_ensemble_csv(ens, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the last row cannot be formatted, so the write raises after the
        # header and the first 2-row chunks have gone out
        import repmut.particle
        from repmut.particle import WeightedParticleEnsemble
        monkeypatch.setattr(repmut.particle, "CSV_CHUNK_ROWS", 2)
        logw = np.zeros((5, 2), dtype=object)
        logw[4, 1] = "not a number"
        ens = WeightedParticleEnsemble(times=np.array([0.0, 1.0]),
                                       positions=np.zeros((5, 2, 1)), logw=logw,
                                       shift=0.0, seed=0)
        with pytest.raises(ValueError):  # the float conversion of the last chunk
            ens.to_csv(tmp_path / "ensemble.csv")
        assert list(tmp_path.iterdir()) == []
