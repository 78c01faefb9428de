import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repmut.cli import (CUSTOM_RULES, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        _build_eigenpair, build_scenario, build_solution, canonical_json,
                        config_hash, load_config, main)
from repmut.closed_form import EngineError, RejectedCondition, tilted_engine
from repmut.metric import MetricError
from repmut.model import InitialLaw
from repmut.pde import DT_MULTIPLE
from repmut.report import write_csv
from repmut.scenarios import ou_model, quadratic_decay_fitness
from repmut.spectral import SchrodingerProblem, schrodinger_ground_state


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "scenario": "linear-bm",
        "horizon": 0.5,
        "engines": ["linear", "particle"],
        "particles": {"N": [50, 100, 200], "reps": 3, "q": 2.0, "n_kde": 2000},
        "metric": {"checkpoints": 5, "ref_atoms": 128},
        "steps_per_unit": 100,
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        cfg = load_config(path)
        path2 = tmp_path / "copy.json"
        path2.write_text(canonical_json(cfg))
        cfg2 = load_config(str(path2))
        assert cfg == cfg2
        assert config_hash(cfg) == config_hash(cfg2)

    def test_hash_ignores_whitespace(self, tmp_path):
        path, raw = write_cfg(tmp_path)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(raw, indent=4))
        assert config_hash(load_config(path)) == config_hash(load_config(str(pretty)))

    def test_hash_changes_on_semantic_change(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        path2, _ = write_cfg(tmp_path, name="cfg2.json", seed=8)
        assert config_hash(load_config(path)) != config_hash(load_config(path2))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenariooo": "x"}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_nested_key_exits_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "linear-bm", "particles": {"repz": 1}}))
        assert main(["manifest", "--config", str(path)]) == EXIT_CONFIG
        assert "particles.repz" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path):
        path, _ = write_cfg(tmp_path, scenario="no-such-thing")
        with pytest.raises(ConfigError):
            build_scenario(load_config(path))

    @pytest.mark.parametrize("key,value", [
        ("horizon", 0), ("horizon", -1), ("horizon", "abc"), ("horizon", None),
        ("horizon", float("inf")), ("horizon", True), ("checkpoints", 0),
        ("checkpoints", 1), ("checkpoints", 2.5), ("checkpoints", "3")])
    def test_bad_horizon_or_checkpoints_exits_config_error(self, tmp_path, capsys,
                                                           key, value):
        override = {"horizon": value} if key == "horizon" \
            else {"metric": {"checkpoints": value}}
        path, _ = write_cfg(tmp_path, **override)
        assert main(["manifest", "--config", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("seed", "abc"), ("seed", 1.5), ("seed", True), ("seed", None),
        ("steps_per_unit", "abc"), ("steps_per_unit", 0), ("steps_per_unit", -3),
        ("steps_per_unit", 2.5), ("steps_per_unit", True)])
    def test_bad_seed_or_steps_exits_config_error(self, tmp_path, capsys, key, value):
        path, _ = write_cfg(tmp_path, **{key: value})
        assert main(["manifest", "--config", path]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("particles.N", [50, 0, 200]), ("particles.N", [50, 100.5, 200]),
        ("particles.N", 100), ("particles.reps", 0), ("particles.reps", 2.0),
        ("particles.n_kde", "abc"), ("particles.n_kde", True), ("particles.q", -1),
        ("particles.q", 0), ("particles.q", "x"), ("particles.q", float("nan")),
        ("metric.ref_atoms", 0), ("metric.ref_atoms", None), ("engines", ["lineer"]),
        ("engines", "linear"), ("particles", "abc"), ("metric", [1]), ("model", 5),
        ("fitness", [1]), ("initial", "gaussian"), ("scenario", ["linear-bm"]),
        ("output", 5)])
    def test_bad_particles_metric_or_engines_exits_config_error(self, tmp_path, capsys,
                                                               key, value):
        section, _, sub = key.partition(".")
        if sub:
            path, cfg = write_cfg(tmp_path)
            path, _ = write_cfg(tmp_path, **{section: {**cfg[section], sub: value}})
        elif key in OU_QUADRATIC:  # the custom model sections, without a scenario
            path, _ = write_cfg(tmp_path, **{**OU_QUADRATIC, key: value})
        else:
            path, _ = write_cfg(tmp_path, **{key: value})
        for command in ("manifest", "solve", "chaos"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) \
                == EXIT_CONFIG
            assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, value", [
        ("model", {"kind": "ou", "kappa": 1.0, "sigma": 1.0}),
        ("fitness", {"kind": "linear", "slope": 0}),
        ("initial", {"kind": "gaussian", "mean": [0.0], "cov": [[0.25]]})])
    def test_scenario_with_a_custom_section_exits_config_error(self, tmp_path, capsys,
                                                               section, value):
        # the scenario would otherwise run with its own section in silence
        path, _ = write_cfg(tmp_path, **{section: value})
        for command in ("manifest", "solve", "chaos", "particles"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) \
                == EXIT_CONFIG
            assert f"drop it or the {section} section" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, value, message", [
        # the stray key would otherwise run with theta = 0
        ("model", {"kind": "ou", "kappa": 1.0, "sigma": 1.0, "thetaa": 3},
         "unknown config key model.thetaa; model kind 'ou' takes kappa, theta, sigma"),
        ("fitness", {"kind": "quadratic-decay", "slope": 1.0},
         "unknown config key fitness.slope; fitness kind 'quadratic-decay' takes scale"),
        ("initial", {"kind": "point-cloud", "points": [0.0], "dim": 1},
         "unknown config key initial.dim"),
        # each of these raised a TypeError in the builders
        ("fitness", {"kind": "linear", "slope": {}}, "fitness.slope must be a number, not {}"),
        ("model", {"kind": "ou", "kappa": None, "sigma": 1.0},
         "model.kappa must be a number, not None"),
        ("model", {"kind": "arithmetic-bm", "n": 2.0}, "model.n must be an integer >= 1"),
        # and this text was read as the number 0
        ("initial", {"kind": "gaussian", "mean": ["0"], "cov": [[0.25]]},
         "initial.mean must be a number or a list of numbers, not ['0']"),
        ("model", {"kind": "ouu"}, "unknown model kind 'ouu'; choose from"),
        ("initial", {"mean": [0.0]}, "unknown initial kind None"),
        # an unhashable kind is a config error, not a TypeError
        ("model", {"kind": []}, "unknown model kind []; choose from"),
        ("fitness", {"kind": {}}, "unknown fitness kind {}; choose from"),
        ("model", {"kind": "ou", "sigma": 1.0}, "model kind 'ou' needs model.kappa"),
        # an empty cloud divided by its size, and weights not one per point
        ("initial", {"kind": "point-cloud", "points": []},
         "point-cloud points of shape (0, 1)"),
        ("initial", {"kind": "point-cloud", "points": [0.0, 1.0], "weights": [1.0]},
         "point-cloud weights must be a probability vector, one per point")])
    def test_custom_section_outside_its_kind_exits_config_error(self, tmp_path, capsys,
                                                                section, value, message):
        path, _ = write_cfg(tmp_path, **{**OU_QUADRATIC, section: value})
        for command in ("manifest", "solve", "chaos", "particles"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) \
                == EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_readme_lists_each_custom_kinds_keys(self):
        # README's table of custom kinds against cli.CUSTOM_RULES: the same
        # keys, and "= value" on exactly the keys that have a default
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = {}
        for line in readme.splitlines():
            cells = line.strip().strip("|").split("|")
            if len(cells) == 3 and cells[0].strip().strip("`") in CUSTOM_RULES:
                keys = re.findall(r"`(\w+)`( =)?", cells[2])
                listed[cells[0].strip(" `"), cells[1].strip(" `")] = \
                    {key: bool(default) for key, default in keys}
        assert listed == {(section, kind): {key: len(rule) == 3
                                            for key, rule in rules.items()}
                          for section, kinds in CUSTOM_RULES.items()
                          for kind, (_, rules) in kinds.items()}

    def test_custom_model_sections(self, tmp_path):
        path, _ = write_cfg(tmp_path, scenario=None,
                            model={"kind": "ou", "kappa": 1.0, "sigma": 1.0},
                            fitness={"kind": "linear", "slope": -1.0, "g_max": 4.0},
                            initial={"kind": "gaussian", "mean": [0.0],
                                     "cov": [[0.25]]})
        sc = build_scenario(load_config(path))
        assert sc.model.kind == "ou"


class TestSolveCommand:
    def test_outputs_and_determinism(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["solve", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", path, "--out", str(out2)]) == EXIT_OK
        for name in ("density_linear.csv", "density_particle.csv",
                     "l1_table.csv", "masses.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} not byte-identical across reruns"

    def test_thread_count_does_not_change_output(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        out1 = tmp_path / "t1"
        out4 = tmp_path / "t4"
        main(["solve", "--config", path, "--out", str(out1), "--threads", "1"])
        main(["solve", "--config", path, "--out", str(out4), "--threads", "4"])
        assert (out1 / "density_particle.csv").read_bytes() \
            == (out4 / "density_particle.csv").read_bytes()

    def test_l1_table_small_for_linear_scenario(self, tmp_path):
        path, _ = write_cfg(tmp_path, particles={"N": [50, 100, 200], "reps": 3,
                                                 "q": 2.0, "n_kde": 20000})
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = (out / "l1_table.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[2]) <= 5e-2

    def test_feller_violation_exits_config_error(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, scenario=None,
                            model={"kind": "cir", "a": 0.3, "b": -1.0, "sigma": 1.0},
                            fitness={"kind": "linear", "slope": -1.0, "g_max": 0.0},
                            initial={"kind": "gamma-like"})
        code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Feller" in err and "0.6" in err and "sigma^2" in err

    def test_missing_config_is_config_error(self):
        assert main(["solve"]) == EXIT_CONFIG

    def write_2d_cfg(self, tmp_path):
        # declared G = 0, so the linear engine would accept the model
        return write_cfg(tmp_path, scenario=None, engines=["linear"],
                         model={"kind": "arithmetic-bm", "b": [0.1, -0.2],
                                "sigma": [[1.0, 0.0], [0.0, 1.0]], "n": 2},
                         fitness={"kind": "affine-quadratic", "alpha": 0.0,
                                  "delta": [1.0, 0.5], "G": [[0.0, 0.0], [0.0, 0.0]],
                                  "g_max": 50.0},
                         initial={"kind": "gaussian", "mean": [0.0, 0.0],
                                  "cov": [[1.0, 0.0], [0.0, 1.0]]})[0]

    def test_two_dimensional_model_is_config_error(self, tmp_path, capsys):
        path = self.write_2d_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert "1-D densities" in capsys.readouterr().err
        assert not out.exists()  # raised before any engine ran

    def test_two_dimensional_chaos_is_config_error(self, tmp_path, capsys):
        # the reference grid and the BL binning are 1-D
        path = self.write_2d_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(["chaos", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert "1-D measures" in capsys.readouterr().err
        assert not out.exists()  # raised before the manifest and any engine

    def test_chaos_without_closed_form_is_config_error(self, tmp_path, capsys):
        # the CIR fitness declares no affine-quadratic form, so neither
        # closed form can serve as the chaos reference
        path, _ = write_cfg(tmp_path, scenario="cir-linear", engines=None)
        out = tmp_path / "o"
        assert main(["chaos", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert ("chaos needs a closed-form reference: fitness has no declared "
                "affine-quadratic form") in capsys.readouterr().err
        assert not out.exists()  # raised before the manifest

    @pytest.mark.parametrize("n, fitness, initial, message", [
        (2, {"kind": "linear"}, {"kind": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]]},
         "'linear' has delta of size 1 and G of shape (1, 1); the model has dimension 2"),
        (1, {"kind": "affine-quadratic", "alpha": 0.0, "delta": [1.0],
             "G": [[1.0, 0.0], [0.0, 1.0]], "g_max": 5.0},
         {"kind": "gaussian", "mean": [0], "cov": [[1]]},
         "has delta of size 1 and G of shape (2, 2); the model has dimension 1")])
    def test_fitness_of_another_dimension_is_config_error(self, tmp_path, capsys, n,
                                                          fitness, initial, message):
        path, _ = write_cfg(tmp_path, scenario=None, engines=None,
                            model={"kind": "arithmetic-bm", "n": n},
                            fitness=fitness, initial=initial)
        out = tmp_path / "o"
        assert main(["particles", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_law_of_another_dimension_is_config_error(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, scenario=None, engines=None,
                            model={"kind": "ou", "kappa": 1.0, "sigma": 1.0},
                            fitness={"kind": "quadratic-decay"},
                            initial={"kind": "gaussian", "mean": [0.0, 0.0],
                                     "cov": [[1.0, 0.0], [0.0, 1.0]]})
        out = tmp_path / "o"
        assert main(["particles", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert ("initial law 'gaussian' has dimension 2; the model has dimension 1"
                in capsys.readouterr().err)
        assert not out.exists()  # raised before the manifest

    def test_point_cloud_law_is_config_error(self, tmp_path, capsys):
        # both commands read the initial density at t = 0, which a cloud lacks
        path, _ = write_cfg(tmp_path, scenario=None, model={"kind": "arithmetic-bm"},
                            fitness={"kind": "linear"},
                            initial={"kind": "point-cloud", "points": [-0.5, 0.0, 0.5]})
        for command in ("solve", "chaos"):
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
            assert (f"{command} reads the initial law's density at t = 0, and a "
                    f"point-cloud law has none") in capsys.readouterr().err
            assert not out.exists()  # raised before the manifest

    def test_one_point_cloud_in_two_dimensions(self, tmp_path):
        # [[1.0, 2.0]] is one 2-D point, not two 1-D points
        path, _ = write_cfg(tmp_path, scenario=None, engines=None, horizon=0.05,
                            model={"kind": "arithmetic-bm", "n": 2},
                            fitness={"kind": "affine-quadratic", "alpha": 0.0,
                                     "delta": [1.0, 0.5], "G": [[0.0, 0.0], [0.0, 0.0]],
                                     "g_max": 50.0},
                            initial={"kind": "point-cloud", "points": [[1.0, 2.0]]},
                            particles={"n_kde": 50}, metric={"checkpoints": 2})
        out = tmp_path / "o"
        assert main(["particles", "--config", path, "--out", str(out)]) == EXIT_OK
        table = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=1)
        assert table.shape == (100, 5)
        assert (table[table[:, 1] == 0.0, 2:4] == [1.0, 2.0]).all()

    @pytest.mark.parametrize("command", ["particles", "solve"])
    def test_law_outside_the_domain_is_config_error(self, tmp_path, capsys, command):
        path, _ = write_cfg(tmp_path, scenario=None, engines=["pde", "particle"],
                            model={"kind": "cir", "a": 1.0, "b": -1.0, "sigma": 1.0},
                            fitness={"kind": "linear", "slope": -1.0, "g_max": 0.0},
                            initial={"kind": "gaussian", "mean": [1.0], "cov": [[0.1]]})
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert ("gaussian law puts mass outside the half-line domain"
                in capsys.readouterr().err)
        assert not out.exists()  # raised before the manifest

    @pytest.mark.parametrize("model, fitness, initial, message", [
        # exp(-g_max t) underflows every particle weight to 0
        ({"kind": "cir", "a": 1.0, "b": -1.0, "sigma": 1.0},
         {"kind": "linear", "slope": -1.0, "g_max": 1e308}, {"kind": "gamma-like"},
         "all weights underflowed"),
        # the unshifted mass factor is 0 * exp(g_max t) = 0 * inf
        ({"kind": "arithmetic-bm"}, {"kind": "linear", "g_max": 1e308},
         {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}, "h_t_mc = nan")])
    def test_overflowing_shift_is_numeric_failure(self, tmp_path, capsys, model, fitness,
                                                  initial, message):
        path, _ = write_cfg(tmp_path, scenario=None, engines=["particle"], horizon=0.02,
                            model=model, fitness=fitness, initial=initial)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "particles"])
    @pytest.mark.parametrize("model, fitness, initial, message", [
        ({"kind": "cir", "a": 1.0, "b": -1.0, "sigma": 1.0},
         {"kind": "linear", "slope": -1.0, "g_max": 1e308}, {"kind": "gamma-like"}, ""),
        ({"kind": "arithmetic-bm"}, {"kind": "linear", "g_max": 1e308},
         {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}, "h_t_mc = nan")])
    def test_numeric_failure_marks_the_manifest_failed(self, tmp_path, command, model,
                                                        fitness, initial, message):
        path, _ = write_cfg(tmp_path, scenario=None, engines=["particle"], horizon=0.02,
                            model=model, fitness=fitness, initial=initial)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_NUMERIC
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status.startswith("failed: ") and message in status

    def test_no_solution_marks_the_manifest_failed(self, tmp_path):
        # linear-bm has B = 0 and G = 0: no eigenpair, so tilted is skipped
        path, _ = write_cfg(tmp_path, engines=["tilted"])
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_NUMERIC
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status == "failed: no engine produced a solution"

    def test_zero_slope_is_pure_mutation(self, tmp_path):
        path, _ = write_cfg(tmp_path, scenario=None, engines=["linear", "particle"],
                            horizon=0.05, metric={"checkpoints": 3, "ref_atoms": 64},
                            model={"kind": "arithmetic-bm", "sigma": np.sqrt(2.0)},
                            fitness={"kind": "linear", "slope": 0},
                            initial={"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]})
        for command in ("solve", "chaos"):
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
        masses = np.loadtxt(tmp_path / "solve" / "masses.csv", delimiter=",", skiprows=1)
        assert (masses[:, 1] == 1.0).all()
        assert np.abs(masses[:, 2] - 1.0).max() < 1e-12

    def test_delegated_affine_table_is_the_linear_one(self, tmp_path, monkeypatch):
        # B = 0, G = 0: the affine engine returns the linear engine's solution,
        # and its table is the linear table's text, not a second formatting
        import dataclasses

        import repmut.cli as cli
        path, _ = write_cfg(tmp_path, engines=["linear", "affine"], horizon=0.1)
        affine, formatted = cli.affine_engine, []

        def wrapped_affine(*args):  # as a timing wrapper replaces u and mass
            sol = affine(*args)
            return dataclasses.replace(sol, u=lambda t, x: sol.u(t, x),
                                       mass=lambda t: sol.mass(t))

        def recording_write_csv(path, header, rows, **kwargs):
            formatted.append(os.path.basename(path))
            return write_csv(path, header, rows, **kwargs)

        monkeypatch.setattr(cli, "affine_engine", wrapped_affine)
        monkeypatch.setattr(cli, "write_csv", recording_write_csv)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        linear = (out / "density_linear.csv").read_bytes()
        assert (out / "density_affine.csv").read_bytes() == linear
        assert linear.count(b"\n") == 1 + 5 * 2048
        assert "density_linear.csv" in formatted and "density_affine.csv" not in formatted

    def test_each_density_at_the_horizon_is_evaluated_once(self, tmp_path, monkeypatch):
        # l1_table.csv takes each density at T from the last row of its table,
        # and the affine engine's from the linear engine's, whose table it is
        import dataclasses

        import repmut.cli as cli
        path, _ = write_cfg(tmp_path, engines=["linear", "affine", "pde", "particle"],
                            horizon=0.1)
        build, calls = cli.build_solution, []

        def counting_build(engine, *args):
            sol = build(engine, *args)

            def u(t, x):
                calls.append((engine, t))
                return sol.u(t, x)

            return dataclasses.replace(sol, u=u)

        monkeypatch.setattr(cli, "build_solution", counting_build)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        assert sorted(e for e, t in calls if t == 0.1) == ["linear", "particle", "pde"]
        assert not any(e == "affine" for e, t in calls)
        assert len((out / "l1_table.csv").read_text().splitlines()) == 1 + 6

    def test_last_checkpoint_is_the_horizon(self, tmp_path):
        # 70 steps of 0.0025: t0 + dt k would end at 0.17500000000000002
        path, _ = write_cfg(tmp_path, scenario="harmonic-confining", horizon=0.175,
                            engines=None, steps_per_unit=400, metric={"checkpoints": 4})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        for name in ("density_tilted.csv", "density_pde.csv", "density_particle.csv",
                     "masses.csv"):
            t = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=0)
            assert t[-1] == 0.175, name

    def test_asymmetric_gaussian_cov_is_config_error(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, scenario=None, engines=None,
                            model={"kind": "arithmetic-bm", "n": 2},
                            fitness={"kind": "affine-quadratic", "alpha": 0.0,
                                     "delta": [1.0, 0.5], "G": [[0.0, 0.0], [0.0, 0.0]],
                                     "g_max": 50.0},
                            initial={"kind": "gaussian", "mean": [0.0, 0.0],
                                     "cov": [[1.0, 0.5], [0.0, 1.0]]})
        out = tmp_path / "o"
        assert main(["particles", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert "gaussian covariance not symmetric" in capsys.readouterr().err
        assert not out.exists()

    def test_two_dimensional_particles(self, tmp_path):
        path = self.write_2d_cfg(tmp_path)
        out = tmp_path / "o"
        assert main(["particles", "--config", path, "--out", str(out)]) == EXIT_OK
        header = (out / "ensemble.csv").read_text().splitlines()[0]
        assert header == "particle,t,x0,x1,logw"

    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        path, _ = write_cfg(tmp_path, engines=["linear", "pde"])
        out = tmp_path / "o"
        old = os.umask(0o022)
        try:
            assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert "pde_summary.json" in modes and "density_linear.csv" in modes
        assert set(modes.values()) == {0o644}, modes

    def test_affine_engine_with_grid_density_initial_law(self, tmp_path):
        path, _ = write_cfg(tmp_path, scenario=None, engines=["affine"],
                            model={"kind": "ou", "kappa": 1.0, "sigma": 1.0},
                            fitness={"kind": "quadratic-decay"},
                            initial={"kind": "gamma-like"})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        cfg = load_config(path)
        sol = build_solution("affine", build_scenario(cfg), cfg, seed=0)
        vals = sol.u(cfg["horizon"], sol.grid)
        assert vals.min() >= 0.0
        assert abs(np.trapezoid(vals, sol.grid) - 1.0) <= 1e-9
        rows = np.loadtxt(out / "masses.csv", delimiter=",", skiprows=1)
        t, h = rows[:, 0], rows[:, 1]
        assert len(t) == 5 and np.isfinite(h).all()
        assert (np.diff(h) < 0).all()  # quadratic decay: g <= 0
        assert h.tolist() == [sol.mass(s) for s in t]


OU_QUADRATIC = {"scenario": None, "model": {"kind": "ou", "kappa": 1.0, "sigma": 1.0},
                "fitness": {"kind": "quadratic-decay"},
                "initial": {"kind": "gaussian", "mean": [0.0], "cov": [[0.25]]}}


class TestEigenpairGuard:
    def test_wrong_eigenpair_skips_tilted(self):
        # the Schrodinger pair of g = -x^2 under (1/2) d^2/dx^2 ignores the
        # OU drift; on OU(kappa=1, sigma=1) its residual is about 0.61
        fit = quadratic_decay_fitness()
        pair = schrodinger_ground_state(SchrodingerProblem(sigma=1.0, g=fit.g,
                                                           half_width=8.0, nodes=2048))
        law = InitialLaw("gaussian", {"mean": [0.0], "cov": [[0.25]]})
        with pytest.raises(RejectedCondition, match="eigenpair residual"):
            tilted_engine(ou_model(1.0, 0.0, 1.0), fit, pair, law, 0.05, n_paths=2000)

    @pytest.mark.parametrize("overrides,source", [
        ({"scenario": "harmonic-confining"}, "affine-analytic"),
        ({"scenario": "ou-linear"}, "affine-analytic"),
        (OU_QUADRATIC, "affine-analytic"),
        ({"scenario": "cir-linear"}, "kummer")],
        ids=["harmonic-confining", "ou-linear", "ou-quadratic-decay", "cir-linear"])
    def test_eigenpair_comes_from_the_model(self, tmp_path, overrides, source):
        path, _ = write_cfg(tmp_path, engines=None, **overrides)
        assert _build_eigenpair(build_scenario(load_config(path))).source == source

    def test_linear_bm_has_no_eigenpair(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        with pytest.raises(RejectedCondition, match="B = 0, G = 0"):
            _build_eigenpair(build_scenario(load_config(path)))

    def test_tilted_runs_on_ou_quadratic_decay(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, engines=["tilted", "pde"], horizon=0.05,
                            particles={"n_kde": 2000}, metric={"checkpoints": 3},
                            **OU_QUADRATIC)
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        assert "L1(pde, tilted)" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        rows = (out / "density_tilted.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x,u" and len({r.split(",")[0] for r in rows[1:]}) == 3

    def test_tilted_without_eigenpair_is_skipped(self, tmp_path, capsys):
        # linear-bm has B = 0, G = 0: no exponential-quadratic eigenpair, and
        # the affine engine's kernel-route fallback stores none
        path, _ = write_cfg(tmp_path, horizon=0.1, engines=["tilted", "pde"],
                            metric={"checkpoints": 3})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "engine tilted: skipped (no exponential-quadratic eigenpair" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed-engines: tilted"
        assert (out / "density_pde.csv").exists()


class TestHalfLineWall:
    @pytest.mark.parametrize("engine", ["tilted", "particle"])
    def test_density_vanishes_below_wall(self, tmp_path, engine):
        path, _ = write_cfg(tmp_path, scenario="cir-linear", horizon=0.015,
                            particles={"n_kde": 4000}, metric={"checkpoints": 3})
        cfg = load_config(path)
        sol = build_solution(engine, build_scenario(cfg), cfg, seed=5)
        xs = np.linspace(-1.0, 12.0, 130_001)
        for t in sol.times:
            assert (sol.u(t, np.array([-1.0, -1e-3])) == 0.0).all()
            # the interpolant's sliver between the last node left of the
            # wall and x = 0 is cut, a few 1e-4 of the mass
            assert abs(np.trapezoid(sol.u(t, xs), xs) - 1.0) <= 1e-3


class TestSolutionContract:
    """Every engine returns the same Solution surface, and cmd_solve exports
    each one at the checkpoint times, which equal its ``times`` when set."""

    @pytest.mark.parametrize("engine,scenario", [
        ("linear", "linear-bm"), ("affine", "ou-linear"), ("tilted", "ou-linear"),
        ("pde", "ou-linear"), ("particle", "ou-linear")])
    def test_density_times_and_mass(self, tmp_path, engine, scenario):
        path, _ = write_cfg(tmp_path, scenario=scenario, horizon=0.1, engines=[engine],
                            particles={"n_kde": 2000}, metric={"checkpoints": 3})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = (out / f"density_{engine}.csv").read_text().strip().splitlines()[1:]
        exported = np.unique([float(line.split(",")[0]) for line in lines])
        cfg = load_config(path)
        sol = build_solution(engine, build_scenario(cfg), cfg, seed=3)
        expected = np.linspace(0.0, 0.1, 3) if sol.times is None else sol.times
        assert (sol.times is None) == (engine in ("linear", "affine"))
        np.testing.assert_array_equal(exported, expected)
        if engine in ("pde", "tilted"):
            with pytest.raises(EngineError):
                sol.mass(0.1)
        else:
            assert np.isfinite(sol.mass(0.1)) and sol.mass(0.1) > 0

    def test_cir_masses_have_no_analytic_h(self, tmp_path):
        # no engine on cir-linear has an analytic mass factor yet
        path, _ = write_cfg(tmp_path, scenario="cir-linear", horizon=0.015,
                            engines=["tilted", "particle"],
                            particles={"n_kde": 2000}, metric={"checkpoints": 3})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in
                (out / "masses.csv").read_text().strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(np.isnan(float(r[1])) for r in rows)
        assert all(np.isfinite(float(r[2])) for r in rows)

    def test_pde_and_tilted_export_the_checkpoint_times(self, tmp_path):
        path, _ = write_cfg(tmp_path, scenario="cir-linear", horizon=0.015,
                            engines=["pde", "tilted"], steps_per_unit=400,
                            particles={"n_kde": 2000}, metric={"checkpoints": 4})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        columns = {}
        for engine in ("pde", "tilted"):
            lines = (out / f"density_{engine}.csv").read_text().strip().splitlines()[1:]
            columns[engine] = np.unique([float(line.split(",")[0]) for line in lines])
        np.testing.assert_array_equal(columns["pde"], columns["tilted"])
        np.testing.assert_array_equal(columns["pde"], np.linspace(0.0, 0.015, 4))
        summary = json.loads((out / "pde_summary.json").read_text())
        # dt is the largest accepted step of the plan the summary records,
        # each interval in at most its ceiling count of steps
        lengths = np.diff(columns["pde"])
        counts = np.array(summary["interval_steps"])
        assert summary["dt"] == (lengths / counts).max()
        assert summary["steps"] == counts.sum()
        assert (counts <= np.ceil(lengths / (DT_MULTIPLE * summary["dt_bound"]))).all()
        assert summary["negativity_clips"] == 0

    def test_every_table_shares_the_stored_times(self, tmp_path):
        # 20 Monte Carlo steps, 4 checkpoints: the particle engines store at
        # step nodes 0, 7, 13 and 20, off linspace(0, T, 4)
        path, _ = write_cfg(tmp_path, scenario="ou-linear", horizon=0.05, steps_per_unit=400,
                            engines=["affine", "tilted", "pde", "particle"],
                            particles={"n_kde": 2000}, metric={"checkpoints": 4})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        stored = np.array([0.0, 7, 13, 20]) * (0.05 / 20)
        tables = [f"density_{e}.csv" for e in ("affine", "tilted", "pde", "particle")]
        for name in tables + ["masses.csv"]:
            t = np.unique(np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=0))
            np.testing.assert_array_equal(t, stored, err_msg=name)


class TestChaosCommand:
    def test_numeric_failure_marks_the_manifest_failed(self, tmp_path, monkeypatch):
        import repmut.cli as cli

        def failing_estimate(*args, **kwargs):
            raise MetricError("BL LP failed")

        monkeypatch.setattr(cli, "dqt_estimate", failing_estimate)
        path, _ = write_cfg(tmp_path)
        out = tmp_path / "chaos"
        assert main(["chaos", "--config", path, "--out", str(out)]) == EXIT_NUMERIC
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status == "failed: BL LP failed"

    @pytest.mark.parametrize("ladder", [[100, 100, 100], [200, 100, 50], [50, 100, 100],
                                        [50, 100]])
    def test_ladder_not_strictly_increasing_is_config_error(self, tmp_path, capsys, ladder):
        # repeated counts share their stage seed, and so their D(N)
        path, _ = write_cfg(tmp_path, particles={"N": ladder, "reps": 3})
        out = tmp_path / "chaos"
        assert main(["chaos", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert "at least 3 strictly increasing particle counts" in capsys.readouterr().err
        assert not out.exists()

    def test_small_ladder_outputs(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        out = tmp_path / "chaos"
        assert main(["chaos", "--config", path, "--out", str(out)]) == EXIT_OK
        rates = (out / "rates.csv").read_text().strip().splitlines()
        assert rates[0] == "N,D,ci_lo,ci_hi"
        assert len(rates) == 4
        svg = (out / "rates.svg").read_text()
        assert svg.startswith("<svg") and "slope" in svg
        slope = float((out / "slope.csv").read_text().strip().splitlines()[1].split(",")[0])
        assert -1.5 < slope < 0.1
        # LP work per N: every checkpoint of every replicate solved or pruned
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert set(counters) == {"chaos/N=50", "chaos/N=100", "chaos/N=200"}
        for c in counters.values():
            assert c["lp_solved"] >= 3 and c["lp_solved"] + c["lp_pruned"] == 3 * 5
            assert 0 <= c["lp_full_support"] <= c["lp_cold"] <= c["lp_solved"]
            assert c["lp_atoms"] <= 128 * c["lp_solved"]
        # the rungs share one held model per checkpoint time: each solves cold
        # once per run, besides the full-support fallbacks
        held_cold = sum(c["lp_cold"] - c["lp_full_support"] for c in counters.values())
        assert 1 <= held_cold <= 5

    @staticmethod
    def loop_slopes(x, y, gen):
        """The slope bootstrap as one polyfit per draw."""
        slopes = []
        for _ in range(500):
            idx = gen.integers(0, len(x), len(x))
            if len(set(idx.tolist())) < 2:
                continue
            slopes.append(np.polyfit(x[idx], y[idx], 1)[0])
        return np.array(slopes)

    def test_bootstrap_rows_are_the_per_draw_stream(self):
        for n in (3, 4, 5):
            for seed in (1, 2, 3):
                rows = np.random.default_rng(seed).integers(0, n, (500, n))
                gen = np.random.default_rng(seed)
                assert np.array_equal(rows, [gen.integers(0, n, n) for _ in range(500)])

    def test_bootstrap_slope_interval_matches_polyfit_loop(self):
        from repmut.cli import bootstrap_slopes
        for n in (3, 4, 5):
            x = np.log(250.0 * 2.0 ** np.arange(n))
            y = -0.5 * x + np.random.default_rng(n).normal(0.0, 0.2, n)
            new = bootstrap_slopes(x, y, np.random.default_rng(10 + n))
            old = self.loop_slopes(x, y, np.random.default_rng(10 + n))
            assert new.shape == old.shape
            lo_hi_new = np.percentile(new, [2.5, 97.5])
            lo_hi_old = np.percentile(old, [2.5, 97.5])
            assert np.allclose(lo_hi_new, lo_hi_old, rtol=1e-12, atol=0.0)

    def test_fewer_than_three_ns_is_config_error(self, tmp_path):
        path, _ = write_cfg(tmp_path, particles={"N": [50, 100], "reps": 2,
                                                 "q": 2.0, "n_kde": 1000})
        assert main(["chaos", "--config", path, "--out", str(tmp_path / "x")]) \
            == EXIT_CONFIG

    def test_single_rep_flags_unreliable_ci(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path, particles={"N": [50, 100, 200], "reps": 1,
                                                 "q": 2.0, "n_kde": 1000})
        assert main(["chaos", "--config", path, "--out", str(tmp_path / "y")]) \
            == EXIT_OK
        assert "CI unreliable" in capsys.readouterr().out


class TestParticlesCommand:
    def test_outputs(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        out = tmp_path / "part"
        assert main(["particles", "--config", path, "--out", str(out)]) == EXIT_OK
        header = (out / "ensemble.csv").read_text().splitlines()[0]
        assert header == "particle,t,x0,logw"
        masses = (out / "masses.csv").read_text().splitlines()
        assert masses[0] == "t,h_t,h_t_mc,se"


class TestManifest:
    def test_manifest_fields(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        assert main(["manifest", "--config", path]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"config_hash", "master_seed", "stage_seeds",
                             "tolerances", "artifact_version"}
        assert data["master_seed"] == 7

    def test_seed_override(self, tmp_path, capsys):
        path, _ = write_cfg(tmp_path)
        main(["manifest", "--config", path, "--seed", "123"])
        assert json.loads(capsys.readouterr().out)["master_seed"] == 123

    def test_solve_manifest_written(self, tmp_path):
        path, _ = write_cfg(tmp_path)
        out = tmp_path / "o"
        main(["solve", "--config", path, "--out", str(out)])
        data = json.loads((out / "manifest.json").read_text())
        assert data["status"] == "complete"
        assert any(k.startswith("solve/") for k in data["wallclock"])
        assert "counters" not in data  # written only where a stage counts


class TestValidateCommand:
    def test_perturbed_tolerance_fails(self, monkeypatch, capsys):
        # forcing one tolerance to zero must flip the matrix to nonzero exit
        from repmut import constants
        monkeypatch.setitem(constants.TOL, "measure_identity", 0.0)
        from repmut.validate import _check_measure_identity
        ok, _ = _check_measure_identity()
        assert not ok


class TestCsvSchemas:
    # golden header strings pin schema version 1
    def test_all_headers(self, tmp_path):
        path, _ = write_cfg(tmp_path, engines=["linear", "pde", "particle"])
        out = tmp_path / "golden"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        assert main(["chaos", "--config", path, "--out", str(out)]) == EXIT_OK
        expected = {
            "density_linear.csv": "t,x,u",
            "density_pde.csv": "t,x,u",
            "density_particle.csv": "t,x,u",
            "l1_table.csv": "engine_a,engine_b,l1",
            "masses.csv": "t,h_t,h_t_mc,se",
            "rates.csv": "N,D,ci_lo,ci_hi",
            "slope.csv": "slope,ci_lo,ci_hi,theory,inversions",
        }
        for name, header in expected.items():
            first = (out / name).read_text().splitlines()[0]
            assert first == header, f"{name} header drifted: {first}"
        assert (out / "pde_summary.json").exists()
        # every engine's density table covers its full checkpoint set
        for name in ("density_linear.csv", "density_pde.csv", "density_particle.csv"):
            lines = (out / name).read_text().strip().splitlines()[1:]
            times = {line.split(",")[0] for line in lines}
            assert len(times) == 5, f"{name} covers {len(times)} of 5 checkpoints"


def fmt_csv_oracle(path, header, rows):
    """The per-value writer that write_csv replaced, kept as the oracle of
    its byte-identity tests."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    lines = [header] + [",".join(fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300]

WRITE_CSV_CASES = {
    "special-floats": [SPECIAL, [np.float64(v) for v in SPECIAL]],
    "scalar-types": [[np.float64(0.1), np.int64(-7), True, 10**17, 10**20, np.True_],
                     [np.float64(1e17), np.int64(2**62), False, -10**17, 0, np.False_]],
    "mixed-int-float-column": [[1, "a"], [0.5, "b"], [10**17, "c"],
                               [np.int64(3), "d"], [np.float64(2.5), "e"]],
    "mixed-text-number-column": [["nan", 1.0], [float("nan"), 2], ["x", -0.0]],
    "text-columns": [["affine", "linear", 0.0], ["linear", "pde", 8.0089494959548155e-06]],
    "tuples": [(0.05, 1, "x"), (0.1, 2, "y")],
    "empty-rows": [],
    "empty-row": [[]],
    "empty-float-array": np.empty((0, 3)),
    "float-array": np.vstack([np.random.default_rng(3).normal(scale=1e3, size=(50, 6)),
                              SPECIAL]),
    "int-array": np.array([[0, -1, 2**62], [10**17, 5, 6]], dtype=np.int64),
    "bool-array": np.array([[True, False], [False, True]]),
    "object-array": np.array([[1, 0.5, "x", np.int64(4)],
                              [np.int64(2), np.nan, "y", 10**18]], dtype=object),
    "str-array": np.array([["a", "b"], ["c", "d"]]),
    # many rows of a text, an integer and a float field, at every magnitude
    "long-mixed-rows": [["pde" if i % 3 else "linear", i, np.float64(v) if i % 2 else v]
                        for i, v in enumerate((np.random.default_rng(4).normal(size=80)
                                               * 10.0 ** np.arange(-40, 40)).tolist())],
    # a density table: t and x repeated, exact zeros, u near 1e-300
    "density-rows": np.column_stack([
        np.repeat([0.0, 0.05, 0.1], 40), np.tile(np.linspace(-12.0, 12.0, 40), 3),
        np.concatenate([np.zeros(40), np.logspace(-310.0, -290.0, 40),
                        np.exp(-np.linspace(-12.0, 12.0, 40) ** 2)])]),
}


class TestWriteCsv:
    @pytest.mark.parametrize("name", sorted(WRITE_CSV_CASES))
    def test_byte_identical_to_per_value_writer(self, tmp_path, name):
        rows = WRITE_CSV_CASES[name]
        write_csv(tmp_path / "new.csv", "a,b", rows)
        fmt_csv_oracle(tmp_path / "old.csv", "a,b", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "r.csv", "a,b", [[1, 2], [3]])
        assert list(tmp_path.iterdir()) == []

    def test_density_tables_parse_back_to_the_solutions(self, tmp_path):
        path, _ = write_cfg(tmp_path, engines=["linear", "pde", "particle"],
                            horizon=0.1, metric={"checkpoints": 3})
        out = tmp_path / "o"
        assert main(["solve", "--config", path, "--out", str(out)]) == EXIT_OK
        seeds = json.loads((out / "manifest.json").read_text())["stage_seeds"]
        cfg = load_config(path)
        sc = build_scenario(cfg)
        sols = {e: build_solution(e, sc, cfg, seeds[f"solve/{e}"]) for e in sc.engines}
        grid = sols["linear"].grid
        for engine, sol in sols.items():
            data = np.loadtxt(out / f"density_{engine}.csv", delimiter=",", skiprows=1)
            times = np.unique(data[:, 0])
            assert len(times) == 3
            expected = np.concatenate(
                [np.column_stack([np.full(len(grid), t), grid,
                                  np.maximum(sol.u(t, grid), 0.0)]) for t in times])
            np.testing.assert_array_equal(data, expected, err_msg=engine)
