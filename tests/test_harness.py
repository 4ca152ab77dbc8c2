"""Experiment spec parsing, the run/aggregate pipeline, emission, and the CLI."""

import json
from dataclasses import replace

import numpy as np
import pytest

from multiris.cli import main
from multiris.errors import DimensionMismatch, SpecError, UnknownPreset, ZeroVector
from multiris.harness import (
    ExperimentSpec,
    GainTable,
    emit,
    figure_preset,
    preset_names,
    run_experiment,
)
from multiris.harness import _GridPoint, _point_label
from multiris.scaling import ScalingInputs, expected_gain_physics_los, expected_gain_widely_los


def tiny_los_spec(**overrides):
    base = dict(scenario="los", l=(1, 2), n_i_grid=(2, 3), seed=7, trials=3,
                models=("physics", "widely_used", "suboptimal_cross"))
    base.update(overrides)
    return ExperimentSpec(**base)


def tiny_rayleigh_spec(**overrides):
    base = dict(scenario="rayleigh", l=(2,), n_i_grid=(3,), seed=11, trials=6,
                models=("physics", "widely_used", "suboptimal_cross"),
                optimizer={"max_outer_iters": 30})
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_round_trip(self):
        spec = ExperimentSpec(scenario="rician", l=(2, 4), n_i_grid=(8, 16), seed=3,
                              trials=50, rician_k=(0.0, 3.0), trial_overrides={16: 10},
                              models=("physics", "widely_used"),
                              architectures=("diagonal", "unitary"),
                              optimizer={"rel_tol": 1e-7},
                              output_path="out.json", output_format="json")
        assert ExperimentSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_from_json_text(self):
        spec = ExperimentSpec.from_json(json.dumps(
            {"scenario": "los", "l": 2, "n_i_grid": [4], "trials": 5, "seed": 1}))
        assert spec.l == (2,) and spec.models == ("physics", "widely_used")

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            ExperimentSpec.from_json_dict({"scenario": "los", "l": 2, "n_i_grid": [4],
                                           "trials": 5, "seed": 1, "surprise": True})

    def test_missing_required_key(self):
        with pytest.raises(SpecError, match="missing required key"):
            ExperimentSpec.from_json_dict({"scenario": "los", "l": 2, "n_i_grid": [4],
                                           "trials": 5})

    def test_scenario_object_forms(self):
        spec = ExperimentSpec.from_json_dict(
            {"scenario": {"kind": "rician", "k": [0.0, 1.0]}, "l": 2, "n_i_grid": [4],
             "trials": 5, "seed": 1})
        assert spec.scenario == "rician" and spec.rician_k == (0.0, 1.0)
        with pytest.raises(SpecError, match="kind 'rician'"):
            ExperimentSpec.from_json_dict({"scenario": {"kind": "los"}, "l": 2,
                                           "n_i_grid": [4], "trials": 5, "seed": 1})
        with pytest.raises(SpecError, match="unknown scenario keys"):
            ExperimentSpec.from_json_dict(
                {"scenario": {"kind": "rician", "k": [1.0], "mean": 2}, "l": 2,
                 "n_i_grid": [4], "trials": 5, "seed": 1})

    def test_trials_object_form(self):
        spec = ExperimentSpec.from_json_dict(
            {"scenario": "los", "l": 2, "n_i_grid": [4, 8],
             "trials": {"default": 100, "8": 10}, "seed": 1})
        assert spec.trials_for(4) == 100 and spec.trials_for(8) == 10
        with pytest.raises(SpecError, match="'default'"):
            ExperimentSpec.from_json_dict({"scenario": "los", "l": 2, "n_i_grid": [4],
                                           "trials": {"8": 10}, "seed": 1})

    def test_bool_rejected_where_int_expected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_json_dict({"scenario": "los", "l": 2, "n_i_grid": [4],
                                           "trials": 5, "seed": True})
        with pytest.raises(SpecError):
            ExperimentSpec.from_json_dict({"scenario": "los", "l": True, "n_i_grid": [4],
                                           "trials": 5, "seed": 1})

    def test_rician_k_constraints(self):
        with pytest.raises(SpecError, match="non-empty rician_k"):
            ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(4,), seed=1, trials=5)
        with pytest.raises(SpecError, match="only applies"):
            ExperimentSpec(scenario="los", l=(2,), n_i_grid=(4,), seed=1, trials=5,
                           rician_k=(1.0,))

    def test_cross_model_needs_both_parents(self):
        with pytest.raises(SpecError, match="suboptimal_cross"):
            ExperimentSpec(scenario="los", l=(2,), n_i_grid=(4,), seed=1, trials=5,
                           models=("physics", "suboptimal_cross"))

    def test_unknown_optimizer_key(self):
        with pytest.raises(SpecError, match="unknown optimizer key"):
            ExperimentSpec(scenario="los", l=(2,), n_i_grid=(4,), seed=1, trials=5,
                           optimizer={"learning_rate": 0.1})

    def test_output_object(self):
        spec = ExperimentSpec.from_json_dict(
            {"scenario": "los", "l": 2, "n_i_grid": [4], "trials": 5, "seed": 1,
             "output": {"path": "x.json", "format": "json"}})
        assert spec.output_path == "x.json" and spec.output_format == "json"
        with pytest.raises(SpecError, match="output"):
            ExperimentSpec.from_json_dict(
                {"scenario": "los", "l": 2, "n_i_grid": [4], "trials": 5, "seed": 1,
                 "output": {"path": "x.json", "mode": "append"}})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{not json")


class TestPresets:
    def test_all_presets_construct(self):
        names = preset_names()
        assert "smoke" in names and "los-diff" in names
        for name in names:
            spec = figure_preset(name)
            assert isinstance(spec, ExperimentSpec)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset, match="available:"):
            figure_preset("fig-99")


class TestRunExperiment:
    def test_los_grid_rows_and_metrics(self):
        table = run_experiment(tiny_los_spec())
        assert isinstance(table, GainTable)
        # 4 grid points x 3 models x 1 architecture
        assert len(table) == 12
        for row in table:
            assert row.converged_frac == 1.0
            assert row.bound_mean is None
            if row.model == "physics":
                assert row.eta is not None and row.rho is None
                expect = expected_gain_physics_los(
                    ScalingInputs(n_i=row.n_i, l=row.l, n_t=2, n_r=2))
                # 3 trials only; just sanity-band the Monte Carlo mean
                assert 0.3 * expect < row.mean_gain < 3.0 * expect
            elif row.model == "widely_used":
                assert row.eta is None and row.rho is None
                expect = expected_gain_widely_los(
                    ScalingInputs(n_i=row.n_i, l=row.l, n_t=2, n_r=2))
                assert row.mean_gain == pytest.approx(expect, rel=1e-9)
                assert row.std_err == pytest.approx(0.0, abs=1e-6 * expect)
            else:
                assert row.rho is not None and 0.0 < row.rho <= 1.0 + 1e-9

    def test_rayleigh_bounds_and_convergence(self):
        table = run_experiment(tiny_rayleigh_spec())
        by_model = {row.model: row for row in table}
        assert set(by_model) == {"physics", "widely_used", "suboptimal_cross"}
        for row in table:
            assert row.bound_mean is not None
            assert row.mean_gain <= row.bound_mean * (1 + 1e-9)
        assert by_model["suboptimal_cross"].rho == pytest.approx(
            by_model["suboptimal_cross"].mean_gain / by_model["physics"].mean_gain, rel=1e-12)

    def test_deterministic_across_runs_and_parallelism(self, tmp_path):
        spec = tiny_rayleigh_spec()
        paths = []
        for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
            table = run_experiment(spec, parallel=workers)
            paths.append(emit(table, "csv", tmp_path / name))
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]

    def test_parallel_must_be_positive(self):
        with pytest.raises(DimensionMismatch):
            run_experiment(tiny_los_spec(), parallel=0)

    def test_point_label_ignores_rician_k(self):
        # the pairing contract: one channel draw is shared across the K grid
        a = _point_label(_GridPoint(2, 8, 0.0))
        b = _point_label(_GridPoint(2, 8, 30.0))
        assert a == b

    def test_rician_rows_carry_k(self):
        spec = ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(3,), seed=5, trials=3,
                              rician_k=(0.0, 5.0), models=("physics", "widely_used"),
                              optimizer={"max_outer_iters": 20})
        table = run_experiment(spec)
        ks = sorted({row.rician_k for row in table})
        assert ks == [0.0, 5.0]


class TestEmit:
    def test_csv_layout_and_round_trip(self, tmp_path):
        spec = tiny_los_spec()
        table = run_experiment(spec)
        path = emit(table, "csv", tmp_path / "rows.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# spec ")
        embedded = ExperimentSpec.from_json(lines[0][len("# spec "):])
        assert embedded == spec
        header = lines[1].split(",")
        assert header[0] == "scenario" and "mean_gain" in header
        assert len(lines) == 2 + len(table)
        first = lines[2].split(",")
        gain_col = header.index("mean_gain")
        assert float(first[gain_col]) == table.rows[0].mean_gain

    def test_json_layout(self, tmp_path):
        spec = tiny_los_spec()
        table = run_experiment(spec)
        path = emit(table, "json", tmp_path / "rows.json")
        doc = json.loads(path.read_text())
        assert ExperimentSpec.from_json_dict(doc["spec"]) == spec
        assert len(doc["rows"]) == len(table)
        assert doc["rows"][0]["model"] in ("physics", "widely_used", "suboptimal_cross")

    def test_unknown_format(self, tmp_path):
        table = run_experiment(tiny_los_spec(trials=1, l=(1,), n_i_grid=(2,)))
        with pytest.raises(SpecError):
            emit(table, "yaml", tmp_path / "rows.yaml")


class TestValidateIsSensitive:
    def test_clean_run_passes(self):
        from multiris.validation import validate
        report = validate()
        assert report.passed
        assert len(report.checks) >= 8
        assert "PASS" in report.format_text()

    def test_detects_model_perturbation(self, monkeypatch):
        import multiris.validation as validation
        true_fn = validation.channel_z_matched

        def skewed(*args, **kwargs):
            return 1.000001 * true_fn(*args, **kwargs)

        monkeypatch.setattr(validation, "channel_z_matched", skewed)
        report = validation.validate()
        assert not report.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert failed


class TestCli:
    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "los-diff" in out

    def test_run_preset_to_file(self, tmp_path, capsys):
        out = tmp_path / "smoke.csv"
        code = main(["run", "--preset", "smoke", "--trials", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# spec ")
        # --trials override is recorded in the embedded spec
        assert '"trials":2' in lines[0]
        assert "wrote" in capsys.readouterr().out

    def test_run_preset_stdout(self, tmp_path, capsys):
        # without --out, stdout carries exactly the bytes emit writes
        table = run_experiment(replace(figure_preset("smoke"), trials=1, trial_overrides={}))
        for fmt in ("csv", "json"):
            code = main(["run", "--preset", "smoke", "--trials", "1", "--format", fmt])
            assert code == 0
            out = capsys.readouterr().out
            assert out == emit(table, fmt, tmp_path / f"smoke.{fmt}").read_text()

    def test_run_spec_file(self, tmp_path):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({
            "scenario": "los", "l": 1, "n_i_grid": [2], "trials": 2, "seed": 3,
            "output": {"path": str(tmp_path / "exp_rows.json"), "format": "json"}}))
        assert main(["run", "--spec", str(spec_path)]) == 0
        doc = json.loads((tmp_path / "exp_rows.json").read_text())
        assert doc["rows"]

    def test_seed_override_changes_output(self, tmp_path):
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(json.dumps({
            "scenario": "rayleigh", "l": 2, "n_i_grid": [3], "trials": 2, "seed": 3}))
        outs = []
        for seed, name in ((1, "s1.csv"), (2, "s2.csv"), (1, "s1b.csv")):
            path = tmp_path / name
            assert main(["run", "--spec", str(spec_path), "--seed", str(seed),
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[2]
        assert outs[0] != outs[1]

    def test_unknown_preset_exit_2(self, capsys):
        assert main(["run", "--preset", "fig-99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["run", "--spec", str(bad)]) == 2
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"scenario": "los", "l": 2, "n_i_grid": [4],
                                      "trials": 5, "seed": 1, "extra": 1}))
        assert main(["run", "--spec", str(schema)]) == 2

    def test_runtime_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        import multiris.harness as harness

        def failing_bound(ch):
            raise ZeroVector("injected runtime failure")

        monkeypatch.setattr(harness, "upper_bound_physics", failing_bound)
        spec_path = tmp_path / "fail.json"
        spec_path.write_text(json.dumps({
            "scenario": "rayleigh", "l": 2, "n_i_grid": [2], "trials": 1, "seed": 1,
            "models": ["physics"]}))
        assert main(["run", "--spec", str(spec_path)]) == 1
        assert "error: injected runtime failure" in capsys.readouterr().err

    def test_bad_parallel_exit_2(self, capsys):
        assert main(["run", "--preset", "smoke", "--parallel", "0"]) == 2

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        assert "PASS" in capsys.readouterr().out
