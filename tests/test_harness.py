"""Experiment spec parsing, the run/aggregate pipeline, emission, and the CLI."""

import importlib.util
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import los_gains_per_trial
from multiris.cli import main
from multiris.errors import DimensionMismatch, SpecError, UnknownPreset, ZeroVector
from multiris.fading import FadingSpec, gen_cascade
from multiris.harness import (
    BLOCK_BYTES,
    ExperimentSpec,
    GainTable,
    emit,
    figure_preset,
    format_table,
    preset_names,
    run_experiment,
)
from multiris.harness import (
    _block_cost,
    _blocks,
    _grid,
    _GridPoint,
    _pair_bytes,
    _point_label,
    _run_block,
)
from multiris.multiport import Dimensions
from multiris.optimize import _LOS_CHUNK_BYTES
from multiris.rng import RandomStream
from multiris.scaling import expected_gain_physics_los, expected_gain_widely_los


def tiny_los_spec(**overrides):
    base = dict(scenario="los", l=(1, 2), n_i_grid=(2, 3), seed=7, trials=3,
                models=("physics", "widely_used", "suboptimal_cross"))
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture
def inline_pool(monkeypatch):
    """Swaps the harness's process pool for one that runs the tasks in this
    process, in the order they are handed over. Returns the log of the worker
    count each pool was asked for and of the tasks handed over."""
    import multiris.harness as harness

    log = SimpleNamespace(workers=[], tasks=[])

    class InlinePool:
        def __init__(self, max_workers):
            log.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            log.tasks.extend(tasks)
            return [fn(task) for task in tasks]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return log


@pytest.fixture
def pairs_per_block(monkeypatch):
    """Call it with a count to make every block hold that many pairs, whatever its
    shape: each pair then counts one byte against a budget of count bytes."""
    import multiris.harness as harness

    def cut(count):
        monkeypatch.setattr(harness, "_pair_bytes", lambda spec, point: 1)
        monkeypatch.setattr(harness, "BLOCK_BYTES", count)

    return cut


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
                              optimizer={"rel_tol": 1e-7})
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

    @pytest.mark.parametrize("change", [
        {"n_t": True},
        {"n_r": False},
        {"path_gain": "2.5"},
        {"path_gain": True},
        {"scenario": {"kind": "rician", "k": ["3"]}},
        {"scenario": {"kind": "rician", "k": [True]}},
        {"trials": {"default": True}},
        {"trials": {"default": 5, "4": True}},
        {"optimizer": {"rel_tol": "1e-3"}},
        {"optimizer": {"rel_tol": False}},
        {"optimizer": {"max_inner_iters": 2.5}},
        {"optimizer": {"max_outer_iters": True}},
        {"optimizer": {"max_inner_iters": None}},
        {"optimizer": {"max_outer_iters": 0}},
        {"optimizer": {"rel_tol": -1.0}},
        {"optimizer": {"max_outer_iters": "100"}},
        {"path_gain": 10 ** 400},
        {"scenario": {"kind": "rician", "k": [10 ** 400]}},
        {"trials": {"default": 5, "\u00b2": 3}},
        {"trials": {"default": 5, 4: 3}},
        {"models": None},
        {"architectures": None},
        {"n_i_grid": [4.5]},
        {"l": [2, 2]},
        {"n_i_grid": [4, 8, 4]},
        {"scenario": {"kind": "rician", "k": [0, 0.0]}},
        {"models": ["physics", "physics"]},
        {"architectures": ["diagonal", "unitary", "diagonal"]},
        {"trials": {"default": 5, "999": 3}},
    ])
    def test_mistyped_values_rejected(self, change):
        obj = {"scenario": "los", "l": 2, "n_i_grid": [4], "trials": 5, "seed": 1, **change}
        with pytest.raises(SpecError):
            ExperimentSpec.from_json_dict(obj)

    @pytest.mark.parametrize("change", [
        {"path_gain": 10 ** 400},
        {"path_gain": float("inf")},
        {"scenario": "rician", "rician_k": (10 ** 400,)},
        {"scenario": "rician", "rician_k": (float("nan"),)},
        {"trials": -10 ** 5000},
        {"seed": -10 ** 5000},
        {"l": (-10 ** 5000,)},
        {"l": (10 ** 400,)},
        {"n_t": -10 ** 5000},
        {"trial_overrides": {4: -10 ** 5000}},
        {"optimizer": {"max_outer_iters": 2.5}},
        {"optimizer": {"max_inner_iters": True}},
        {"optimizer": {"max_outer_iters": -10 ** 5000}},
        {"optimizer": {"rel_tol": "x"}},
        {"optimizer": {"rel_tol": 10 ** 400}},
        {"optimizer": {"seed": 3}},
        {"optimizer": "x"},
        {"trial_overrides": "ab"},
        {"optimizer": {"init": "identity"}},
        {"l": (2, 2)},
        {"n_i_grid": (4, 4)},
        {"scenario": "rician", "rician_k": (0, 0.0)},
        {"scenario": "rician", "rician_k": (1.0, 3.0, np.float64(1.0))},
        {"models": ("physics", "physics")},
        {"architectures": ("diagonal", "diagonal")},
        {"trial_overrides": {999: 5}},
        {"n_i_grid": (4, 8), "trial_overrides": {4: 2, 16: 3}},
        pytest.param({"l": (2, 2), "n_i_grid": (4, 4), "trials": 2,
                      "models": ("physics", "physics"),
                      "architectures": ("diagonal", "diagonal")}, id="every-grid-repeated"),
    ])
    def test_python_caller_values_rejected(self, change):
        # typed, and with a message that prints even for an int too long to repr
        base = dict(scenario="los", l=(2,), n_i_grid=(4,), seed=1, trials=5)
        with pytest.raises(SpecError, match="must|unknown optimizer key"):
            ExperimentSpec(**{**base, **change})

    @pytest.mark.parametrize("field, value, grid", [
        ("l", 2, (2,)),
        ("n_i_grid", 4, (4,)),
        ("rician_k", 1, (1.0,)),
        ("models", "physics", ("physics",)),
        ("architectures", "unitary", ("unitary",)),
    ])
    def test_single_grid_value_is_a_grid_of_one(self, field, value, grid):
        base = dict(scenario="rician", l=(2,), n_i_grid=(4,), seed=1, trials=5,
                    rician_k=(1.0,))
        spec = ExperimentSpec(**{**base, field: value})
        assert spec == ExperimentSpec(**{**base, field: grid})
        assert getattr(spec, field) == grid

    def test_json_single_values(self):
        spec = ExperimentSpec.from_json_dict(
            {"scenario": {"kind": "rician", "k": 3}, "l": 2, "n_i_grid": 4, "trials": 5,
             "seed": 1, "models": "physics"})
        assert spec.rician_k == (3.0,) and spec.models == ("physics",)

    def test_numpy_values_written_as_floats(self):
        spec = ExperimentSpec(scenario="rician", l=(1,), n_i_grid=(2,), seed=1, trials=2,
                              rician_k=np.array([1.0, 3.0]), path_gain=np.float64(2),
                              optimizer={"max_outer_iters": 5})
        assert type(spec.path_gain) is float
        assert all(type(k) is float for k in spec.rician_k)
        lines = format_table(run_experiment(spec), "csv").splitlines()
        column = lines[1].split(",").index("rician_k")
        assert {line.split(",")[column] for line in lines[2:]} == {"1.0", "3.0"}

    def test_numpy_ints_give_the_bytes_of_python_ints(self):
        base = dict(scenario="los", models=("physics", "widely_used", "suboptimal_cross"))
        spec = ExperimentSpec(**base, l=np.array([2]), n_i_grid=np.arange(8, 33, 8),
                              seed=np.int64(3), trials=np.int32(2), n_t=np.int64(2),
                              n_r=np.uint8(2), trial_overrides={np.int64(16): np.int64(3)},
                              optimizer={"max_outer_iters": np.int64(5)})
        plain = ExperimentSpec(**base, l=(2,), n_i_grid=(8, 16, 24, 32), seed=3, trials=2,
                               trial_overrides={16: 3}, optimizer={"max_outer_iters": 5})
        assert spec == plain
        ints = [*spec.l, *spec.n_i_grid, spec.seed, spec.trials, spec.n_t, spec.n_r,
                *spec.trial_overrides, *spec.trial_overrides.values(), *spec.optimizer.values()]
        assert all(type(v) is int for v in ints)
        for fmt in ("csv", "json"):
            assert format_table(run_experiment(spec), fmt) == \
                format_table(run_experiment(plain), fmt)

    def test_numpy_floats_give_the_bytes_of_python_floats(self, tmp_path):
        # float32 values were refused as not finite; stored as they came, rician_k would
        # keep the Rician mix in float32 and rel_tol would fail json.dumps after the run
        def spec(real):
            return ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(4,), seed=3, trials=3,
                                  rician_k=(real(0.0), real(2.5)), path_gain=real(0.5),
                                  optimizer={"rel_tol": real(1e-6)},
                                  models=("physics", "widely_used", "suboptimal_cross"))

        single, plain = spec(np.float32), spec(lambda x: float(np.float32(x)))
        assert single == plain
        assert all(type(v) is float for v in (single.path_gain, *single.rician_k,
                                              *single.optimizer.values()))
        for fmt in ("csv", "json"):
            written = [emit(run_experiment(s), fmt, tmp_path / f"{name}.{fmt}").read_bytes()
                       for name, s in (("single", single), ("plain", plain))]
            assert written[0] == written[1]

    def test_numpy_bools_are_not_ints(self):
        with pytest.raises(SpecError, match="trials"):
            ExperimentSpec(scenario="los", l=(2,), n_i_grid=(4,), seed=1, trials=np.True_)

    def test_int_numbers_rerun_from_header_to_same_bytes(self):
        spec = ExperimentSpec(scenario="rician", l=(1,), n_i_grid=(2,), seed=1, trials=2,
                              rician_k=(1,), path_gain=2, optimizer={"max_outer_iters": 5})
        for fmt in ("csv", "json"):
            text = format_table(run_experiment(spec), fmt)
            if fmt == "csv":
                embedded = ExperimentSpec.from_json(text.splitlines()[0][len("# spec "):])
            else:
                embedded = ExperimentSpec.from_json_dict(json.loads(text)["spec"])
            assert format_table(run_experiment(embedded), fmt) == text

    def test_negative_zero_k_gives_the_bytes_of_zero(self):
        # -0.0 passes the k >= 0 check; kept as is it wrote "-0.0" into the spec and every row
        tables = [[format_table(run_experiment(ExperimentSpec(
            scenario="rician", l=(1,), n_i_grid=(2,), seed=1, trials=2, rician_k=(k,))), fmt)
            for fmt in ("csv", "json")] for k in (-0.0, 0.0)]
        assert tables[0] == tables[1]
        assert "-0.0" not in tables[0][0]

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
                expect = expected_gain_physics_los(row.n_i, row.l, 2, 2)
                # 3 trials only; just sanity-band the Monte Carlo mean
                assert 0.3 * expect < row.mean_gain < 3.0 * expect
            elif row.model == "widely_used":
                assert row.eta is None and row.rho is None
                expect = expected_gain_widely_los(row.n_i, row.l, 2, 2)
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

    @pytest.mark.parametrize("scenario", [
        dict(scenario="rayleigh", l=(2,), n_i_grid=(2,),
             architectures=("diagonal", "unitary")),
        dict(scenario="rician", l=(2,), n_i_grid=(2,), rician_k=(0.0, 4.0)),
        # closed-form blocks through the pool, several 1 MiB chunks per hop at n_i = 128
        dict(scenario="los", l=(1, 3), n_i_grid=(2, 128), n_t=3, n_r=1, path_gain=0.37),
    ])
    def test_multi_block_bytes_match_across_parallelism(self, tmp_path, pairs_per_block,
                                                        scenario):
        # two full blocks and a partial one per grid point
        pairs_per_block(32)
        spec = ExperimentSpec(seed=13, trials=2 * 32 + 3,
                              models=("physics", "widely_used", "suboptimal_cross"),
                              optimizer={"max_outer_iters": 30}, **scenario)
        for fmt in ("csv", "json"):
            blobs = [emit(run_experiment(spec, parallel=workers), fmt,
                          tmp_path / f"{workers}.{fmt}").read_bytes() for workers in (1, 2)]
            assert blobs[0] == blobs[1]

    def test_los_closed_forms_serve_both_architectures(self):
        spec = tiny_los_spec(architectures=("diagonal", "unitary"))
        header, *lines = format_table(run_experiment(spec), "csv").splitlines()[1:]
        column = header.split(",").index("architecture")
        by_arch = {}
        for line in lines:
            cells = line.split(",")
            by_arch.setdefault(cells.pop(column), []).append(cells)
        assert set(by_arch) == {"diagonal", "unitary"}
        assert by_arch["diagonal"] == by_arch["unitary"]

    def test_pool_gets_costliest_blocks_first(self, inline_pool, pairs_per_block):
        pairs_per_block(32)
        spec = replace(figure_preset("los-diff"), trials=32 + 8)
        parallel = format_table(run_experiment(spec, parallel=2), "csv")
        # no K axis: every block holds consecutive trials of one grid point
        dispatched = []
        for _, pairs in inline_pool.tasks:
            (point, first), count = pairs[0], len(pairs)
            assert pairs == tuple((point, t) for t in range(first, first + count))
            dispatched.append((point.l, point.n_i, first, count))
        costs = [count * l * n_i ** 2 for l, n_i, _, count in dispatched]
        assert len(dispatched) == 2 * len(spec.l) * len(spec.n_i_grid)
        assert dispatched[0] == (4, 128, 0, 32)
        assert costs == sorted(costs, reverse=True)
        # equal costs keep grid order: l=4, n_i=64's full block before the tail of n_i=128
        assert dispatched.index((4, 64, 0, 32)) + 1 == dispatched.index((4, 128, 32, 8))
        assert parallel == format_table(run_experiment(spec), "csv")

    @pytest.mark.parametrize("scenario, l", [("rayleigh", 2), ("los", 4)])
    @pytest.mark.parametrize("log_gain", [-99.5, 99.5])
    def test_path_gain_just_inside_the_window_runs_clean(self, scenario, l, log_gain):
        # the gain scale path_gain^(2(l+1)) n_i^(2l) n_t n_r at n_i = 4, n_t = n_r = 2
        # sits half an order inside 1e+-100
        log_pg = (log_gain - (2 * l + 1) * math.log10(4)) / (2 * (l + 1))
        spec = ExperimentSpec(scenario=scenario, l=(l,), n_i_grid=(4,), seed=1, trials=2,
                              path_gain=10 ** log_pg,
                              models=("physics", "widely_used", "suboptimal_cross"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_experiment(spec)
        for row in table:
            assert 0.0 < row.mean_gain < math.inf and math.isfinite(row.std_err)
        # one order further out is refused
        with pytest.raises(SpecError, match="path_gain"):
            replace(spec, path_gain=10 ** (log_pg + math.copysign(1.0, log_gain) / (2 * (l + 1))))

    def test_parallel_must_be_positive(self):
        with pytest.raises(DimensionMismatch):
            run_experiment(tiny_los_spec(), parallel=0)

    @pytest.mark.parametrize("parallel", [-1, 2.5, True, "2"])
    def test_parallel_must_be_an_int(self, parallel):
        with pytest.raises(DimensionMismatch, match="parallel must be an integer"):
            run_experiment(tiny_los_spec(), parallel=parallel)

    @pytest.mark.parametrize("spec, parallel, workers", [
        (replace(figure_preset("smoke"), trials=2), 3, None),  # one block: no pool at all
        (tiny_los_spec(), 3, 3),
        (tiny_los_spec(), 8, 4),  # four blocks, so four workers
        # 2 trials x 5 K of one (l, n_i) are 10 pairs: one block, so no pool
        (replace(figure_preset("rician-k"), trials=2), 2, None),
    ])
    def test_pool_never_gets_more_workers_than_blocks(self, inline_pool, spec, parallel, workers):
        table = format_table(run_experiment(spec, parallel=parallel), "csv")
        assert inline_pool.workers == ([] if workers is None else [workers])
        assert table == format_table(run_experiment(spec), "csv")

    def test_k_grid_packs_into_blocks_of_pairs(self, tmp_path, monkeypatch, pairs_per_block):
        """13 trials x 3 K are 39 (grid point, trial) pairs, cut into one block of 32
        and one of 7, so the second block starts inside K = 30. Each K's rows must be
        the bytes of a single-K run of that K, and the table the bytes of a real
        2-process run."""
        import multiris.harness as harness

        pairs_per_block(32)
        spec = ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(4,), seed=19, trials=13,
                              rician_k=(0.0, 1.0, 30.0),
                              models=("physics", "widely_used", "suboptimal_cross"),
                              architectures=("diagonal", "unitary"),
                              optimizer={"max_outer_iters": 30})
        k0, k1, k30 = (_GridPoint(2, 4, k) for k in spec.rician_k)
        blocks = _blocks(spec)
        pairs = [(point, t) for point in (k0, k1, k30) for t in range(13)]
        assert [block_pairs for _, block_pairs in blocks] == [tuple(pairs[:32]), tuple(pairs[32:])]
        assert [_block_cost(block) for block in blocks] == [32 * 2 * 16, 7 * 2 * 16]

        batch_sizes = []
        alg1_batch = harness.alg1_batch

        def counted(chs, *args):
            batch_sizes.append(len(chs))
            return alg1_batch(chs, *args)

        monkeypatch.setattr(harness, "alg1_batch", counted)
        table = run_experiment(spec)
        # one batch per architecture and block over every (pair, model) member
        assert batch_sizes == [32 * 2, 32 * 2, 7 * 2, 7 * 2]
        monkeypatch.setattr(harness, "alg1_batch", alg1_batch)

        def rows(text):
            header, *lines = text.splitlines()[1:]
            column = header.split(",").index("rician_k")
            return lines, column

        lines, column = rows(format_table(table, "csv"))
        for k in spec.rician_k:
            alone, _ = rows(format_table(run_experiment(replace(spec, rician_k=(k,))), "csv"))
            assert [line for line in lines if line.split(",")[column] == repr(k)] == alone
        parallel = emit(run_experiment(spec, parallel=2), "csv", tmp_path / "par.csv")
        assert parallel.read_text() == format_table(table, "csv")

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

    @pytest.mark.parametrize("model", ["physics", "widely_used"])
    def test_single_model_spec_matches_its_rows_of_both(self, model):
        # a block takes both bounds in one pass whichever models the spec names, and
        # an alg1 member's result does not depend on its batch, so bit for bit
        def key(row):
            return (row.architecture, row.l, row.n_i, row.mean_gain, row.std_err,
                    row.bound_mean, row.converged_frac)

        both = run_experiment(tiny_rayleigh_spec(models=("physics", "widely_used"),
                                                 architectures=("diagonal", "unitary")))
        alone = run_experiment(tiny_rayleigh_spec(models=(model,),
                                                  architectures=("diagonal", "unitary")))
        assert [key(row) for row in alone] == [key(row) for row in both if row.model == model]
        # the physics path sum holds the widely used product as one of its terms
        bound = {row.model: row.bound_mean for row in both if row.architecture == "diagonal"}
        assert bound["physics"] > bound["widely_used"] > 0.0


class TestBlockBudget:
    """Blocks hold as many pairs as BLOCK_BYTES holds, by a footprint read off the spec."""

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_blocks_fit_the_budget(self, name):
        # no run: the cut of every preset at full trial count, from the spec alone
        spec = figure_preset(name)
        runs = {}
        for _, pairs in _blocks(spec):
            point = pairs[0][0]
            assert len(pairs) * _pair_bytes(spec, point) <= BLOCK_BYTES
            full = len(pairs) == BLOCK_BYTES // _pair_bytes(spec, point)
            runs.setdefault((point.l, point.n_i), []).append((len(pairs), full))
        for (l, n_i), blocks in runs.items():
            # every block of an (l, n_i) run is full but the last
            assert all(full for _, full in blocks[:-1])
            if (l, n_i) == (4, 128) and spec.scenario != "los":
                # the headline diagonal block holds the 32 pairs it always held
                assert [count for count, _ in blocks] == [32, 32, 32, 4]

    def test_pair_over_budget_runs_alone(self):
        spec = ExperimentSpec(scenario="rayleigh", l=(4,), n_i_grid=(2048,), seed=1, trials=3)
        assert _pair_bytes(spec, _grid(spec)[0]) > BLOCK_BYTES
        assert [len(pairs) for _, pairs in _blocks(spec)] == [1, 1, 1]

    def test_unitary_and_model_count_grow_the_footprint(self):
        point = _GridPoint(2, 32, None)
        base = dict(scenario="rayleigh", l=(2,), n_i_grid=(32,), seed=1, trials=1)
        one = _pair_bytes(ExperimentSpec(**base, models=("physics",)), point)
        two = _pair_bytes(ExperimentSpec(**base), point)
        unitary = _pair_bytes(ExperimentSpec(**base, architectures=("diagonal", "unitary")), point)
        los = _pair_bytes(ExperimentSpec(**{**base, "scenario": "los"}), point)
        assert los < one < two < unitary
        # a unitary member holds its l surfaces and the step's temporaries as matrices
        assert unitary - two >= 2 * 16 * (2 + 1) * 32 * 32

    @pytest.mark.parametrize("spec", [
        # the K grid of one (l, n_i), both architectures and all three models
        ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(4,), seed=23, trials=5,
                       rician_k=(0.0, 1.0, 30.0),
                       models=("physics", "widely_used", "suboptimal_cross"),
                       architectures=("diagonal", "unitary"),
                       optimizer={"max_outer_iters": 30}),
        # 60 trials at l = 4, n_i = 128 are two blocks under the default budget
        ExperimentSpec(scenario="los", l=(1, 4), n_i_grid=(128,), seed=29, trials=60,
                       n_t=3, n_r=1, models=("physics", "widely_used", "suboptimal_cross")),
    ], ids=["rician-k-grid", "los-n128"])
    def test_table_bytes_do_not_depend_on_the_cut(self, tmp_path, monkeypatch, spec):
        import multiris.harness as harness

        want = {fmt: emit(run_experiment(spec), fmt, tmp_path / f"want.{fmt}").read_bytes()
                for fmt in ("csv", "json")}
        runs = len(spec.l) * len(spec.n_i_grid)
        pairs = len(_grid(spec)) * spec.trials
        # one pair per block, the default budget, and one block per (l, n_i) run
        counts = []
        for budget in (1, BLOCK_BYTES, 1 << 62):
            monkeypatch.setattr(harness, "BLOCK_BYTES", budget)
            counts.append(len(_blocks(spec)))
            for parallel in (1, 2):
                table = run_experiment(spec, parallel=parallel)
                for fmt in ("csv", "json"):
                    got = emit(table, fmt, tmp_path / f"{budget}-{parallel}.{fmt}").read_bytes()
                    assert got == want[fmt]
        assert counts[0] == pairs and counts[2] == runs
        assert counts[1] == (runs if spec.scenario == "rician" else runs + 1)


def test_every_traced_name_exists_on_its_owner():
    # the benchmark tracer rebinds attributes of the package's modules by name, and
    # fails on the first one that is gone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._BINDINGS
    for owner, attr, _ in tracing._BINDINGS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


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
            "scenario": "los", "l": 1, "n_i_grid": [2], "trials": 2, "seed": 3}))
        out = tmp_path / "exp_rows.json"
        assert main(["run", "--spec", str(spec_path), "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_reruns_from_its_own_spec(self, tmp_path, fmt):
        first = tmp_path / f"first.{fmt}"
        assert main(["run", "--preset", "smoke", "--trials", "2", "--out", str(first),
                     "--format", fmt]) == 0
        text = first.read_text()
        if fmt == "csv":
            embedded = text.splitlines()[0][len("# spec "):]
        else:
            embedded = json.dumps(json.loads(text)["spec"])
        spec_path = tmp_path / "embedded.json"
        spec_path.write_text(embedded)
        again = tmp_path / f"again.{fmt}"
        assert main(["run", "--spec", str(spec_path), "--out", str(again),
                     "--format", fmt]) == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("change, key", [
        ({"output": {"path": "x.csv", "format": "csv"}}, "'output'"),
        ({"optimizer": {"init": "identity"}}, "'init'"),
    ])
    def test_removed_spec_keys_exit_2(self, tmp_path, capsys, change, key):
        spec_path = tmp_path / "old.json"
        spec_path.write_text(json.dumps({"scenario": "los", "l": 1, "n_i_grid": [2],
                                         "trials": 1, "seed": 1, **change}))
        assert main(["run", "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "error: unknown" in err and key in err

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
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"scenario": "\xff"}')
        assert main(["run", "--spec", str(binary)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_repeated_grid_value_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "repeated.json"
        spec_path.write_text(json.dumps({"scenario": "los", "l": [2, 2], "n_i_grid": [4],
                                         "trials": 2, "seed": 1}))
        assert main(["run", "--spec", str(spec_path)]) == 2
        assert "error: l values must be distinct" in capsys.readouterr().err

    def test_mistyped_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "typo.json"
        spec_path.write_text(json.dumps({"scenario": "rayleigh", "l": 2, "n_i_grid": [2],
                                         "trials": 1, "seed": 1,
                                         "optimizer": {"rel_tol": "1e-3"}}))
        assert main(["run", "--spec", str(spec_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_number_spec_exit_2(self, tmp_path, capsys):
        # beyond a double, and beyond int()'s default digit limit
        for digits in (400, 5000):
            spec_path = tmp_path / f"huge{digits}.json"
            spec_path.write_text('{"scenario": "los", "l": 2, "n_i_grid": [2], "trials": 1, '
                                 '"seed": 1, "path_gain": 1' + "0" * digits + "}")
            assert main(["run", "--spec", str(spec_path)]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        # overflowed in matmul, then raised LinAlgError
        {"scenario": "rayleigh", "l": 2, "n_i_grid": 4, "trials": 2, "seed": 1,
         "path_gain": 1e120},
        # ran to gains of exactly 0.0
        {"scenario": "los", "l": 4, "n_i_grid": 4, "trials": 2, "seed": 1, "path_gain": 1e-40},
    ])
    def test_path_gain_out_of_range_exit_2(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path)]) == 2
        assert "error: path_gain" in capsys.readouterr().err

    def test_runtime_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        import multiris.harness as harness

        def failing_bounds(chs):
            raise ZeroVector("injected runtime failure")

        monkeypatch.setattr(harness, "_upper_bounds", failing_bounds)
        spec_path = tmp_path / "fail.json"
        spec_path.write_text(json.dumps({
            "scenario": "rayleigh", "l": 2, "n_i_grid": [2], "trials": 1, "seed": 1,
            "models": ["physics"]}))
        assert main(["run", "--spec", str(spec_path)]) == 1
        assert "error: injected runtime failure" in capsys.readouterr().err

    def test_bad_parallel_exit_2(self, capsys):
        assert main(["run", "--preset", "smoke", "--parallel", "0"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        # an unknown subcommand is bad input: exit 2, and no traceback
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err and "validate" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestLosBlock:
    """A line-of-sight block factors each hop position as stacks over its trials."""

    @pytest.mark.parametrize("n_i", [1, 2, 8, 128])
    @pytest.mark.parametrize("l", [1, 2, 4, 6])
    def test_gains_match_per_trial_oracle(self, pairs_per_block, l, n_i):
        # 40 trials: a full block and a partial one, and at n_i = 128 several chunks
        # per hop position
        pairs_per_block(32)
        for n_t, n_r in ((2, 2), (1, 3), (3, 1)):
            for path_gain in (1.0, 0.37):
                spec = tiny_los_spec(l=l, n_i_grid=n_i, n_t=n_t, n_r=n_r, trials=40,
                                     path_gain=path_gain)
                got = {}
                for _, pairs in _blocks(spec):
                    for key, column in _run_block(spec, pairs).items():
                        got.setdefault(key, []).extend(g for g, _ in column)
                dims = Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l)
                for t in range(spec.trials):
                    stream = RandomStream(spec.seed, ("point", l, n_i)).child("trial", t)
                    ch = gen_cascade(dims, FadingSpec("los", path_gain), stream.child("channel"))
                    want = dict(zip(("physics", "widely_used", "suboptimal_cross"),
                                    los_gains_per_trial(ch, path_gain)))
                    for m in spec.models:
                        assert got[(m, "diagonal")][t] == want[m]

    @pytest.mark.parametrize("path_gain", [1.0, 0.37])
    def test_widely_used_rows_have_no_spread(self, pairs_per_block, path_gain):
        # every trial reads the one widely used gain of its draw, so the column holds
        # no rounding noise; 40 trials make a full and a partial block. At l = 3 and
        # path gain 0.37, numpy's std of the 40 equal gains is not 0
        pairs_per_block(32)
        spec = tiny_los_spec(l=(1, 3), n_i_grid=(8, 128), n_t=3, n_r=3, trials=40,
                             path_gain=path_gain)
        rows = [row for row in run_experiment(spec) if row.model == "widely_used"]
        assert len(rows) == 4
        for row in rows:
            expect = expected_gain_widely_los(row.n_i, row.l, 3, 3, path_gain ** (row.l + 1))
            assert row.std_err == 0.0 and abs(row.mean_gain - expect) <= 1e-14 * expect

    def test_block_factors_each_link_once_in_small_stacks(self, monkeypatch, pairs_per_block):
        import multiris.optimize as optimize

        stacks = []
        dominant_pairs = optimize._dominant_pairs

        def recorded(h):
            stacks.append((len(h), h.nbytes))
            return dominant_pairs(h)

        monkeypatch.setattr(optimize, "_dominant_pairs", recorded)
        # a full block of 32 trials and a partial one of 8
        pairs_per_block(32)
        spec = tiny_los_spec(l=4, n_i_grid=128, trials=40)
        assert [len(pairs) for _, pairs in _blocks(spec)] == [32, 8]
        run_experiment(spec)
        # every model and architecture of a trial shares one factoring of each of its
        # l + 1 links; the end links of all trials of a block make one stack each
        assert sum(count for count, _ in stacks) == spec.trials * (4 + 1)
        assert max(nbytes for _, nbytes in stacks) <= _LOS_CHUNK_BYTES == 1 << 20
        assert max(count for count, _ in stacks) == 32
