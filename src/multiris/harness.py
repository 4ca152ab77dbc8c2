"""Experiment harness: declarative Monte Carlo gain studies over a grid.

An ExperimentSpec names a scenario (line-of-sight, Rayleigh or Rician), the
cascade geometry grid, which channel conventions and surface architectures to
optimize, and the trial budget. run_experiment draws paired channels per
trial (every model and architecture sees the same realization), optimizes,
and aggregates one GainStats row per grid point / model / architecture.
Identical spec + seed gives byte-identical emitted files, with or without
process parallelism.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cascade import assemble_physics_channel, assemble_widely_used
from .errors import DimensionMismatch, SpecError, UnknownPreset
from .fading import FadingSpec, gen_cascade
from .multiport import Dimensions
from .optimize import (
    OptimizerConfig,
    alg1_optimize,
    channel_gain,
    los_optimal_phases_physics,
    los_optimal_phases_widely,
    upper_bound_physics,
    upper_bound_widely,
)
from .rng import RandomStream

SCENARIOS = ("los", "rayleigh", "rician")
MODELS = ("physics", "widely_used", "suboptimal_cross")
ARCHITECTURES = ("diagonal", "unitary")

_OPTIMIZER_KEYS = ("max_outer_iters", "max_inner_iters", "rel_tol", "init")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one reproducible experiment needs."""

    scenario: str
    l: tuple[int, ...]
    n_i_grid: tuple[int, ...]
    seed: int
    trials: int
    n_t: int = 2
    n_r: int = 2
    rician_k: tuple[float, ...] = ()
    trial_overrides: dict[int, int] | None = None
    models: tuple[str, ...] = ("physics", "widely_used")
    architectures: tuple[str, ...] = ("diagonal",)
    path_gain: float = 1.0
    optimizer: dict | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise SpecError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        object.__setattr__(self, "l", tuple(self.l))
        object.__setattr__(self, "n_i_grid", tuple(self.n_i_grid))
        object.__setattr__(self, "rician_k", tuple(self.rician_k))
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "architectures", tuple(self.architectures))
        if not self.l or any(not isinstance(v, int) or v < 1 for v in self.l):
            raise SpecError(f"l must be one or more positive integers, got {self.l!r}")
        if not self.n_i_grid or any(not isinstance(v, int) or v < 1 for v in self.n_i_grid):
            raise SpecError(f"n_i_grid must be positive integers, got {self.n_i_grid!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise SpecError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise SpecError(f"trials must be a positive integer, got {self.trials!r}")
        overrides = dict(self.trial_overrides or {})
        for k, v in overrides.items():
            if not isinstance(k, int) or not isinstance(v, int) or v < 1:
                raise SpecError(f"trial override {k!r}: {v!r} must map int n_i to positive int")
        object.__setattr__(self, "trial_overrides", overrides)
        if not isinstance(self.n_t, int) or self.n_t < 1 or \
           not isinstance(self.n_r, int) or self.n_r < 1:
            raise SpecError("n_t and n_r must be positive integers")
        if self.scenario == "rician":
            if not self.rician_k:
                raise SpecError("a rician scenario needs a non-empty rician_k grid")
            if any(not np.isfinite(k) or k < 0 for k in self.rician_k):
                raise SpecError(f"rician_k values must be finite and >= 0, got {self.rician_k!r}")
        elif self.rician_k:
            raise SpecError(f"rician_k only applies to the rician scenario, got {self.rician_k!r}")
        if not self.models:
            raise SpecError("models must not be empty")
        for m in self.models:
            if m not in MODELS:
                raise SpecError(f"unknown model {m!r}; expected a subset of {MODELS}")
        if "suboptimal_cross" in self.models and not (
                "physics" in self.models and "widely_used" in self.models):
            raise SpecError("suboptimal_cross requires both physics and widely_used")
        if not self.architectures:
            raise SpecError("architectures must not be empty")
        for a in self.architectures:
            if a not in ARCHITECTURES:
                raise SpecError(f"unknown architecture {a!r}; expected a subset of {ARCHITECTURES}")
        if not (np.isfinite(self.path_gain) and self.path_gain > 0):
            raise SpecError(f"path_gain must be finite and positive, got {self.path_gain!r}")
        opt = dict(self.optimizer or {})
        for key in opt:
            if key not in _OPTIMIZER_KEYS:
                raise SpecError(f"unknown optimizer key {key!r}; allowed: {_OPTIMIZER_KEYS}")
        object.__setattr__(self, "optimizer", opt)
        if self.output_format not in ("csv", "json"):
            raise SpecError(f"output_format must be 'csv' or 'json', got {self.output_format!r}")

    def trials_for(self, n_i: int) -> int:
        return self.trial_overrides.get(n_i, self.trials)

    def optimizer_config(self, model: str, architecture: str) -> OptimizerConfig:
        return OptimizerConfig(model=model, architecture=architecture, **self.optimizer)

    # -- json wire form ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        scenario = self.scenario if self.scenario != "rician" else \
            {"kind": "rician", "k": list(self.rician_k)}
        trials = self.trials if not self.trial_overrides else \
            {"default": self.trials,
             **{str(k): v for k, v in sorted(self.trial_overrides.items())}}
        out = {
            "scenario": scenario,
            "l": list(self.l),
            "n_i_grid": list(self.n_i_grid),
            "n_t": self.n_t,
            "n_r": self.n_r,
            "trials": trials,
            "seed": self.seed,
            "models": list(self.models),
            "architectures": list(self.architectures),
            "path_gain": self.path_gain,
        }
        if self.optimizer:
            out["optimizer"] = dict(sorted(self.optimizer.items()))
        if self.output_path is not None:
            out["output"] = {"path": self.output_path, "format": self.output_format}
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "ExperimentSpec":
        """Strict parser: unknown keys are rejected, not ignored."""
        if not isinstance(obj, dict):
            raise SpecError(f"experiment spec must be a JSON object, got {type(obj).__name__}")
        allowed = {"scenario", "l", "n_i_grid", "n_t", "n_r", "trials", "seed",
                   "models", "architectures", "path_gain", "optimizer", "output"}
        unknown = set(obj) - allowed
        if unknown:
            raise SpecError(f"unknown spec keys {sorted(unknown)}; allowed keys: {sorted(allowed)}")
        for required in ("scenario", "l", "n_i_grid", "trials", "seed"):
            if required not in obj:
                raise SpecError(f"spec is missing required key {required!r}")

        scenario = obj["scenario"]
        rician_k: tuple[float, ...] = ()
        if isinstance(scenario, dict):
            extra = set(scenario) - {"kind", "k"}
            if extra:
                raise SpecError(f"unknown scenario keys {sorted(extra)}")
            kind = scenario.get("kind")
            if kind != "rician":
                raise SpecError(f"object-valued scenario must have kind 'rician', got {kind!r}")
            ks = scenario.get("k")
            if not isinstance(ks, list) or not ks:
                raise SpecError("rician scenario needs a non-empty list under 'k'")
            rician_k = tuple(float(k) for k in ks)
            scenario = "rician"
        elif not isinstance(scenario, str):
            raise SpecError(f"scenario must be a string or a rician object, got {scenario!r}")

        def int_list(value, name):
            if isinstance(value, int) and not isinstance(value, bool):
                return (value,)
            if isinstance(value, list) and value and \
                    all(isinstance(v, int) and not isinstance(v, bool) for v in value):
                return tuple(value)
            raise SpecError(f"{name} must be an integer or a non-empty list of integers")

        trials_raw = obj["trials"]
        overrides: dict[int, int] = {}
        if isinstance(trials_raw, dict):
            extra_keys = [k for k in trials_raw if k != "default" and not k.isdigit()]
            if extra_keys or "default" not in trials_raw:
                raise SpecError("object-valued trials needs 'default' plus digit-keyed overrides")
            trials = trials_raw["default"]
            overrides = {int(k): v for k, v in trials_raw.items() if k != "default"}
        elif isinstance(trials_raw, int) and not isinstance(trials_raw, bool):
            trials = trials_raw
        else:
            raise SpecError(f"trials must be an int or an object, got {trials_raw!r}")

        output = obj.get("output")
        output_path = None
        output_format = "csv"
        if output is not None:
            if not isinstance(output, dict) or set(output) - {"path", "format"}:
                raise SpecError("output must be an object with keys 'path' and optional 'format'")
            if "path" not in output or not isinstance(output["path"], str):
                raise SpecError("output.path must be a string")
            output_path = output["path"]
            output_format = output.get("format", "csv")

        optimizer = obj.get("optimizer")
        if optimizer is not None and not isinstance(optimizer, dict):
            raise SpecError("optimizer must be an object of config overrides")

        def str_tuple(value, name, default):
            if value is None:
                return default
            if isinstance(value, list) and all(isinstance(v, str) for v in value):
                return tuple(value)
            raise SpecError(f"{name} must be a list of strings")

        seed = obj["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError(f"seed must be an integer, got {seed!r}")

        return ExperimentSpec(
            scenario=scenario,
            l=int_list(obj["l"], "l"),
            n_i_grid=int_list(obj["n_i_grid"], "n_i_grid"),
            seed=seed,
            trials=trials,
            n_t=obj.get("n_t", 2),
            n_r=obj.get("n_r", 2),
            rician_k=rician_k,
            trial_overrides=overrides,
            models=str_tuple(obj.get("models"), "models", ("physics", "widely_used")),
            architectures=str_tuple(obj.get("architectures"), "architectures", ("diagonal",)),
            path_gain=float(obj.get("path_gain", 1.0)),
            optimizer=optimizer,
            output_path=output_path,
            output_format=output_format,
        )

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return ExperimentSpec.from_json_dict(obj)


@dataclass(frozen=True)
class GainStats:
    """Aggregate of one grid point under one model and architecture."""

    scenario: str
    model: str
    architecture: str
    l: int
    n_i: int
    rician_k: float | None
    trials: int
    mean_gain: float
    std_err: float
    bound_mean: float | None
    eta: float | None
    rho: float | None
    converged_frac: float


@dataclass(frozen=True)
class GainTable:
    """run_experiment output: the rows plus the spec that produced them."""

    spec: ExperimentSpec
    rows: tuple[GainStats, ...]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class _GridPoint:
    l: int
    n_i: int
    rician_k: float | None


def _grid(spec: ExperimentSpec) -> list[_GridPoint]:
    ks = list(spec.rician_k) if spec.scenario == "rician" else [None]
    return [_GridPoint(l, n_i, k) for l in spec.l for n_i in spec.n_i_grid for k in ks]


def _fading_for(spec: ExperimentSpec, point: _GridPoint) -> FadingSpec:
    if spec.scenario == "rician":
        return FadingSpec("rician", spec.path_gain, point.rician_k)
    return FadingSpec(spec.scenario, spec.path_gain)


def _point_label(point: _GridPoint) -> tuple:
    # deliberately independent of rician_k: the K grid reuses one set of
    # specular/scatter draws per (l, n_i, trial), so K sweeps are paired
    return ("point", point.l, point.n_i)


def _run_trial(spec: ExperimentSpec, point: _GridPoint, trial: int) -> dict:
    """One paired trial: same channel draw for every model and architecture."""
    dims = Dimensions(n_t=spec.n_t, n_r=spec.n_r, n_i=point.n_i, l=point.l)
    root = RandomStream(spec.seed, _point_label(point)).child("trial", trial)
    ch = gen_cascade(dims, _fading_for(spec, point), root.child("channel"))

    gains: dict[tuple[str, str], float] = {}
    converged: dict[tuple[str, str], bool] = {}
    bounds: dict[str, float | None] = {}

    if spec.scenario == "los":
        for arch in spec.architectures:
            # closed forms are diagonal; they are optimal for both architectures
            if "physics" in spec.models:
                stack_p = los_optimal_phases_physics(ch)
                gains[("physics", arch)] = channel_gain(assemble_physics_channel(ch, stack_p))
                converged[("physics", arch)] = True
            if "widely_used" in spec.models:
                stack_w = los_optimal_phases_widely(ch)
                gains[("widely_used", arch)] = channel_gain(assemble_widely_used(ch, stack_w))
                converged[("widely_used", arch)] = True
                if "suboptimal_cross" in spec.models:
                    gains[("suboptimal_cross", arch)] = channel_gain(
                        assemble_physics_channel(ch, stack_w))
                    converged[("suboptimal_cross", arch)] = True
        bounds["physics"] = None
        bounds["widely_used"] = None
    else:
        bounds["physics"] = upper_bound_physics(ch) if "physics" in spec.models else None
        bounds["widely_used"] = upper_bound_widely(ch) if "widely_used" in spec.models else None
        for arch in spec.architectures:
            stack_w = None
            if "widely_used" in spec.models:
                cfg = spec.optimizer_config("widely_used", arch)
                res = alg1_optimize(ch, cfg, root.child("opt", "widely_used", arch))
                gains[("widely_used", arch)] = res.gain
                converged[("widely_used", arch)] = res.converged
                stack_w = res.stack
            if "physics" in spec.models:
                cfg = spec.optimizer_config("physics", arch)
                res = alg1_optimize(ch, cfg, root.child("opt", "physics", arch))
                gains[("physics", arch)] = res.gain
                converged[("physics", arch)] = res.converged
            if "suboptimal_cross" in spec.models:
                gains[("suboptimal_cross", arch)] = channel_gain(
                    assemble_physics_channel(ch, stack_w.thetas))
                converged[("suboptimal_cross", arch)] = converged[("widely_used", arch)]
    return {"gains": gains, "converged": converged, "bounds": bounds}


def _trial_task(args):
    return _run_trial(*args)


def run_experiment(spec: ExperimentSpec, parallel: int = 1) -> GainTable:
    """Run the full grid and aggregate per-point statistics.

    parallel > 1 distributes trials over worker processes; results are
    reduced in trial order either way, so output is identical.
    """
    if parallel < 1:
        raise DimensionMismatch(f"parallel must be >= 1, got {parallel}")
    rows: list[GainStats] = []
    pool = ProcessPoolExecutor(max_workers=parallel) if parallel > 1 else None
    try:
        for point in _grid(spec):
            n_trials = spec.trials_for(point.n_i)
            tasks = [(spec, point, t) for t in range(n_trials)]
            if pool is None:
                results = [_run_trial(*t) for t in tasks]
            else:
                results = list(pool.map(_trial_task, tasks, chunksize=max(1, n_trials // 64)))
            rows.extend(_aggregate(spec, point, results))
    finally:
        if pool is not None:
            pool.shutdown()
    return GainTable(spec, tuple(rows))


def _aggregate(spec: ExperimentSpec, point: _GridPoint, results: list[dict]) -> list[GainStats]:
    n = len(results)
    rows = []
    for arch in spec.architectures:
        means: dict[str, float] = {}
        for model in spec.models:
            gains = np.array([r["gains"][(model, arch)] for r in results])
            means[model] = float(gains.mean())
        for model in spec.models:
            gains = np.array([r["gains"][(model, arch)] for r in results])
            conv = np.array([r["converged"][(model, arch)] for r in results])
            bound_model = "physics" if model == "suboptimal_cross" else model
            bound_vals = [r["bounds"][bound_model] for r in results]
            bound_mean = None if bound_vals[0] is None else float(np.mean(bound_vals))
            eta = rho = None
            if model == "physics" and "widely_used" in spec.models and means["widely_used"] > 0:
                eta = (means["physics"] - means["widely_used"]) / means["widely_used"]
            if model == "suboptimal_cross" and means["physics"] > 0:
                rho = means[model] / means["physics"]
            std_err = float(gains.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append(GainStats(
                scenario=spec.scenario, model=model, architecture=arch,
                l=point.l, n_i=point.n_i, rician_k=point.rician_k,
                trials=n, mean_gain=float(gains.mean()), std_err=std_err,
                bound_mean=bound_mean, eta=eta, rho=rho,
                converged_frac=float(conv.mean()),
            ))
    return rows


# -- presets -------------------------------------------------------------------------


def _multipath_trials() -> dict:
    return {"default": 1000, 128: 100}


_PRESETS: dict[str, dict] = {
    # average optimal gain vs n_i under both conventions, line of sight
    "los-gain": dict(scenario="los", l=(2,), n_i_grid=(8, 16, 32, 64, 128), seed=20240401,
                     trials=1000, models=("physics", "widely_used", "suboptimal_cross")),
    # eta and rho vs n_i at two cascade depths, line of sight
    "los-diff": dict(scenario="los", l=(2, 4), n_i_grid=(8, 16, 32, 64, 128), seed=20240402,
                     trials=1000, models=("physics", "widely_used", "suboptimal_cross")),
    # scaling of the optimal gain with cascade depth, line of sight
    "los-depth": dict(scenario="los", l=(1, 2, 3, 4, 5, 6), n_i_grid=(16, 64), seed=20240403,
                      trials=1000, models=("physics", "widely_used", "suboptimal_cross")),
    # Rayleigh multipath, optimized gains and bounds, diagonal architecture
    "rayleigh-gain": dict(scenario="rayleigh", l=(2, 4), n_i_grid=(8, 16, 32, 64, 128),
                          seed=20240404, trials=1000, trial_overrides={128: 100},
                          models=("physics", "widely_used", "suboptimal_cross")),
    # Rayleigh multipath, diagonal vs unitary architectures
    "rayleigh-arch": dict(scenario="rayleigh", l=(2, 3), n_i_grid=(8, 16, 32), seed=20240405,
                          trials=1000, models=("physics", "widely_used"),
                          architectures=("diagonal", "unitary")),
    # eta and rho across the Rician K grid, both architectures
    "rician-k": dict(scenario="rician", l=(2,), n_i_grid=(32,), seed=20240406, trials=1000,
                     rician_k=(0.0, 1.0, 3.0, 10.0, 30.0),
                     models=("physics", "widely_used", "suboptimal_cross"),
                     architectures=("diagonal", "unitary")),
    # deep cascades where the conventions diverge most
    "deep-cascade": dict(scenario="rayleigh", l=(4,), n_i_grid=(32, 64, 128), seed=20240407,
                         trials=1000, trial_overrides={128: 100},
                         models=("physics", "widely_used", "suboptimal_cross")),
    # quick smoke preset, seconds not minutes
    "smoke": dict(scenario="rayleigh", l=(2,), n_i_grid=(4,), seed=20240408, trials=10,
                  models=("physics", "widely_used", "suboptimal_cross")),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def figure_preset(name: str) -> ExperimentSpec:
    """A ready-made ExperimentSpec for one of the named study presets."""
    try:
        kwargs = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    return ExperimentSpec(**kwargs)


# -- emission --------------------------------------------------------------------------


_CSV_COLUMNS = ("scenario", "model", "architecture", "l", "n_i", "rician_k", "trials",
                "mean_gain", "std_err", "bound_mean", "eta", "rho", "converged_frac")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_dict(row: GainStats) -> dict:
    return {name: getattr(row, name) for name in _CSV_COLUMNS}


def format_table(table: GainTable, fmt: str | None = None) -> str:
    """The table as CSV or JSON text. The text embeds the spec and seed;
    identical inputs produce identical text."""
    fmt = fmt or table.spec.output_format
    if fmt not in ("csv", "json"):
        raise SpecError(f"format must be 'csv' or 'json', got {fmt!r}")
    spec_json = json.dumps(table.spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        lines = [f"# spec {spec_json}", ",".join(_CSV_COLUMNS)]
        for row in table.rows:
            lines.append(",".join(_cell(getattr(row, name)) for name in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    doc = {"spec": table.spec.to_json_dict(),
           "rows": [_row_dict(r) for r in table.rows]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emit(table: GainTable, fmt: str | None = None, path: str | Path = "results.csv") -> Path:
    """Write format_table(table, fmt) to path; identical inputs produce identical bytes."""
    path = Path(path)
    path.write_text(format_table(table, fmt))
    return path
