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
import math
from dataclasses import asdict, dataclass, fields
from itertools import groupby
from pathlib import Path

import numpy as np

# the benchmark tracer binds the seven names marked "for the tracer only" here
from .cascade import (  # noqa: F401
    CascadeChannels,
    assemble_physics_channel,
    assemble_widely_used,  # for the tracer only
)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    SpecError,
    UnknownPreset,
    is_finite_real,
    is_int,
    shown,
)
from .fading import (  # noqa: F401
    FadingSpec,
    draw_cascades,
    draw_los_cascades,
    gen_cascade,  # for the tracer only
)
from .multiport import Dimensions
from .optimize import (  # noqa: F401
    OptimizerConfig,
    _alg1_stacked,
    _upper_bounds,
    alg1_optimize,  # for the tracer only
    channel_gain,
    los_gains,
    los_optimal_phases_physics,  # for the tracer only
    los_optimal_phases_widely,  # for the tracer only
    upper_bound_physics,  # for the tracer only
    upper_bound_widely,  # for the tracer only
)
from .rng import RandomStream
from .scaling import mc_normalized_gain, mc_relative_difference

SCENARIOS = ("los", "rayleigh", "rician")
MODELS = ("physics", "widely_used", "suboptimal_cross")
ARCHITECTURES = ("diagonal", "unitary")

# the bytes a unit of work may hold: the (grid point, trial) pairs of one block, cut
# from the K grid of one (l, n_i), are optimized as one alg1 batch per architecture,
# and a block takes as many pairs as this budget holds by _pair_bytes. 54 pairs of the
# headline diagonal cascade (l = 4, n_i = 128, 2 x 2 antennas, two alg1 models) fill it,
# and peak near 109 MB RSS; a full block of any alg1 preset stays at or below 115 MB.
# Sequential and parallel runs execute the same blocks
BLOCK_BYTES = 79 << 20

# n_i-entry rows an alg1 member holds per surface: the phase vector, its start and
# kept copies, the fold's end links and the diagonal step's coefficients and temporaries
_VECTOR_ROWS = 10

# n_i x n_i matrices a unitary alg1 member holds next to its l surfaces: the step's
# previous and new surface, the two completions it multiplies, and the output stack
# and compacted copies of members that stop early
_UNITARY_TEMPS = 8

# the Python objects of one alg1 member (its streams, cascade, result and gain trace)
# and the heap slack their many small allocations leave
_MEMBER_BYTES = 16 << 10

_ENTRY_BYTES = np.dtype(complex).itemsize


# the optimizer settings a spec may override; OptimizerConfig checks their values
_OPTIMIZER_KEYS = ("max_outer_iters", "max_inner_iters", "rel_tol")

# the gain scale of every grid point must lie within 1e-100 .. 1e100: the standard
# error squares the gains, and an optimum can sit orders of magnitude above the
# scale, so this keeps every product far inside the double range
_GAIN_LOG10_LIMIT = 100


def _grid_values(value) -> tuple:
    """A grid field as a tuple: a string or a value that is not iterable is a grid of one."""
    if isinstance(value, str):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        return (value,)


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

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise SpecError(f"unknown scenario {shown(self.scenario)}; expected one of {SCENARIOS}")
        for name in ("l", "n_i_grid", "rician_k", "models", "architectures"):
            object.__setattr__(self, name, _grid_values(getattr(self, name)))
        if not self.l or any(not is_int(v) or not is_finite_real(v) or v < 1 for v in self.l):
            raise SpecError(f"l must be one or more positive integers inside the double range, "
                            f"got {shown(self.l)}")
        if not self.n_i_grid or any(not is_int(v) or v < 1 for v in self.n_i_grid):
            raise SpecError(f"n_i_grid must be positive integers, got {shown(self.n_i_grid)}")
        if not is_int(self.seed) or self.seed < 0:
            raise SpecError(f"seed must be a non-negative integer, got {shown(self.seed)}")
        if not is_int(self.trials) or self.trials < 1:
            raise SpecError(f"trials must be a positive integer, got {shown(self.trials)}")
        for name in ("trial_overrides", "optimizer"):
            if not isinstance(getattr(self, name), (dict, type(None))):
                raise SpecError(f"{name} must be None or a dict, got {shown(getattr(self, name))}")
        overrides = dict(self.trial_overrides or {})
        for k, v in overrides.items():
            if not is_int(k) or not is_int(v) or v < 1:
                raise SpecError(
                    f"trial override {shown(k)}: {shown(v)} must map int n_i to positive int")
        if not is_int(self.n_t) or self.n_t < 1 or not is_int(self.n_r) or self.n_r < 1:
            raise SpecError(f"n_t, n_r must be positive ints, got {shown((self.n_t, self.n_r))}")
        # numpy ints are stored as Python ints, so the spec stays JSON-serializable
        for name in ("l", "n_i_grid"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        for name in ("seed", "trials", "n_t", "n_r"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "trial_overrides", {int(k): int(v) for k, v in overrides.items()})
        if self.scenario == "rician":
            if not self.rician_k:
                raise SpecError("a rician scenario needs a non-empty rician_k grid")
            if any(not is_finite_real(k) or k < 0 for k in self.rician_k):
                raise SpecError(f"rician_k must be finite and >= 0, got {shown(self.rician_k)}")
            # stored as floats, so the emitted spec reads back to the same bytes;
            # + 0.0 turns -0.0 into 0.0, so both write the same table
            object.__setattr__(self, "rician_k", tuple(float(k) + 0.0 for k in self.rician_k))
        elif self.rician_k:
            raise SpecError(f"rician_k only applies to scenario rician, got {shown(self.rician_k)}")
        if not self.models or any(m not in MODELS for m in self.models):
            raise SpecError(
                f"models must be a non-empty subset of {MODELS}, got {shown(self.models)}")
        if "suboptimal_cross" in self.models and not (
                "physics" in self.models and "widely_used" in self.models):
            raise SpecError("suboptimal_cross requires both physics and widely_used")
        if not self.architectures or any(a not in ARCHITECTURES for a in self.architectures):
            raise SpecError(f"architectures must be a non-empty subset of {ARCHITECTURES}, "
                            f"got {shown(self.architectures)}")
        # a repeated grid value would run its points again and repeat their rows
        for name in ("l", "n_i_grid", "rician_k", "models", "architectures"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise SpecError(f"{name} values must be distinct, got {shown(values)}")
        unused = sorted(set(self.trial_overrides) - set(self.n_i_grid))
        if unused:
            raise SpecError(f"trial overrides must name sizes in n_i_grid, got {unused}")
        if not (is_finite_real(self.path_gain) and self.path_gain > 0):
            raise SpecError(f"path_gain must be finite and positive, got {shown(self.path_gain)}")
        object.__setattr__(self, "path_gain", float(self.path_gain))
        self._check_gain_scale()
        opt = dict(self.optimizer or {})
        for key in opt:
            if key not in _OPTIMIZER_KEYS:
                raise SpecError(f"unknown optimizer key {shown(key)}; allowed: {_OPTIMIZER_KEYS}")
        try:
            OptimizerConfig(**opt)
        except DimensionMismatch as exc:
            raise SpecError(f"optimizer: {exc}") from exc
        object.__setattr__(self, "optimizer",
                           {k: int(v) if is_int(v) else float(v) for k, v in opt.items()})

    def _check_gain_scale(self):
        """Reject a path gain whose gain scale path_gain^(2(l+1)) n_i^(2l) n_t n_r
        leaves the window at some grid point: l+1 links each scale a trial's
        gain by path_gain^2, and a line-of-sight optimum reaches n_i^(2l) n_t n_r."""
        log_pg, log_ends = math.log10(self.path_gain), math.log10(self.n_t * self.n_r)
        for l in self.l:
            for n_i in self.n_i_grid:
                log_gain = (l + 1) * (2 * log_pg) + l * (2 * math.log10(n_i)) + log_ends
                if not abs(log_gain) <= _GAIN_LOG10_LIMIT:
                    raise SpecError(
                        f"path_gain {self.path_gain!r} puts the gain at l={l}, n_i={n_i} near "
                        f"1e{log_gain:.0f}, outside 1e-{_GAIN_LOG10_LIMIT} .. "
                        f"1e{_GAIN_LOG10_LIMIT}")

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
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "ExperimentSpec":
        """Decode the wire form; unknown keys are rejected, not ignored. The
        constructor checks every value."""
        if not isinstance(obj, dict):
            raise SpecError(f"experiment spec must be a JSON object, got {type(obj).__name__}")
        allowed = {"scenario", "l", "n_i_grid", "n_t", "n_r", "trials", "seed",
                   "models", "architectures", "path_gain", "optimizer"}
        unknown = set(obj) - allowed
        if unknown:
            raise SpecError(f"unknown spec keys {sorted(unknown)}; allowed keys: {sorted(allowed)}")
        for required in ("scenario", "l", "n_i_grid", "trials", "seed"):
            if required not in obj:
                raise SpecError(f"spec is missing required key {required!r}")
        kwargs = {k: v for k, v in obj.items() if k not in ("scenario", "trials")}

        scenario = obj["scenario"]
        if isinstance(scenario, dict):
            extra = set(scenario) - {"kind", "k"}
            if extra:
                raise SpecError(f"unknown scenario keys {sorted(extra)}")
            kind = scenario.get("kind")
            if kind != "rician":
                raise SpecError(f"an object scenario must have kind 'rician', got {shown(kind)}")
            scenario, kwargs["rician_k"] = "rician", scenario.get("k", ())

        trials = obj["trials"]
        if isinstance(trials, dict):
            extra_keys = [k for k in trials
                          if k != "default" and not (isinstance(k, str) and k.isdecimal())]
            if extra_keys or "default" not in trials:
                raise SpecError("object-valued trials needs 'default' plus decimal-keyed overrides")
            kwargs["trial_overrides"] = {int(k): v for k, v in trials.items() if k != "default"}
            trials = trials["default"]

        return ExperimentSpec(scenario=scenario, trials=trials, **kwargs)

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also an integer literal beyond int()'s digit limit
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


def _optimize_block(spec: ExperimentSpec, links: tuple, roots) -> dict:
    """The bounds of every trial from one stacked pass, then one alg1 batch per
    architecture over every (trial, model) of the block, all reading the block's one
    link stack per hop position; the trials may come from several K points of one
    (l, n_i)."""
    columns = {}
    for m, bounds in zip(("physics", "widely_used"), _upper_bounds(links)):
        if m in spec.models:
            columns[("bound", m)] = bounds
    models = [m for m in ("widely_used", "physics") if m in spec.models]
    members = [(t, m) for t in range(len(roots)) for m in models]
    for arch in spec.architectures:
        runs = _alg1_stacked(links, [t for t, _ in members],
                             [spec.optimizer_config(m, arch) for _, m in members],
                             [roots[t].child("opt", m, arch) for t, m in members])
        # members are trial-major, so model j's runs sit at stride len(models)
        for j, m in enumerate(models):
            columns[(m, arch)] = [(run.gain, run.converged) for run in runs[j::len(models)]]
        if "suboptimal_cross" in spec.models:
            # each trial's cascade is a view of its row of the stacks
            columns[("suboptimal_cross", arch)] = [
                (channel_gain(assemble_physics_channel(
                    CascadeChannels.from_hops([link[t] for link in links]), run.stack)),
                 run.converged)
                for t, run in enumerate(runs[models.index("widely_used")::len(models)])]
    return columns


def _run_block(spec: ExperimentSpec, pairs: tuple) -> dict:
    """One block: pairs holds (grid point, trial) pairs that share (l, n_i). Paired:
    every model and architecture of a trial sees the same channel draw. Returns
    columns in pair order: (model, architecture) maps to one (gain, converged) per
    pair, ("bound", model) to one upper bound per pair."""
    roots = [RandomStream(spec.seed, _point_label(point)).child("trial", t) for point, t in pairs]
    dims = Dimensions(n_t=spec.n_t, n_r=spec.n_r, n_i=pairs[0][0].n_i, l=pairs[0][0].l)
    streams = [root.child("channel") for root in roots]
    if spec.scenario != "los":
        # each hop position is drawn as one stack over the block's trials, which the
        # bounds, alg1 and the cross gains all read
        links = draw_cascades(dims, [_fading_for(spec, point) for point, _ in pairs], streams)
        return _optimize_block(spec, links, roots)
    # closed forms need no alg1 batch: each hop position is drawn as one stack over
    # the block's trials, and los_gains reads the gains off the stacks
    gains = los_gains(draw_los_cascades(dims, spec.path_gain, streams))
    return {(m, arch): [(g[MODELS.index(m)], True) for g in gains]
            for m in spec.models for arch in spec.architectures}


def _block_task(args):
    return _run_block(*args)


def _pair_bytes(spec: ExperimentSpec, point: _GridPoint) -> int:
    """The bytes one (grid point, trial) pair holds in a block at its peak, read from
    the spec alone.

    That is one copy of the pair's links, the block's drawn stack, which the bounds,
    every alg1 member and the cross gains read in place; the bound pass's n_i x n_i
    segment products (at most two at once, from l = 3 up); and, per alg1 member of the
    pair (one per model among physics and widely_used), _VECTOR_ROWS rows of n_i
    entries per surface, the l n_i x n_i surfaces and _UNITARY_TEMPS step temporaries
    when the spec runs unitary surfaces, and _MEMBER_BYTES of Python objects. A
    line-of-sight pair counts as one member with two copies of the links and one row
    per surface, which covers its drawn phases and the matrices its closed forms
    factor in chunks: it forms no surface and no fold.
    """
    n, l = point.n_i, point.l
    links = spec.n_r * n + (l - 1) * n * n + n * spec.n_t
    if spec.scenario == "los":
        return _ENTRY_BYTES * (2 * links + l * n) + _MEMBER_BYTES
    members = sum(m in spec.models for m in ("physics", "widely_used"))
    surfaces = _VECTOR_ROWS * l * n
    if "unitary" in spec.architectures:
        surfaces += (l + _UNITARY_TEMPS) * n * n
    products = min(2, max(0, l - 2)) * n * n
    return _ENTRY_BYTES * (links + products + members * surfaces) + members * _MEMBER_BYTES


def _blocks(spec: ExperimentSpec) -> list[tuple]:
    """The (spec, pairs) units of work of the grid, in grid order.

    The (grid point, trial) pairs of each run of consecutive grid points that share
    (l, n_i) are cut, in grid order, into blocks of as many pairs as BLOCK_BYTES
    holds by _pair_bytes (at least one); only a run's last block may be shorter.
    _grid puts K innermost, so such a run is the K grid of one (l, n_i), whose points
    share the cascade shape; without a K axis a block holds trials of one point.
    """
    blocks = []
    for (_, n_i), points in groupby(_grid(spec), key=lambda p: (p.l, p.n_i)):
        pairs = [(point, t) for point in points for t in range(spec.trials_for(n_i))]
        size = max(1, BLOCK_BYTES // _pair_bytes(spec, pairs[0][0]))
        blocks.extend((spec, tuple(pairs[start:start + size]))
                      for start in range(0, len(pairs), size))
    return blocks


def _block_cost(block: tuple) -> int:
    """A block's relative cost, read from its own shape: l * n_i^2 summed over its pairs."""
    _, pairs = block
    return sum(point.l * point.n_i ** 2 for point, _ in pairs)


def _process_pool(workers: int):
    """A pool of worker processes. concurrent.futures is imported here, by the first run
    that starts a pool, so a sequential run never loads the multiprocessing stack."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_experiment(spec: ExperimentSpec, parallel: int = 1) -> GainTable:
    """Run the full grid and aggregate per-point statistics.

    The unit of work is a block of (grid point, trial) pairs, cut in grid order
    from the K grid of one (l, n_i), as many as BLOCK_BYTES holds (see _blocks),
    whatever parallel is: a block runs one alg1 batch per architecture over all
    of its pairs and models. A small cascade gets whole grid points in one block,
    so such a point pays alg1's per-step dispatch and a batch's slow tail once.

    parallel > 1 hands every block of the grid to a pool of worker processes, the
    costliest first, so that the heaviest block does not start last; results are
    put back in grid order and each point is reduced in trial order either way,
    so the output is identical.
    """
    if not is_int(parallel) or parallel < 1:
        raise DimensionMismatch(f"parallel must be an integer >= 1, got {shown(parallel)}")
    tasks = _blocks(spec)
    # the pool starts every worker it is given, so never more than there are blocks
    workers = min(parallel, len(tasks))
    if workers <= 1:
        done = [_run_block(*task) for task in tasks]
    else:
        # a stable sort keeps blocks of equal cost in grid order
        order = sorted(range(len(tasks)), key=lambda i: -_block_cost(tasks[i]))
        with _process_pool(workers) as pool:
            by_index = dict(zip(order, pool.map(_block_task, [tasks[i] for i in order])))
        done = [by_index[i] for i in range(len(tasks))]
    grid = _grid(spec)
    columns: dict = {point: {} for point in grid}
    for (_, pairs), block_columns in zip(tasks, done):
        for key, column in block_columns.items():
            for (point, _), value in zip(pairs, column):
                columns[point].setdefault(key, []).append(value)
    rows = [row for point in grid for row in _aggregate(spec, point, columns[point])]
    return GainTable(spec, tuple(rows))


def _metric(fn, x, y) -> float | None:
    """fn(x, y), or None (an empty cell) when its denominator mean is not positive."""
    try:
        return fn(x, y)
    except DegenerateDenominator:
        return None


def _aggregate(spec: ExperimentSpec, point: _GridPoint, columns: dict) -> list[GainStats]:
    rows = []
    for arch in spec.architectures:
        gains = {model: np.array([g for g, _ in columns[(model, arch)]])
                 for model in spec.models}
        for model in spec.models:
            n = len(gains[model])
            conv = np.array([c for _, c in columns[(model, arch)]])
            bounds = columns.get(("bound", "physics" if model == "suboptimal_cross" else model))
            bound_mean = None if bounds is None else float(np.mean(bounds))
            eta = rho = None
            if model == "physics" and "widely_used" in spec.models:
                eta = _metric(mc_relative_difference, gains["physics"], gains["widely_used"])
            if model == "suboptimal_cross":
                rho = _metric(mc_normalized_gain, gains[model], gains["physics"])
            # identical gains have no spread, where numpy's std reads their mean's rounding
            std_err = float(gains[model].std(ddof=1) / np.sqrt(n)) if np.ptp(gains[model]) else 0.0
            rows.append(GainStats(
                scenario=spec.scenario, model=model, architecture=arch,
                l=point.l, n_i=point.n_i, rician_k=point.rician_k,
                trials=n, mean_gain=float(gains[model].mean()), std_err=std_err,
                bound_mean=bound_mean, eta=eta, rho=rho,
                converged_frac=float(conv.mean()),
            ))
    return rows


# -- presets -------------------------------------------------------------------------


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


_CSV_COLUMNS = tuple(f.name for f in fields(GainStats))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_table(table: GainTable, fmt: str = "csv") -> str:
    """The table as CSV or JSON text. The text embeds the spec and seed;
    identical inputs produce identical text."""
    if fmt not in ("csv", "json"):
        raise SpecError(f"format must be 'csv' or 'json', got {fmt!r}")
    spec_json = json.dumps(table.spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    if fmt == "csv":
        lines = [f"# spec {spec_json}", ",".join(_CSV_COLUMNS)]
        for row in table.rows:
            lines.append(",".join(_cell(getattr(row, name)) for name in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    doc = {"spec": table.spec.to_json_dict(),
           "rows": [asdict(r) for r in table.rows]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emit(table: GainTable, fmt: str = "csv", path: str | Path = "results.csv") -> Path:
    """Write format_table(table, fmt) to path; identical inputs produce identical bytes."""
    path = Path(path)
    path.write_text(format_table(table, fmt))
    return path
