"""The benchmark's workloads: preset slices, rep sizes and seeds.

A rep is one closed-loop call: build the spec, run_experiment, emit. A timed
run repeats reps until its seconds are spent, each rep on a fresh seed derived
from the run's --seed, so the program only ever sees generated specs.

This module imports only the public multiris API, so that a fresh interpreter
importing it measures the set-up a user pays. Why each workload exists is
recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from multiris.harness import ExperimentSpec, figure_preset


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    slice: dict
    rep_trials: int
    parallel: int
    trace_reps: int
    ref_trials: int

    def spec(self, seed: int, trials: int | None = None) -> ExperimentSpec:
        """The preset slice at this seed with rep_trials trials per grid point."""
        return replace(figure_preset(self.preset), seed=seed,
                       trials=self.rep_trials if trials is None else trials,
                       trial_overrides={}, **self.slice)

    def reference_spec(self) -> ExperimentSpec:
        """The fixed slice the reference table was recorded on: preset seed, ref_trials."""
        return self.spec(figure_preset(self.preset).seed, self.ref_trials)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rayleigh-small",
        preset="rayleigh-gain", slice=dict(l=(2,), n_i_grid=(8,)),
        rep_trials=24, parallel=1, trace_reps=4, ref_trials=24),
    Workload(
        name="rayleigh-deep",
        preset="deep-cascade", slice=dict(n_i_grid=(128,)),
        rep_trials=1, parallel=1, trace_reps=4, ref_trials=2),
    Workload(
        name="rician-unitary",
        preset="rician-k", slice={},
        rep_trials=2, parallel=1, trace_reps=3, ref_trials=2),
    Workload(
        name="los-parallel",
        preset="los-diff", slice={},
        rep_trials=40, parallel=2, trace_reps=3, ref_trials=10),
)}


def rep_seed(run_seed: int, rep: int) -> int:
    """Spec seed of rep `rep` in a run started with --seed run_seed."""
    return run_seed * 100_000 + rep
