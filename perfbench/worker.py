"""One benchmark run inside a process whose environment run.py has fixed.

Prints one JSON line: metrics, per-rep samples, checks and the environment.
Run it through run.py, which sets the BLAS thread variables before numpy
loads here. With --setup-only it imports multiris, builds the workload's spec
and exits: run.py times that as the set-up a user pays.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
from multiris import harness  # noqa: E402

from checks import Checks, check_invariants, check_reference, quality_metrics, \
    save_reference, table_rows  # noqa: E402
from workloads import WORKLOADS, rep_seed  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
CALIBRATION_SEED = 20240410
# calibration_s() on an Intel Xeon 2-core VM in its fast state; it only sets
# the scale of the normalized times, which compare runs against each other
CALIBRATION_NOMINAL_S = 0.02


def environment(parallel: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": parallel,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _trials(table) -> int:
    spec = table.spec
    return sum(r.trials for r in table.rows
               if r.model == spec.models[0] and r.architecture == spec.architectures[0])


def calibration_s() -> float:
    """Wall time of a fixed numpy kernel that uses no multiris code.

    The machine's speed drifts by up to 2x within a minute; timing this next
    to every rep measures that drift. 128x128 complex products tracked the
    drift of rayleigh-deep reps better than a Python loop of 2x2 products did,
    and as well for rayleigh-small.
    """
    re, im = np.random.default_rng(CALIBRATION_SEED).standard_normal((2, 128, 128))
    big = b = re + 1j * im
    start = time.perf_counter()
    for _ in range(60):
        b = big @ b
        b /= np.linalg.norm(b)
    return time.perf_counter() - start


def timed_loop(w, seed: int, seconds: float, out_dir: Path, checks) -> tuple[dict, list]:
    """Closed loop of reps until `seconds` have passed (at least MIN_REPS).

    The calibration kernel runs before the first rep and after every rep. A
    rep's slowdown is the mean of its two neighbouring calibration times over
    CALIBRATION_NOMINAL_S, and the reported times are divided by it.
    """
    samples = []
    first_bytes = None
    calibration = [calibration_s()]
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        spec = w.spec(rep_seed(seed, rep))
        t1 = time.perf_counter()
        table = harness.run_experiment(spec, w.parallel)
        t2 = time.perf_counter()
        path = harness.emit(table, "csv", out_dir / f"{w.name}.csv")
        t3 = time.perf_counter()
        calibration.append(calibration_s())
        slowdown = (calibration[-2] + calibration[-1]) / 2 / CALIBRATION_NOMINAL_S
        samples.append({"seed": spec.seed, "trials": _trials(table), "run_s": t2 - t1,
                        "wall_s": t3 - t0, "slowdown": slowdown})
        check_invariants(checks, f"{w.name} rep {rep}", table_rows(table))
        if rep == 0:
            first_bytes = path.read_bytes()
        rep += 1

    if w.parallel > 1:
        spec = w.spec(rep_seed(seed, 0))
        path = harness.emit(harness.run_experiment(spec, 1), "csv", out_dir / f"{w.name}-seq.csv")
        checks.check(path.read_bytes() == first_bytes,
                     f"{w.name}: parallel={w.parallel} bytes differ from a sequential run")

    metrics = {
        "trials_per_s": statistics.median(
            s["trials"] * s["slowdown"] / s["run_s"] for s in samples),
        "wall_s": statistics.median(s["wall_s"] / s["slowdown"] for s in samples),
        "raw_trials_per_s": statistics.median(s["trials"] / s["run_s"] for s in samples),
        "raw_wall_s": statistics.median(s["wall_s"] for s in samples),
    }
    return metrics, samples


def trace_pass(w, seed: int, out_dir: Path, checks) -> tuple[dict, list]:
    """trace_reps reps, each untraced then traced, for exact counts and overhead.

    Spans inside pool workers cannot be reached, so a parallel workload also
    reruns each rep sequentially under a second tracer for the trial layers.
    """
    # only traced runs pay for importing these
    from micro import run_micro
    from tracing import Tracer

    metrics = dict(run_micro())
    parent, trial = Tracer(), Tracer()
    if w.parallel == 1:
        trial = parent
    untraced = traced = 0.0
    samples = []
    for rep in range(w.trace_reps):
        spec = w.spec(rep_seed(seed, rep))
        t0 = time.perf_counter()
        harness.emit(harness.run_experiment(spec, w.parallel), "csv", out_dir / f"{w.name}.csv")
        t1 = time.perf_counter()
        parent.install()
        try:
            t2 = time.perf_counter()
            table = harness.run_experiment(spec, w.parallel)
            harness.emit(table, "csv", out_dir / f"{w.name}.csv")
            t3 = time.perf_counter()
        finally:
            parent.uninstall()
        untraced += t1 - t0
        traced += t3 - t2
        samples.append({"seed": spec.seed, "untraced_s": t1 - t0, "traced_s": t3 - t2})
        check_invariants(checks, f"{w.name} traced rep {rep}", table_rows(table))
        if trial is not parent:
            trial.install()
            try:
                harness.run_experiment(spec, 1)
            finally:
                trial.uninstall()

    top, layers = parent.summary(), trial.summary()

    def put(summary, name, field):
        metrics[f"{name}.{field}"] = summary.get(name, {}).get(field, 0)

    for name in ("optimize.dominant_singular_pair.2x2", "optimize.dominant_singular_pair.nxn",
                 "optimize.alg1_optimize", "optimize.inner_solve_diagonal",
                 "optimize.inner_solve_unitary", "fading.gen_cascade", "rng.generator"):
        put(layers, name, "calls")
        put(layers, name, "total_s")
    put(layers, "optimize.alg1_optimize", "self_s")
    for name in ("optimize.upper_bound_physics", "optimize.upper_bound_widely",
                 "optimize.los_closed_form", "cascade.assemble", "optimize.channel_gain"):
        put(layers, name, "total_s")
    put(top, "harness.run_experiment", "self_s")
    put(top, "harness.emit", "total_s")
    runs = trial.alg1_results
    metrics["optimize.alg1_optimize.sweeps_mean"] = (
        sum(it for it, _ in runs) / len(runs) if runs else 0.0)
    metrics["optimize.alg1_optimize.converged_ratio"] = (
        sum(ok for _, ok in runs) / len(runs) if runs else 0.0)
    metrics["harness.emit.bytes"] = parent.emit_bytes
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    parent.write(out_dir / f"spans-{w.name}-seed{seed}.csv.gz")
    if trial is not parent:
        trial.write(out_dir / f"spans-{w.name}-seed{seed}-sequential.csv.gz")
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=Path(".perfbench_out"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.setup_only:
        w.spec(rep_seed(args.seed, 0))
        return 0

    ref_spec = w.reference_spec()
    rows = table_rows(harness.run_experiment(ref_spec, w.parallel))
    if args.record_reference:
        save_reference(w.name, ref_spec, rows)
        return 0

    args.out_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    check_reference(checks, w.name, ref_spec, rows)
    check_invariants(checks, f"{w.name} reference", rows)
    if args.trace:
        metrics, samples = trace_pass(w, args.seed, args.out_dir, checks)
    else:
        metrics, samples = timed_loop(w, args.seed, args.seconds, args.out_dir, checks)
        metrics.update(quality_metrics(rows))
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = rss_kb / 1024.0
    print(json.dumps({"metrics": metrics, "samples": samples, "env": environment(w.parallel),
                      "attempted": checks.attempted, "failures": checks.failures,
                      "skipped": checks.skipped}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
