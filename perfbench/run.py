"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It times set-up in fresh interpreters, runs
the workload in a worker process with one BLAS thread per process, checks the
results, prints a metric table and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones. Every
result is also kept in .perfbench_out/results/ for compare.py. --workload all
runs every workload in turn. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# worker processes x BLAS threads must stay within nproc: one thread each
BLAS_THREADS = "1"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median wall time of fresh interpreters importing multiris and building the spec."""
    cmd = [sys.executable, str(WORKER), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = run_child(cmd, env, 60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return statistics.median(times)


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = root / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def run_workload(root: Path, bench: dict, args, workload: str) -> dict:
    env = child_env(root)
    out_dir = root / ".perfbench_out"
    # traced runs report no setup_s
    setup_s = None if args.trace else measure_setup(workload, args.seed, env)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    done = run_child(cmd, env, WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed for {workload}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # warnings from the worker and from its pool processes all land on its stderr
    attempted = result["attempted"] + 1
    failures = list(result["failures"])
    if "RuntimeWarning" in done.stderr:
        failures.append(f"{workload}: RuntimeWarning escaped:\n{done.stderr}")

    values = dict(result["metrics"], setup_s=setup_s)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]}
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "failures": failures, "skipped": result["skipped"], "metrics": metrics,
        "raw": {k: v for k, v in values.items() if k.startswith("raw_")},
        "samples": result["samples"],
        "env": dict(result["env"], commit=git_commit(root)),
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def print_table(record: dict):
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    if not record["trace"]:
        converged = record["metrics"]["converged_frac"]["value"]
        print(f"  {'nonconverged_frac':48s} {1.0 - converged:>16.6g} ratio")
        raw = record["raw"]
        print(f"  {'raw_trials_per_s (not speed-normalized)':48s} "
              f"{raw['raw_trials_per_s']:>16.6g} 1/s")
        print(f"  {'raw_wall_s (not speed-normalized)':48s} {raw['raw_wall_s']:>16.6g} s")
    print(f"  {'error_rate':48s} {record['failed'] / record['attempted']:>16.6g} "
          f"ratio ({record['failed']} of {record['attempted']} checks failed)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for skipped in record["skipped"]:
        print(f"  not checked: {skipped}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference/ from this checkout and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "multiris" / "__init__.py").is_file() or \
            not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a multiris checkout "
              "(src/multiris and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    all_names = tuple(w["name"] for w in bench["workloads"])
    if args.workload not in all_names + ("all",):
        parser.error(f"--workload must be one of {', '.join(all_names)} or all")
    names = all_names if args.workload == "all" else (args.workload,)
    if args.record_reference:
        for name in names:
            cmd = [sys.executable, str(WORKER), "--record-reference", "--workload", name]
            if run_child(cmd, child_env(root), WORKER_TIMEOUT_S).returncode != 0:
                print(f"error: recording the {name} reference failed", file=sys.stderr)
                return 1
        return 0
    try:
        records = [run_workload(root, bench, args, name) for name in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
