"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS [--benchmark BENCHMARK.json]

Each argument is a directory of result files that run.py wrote
(.perfbench_out/results/ of a checkout; copy it away before switching commits).
Runs are paired by seed. For every workload and metric it prints each side's
median and quartiles, the change/parent ratio of medians, the share of pairs
the change wins (ties count for neither) and a verdict:

  unresolved   the parent's quartile spread, as a share of its median, is wider
               than the metric's bound, and not every change run beats every
               parent run
  gain         the change wins at least 9 of 10 pairs and the medians differ by
               more than the parent's own quartile spread
  regression   the change's median is worse than the parent's by more than the
               metric's bound
  same         none of the above
Per-layer metrics have no bound, so they never read as regression or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9


def load(results: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from one result directory."""
    runs: dict = {}
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = record["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: float, better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if pm == 0:
        return "same" if cm == 0 else "n/a"
    spread = (p3 - p1) / abs(pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and spread > bound and not all_better:
        return "unresolved"
    if wins >= WIN_SHARE and sign * (cm - pm) > p3 - p1:
        return "gain"
    if bound is not None and sign * (cm - pm) / abs(pm) < -bound:
        return "regression"
    return "same"


def compare(parent_dir: Path, change_dir: Path, bench: dict) -> list[str]:
    parent, change = load(parent_dir), load(change_dir)
    lines = [f"{'workload':16s} {'metric':46s} {'parent q1/med/q3':>32s} "
             f"{'change q1/med/q3':>32s} {'ratio':>7s} {'wins':>9s}  verdict"]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        workloads = sorted({w for w, t in parent if t == trace} & {w for w, t in change if t == trace})
        for workload in workloads:
            p_runs, c_runs = parent[(workload, trace)], change[(workload, trace)]
            seeds = sorted(set(p_runs) & set(c_runs))
            for metric in bench[kind]:
                name, better = metric["name"], metric["better"]
                p = [r[name]["value"] for r in p_runs.values()]
                c = [r[name]["value"] for r in c_runs.values()]
                sign = 1.0 if better == "higher" else -1.0
                won = sum(sign * (c_runs[s][name]["value"] - p_runs[s][name]["value"]) > 0
                          for s in seeds)
                wins = won / len(seeds) if seeds else 0.0
                pq, cq = quartiles(p), quartiles(c)
                ratio = cq[1] / pq[1] if pq[1] else float("nan")
                lines.append(
                    f"{workload:16s} {name:46s} "
                    f"{'/'.join(f'{v:.4g}' for v in pq):>32s} "
                    f"{'/'.join(f'{v:.4g}' for v in cq):>32s} {ratio:7.3f} "
                    f"{won:>3d}/{len(seeds):<3d}  "
                    f"{verdict(p, c, wins, better, metric.get('bound'))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    print("\n".join(compare(args.parent, args.change, bench)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
