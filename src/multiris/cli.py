"""Command line front end.

    multiris run --preset los-diff --out results.csv
    multiris run --spec experiment.json --parallel 4
    multiris presets

Exit codes: 0 success, 1 runtime failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import MultirisError, SpecError, UnknownPreset
from .harness import ExperimentSpec, emit, figure_preset, format_table, preset_names, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiris",
        description="Monte Carlo gain studies for multi-surface MIMO cascades")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a preset or a JSON spec")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="name of a built-in experiment preset")
    source.add_argument("--spec", help="path to an experiment spec JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the spec seed")
    run.add_argument("--trials", type=int, default=None,
                     help="override the trial count (clears per-n_i overrides)")
    run.add_argument("--out", default=None, help="output file path (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default: csv)")
    run.add_argument("--parallel", type=int, default=1,
                     help="worker processes for trials (default 1)")

    sub.add_parser("presets", help="list the built-in experiment presets")
    return parser


def _cmd_run(args) -> int:
    if args.preset is not None:
        spec = figure_preset(args.preset)
    else:
        try:
            with open(args.spec, "r") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read spec file: {exc}", file=sys.stderr)
            return 2
        spec = ExperimentSpec.from_json(text)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.trials is not None:
        spec = replace(spec, trials=args.trials, trial_overrides={})
    if args.parallel < 1:
        print("error: --parallel must be >= 1", file=sys.stderr)
        return 2

    table = run_experiment(spec, parallel=args.parallel)
    if args.out is None:
        # print what emit would have written
        sys.stdout.write(format_table(table, args.format))
        return 0
    path = emit(table, args.format, args.out)
    print(f"wrote {len(table)} rows to {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "presets":
            for name in preset_names():
                print(name)
            return 0
    except (SpecError, UnknownPreset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MultirisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
