"""Command line front end.

    multiris run --preset los-diff --out results.csv
    multiris run --spec experiment.json --parallel 4
    multiris validate
    multiris presets

Exit codes: 0 success, 1 validation failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import MultirisError, SpecError, UnknownPreset
from .harness import ExperimentSpec, emit, figure_preset, format_table, preset_names, run_experiment
from .validation import validate


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
    run.add_argument("--out", default=None, help="output file path")
    run.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format (default: spec output format)")
    run.add_argument("--parallel", type=int, default=1,
                     help="worker processes for trials (default 1)")

    val = sub.add_parser("validate", help="run the built-in consistency checks")
    val.add_argument("--seed", type=int, default=None, help="seed for the check instances")

    sub.add_parser("presets", help="list the built-in experiment presets")
    return parser


def _cmd_run(args) -> int:
    if args.preset is not None:
        spec = figure_preset(args.preset)
    else:
        try:
            with open(args.spec, "r") as fh:
                text = fh.read()
        except OSError as exc:
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
    out = args.out if args.out is not None else spec.output_path
    fmt = args.format if args.format is not None else spec.output_format
    if out is None:
        # no destination anywhere: print what emit would have written
        sys.stdout.write(format_table(table, fmt))
        return 0
    path = emit(table, fmt, out)
    print(f"wrote {len(table)} rows to {path}")
    return 0


def _cmd_validate(args) -> int:
    report = validate() if args.seed is None else validate(args.seed)
    print(report.format_text())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
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
