"""Span tracing of multiris from outside the package.

Each traced function is replaced, on the module attribute its caller looks
up, by a wrapper that records a span (name, start, end, parent) in memory.
Nothing in src/ is edited; uninstall() restores every original binding.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from multiris import harness, optimize, rng


def _singular_pair_name(args, kwargs) -> str:
    h = args[0] if args else kwargs["h"]
    shape = "2x2" if np.shape(h) == (2, 2) else "nxn"
    return f"optimize.dominant_singular_pair.{shape}"


# (owner, attribute, span name): the owner is the module or class whose
# attribute the caller reads, so calls from inside a module are caught too.
_BINDINGS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "emit", "harness.emit"),
    (harness, "gen_cascade", "fading.gen_cascade"),
    (harness, "alg1_optimize", "optimize.alg1_optimize"),
    (harness, "upper_bound_physics", "optimize.upper_bound_physics"),
    (harness, "upper_bound_widely", "optimize.upper_bound_widely"),
    (harness, "los_optimal_phases_physics", "optimize.los_closed_form"),
    (harness, "los_optimal_phases_widely", "optimize.los_closed_form"),
    (harness, "assemble_physics_channel", "cascade.assemble"),
    (harness, "assemble_widely_used", "cascade.assemble"),
    (harness, "channel_gain", "optimize.channel_gain"),
    (optimize, "dominant_singular_pair", _singular_pair_name),
    (optimize, "inner_solve_diagonal", "optimize.inner_solve_diagonal"),
    (optimize, "inner_solve_unitary", "optimize.inner_solve_unitary"),
    (rng.RandomStream, "generator", "rng.generator"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.alg1_results: list[tuple[int, bool]] = []
        self.emit_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
            if span_name == "optimize.alg1_optimize":
                self.alg1_results.append((result.iterations, result.converged))
            elif span_name == "harness.emit":
                self.emit_bytes += Path(result).stat().st_size
            return result

        return wrapper

    def install(self):
        for owner, attr, name in _BINDINGS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name; self excludes child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(out)

    def write(self, path: Path):
        """Spans as gzipped CSV: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
