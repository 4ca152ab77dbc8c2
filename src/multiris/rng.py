"""Deterministic random-stream plumbing.

Every stochastic routine in the package takes a RandomStream rather than a
bare seed. A stream is a root seed plus a label path; child streams extend
the path. Two streams with different paths yield statistically independent
generators, and the same (seed, path) pair always yields the same draws, no
matter how many other streams were consumed in between. That property is
what makes trial-level parallelism reproducible.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import is_int, shown

LabelPart = int | str


def _encode_part(part: LabelPart) -> int:
    if isinstance(part, bool):
        raise TypeError("stream label parts must be ints or strings, not bool")
    if isinstance(part, int):
        if part < 0:
            raise ValueError(f"integer label parts must be non-negative, got {shown(part)}")
        return part
    if isinstance(part, str):
        return _hash_label(part)
    raise TypeError(f"stream label parts must be ints or strings, got {type(part).__name__}")


@functools.lru_cache(maxsize=256)
def _hash_label(part: str) -> int:
    # labels come from a small fixed vocabulary ("point", "trial", "channel", ...),
    # so each is hashed once per process
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


@dataclass(frozen=True)
class RandomStream:
    """A named, splittable source of randomness rooted at a single seed."""

    seed: int
    label: tuple[LabelPart, ...] = ()

    def __post_init__(self):
        if not is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {shown(self.seed)}")
        for part in self.label:
            _encode_part(part)

    def child(self, *parts: LabelPart) -> "RandomStream":
        """Return the stream whose label path extends this one by `parts`."""
        return RandomStream(self.seed, self.label + tuple(parts))

    def generator(self) -> np.random.Generator:
        """Materialize a fresh numpy Generator for this stream."""
        entropy = [self.seed] + [_encode_part(p) for p in self.label]
        return np.random.default_rng(np.random.SeedSequence(entropy))
