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
from dataclasses import dataclass, field

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


def _hash_label(part: str) -> int:
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _int_words(n: int) -> bytes:
    """The little-endian 32-bit words SeedSequence makes of a non-negative int, packed
    as bytes: a stream keeps its words in one object, not one int object per word."""
    return n.to_bytes((max(n.bit_length(), 1) + 31) // 32 * 4, "little")


@functools.lru_cache(maxsize=4096, typed=True)
def _part_words(part: LabelPart) -> bytes:
    # labels reuse a small vocabulary, so each part is checked and encoded once
    # per process; typed keys keep True and 1.0 off the entry of an equal int
    # (an IntEnum member shares their key shape), so they are rejected every time
    return _int_words(_encode_part(part))


@dataclass(frozen=True)
class RandomStream:
    """A named, splittable source of randomness rooted at a single seed."""

    seed: int
    label: tuple[LabelPart, ...] = ()
    # the uint32 words SeedSequence would make of [seed, *encoded parts]: built once
    # here and extended by child, and no part of ==, hash or repr
    _words: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {shown(self.seed)}")
        if not isinstance(self.label, tuple):
            raise TypeError(f"a stream label must be a tuple of parts, got "
                            f"{type(self.label).__name__}")
        words = _int_words(int(self.seed))
        for part in self.label:
            words += _part_words(part)
        object.__setattr__(self, "_words", words)

    def child(self, *parts: LabelPart) -> "RandomStream":
        """Return the stream whose label path extends this one by `parts`."""
        words = self._words
        for part in parts:
            words += _part_words(part)
        # this stream is already checked, so the child skips __post_init__
        stream = object.__new__(RandomStream)
        object.__setattr__(stream, "seed", self.seed)
        object.__setattr__(stream, "label", self.label + parts)
        object.__setattr__(stream, "_words", words)
        return stream

    def generator(self) -> np.random.Generator:
        """Materialize a fresh numpy Generator for this stream.

        SeedSequence gets the stream's words as a read-only uint32 array, so the draws
        are the same as from [seed, *encoded parts] without its slow int conversion."""
        words = np.frombuffer(self._words, dtype="<u4")
        return np.random.default_rng(np.random.SeedSequence(words))
