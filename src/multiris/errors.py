"""Exception hierarchy shared across the package, and the input checks every module uses."""

from __future__ import annotations

import math
import sys

import numpy as np


def is_int(value) -> bool:
    """A Python or numpy int that is not a bool (JSON true/false arrive as bools)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A Python or numpy int or float, not a bool, inside the double range: not NaN,
    +-inf or a huge int. Callers store an accepted value as a Python int or float."""
    if isinstance(value, np.floating):
        value = float(value)  # a float32 would compare in float32, where the max overflows
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def in_range(context: str, value, exact_zero: bool = False) -> float:
    """value(), or RangeExceeded where it leaves the double range: beyond its top (a
    Python OverflowError or a numpy overflow to inf), or below its smallest normal
    number in magnitude when the exact value is not zero."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = value()
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise RangeExceeded(f"{context} overflows double precision")
    if abs(result) < sys.float_info.min and not exact_zero:
        raise RangeExceeded(f"{context} underflows double precision")
    return result


def shown(value) -> str:
    """repr(value) for a message; Python refuses to repr an int of over 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def as_finite(a, name: str, ndims=(2,), dtype=complex) -> np.ndarray:
    """a as a finite numeric array of dtype (None keeps a's own) with one of the
    allowed ndims. Ragged or non-numeric input, complex input where dtype is float
    and a wrong ndim raise DimensionMismatch, an array with no entries EmptySequence,
    a NaN or infinite entry NonFiniteInput."""
    try:
        # numpy's cast to float would drop the imaginary part with a warning
        if dtype is float and np.asarray(a).dtype.kind == "c":
            raise DimensionMismatch(f"{name} must be real, got complex entries")
        arr = np.asarray(a, dtype=dtype)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{name} is not a numeric array") from None
    if arr.dtype.kind not in "biufc":
        raise DimensionMismatch(f"{name} is not a numeric array, got dtype {arr.dtype}")
    if arr.ndim not in ndims:
        raise DimensionMismatch(f"{name} must have ndim in {ndims}, got ndim {arr.ndim}")
    if arr.size == 0:
        raise EmptySequence(f"{name} has no entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} has NaN or infinite entries")
    return arr


class MultirisError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MultirisError):
    """Array shapes or port counts do not line up."""


class SingularMatrix(MultirisError):
    """A matrix that must be inverted is singular or too ill conditioned."""

    def __init__(self, what: str, cond: float | None = None):
        self.what = what
        self.cond = cond
        detail = f" (cond ~ {cond:.3e})" if cond is not None else ""
        super().__init__(f"{what} is singular or exceeds the condition cap{detail}")


class SingularDiagonalBlock(SingularMatrix):
    """A diagonal block of the cascade matrix cannot be inverted."""

    def __init__(self, index: int, cond: float | None = None):
        self.index = index
        SingularMatrix.__init__(self, f"diagonal block {index}", cond)


class AssumptionViolated(MultirisError):
    """A channel model was asked to run without the network guarantees it needs."""


class OpenCircuitSingularity(MultirisError):
    """A scattering matrix has an eigenvalue at 1, so no finite impedance exists."""


class NotRankOne(MultirisError):
    """A link matrix is not a rank-1 steering product."""


class ZeroVector(MultirisError):
    """A vector that must be normalized has zero norm."""


class NonFiniteInput(MultirisError):
    """An input array carries NaN or infinite entries."""


class EmptySample(MultirisError):
    """A Monte Carlo estimator received no samples."""


class DegenerateDenominator(MultirisError):
    """A ratio metric has a zero or non-positive denominator."""


class EmptySequence(MultirisError):
    """A sequence-valued input is empty."""


class RangeExceeded(MultirisError):
    """A computed value leaves the double range for these inputs."""


class UnknownPreset(MultirisError):
    """No experiment preset is registered under the requested name."""


class SpecError(MultirisError):
    """An experiment spec is malformed or carries unknown fields."""
