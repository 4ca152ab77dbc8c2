"""Exception hierarchy shared across the package."""

from __future__ import annotations


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


class MissingSideLinks(MultirisError):
    """The full multipath assembly needs side links the cascade does not carry."""


class SectorIndexOutOfRange(MultirisError):
    """An arrival or departure sector index is outside 1..sector_count."""


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
    """A closed-form value overflows double precision for these inputs."""


class UnknownPreset(MultirisError):
    """No experiment preset is registered under the requested name."""


class SpecError(MultirisError):
    """An experiment spec is malformed or carries unknown fields."""
