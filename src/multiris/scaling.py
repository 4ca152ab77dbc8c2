"""Closed-form gain scaling laws and model-discrepancy metrics.

For rank-1 line-of-sight cascades with optimally tuned surfaces the average
gain has exact closed forms under both channel conventions, and two scalar
metrics compare them: eta, the relative gain the structural term adds on top
of the widely used prediction, and rho, the fraction of the true optimum
kept by configurations tuned against the widely used model. Monte Carlo
counterparts of both operate on paired gain samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    EmptySample,
    EmptySequence,
    NonFiniteInput,
    RangeExceeded,
    is_finite_real,
    is_int,
    shown,
)
from .fading import FadingSpec, gen_link
from .multiport import Dimensions
from .rng import RandomStream

_LOG_MAX = math.log(np.finfo(float).max)


def _double_ints(*values) -> bool:
    """Every value an int a double can hold: the closed forms compute in floats."""
    return all(is_int(v) and is_finite_real(v) for v in values)


@dataclass(frozen=True)
class ScalingInputs:
    """Cascade geometry and path gain the closed forms are evaluated at."""

    n_i: int
    l: int
    n_t: int
    n_r: int
    path_gain: float = 1.0

    def __post_init__(self):
        Dimensions(n_t=self.n_t, n_r=self.n_r, n_i=self.n_i, l=self.l)
        dims = (self.n_i, self.l, self.n_t, self.n_r)
        if not _double_ints(*dims):
            raise DimensionMismatch(
                f"n_i, l, n_t, n_r must lie inside the double range, got {shown(dims)}")
        # numpy ints are stored as Python ints: int64 products such as n_i^2 would wrap
        for name in ("n_i", "l", "n_t", "n_r"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (is_finite_real(self.path_gain) and self.path_gain >= 0):
            raise DimensionMismatch(
                f"path_gain must be a finite number >= 0, got {shown(self.path_gain)}")


def _guarded_power(base: float, exponent: int, context: str) -> float:
    if base > 0 and exponent * math.log(base) > _LOG_MAX:
        raise RangeExceeded(f"{context} overflows double precision")
    return base ** exponent


def _sqrt_pi_n(n_i) -> float:
    """sqrt(pi n_i) without forming pi * n_i, which overflows above n_i ~ 5.7e307."""
    return math.sqrt(math.pi) * math.sqrt(n_i)


def expected_gain_physics_los(inputs: ScalingInputs) -> float:
    """Average optimal gain of the physical model over line-of-sight draws:

    path_gain^2 * (n_i^2 + sqrt(pi n_i) n_i + n_i)^l * n_r n_t.
    """
    n = inputs.n_i
    factor = n * n + _sqrt_pi_n(n) * n + n
    core = _guarded_power(factor, inputs.l, "expected_gain_physics_los")
    return inputs.path_gain ** 2 * core * inputs.n_r * inputs.n_t

def expected_gain_widely_los(inputs: ScalingInputs) -> float:
    """Gain of the widely used model at its optimum. Deterministic, so the
    average is the every-realization value: path_gain^2 n_i^(2l) n_r n_t."""
    core = _guarded_power(float(inputs.n_i), 2 * inputs.l, "expected_gain_widely_los")
    return inputs.path_gain ** 2 * core * inputs.n_r * inputs.n_t


def expected_gain_suboptimal_los(inputs: ScalingInputs) -> float:
    """Average physical-model gain of phases tuned against the widely used model:

    path_gain^2 * (n_i^2 + n_i)^l * n_r n_t.
    """
    n = inputs.n_i
    core = _guarded_power(float(n * n + n), inputs.l, "expected_gain_suboptimal_los")
    return inputs.path_gain ** 2 * core * inputs.n_r * inputs.n_t


def _check_los_dims(n_i, l):
    if not _double_ints(n_i, l) or n_i < 1 or l < 0:
        raise DimensionMismatch("need ints n_i >= 1 and l >= 0 inside the double range, "
                                f"got n_i={shown(n_i)}, l={shown(l)}")


def relative_difference_los(n_i: int, l: int) -> float:
    """Closed-form eta: ((n_i + sqrt(pi n_i) + 1)^l - n_i^l) / n_i^l."""
    _check_los_dims(n_i, l)
    top = _guarded_power(n_i + _sqrt_pi_n(n_i) + 1.0, l, "relative_difference_los")
    bottom = _guarded_power(float(n_i), l, "relative_difference_los")
    return (top - bottom) / bottom


def normalized_gain_los(n_i: int, l: int) -> float:
    """Closed-form rho: ((n_i + 1) / (n_i + sqrt(pi n_i) + 1))^l."""
    _check_los_dims(n_i, l)
    return ((n_i + 1.0) / (n_i + _sqrt_pi_n(n_i) + 1.0)) ** l


# -- Monte Carlo counterparts -------------------------------------------------------


def _paired_means(x, y, x_name: str, y_name: str):
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.size == 0 or ys.size == 0:
        raise EmptySample(f"{x_name} and {y_name} need at least one sample each")
    if xs.shape != ys.shape:
        raise DimensionMismatch(f"{x_name} and {y_name} must be paired, got "
                                f"{xs.shape} vs {ys.shape}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise NonFiniteInput(f"{x_name} and {y_name} must be finite")
    return float(xs.mean()), float(ys.mean())


def mc_relative_difference(physics_gains, widely_gains) -> float:
    """Sample eta: (mean physics gain - mean widely gain) / mean widely gain."""
    mean_p, mean_w = _paired_means(physics_gains, widely_gains,
                                   "physics_gains", "widely_gains")
    if not mean_w > 0.0:
        raise DegenerateDenominator("mean widely used gain must be positive")
    return (mean_p - mean_w) / mean_w


def mc_normalized_gain(suboptimal_gains, physics_gains) -> float:
    """Sample rho: mean suboptimal physical gain / mean optimal physical gain."""
    mean_s, mean_p = _paired_means(suboptimal_gains, physics_gains,
                                   "suboptimal_gains", "physics_gains")
    if not mean_p > 0.0:
        raise DegenerateDenominator("mean optimal physics gain must be positive")
    return mean_s / mean_p


# -- structural scattering strength ---------------------------------------------------


def structural_scattering_strength(mean_sq_singular_values) -> float:
    """s = (1 + sum_{n>=2} lam_n / lam_1) / n^2 for a link's average squared
    singular values, sorted descending. 1/n^2 for rank-1 links, 1/n when all
    directions are equally strong."""
    lam = np.asarray(mean_sq_singular_values, dtype=float)
    if not np.isfinite(lam).all():
        raise NonFiniteInput("mean squared singular values must be finite")
    if lam.size == 0:
        raise EmptySequence("need at least one mean squared singular value")
    if lam[0] <= 0.0:
        raise DegenerateDenominator("the dominant mean squared singular value must be positive")
    if np.any(np.diff(lam) > 1e-9 * lam[0]):
        raise DimensionMismatch("mean squared singular values must be sorted descending")
    n = lam.size
    return float((1.0 + lam[1:].sum() / lam[0]) / (n * n))


def estimate_mean_sq_singular_values(rows: int, cols: int, spec: FadingSpec,
                                     stream: RandomStream, draws: int = 10000) -> np.ndarray:
    """Monte Carlo estimate of the per-direction average squared singular values
    of a link distribution, sorted descending."""
    if not is_int(draws) or draws < 1:
        raise EmptySample(f"draws must be an integer >= 1, got {shown(draws)}")
    acc = np.zeros(min(rows, cols))
    for t in range(draws):
        h = gen_link(rows, cols, spec, stream.child("draw", t))
        acc += np.linalg.svd(h, compute_uv=False) ** 2
    return acc / draws
