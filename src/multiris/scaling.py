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
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    EmptySample,
    NonFiniteInput,
    as_finite,
    in_range,
    is_finite_real,
    is_int,
    shown,
)
from .fading import FadingSpec, gen_link
from .rng import RandomStream


def _check_los_dims(n_i, l, n_t=1, n_r=1, path_gain=1.0):
    """The closed forms' inputs as Python ints and a float: numpy scalars would
    wrap or warn where Python numbers overflow."""
    dims = (n_i, l, n_t, n_r)
    if not all(is_int(v) and is_finite_real(v) for v in dims) or min(n_i, n_t, n_r) < 1 or l < 0:
        raise DimensionMismatch("need ints n_i, n_t, n_r >= 1 and l >= 0 inside the double "
                                f"range, got (n_i, l, n_t, n_r) = {shown(dims)}")
    if not (is_finite_real(path_gain) and path_gain >= 0):
        raise DimensionMismatch(
            f"path_gain must be a finite number >= 0, got {shown(path_gain)}")
    return (*(int(v) for v in dims), float(path_gain))


def _per_surface(n_i: int) -> dict[str, float]:
    """Per-surface factor of each closed form as its excess over n_i^2, so that
    factor = n_i^2 (1 + excess). The excess is formed directly, not by subtraction,
    and leaves n_i^2, which overflows a double above n_i ~ 1.3e154, to exact arithmetic."""
    n = float(n_i)
    s = math.sqrt(math.pi) * math.sqrt(n_i)  # sqrt(pi n_i): pi * n_i overflows above ~5.7e307
    return {"physics": (s + 1.0) / n, "widely_used": 0.0, "suboptimal_cross": 1.0 / n}


def _expected_gain(model: str, n_i, l, n_t, n_r, path_gain) -> float:
    """path_gain^2 * (n_i^2 (1 + excess))^l * n_r n_t for the per-surface excess of
    model, formed exactly and rounded once: path_gain^2 or n_i^2 alone may leave the
    double range, or factor^l overflow, where the gain itself is a normal double."""
    n_i, l, n_t, n_r, path_gain = _check_los_dims(n_i, l, n_t, n_r, path_gain)
    excess = _per_surface(n_i)[model]
    # the binary exponent first, so that no power is formed far outside the range
    log2 = 2 * math.log2(path_gain or 1.0) + math.log2(n_r * n_t) + \
        l * (2 * math.log2(n_i) + math.log1p(excess) / math.log(2))
    return in_range(f"the expected {model} gain", lambda: float(
        Fraction(path_gain) ** 2 * (Fraction(n_i) ** 2 * (1 + Fraction(excess))) ** l
        * (n_r * n_t)) if abs(log2) < 1100 else (math.inf if log2 > 0 else 0.0),
        path_gain == 0)


def expected_gain_physics_los(n_i: int, l: int, n_t: int, n_r: int,
                              path_gain: float = 1.0) -> float:
    """Average optimal gain of the physical model over line-of-sight draws:

    path_gain^2 * (n_i^2 + sqrt(pi n_i) n_i + n_i)^l * n_r n_t.
    """
    return _expected_gain("physics", n_i, l, n_t, n_r, path_gain)


def expected_gain_widely_los(n_i: int, l: int, n_t: int, n_r: int,
                             path_gain: float = 1.0) -> float:
    """Gain of the widely used model at its optimum. Deterministic, so the
    average is the every-realization value: path_gain^2 n_i^(2l) n_r n_t."""
    return _expected_gain("widely_used", n_i, l, n_t, n_r, path_gain)


def expected_gain_suboptimal_los(n_i: int, l: int, n_t: int, n_r: int,
                                 path_gain: float = 1.0) -> float:
    """Average physical-model gain of phases tuned against the widely used model:

    path_gain^2 * (n_i^2 + n_i)^l * n_r n_t.
    """
    return _expected_gain("suboptimal_cross", n_i, l, n_t, n_r, path_gain)


def relative_difference_los(n_i: int, l: int) -> float:
    """Closed-form eta: ((n_i + sqrt(pi n_i) + 1)^l - n_i^l) / n_i^l, formed as
    (1 + excess)^l - 1 so that it neither cancels nor overflows before eta does."""
    n_i, l = _check_los_dims(n_i, l)[:2]
    excess = _per_surface(n_i)["physics"]
    return in_range("relative_difference_los", lambda: math.expm1(l * math.log1p(excess)),
                    l == 0)


def normalized_gain_los(n_i: int, l: int) -> float:
    """Closed-form rho: ((n_i + 1) / (n_i + sqrt(pi n_i) + 1))^l."""
    n_i, l = _check_los_dims(n_i, l)[:2]
    table = _per_surface(n_i)
    return in_range("normalized_gain_los", lambda: (
        (1.0 + table["suboptimal_cross"]) / (1.0 + table["physics"])) ** l)


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
    # only a mean's sum can leave the range; a mean may be as small as its samples
    return tuple(in_range(f"the mean of {name}", lambda: float(samples.mean()), True)
                 for samples, name in ((xs, x_name), (ys, y_name)))


def mc_relative_difference(physics_gains, widely_gains) -> float:
    """Sample eta: (mean physics gain - mean widely gain) / mean widely gain, exactly
    zero where the means are equal."""
    mean_p, mean_w = _paired_means(physics_gains, widely_gains,
                                   "physics_gains", "widely_gains")
    if not mean_w > 0.0:
        raise DegenerateDenominator("mean widely used gain must be positive")
    return in_range("mc_relative_difference", lambda: (mean_p - mean_w) / mean_w,
                    mean_p == mean_w)


def mc_normalized_gain(suboptimal_gains, physics_gains) -> float:
    """Sample rho: mean suboptimal physical gain / mean optimal physical gain, exactly
    zero where the suboptimal mean is."""
    mean_s, mean_p = _paired_means(suboptimal_gains, physics_gains,
                                   "suboptimal_gains", "physics_gains")
    if not mean_p > 0.0:
        raise DegenerateDenominator("mean optimal physics gain must be positive")
    return in_range("mc_normalized_gain", lambda: mean_s / mean_p, mean_s == 0.0)


# -- structural scattering strength ---------------------------------------------------


def structural_scattering_strength(mean_sq_singular_values) -> float:
    """s = (1 + sum_{n>=2} lam_n / lam_1) / n^2 for a link's average squared
    singular values, sorted descending. 1/n^2 for rank-1 links, 1/n when all
    directions are equally strong."""
    lam = as_finite(mean_sq_singular_values, "mean squared singular values", (1,), float)
    if lam[0] <= 0.0:
        raise DegenerateDenominator("the dominant mean squared singular value must be positive")
    if np.any(np.diff(lam) > 1e-9 * lam[0]):
        raise DimensionMismatch("mean squared singular values must be sorted descending")
    n = lam.size
    # each ratio is at most 1 on sorted input, so no sum leaves the double range
    return float((1.0 + (lam[1:] / lam[0]).sum()) / (n * n))


def estimate_mean_sq_singular_values(rows: int, cols: int, spec: FadingSpec,
                                     stream: RandomStream, draws: int = 10000) -> np.ndarray:
    """Monte Carlo estimate of the per-direction average squared singular values
    of a link distribution, sorted descending. RangeExceeded where the largest leaves
    the double range."""
    if not is_int(draws) or draws < 1:
        raise EmptySample(f"draws must be an integer >= 1, got {shown(draws)}")
    lam = np.zeros(min(rows, cols))

    def largest() -> float:
        for t in range(draws):
            h = gen_link(rows, cols, spec, stream.child("draw", t))
            lam[:] += np.linalg.svd(h, compute_uv=False) ** 2
        lam[:] /= draws
        return float(lam[0])

    # the largest mean bounds every square and sum taken; it is exactly zero only for
    # links of zero path gain
    in_range("the mean squared singular values", largest, spec.path_gain == 0.0)
    return lam
