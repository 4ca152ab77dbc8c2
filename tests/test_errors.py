"""errors: every array entry point turns bad array input into a typed error, values
beyond the double range raise RangeExceeded, and numpy floats are accepted as reals."""

import numpy as np
import pytest

from conftest import ones_cascade
from multiris.cascade import CascadeChannels, ScatteringStack, SideLinks, assemble
from multiris.errors import DimensionMismatch, EmptySequence, NonFiniteInput, RangeExceeded
from multiris.fading import FadingSpec, LosLink, draw_los_cascades, gen_cascade
from multiris.multiport import (
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
    normalize_z_to_channel,
    scattering_to_z,
    z_to_scattering,
)
from multiris.optimize import (
    InnerProblemData,
    OptimizerConfig,
    alg1_optimize,
    channel_gain,
    los_gains,
    spectral_norm,
    upper_bound_physics,
    upper_bound_widely,
)
from multiris.rng import RandomStream
from multiris.scaling import (
    estimate_mean_sq_singular_values,
    mc_normalized_gain,
    mc_relative_difference,
    structural_scattering_strength,
)

ONE = np.ones(1)

# (entry point, ndim of the array it checks, call with that array)
ENTRY_POINTS = {
    "CascadeChannels": (2, lambda a: CascadeChannels(a, (), np.ones((1, 1)))),
    "SideLinks": (2, lambda a: SideLinks(a, (), ())),
    "ScatteringStack": (2, lambda a: ScatteringStack("unitary", (a,))),
    "assemble": (2, lambda a: assemble(ones_cascade(l=1), [a], [1])),
    "MultiportNetwork": (2, lambda a: MultiportNetwork(Dimensions(1, 1, 1, 1), a)),
    "RisLoadStack": (2, lambda a: RisLoadStack((a,))),
    "z_to_scattering": (2, z_to_scattering),
    "scattering_to_z": (2, scattering_to_z),
    "normalize_z_to_channel": (2, normalize_z_to_channel),
    "InnerProblemData": (1, lambda a: InnerProblemData(0j, ONE, ONE, a, ONE)),
    "structural_scattering_strength": (1, structural_scattering_strength),
    "spectral_norm": (2, spectral_norm),
    "channel_gain": (2, channel_gain),
}

# (input kind, input of the entry point's ndim, error it must raise)
BAD_INPUTS = {
    "ragged": (lambda ndim: [[1.0, 2.0], [3.0]], DimensionMismatch),
    "string": (lambda ndim: np.full((1,) * ndim, "ab").tolist(), DimensionMismatch),
    "nan": (lambda ndim: np.full((1,) * ndim, np.nan), NonFiniteInput),
    "inf": (lambda ndim: np.full((1,) * ndim, np.inf), NonFiniteInput),
    "wrong-ndim": (lambda ndim: np.ones((1,) * (ndim + 1)), DimensionMismatch),
    "empty": (lambda ndim: np.zeros((0,) * ndim), EmptySequence),
}


@pytest.mark.parametrize("kind", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_array_input_raises_typed_error(entry, kind):
    """A ragged, non-numeric, NaN, infinite, wrong-ndim or empty array raises the
    package's own error at every entry point, not numpy's ValueError, IndexError or
    LAPACK's LinAlgError."""
    ndim, call = ENTRY_POINTS[entry]
    make, error = BAD_INPUTS[kind]
    with pytest.raises(error):
        call(make(ndim))


def test_complex_input_to_a_real_check_rejected():
    """A real-valued entry point refuses complex entries instead of dropping their
    imaginary part with numpy's ComplexWarning."""
    with pytest.raises(DimensionMismatch, match="must be real"):
        structural_scattering_strength(np.array([2 + 1j, 1]))


def _los_block(n_i: int, l: int, path_gain: float):
    return los_gains(draw_los_cascades(Dimensions(2, 2, n_i, l), path_gain, [RandomStream(1)]))


def _rayleigh_cascade(path_gain: float):
    return gen_cascade(Dimensions(2, 2, 4, 2), FadingSpec("rayleigh", path_gain), RandomStream(1))


def _mean_sq_singular_values(path_gain: float):
    return estimate_mean_sq_singular_values(3, 3, FadingSpec("rayleigh", path_gain),
                                            RandomStream(2), draws=3)


def _ones_block():
    """A two-trial l = 2 block of all-ones links: every surface factor n - s is 0."""
    return los_gains([LosLink(1.0, np.ones((2, a)), np.ones((2, b)))
                      for a, b in ((2, 4), (4, 4), (4, 2))])


# (call, RangeExceeded where its value leaves the double range, or the value it is)
RANGE_CASES = {
    "channel_gain-over": (lambda: channel_gain(np.eye(2) * 1e200), RangeExceeded),
    "channel_gain-under": (lambda: channel_gain(np.eye(2) * 1e-200), RangeExceeded),
    "channel_gain-zero": (lambda: channel_gain(np.zeros((2, 2))), 0.0),
    "los_gains-over": (lambda: _los_block(128, 4, 1e60), RangeExceeded),
    "los_gains-under": (lambda: _los_block(8, 2, 1e-80), RangeExceeded),
    # the squared path gain itself leaves the range
    "los_gains-path-gain-over": (lambda: _los_block(8, 2, 1e160), RangeExceeded),
    "los_gains-zero-cross": (lambda: max(cross for _, _, cross in _ones_block()), 0.0),
    # the sum of the physics gains overflows inside numpy's mean
    "mc_relative_difference-over": (lambda: mc_relative_difference([1e308, 1e308], [1.0, 1.0]),
                                    RangeExceeded),
    "mc_relative_difference-zero": (lambda: mc_relative_difference([2.0, 2.0], [2.0, 2.0]), 0.0),
    "mc_normalized_gain-over": (lambda: mc_normalized_gain([1e300], [1e-300]), RangeExceeded),
    "mc_normalized_gain-under": (lambda: mc_normalized_gain([1e-300], [1e300]), RangeExceeded),
    "mc_normalized_gain-zero": (lambda: mc_normalized_gain([0.0, 0.0], [1.0, 2.0]), 0.0),
    # the gain scale of a cascade drawn far outside the spec's window, checked before
    # any fold product or bound is formed
    "upper_bound_physics-over": (lambda: upper_bound_physics(_rayleigh_cascade(1e120)),
                                 RangeExceeded),
    "upper_bound_physics-under": (lambda: upper_bound_physics(_rayleigh_cascade(1e-120)),
                                  RangeExceeded),
    "upper_bound_widely-over": (lambda: upper_bound_widely(_rayleigh_cascade(1e120)),
                                RangeExceeded),
    "upper_bound_widely-under": (lambda: upper_bound_widely(_rayleigh_cascade(1e-120)),
                                 RangeExceeded),
    "alg1_optimize-over": (lambda: alg1_optimize(_rayleigh_cascade(1e120)), RangeExceeded),
    "alg1_optimize-under": (lambda: alg1_optimize(_rayleigh_cascade(1e-120)), RangeExceeded),
    "estimate_mean_sq_singular_values-over": (lambda: _mean_sq_singular_values(1e200),
                                              RangeExceeded),
    "estimate_mean_sq_singular_values-under": (lambda: _mean_sq_singular_values(1e-200),
                                               RangeExceeded),
    # the sum of the entries overflows, but the strength, 1/3, does not
    "structural_scattering_strength-large": (
        lambda: structural_scattering_strength([1e308] * 3), 1 / 3),
}


@pytest.mark.parametrize("case", RANGE_CASES)
def test_values_beyond_the_double_range_raise(case):
    """A gain or metric beyond the top of the double range, or nonzero below its
    smallest normal number, raises RangeExceeded, as the closed forms of scaling do,
    instead of Python's OverflowError, numpy's RuntimeWarning, inf or 0.0; an exact
    zero stays 0.0, and a value inside the range is returned whatever the range of
    its terms."""
    call, expect = RANGE_CASES[case]
    if expect is RangeExceeded:
        with pytest.raises(RangeExceeded):
            call()
    else:
        assert call() == expect


# (a scalar field given a numpy float32, read back)
FLOAT32_FIELDS = {
    "OptimizerConfig.rel_tol": lambda x: OptimizerConfig(rel_tol=x).rel_tol,
    "LosLink.path_gain": lambda x: LosLink(x, np.ones((1, 2)), np.ones((1, 2))).path_gain,
    "FadingSpec.path_gain": lambda x: FadingSpec("rician", path_gain=x).path_gain,
    "FadingSpec.rician_k": lambda x: FadingSpec("rician", rician_k=x).rician_k,
    "MultiportNetwork.z0": lambda x: MultiportNetwork(Dimensions(1, 1, 1, 1), np.eye(3), x).z0,
}


@pytest.mark.parametrize("field", FLOAT32_FIELDS)
def test_numpy_float_stored_as_python_float(field):
    """A numpy float other than float64 is a finite real too, and is kept as a Python
    float, so no float32 arithmetic follows from it."""
    value = FLOAT32_FIELDS[field](np.float32(0.5))
    assert type(value) is float and value == 0.5
