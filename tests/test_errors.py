"""errors.as_finite: every array entry point turns bad array input into a typed error."""

import numpy as np
import pytest

from conftest import ones_cascade
from multiris.cascade import CascadeChannels, ScatteringStack, SideLinks, assemble
from multiris.errors import DimensionMismatch, EmptySequence, NonFiniteInput
from multiris.multiport import (
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
    normalize_z_to_channel,
    scattering_to_z,
    z_to_scattering,
)
from multiris.optimize import InnerProblemData, channel_gain, spectral_norm
from multiris.scaling import structural_scattering_strength

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
