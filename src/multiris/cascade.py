"""Scattering-domain channel assembly for cascaded reconfigurable surfaces.

Channels live here as per-hop matrices (transmitter to first surface, surface
to surface, last surface to receiver), and each surface contributes a factor
(Theta - I): the -I is the structural reflection of the surface itself, not a
tunable quantity. The widely used simplification drops that -I. One assembly
takes the choice per surface, so the two conventions, and sectored surfaces
used reflectively or transmissively, are compared on identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multiport
from .errors import DimensionMismatch, as_finite, shown

DIAGONAL_UNIT_TOL = 1e-12
UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SideLinks:
    """Direct and skip paths of a full multipath layout.

    h_rt is the transmitter-to-receiver direct link. h_ri[k] connects surface
    k (0-based, k < l-1) to the receiver, h_it[k-1] connects the transmitter
    to surface k for k >= 1.
    """

    h_rt: np.ndarray
    h_ri: tuple[np.ndarray, ...]
    h_it: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "h_rt", as_finite(self.h_rt, "h_rt"))
        object.__setattr__(self, "h_ri", tuple(as_finite(m, f"side h_ri[{k}]")
                                               for k, m in enumerate(self.h_ri)))
        object.__setattr__(self, "h_it", tuple(as_finite(m, f"side h_it[{k}]")
                                               for k, m in enumerate(self.h_it)))


@dataclass(frozen=True, eq=False)
class CascadeChannels:
    """The per-hop channel matrices of one realization.

    h_it_1 enters surface 1, inter[k] maps surface k+1 to surface k+2
    (0-based), h_ri_l leaves the last surface. Column/row counts must chain.
    sides carries the extra paths of the full multipath model when present.
    """

    h_it_1: np.ndarray
    inter: tuple[np.ndarray, ...]
    h_ri_l: np.ndarray
    sides: SideLinks | None = None

    def __post_init__(self):
        object.__setattr__(self, "h_it_1", as_finite(self.h_it_1, "h_it_1"))
        object.__setattr__(self, "inter", tuple(as_finite(m, f"inter[{k}]")
                                                for k, m in enumerate(self.inter)))
        object.__setattr__(self, "h_ri_l", as_finite(self.h_ri_l, "h_ri_l"))
        width = self.h_it_1.shape[0]
        for k, m in enumerate(self.inter):
            if m.shape[1] != width:
                raise DimensionMismatch(
                    f"inter[{k}] has {m.shape[1]} columns but surface {k} has width {width}")
            width = m.shape[0]
        if self.h_ri_l.shape[1] != width:
            raise DimensionMismatch(
                f"h_ri_l has {self.h_ri_l.shape[1]} columns but the last surface has width {width}")
        if self.sides is not None:
            self._check_sides()

    def _check_sides(self):
        s = self.sides
        l = self.n_l
        if s.h_rt.shape != (self.n_r, self.n_t):
            raise DimensionMismatch("side h_rt shape does not match n_r x n_t")
        if len(s.h_ri) != l - 1 or len(s.h_it) != l - 1:
            raise DimensionMismatch(
                f"a {l}-surface layout needs {l - 1} side h_ri and h_it links")
        for k in range(l - 1):
            if s.h_ri[k].shape != (self.n_r, self.width(k)):
                raise DimensionMismatch(f"side h_ri[{k}] has the wrong shape")
            if s.h_it[k].shape != (self.width(k + 1), self.n_t):
                raise DimensionMismatch(f"side h_it[{k}] has the wrong shape")

    @property
    def n_l(self) -> int:
        return len(self.inter) + 1

    @property
    def n_t(self) -> int:
        return self.h_it_1.shape[1]

    @property
    def n_r(self) -> int:
        return self.h_ri_l.shape[0]

    def width(self, k: int) -> int:
        """Element count of surface k (0-based)."""
        if k == 0:
            return self.h_it_1.shape[0]
        return self.inter[k - 1].shape[0]

    def widths(self) -> tuple[int, ...]:
        return tuple(self.width(k) for k in range(self.n_l))

    def hops(self) -> list[np.ndarray]:
        """The link matrices in product order: h_ri_l, inter[l-2], ..., inter[0], h_it_1."""
        return [self.h_ri_l, *reversed(self.inter), self.h_it_1]


@dataclass(frozen=True, eq=False)
class ScatteringStack:
    """One surface configuration per surface, tagged with the architecture it obeys.

    diagonal: every surface is stored as its (n,) unit-modulus phase vector,
    the diagonal of Theta; np.diag(theta) gives the n x n matrix. The
    constructor also takes the diagonal n x n matrix and keeps its diagonal.
    unitary: every surface is an n x n matrix with Theta^H Theta = I.
    """

    architecture: str
    thetas: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.architecture not in ("diagonal", "unitary"):
            raise DimensionMismatch(
                f"architecture must be 'diagonal' or 'unitary', got {self.architecture!r}")
        if len(self.thetas) == 0:
            raise DimensionMismatch("a scattering stack needs at least one surface")
        diagonal = self.architecture == "diagonal"
        fixed = []
        for k, th in enumerate(self.thetas):
            arr = as_finite(th, f"theta[{k}]", (1, 2) if diagonal else (2,))
            if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
                raise DimensionMismatch(f"theta[{k}] must be square, got shape {arr.shape}")
            if diagonal:
                if arr.ndim == 2:
                    phases = np.diag(arr).copy()
                    if (np.abs(arr - np.diag(phases)) > DIAGONAL_UNIT_TOL).any():
                        raise DimensionMismatch(f"theta[{k}] is not diagonal")
                    arr = phases
                if (np.abs(np.abs(arr) - 1.0) > DIAGONAL_UNIT_TOL).any():
                    raise DimensionMismatch(f"theta[{k}] entries are not unit modulus")
            elif (np.abs(arr.conj().T @ arr - np.eye(len(arr))) > UNITARY_TOL).any():
                raise DimensionMismatch(f"theta[{k}] is not unitary")
            fixed.append(arr)
        object.__setattr__(self, "thetas", tuple(fixed))

    @property
    def l(self) -> int:
        return len(self.thetas)


def _theta_list(stack, ch: CascadeChannels) -> list[np.ndarray]:
    """The surfaces of a ScatteringStack or of a sequence of finite (w,) phase
    vectors and (w, w) matrices, checked against the widths of ch."""
    thetas = list(stack.thetas) if isinstance(stack, ScatteringStack) else \
        [as_finite(t, f"theta[{k}]", (1, 2)) for k, t in enumerate(stack)]
    if len(thetas) != ch.n_l:
        raise DimensionMismatch(
            f"{ch.n_l} surfaces need {ch.n_l} scattering matrices, got {len(thetas)}")
    for k, th in enumerate(thetas):
        w = ch.width(k)
        if th.shape not in ((w,), (w, w)):
            raise DimensionMismatch(
                f"theta[{k}] must be ({w},) or {w} x {w} for this cascade, got {th.shape}")
    return thetas


def times_factor(m: np.ndarray, theta: np.ndarray, offset) -> np.ndarray:
    """m (Theta - d I), over any leading batch axes.

    A theta with one axis fewer than m is a diagonal surface's phase vector.
    offset is a scalar or one d per batch member.
    """
    d = np.asarray(offset)[..., None]
    if theta.ndim < m.ndim:
        return m * (theta - d)[..., None, :]
    return m @ theta - d[..., None] * m


def factor_times(theta: np.ndarray, offset, m: np.ndarray) -> np.ndarray:
    """(Theta - d I) m, over any leading batch axes; theta and offset as in times_factor."""
    d = np.asarray(offset)[..., None]
    if theta.ndim < m.ndim:
        return (theta - d)[..., :, None] * m
    return theta @ m - d[..., None] * m


def sweep_folds(hops: list, thetas: list, offsets):
    """Yield the end links (left, right) of surface pos for pos = 0, 1, ..., l-1.

    hops is a link list in CascadeChannels.hops() order, so surface k sits
    between hops[l-1-k] and hops[l-k], and the pure-cascade channel is
    left (Th_pos - d I) right, with left = h_ri_l (Th_{l-1} - d I) ... hops[l-1-pos]
    and right = hops[l-pos] ... (Th_0 - d I) h_it_1 (0-based). offsets[k] is
    the d of surface k: 1 for the physical model, 0 for the widely used one.
    thetas[k] is an n x n matrix or the 1-D phase vector of a diagonal surface.
    Stacked links carry a leading member axis; then thetas do too, and
    offsets[k] may hold one d per member.

    Both folds grow inward from the thin end links, so no step multiplies two
    n x n matrices. The left folds of every position are built up front and the
    right fold grows through surface pos only after the caller resumes the
    generator, so the caller may replace thetas[pos] (in the list it passed)
    before asking for pos + 1: O(l) link products per sweep instead of O(l^2).
    """
    l = len(hops) - 1
    lefts = [hops[0]] * l
    for k in range(l - 1, 0, -1):
        lefts[k - 1] = times_factor(lefts[k], thetas[k], offsets[k]) @ hops[l - k]
    right = hops[l]
    for pos in range(l):
        yield lefts[pos], right
        if pos + 1 < l:
            right = hops[l - 1 - pos] @ factor_times(thetas[pos], offsets[pos], right)


def assemble(ch: CascadeChannels, stack, offsets) -> np.ndarray:
    """Channel with each surface k contributing Theta_k - d_k I.

    offsets holds one d per surface: 1 keeps the surface's structural term, as
    in the physical model and for a sectored surface used reflectively (arrival
    and departure sector coincide); 0 drops it, as in the widely used model and
    for a sectored surface used transmissively, which contributes bare Theta.
    Any other value, or a list of the wrong length, raises DimensionMismatch.

    A pure cascade is h_ri_l (Theta_{l-1} - d_{l-1} I) ... (Theta_0 - d_0 I) h_it_1.
    A cascade with side links adds the direct and skip paths, all 1 + l(l+1)/2
    paths in one pass over the surfaces: reach_k, every path from the
    transmitter through surface k, is (Theta_k - d_k I)(in_k + inter[k-1] reach_{k-1}).
    """
    thetas = _theta_list(stack, ch)
    if len(offsets) != ch.n_l or not set(offsets) <= {0, 1}:
        raise DimensionMismatch(
            f"{ch.n_l} surfaces need {ch.n_l} offsets, each 0 or 1, got {shown(offsets)}")
    if ch.sides is None:
        left, right = next(sweep_folds(ch.hops(), thetas, offsets))
        return times_factor(left, thetas[0], offsets[0]) @ right
    # receiver-side link leaving surface k / transmitter-side link entering surface k
    out_links = [*ch.sides.h_ri, ch.h_ri_l]
    in_links = [ch.h_it_1, *ch.sides.h_it]
    h = ch.sides.h_rt
    for k in range(ch.n_l):
        entering = in_links[k] if k == 0 else in_links[k] + ch.inter[k - 1] @ reach
        reach = factor_times(thetas[k], offsets[k], entering)
        h = h + out_links[k] @ reach
    return h


def assemble_physics_channel(ch: CascadeChannels, stack) -> np.ndarray:
    """Channel with structural scattering kept: factors (Theta - I)."""
    return assemble(ch, stack, [1.0] * ch.n_l)


def assemble_widely_used(ch: CascadeChannels, stack) -> np.ndarray:
    """Channel in the widely used convention: bare Theta factors."""
    return assemble(ch, stack, [0.0] * ch.n_l)


# -- impedance-domain bridge -------------------------------------------------------


def cascade_from_network(net: multiport.MultiportNetwork) -> CascadeChannels:
    """Extract normalized channel blocks from a matched impedance network.

    Requires assumptions 1-5. Side links are populated unless the blocks also
    satisfy assumption 6, in which case the layout is pure-cascade and sides
    stay None.
    """
    net.require(1, 2, 3, 4, 5)
    l = net.dims.l

    def channel(rows, cols):
        return multiport.normalize_z_to_channel(net.block(rows, cols), net.z0)

    h_it_1 = channel(0, "t")
    inter = tuple(channel(k + 1, k) for k in range(l - 1))
    h_ri_l = channel("r", l - 1)
    sides = None
    if 6 not in net.assumptions:
        sides = SideLinks(channel("r", "t"), tuple(channel("r", k) for k in range(l - 1)),
                          tuple(channel(k, "t") for k in range(1, l)))
    return CascadeChannels(h_it_1, inter, h_ri_l, sides)
