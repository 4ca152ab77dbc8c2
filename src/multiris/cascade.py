"""Scattering-domain channel assembly for cascaded reconfigurable surfaces.

Channels live here as per-hop matrices (transmitter to first surface, surface
to surface, last surface to receiver), and each surface contributes a factor
(Theta - I): the -I is the structural reflection of the surface itself, not a
tunable quantity. The widely used simplification drops that -I; both
assemblies are provided so the two conventions can be compared on identical
draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import multiport
from .errors import (
    DimensionMismatch,
    MissingSideLinks,
    NonFiniteInput,
    SectorIndexOutOfRange,
)

DIAGONAL_UNIT_TOL = 1e-12
UNITARY_TOL = 1e-10


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim {arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} has NaN or infinite entries")
    return arr


@dataclass(frozen=True)
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
        object.__setattr__(self, "h_rt", _as_matrix(self.h_rt, "h_rt"))
        object.__setattr__(self, "h_ri", tuple(_as_matrix(m, f"side h_ri[{k}]")
                                               for k, m in enumerate(self.h_ri)))
        object.__setattr__(self, "h_it", tuple(_as_matrix(m, f"side h_it[{k}]")
                                               for k, m in enumerate(self.h_it)))


@dataclass(frozen=True)
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
        object.__setattr__(self, "h_it_1", _as_matrix(self.h_it_1, "h_it_1"))
        object.__setattr__(self, "inter", tuple(_as_matrix(m, f"inter[{k}]")
                                                for k, m in enumerate(self.inter)))
        object.__setattr__(self, "h_ri_l", _as_matrix(self.h_ri_l, "h_ri_l"))
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

    def to_json(self) -> str:
        """Row-major [re, im] pair serialization of every block."""

        def pairs(a):
            return [[[float(x.real), float(x.imag)] for x in row] for row in a]

        payload = {
            "h_it_1": pairs(self.h_it_1),
            "inter": [pairs(m) for m in self.inter],
            "h_ri_l": pairs(self.h_ri_l),
        }
        if self.sides is not None:
            payload["sides"] = {
                "h_rt": pairs(self.sides.h_rt),
                "h_ri": [pairs(m) for m in self.sides.h_ri],
                "h_it": [pairs(m) for m in self.sides.h_it],
            }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CascadeChannels":
        def un(a):
            return np.array([[complex(re, im) for re, im in row] for row in a], dtype=complex)

        payload = json.loads(text)
        sides = None
        if "sides" in payload:
            s = payload["sides"]
            sides = SideLinks(un(s["h_rt"]),
                              tuple(un(m) for m in s["h_ri"]),
                              tuple(un(m) for m in s["h_it"]))
        return CascadeChannels(un(payload["h_it_1"]),
                               tuple(un(m) for m in payload["inter"]),
                               un(payload["h_ri_l"]),
                               sides)


@dataclass(frozen=True)
class ScatteringStack:
    """One scattering matrix per surface, tagged with the architecture it obeys.

    diagonal: every matrix is diagonal with unit-modulus entries.
    unitary: every matrix satisfies Theta^H Theta = I.
    """

    architecture: str
    thetas: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.architecture not in ("diagonal", "unitary"):
            raise DimensionMismatch(
                f"architecture must be 'diagonal' or 'unitary', got {self.architecture!r}")
        if len(self.thetas) == 0:
            raise DimensionMismatch("a scattering stack needs at least one surface")
        fixed = []
        for k, th in enumerate(self.thetas):
            arr = _as_matrix(th, f"theta[{k}]")
            if arr.shape[0] != arr.shape[1]:
                raise DimensionMismatch(f"theta[{k}] must be square, got shape {arr.shape}")
            n = arr.shape[0]
            if self.architecture == "diagonal":
                off = arr - np.diag(np.diag(arr))
                if off.size and np.abs(off).max() > DIAGONAL_UNIT_TOL:
                    raise DimensionMismatch(f"theta[{k}] is not diagonal")
                if np.abs(np.abs(np.diag(arr)) - 1.0).max() > DIAGONAL_UNIT_TOL:
                    raise DimensionMismatch(f"theta[{k}] diagonal entries are not unit modulus")
            else:
                gram = arr.conj().T @ arr
                if np.abs(gram - np.eye(n)).max() > UNITARY_TOL:
                    raise DimensionMismatch(f"theta[{k}] is not unitary")
            fixed.append(arr)
        object.__setattr__(self, "thetas", tuple(fixed))

    @property
    def l(self) -> int:
        return len(self.thetas)


def _theta_list(stack, ch: CascadeChannels) -> list[np.ndarray]:
    thetas = list(stack.thetas) if isinstance(stack, ScatteringStack) else \
        [_as_matrix(t, f"theta[{k}]") for k, t in enumerate(stack)]
    if len(thetas) != ch.n_l:
        raise DimensionMismatch(
            f"{ch.n_l} surfaces need {ch.n_l} scattering matrices, got {len(thetas)}")
    for k, th in enumerate(thetas):
        w = ch.width(k)
        if th.shape != (w, w):
            raise DimensionMismatch(
                f"theta[{k}] must be {w} x {w} for this cascade, got {th.shape}")
    return thetas


def _factor(theta: np.ndarray, offset: float) -> np.ndarray:
    return theta - offset * np.eye(theta.shape[0])


def fold(ch: CascadeChannels, thetas, offsets, pos: int) -> tuple[np.ndarray, np.ndarray]:
    """End links (left, right) of surface pos with every other surface folded in.

    The pure-cascade channel is left (Th_pos - d I) right, with left =
    h_ri_l (Th_{L-1} - d I) inter[L-2] ... inter[pos] and right = inter[pos-1] ...
    (Th_0 - d I) h_it_1 (0-based). offsets[k] is the d of surface k: 1 for the
    physical model, 0 for the widely used one. Both products grow inward from
    the thin end links, so no step multiplies two n x n matrices.
    """
    left = ch.h_ri_l
    for k in range(ch.n_l - 1, pos, -1):
        left = left @ _factor(thetas[k], offsets[k]) @ ch.inter[k - 1]
    right = ch.h_it_1
    for k in range(pos):
        right = ch.inter[k] @ (_factor(thetas[k], offsets[k]) @ right)
    return left, right


def _chain(ch: CascadeChannels, thetas, offsets) -> np.ndarray:
    """The whole pure-cascade product h_ri_l (Th_{L-1} - d I) ... (Th_0 - d I) h_it_1."""
    left, right = fold(ch, thetas, offsets, 0)
    return left @ _factor(thetas[0], offsets[0]) @ right


def assemble_physics_channel(ch: CascadeChannels, stack) -> np.ndarray:
    """Pure-cascade channel with structural scattering kept: factors (Theta - I)."""
    thetas = _theta_list(stack, ch)
    return _chain(ch, thetas, [1.0] * ch.n_l)


def assemble_widely_used(ch: CascadeChannels, stack) -> np.ndarray:
    """Pure-cascade channel in the widely used convention: bare Theta factors."""
    thetas = _theta_list(stack, ch)
    return _chain(ch, thetas, [0.0] * ch.n_l)


def assemble_full_physics(ch: CascadeChannels, stack) -> np.ndarray:
    """Full multipath channel: direct, single-bounce and every multi-bounce path.

    Sums 1 + l(l+1)/2 terms. Needs the side links; raises MissingSideLinks
    when the cascade does not carry them.
    """
    if ch.sides is None:
        raise MissingSideLinks("assemble_full_physics needs side links on the cascade")
    thetas = _theta_list(stack, ch)
    l = ch.n_l
    # receiver-side link leaving surface k / transmitter-side link entering surface k
    out_links = list(ch.sides.h_ri) + [ch.h_ri_l]
    in_links = [ch.h_it_1] + list(ch.sides.h_it)

    h = ch.sides.h_rt.astype(complex).copy()
    for k in range(l):
        h = h + out_links[k] @ _factor(thetas[k], 1.0) @ in_links[k]
    for top in range(1, l):
        acc = out_links[top] @ _factor(thetas[top], 1.0)
        for k in range(top - 1, -1, -1):
            acc = acc @ ch.inter[k] @ _factor(thetas[k], 1.0)
            h = h + acc @ in_links[k]
    return h


@dataclass(frozen=True)
class SurfaceSectors:
    """Sector usage of one surface: how many sectors it has and which are used."""

    count: int
    arrival: int
    departure: int

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise DimensionMismatch(f"sector count must be a positive int, got {self.count!r}")
        for name in ("arrival", "departure"):
            v = getattr(self, name)
            if not isinstance(v, int) or not (1 <= v <= self.count):
                raise SectorIndexOutOfRange(
                    f"{name} sector {v!r} is outside 1..{self.count}")

    @property
    def reflective(self) -> bool:
        return self.arrival == self.departure


@dataclass(frozen=True)
class MultiSectorSpec:
    """Sector layout of a multi-sector cascade over surfaces of n_i elements."""

    n_i: int
    surfaces: tuple[SurfaceSectors, ...]

    def __post_init__(self):
        if not isinstance(self.n_i, int) or self.n_i < 1:
            raise DimensionMismatch(f"n_i must be a positive int, got {self.n_i!r}")
        if len(self.surfaces) == 0:
            raise DimensionMismatch("a multi-sector spec needs at least one surface")
        for k, s in enumerate(self.surfaces):
            if self.n_i % s.count != 0:
                raise DimensionMismatch(
                    f"surface {k}: {self.n_i} elements do not split into {s.count} sectors")

    @property
    def l(self) -> int:
        return len(self.surfaces)

    def reduced_width(self, k: int) -> int:
        return self.n_i // self.surfaces[k].count


def assemble_multisector(ch: CascadeChannels, stack, spec: MultiSectorSpec) -> np.ndarray:
    """Channel through sectored surfaces, on the reduced per-sector blocks.

    Each surface contributes (Theta - delta I) where delta is 1 when its
    arrival and departure sectors coincide (reflective use, the structural
    term survives) and 0 otherwise (transmissive use).
    """
    if spec.l != ch.n_l:
        raise DimensionMismatch(
            f"sector spec covers {spec.l} surfaces but the cascade has {ch.n_l}")
    for k in range(spec.l):
        if ch.width(k) != spec.reduced_width(k):
            raise DimensionMismatch(
                f"surface {k}: cascade width {ch.width(k)} != reduced sector width "
                f"{spec.reduced_width(k)}")
    thetas = _theta_list(stack, ch)
    offsets = [1.0 if s.reflective else 0.0 for s in spec.surfaces]
    return _chain(ch, thetas, offsets)


# -- impedance-domain bridge -------------------------------------------------------


def cascade_from_network(net: multiport.MultiportNetwork) -> CascadeChannels:
    """Extract normalized channel blocks from a matched impedance network.

    Requires assumptions 1-5. Side links are populated unless assumption 6 is
    asserted, in which case the layout is pure-cascade and sides stay None.
    """
    net.require(1, 2, 3, 4, 5)
    z0 = net.z0
    l = net.dims.l
    h_it_1 = multiport.normalize_z_to_channel(net.z_it_block(0), z0)
    inter = tuple(multiport.normalize_z_to_channel(net.hop_block(k), z0) for k in range(l - 1))
    h_ri_l = multiport.normalize_z_to_channel(net.z_ri_block(l - 1), z0)
    sides = None
    if 6 not in net.assumptions:
        sides = SideLinks(
            multiport.normalize_z_to_channel(net.z_rt, z0),
            tuple(multiport.normalize_z_to_channel(net.z_ri_block(k), z0) for k in range(l - 1)),
            tuple(multiport.normalize_z_to_channel(net.z_it_block(k), z0) for k in range(1, l)),
        )
    return CascadeChannels(h_it_1, inter, h_ri_l, sides)
