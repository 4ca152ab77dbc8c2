"""Seeded generation of link matrices: rank-1 line-of-sight, Rayleigh, Rician."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import DIAGONAL_UNIT_TOL, CascadeChannels, SideLinks
from .errors import DimensionMismatch, NonFiniteInput, is_finite_real, is_int, shown
from .multiport import Dimensions
from .rng import RandomStream


@dataclass(frozen=True, eq=False)
class LosLink:
    """T rank-1 steering links path_gain * outer(a[t], b[t]), a (T, m) and b (T, n) with
    T >= 0, sharing one path gain, which is each link's lam: every entry is numeric
    (else DimensionMismatch), finite (else NonFiniteInput) and of unit modulus within
    DIAGONAL_UNIT_TOL."""

    path_gain: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "path_gain", _check_nonnegative("path_gain", self.path_gain))
        try:
            a, b = (np.asarray(x, dtype=complex) for x in (self.a, self.b))
        except (TypeError, ValueError):
            raise DimensionMismatch("steering vectors are not numeric arrays") from None
        if not (a.ndim == b.ndim == 2 and len(a) == len(b)):
            raise DimensionMismatch(f"need stacked steering vectors: {a.shape}, {b.shape}")
        ab = np.hstack((a, b))
        if not (np.abs(np.abs(ab) - 1.0) <= DIAGONAL_UNIT_TOL).all():
            if not np.isfinite(ab).all():
                raise NonFiniteInput("steering vectors have NaN or infinite entries")
            raise DimensionMismatch("steering vector entries are not unit modulus")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def matrix(self) -> np.ndarray:
        return self.path_gain * (self.a[:, :, None] * self.b[:, None, :])


@dataclass(frozen=True)
class FadingSpec:
    """What statistics a link follows and at what average path gain."""

    kind: str
    path_gain: float = 1.0
    rician_k: float = 0.0

    def __post_init__(self):
        if self.kind not in ("los", "rayleigh", "rician"):
            raise DimensionMismatch(
                f"fading kind must be 'los', 'rayleigh' or 'rician', got {self.kind!r}")
        # stored as Python floats: a float32 would keep k / (k + 1.0) in float32
        for name in ("path_gain", "rician_k"):
            object.__setattr__(self, name, _check_nonnegative(name, getattr(self, name)))


def _check_nonnegative(name, value) -> float:
    """value as a Python float, or DimensionMismatch unless it is finite and >= 0."""
    if not (is_finite_real(value) and value >= 0):
        raise DimensionMismatch(f"{name} must be a finite number >= 0, got {shown(value)}")
    return float(value)


def _check_link(rows, cols, path_gain):
    if not (is_int(rows) and rows >= 1 and is_int(cols) and cols >= 1):
        raise DimensionMismatch(
            f"link rows and cols must be integers >= 1, got {shown(rows)} x {shown(cols)}")
    _check_nonnegative("path_gain", path_gain)


def _draw_los_hop(rows: int, cols: int, path_gain: float,
                  streams: list[RandomStream]) -> LosLink:
    """One hop position's links, one per stream, as one stacked LosLink of i.i.d.
    uniform phases.

    Row t of one (T, rows + cols) buffer is streams[t].generator().random(rows + cols),
    and one exp turns the buffer into phases, so the stack's a and b are views of it.
    These are the bytes of rng.uniform(0, 2 pi, rows), then cols, per link: uniform
    returns 0.0 + 2 pi U from the same next_double U that random returns, and one
    random(rows + cols) call uses the words of the two calls in turn."""
    _check_link(rows, cols, path_gain)
    phases = np.empty((len(streams), rows + cols))
    for row, stream in zip(phases, streams):
        stream.generator().random(out=row)
    phases = np.exp(1j * (2.0 * np.pi * phases))
    return LosLink(float(path_gain), phases[:, :rows], phases[:, rows:])


def gen_los_link(rows: int, cols: int, path_gain: float, stream: RandomStream) -> np.ndarray:
    """A rank-1 link with i.i.d. uniform phases on both sides: a block of one stream."""
    return _draw_los_hop(rows, cols, path_gain, [stream]).matrix()[0]


def _fill_rayleigh(out: np.ndarray, path_gain: float, stream: RandomStream) -> np.ndarray:
    """Write a Rayleigh link into the complex array out and return it: the parts are two
    standard_normal draws of out's shape, then out is scaled in place by path_gain and
    by 1/sqrt(2), the operations of path_gain * (re + 1j * im) / sqrt(2) in turn."""
    rng = stream.generator()
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    out *= path_gain
    out /= np.sqrt(2.0)
    return out


def gen_rayleigh_link(rows: int, cols: int, path_gain: float, stream: RandomStream) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian entries, per-entry std path_gain."""
    _check_link(rows, cols, path_gain)
    return _fill_rayleigh(np.empty((rows, cols), dtype=complex), path_gain, stream)


def gen_rician_link(rows: int, cols: int, spec: FadingSpec, stream: RandomStream) -> np.ndarray:
    """K-factor mix of a rank-1 specular part and a Rayleigh scatter part.

    The two parts come from separate child streams, so changing K rescales a
    fixed pair of draws instead of producing unrelated channels.
    """
    k = spec.rician_k
    # built in place, in the order of sqrt(k/(k+1)) los + sqrt(1/(k+1)) nlos scaled by
    # the path gain, so the bytes are those of that expression
    mixed = gen_los_link(rows, cols, 1.0, stream.child("specular"))
    mixed *= np.sqrt(k / (k + 1.0))
    scatter = gen_rayleigh_link(rows, cols, 1.0, stream.child("scatter"))
    scatter *= np.sqrt(1.0 / (k + 1.0))
    mixed += scatter
    mixed *= spec.path_gain
    return mixed


def gen_link(rows: int, cols: int, spec: FadingSpec, stream: RandomStream) -> np.ndarray:
    if spec.kind == "los":
        return gen_los_link(rows, cols, spec.path_gain, stream)
    if spec.kind == "rayleigh":
        return gen_rayleigh_link(rows, cols, spec.path_gain, stream)
    return gen_rician_link(rows, cols, spec, stream)


def _cascade_links(dims: Dimensions) -> list[tuple]:
    """(rows, cols, child label) of every link of a cascade in ch.hops() order, h_ri_l
    first: the one place the child-stream labels of a cascade's links are named."""
    l = dims.l
    return [(dims.n_r, dims.n_i, ("ri", l - 1)),
            *((dims.n_i, dims.n_i, ("hop", k)) for k in reversed(range(l - 1))),
            (dims.n_i, dims.n_t, ("it", 0))]


def draw_los_cascades(dims: Dimensions, path_gain: float,
                      streams: list[RandomStream]) -> tuple[LosLink, ...]:
    """The line-of-sight cascades gen_cascade draws from each stream, as one stacked
    LosLink per hop position in ch.hops() order: row t of each stack is stream t's
    link, and the matrices of row t are its cascade's hops, bit for bit. One stream
    and one generator per link, so a cascade's links do not depend on its block."""
    return tuple(_draw_los_hop(rows, cols, path_gain, [stream.child(*label) for stream in streams])
                 for rows, cols, label in _cascade_links(dims))


def draw_cascades(dims: Dimensions, fadings: list[FadingSpec],
                  streams: list[RandomStream]) -> tuple[np.ndarray, ...]:
    """The pure cascades gen_cascade draws from each stream, row t following fadings[t],
    as one (T, rows, cols) stack per hop position in ch.hops() order: row t of each stack
    is stream t's link, bit for bit. Each link is drawn from its own child stream into its
    row (a Rayleigh link in place, any other copied there), so a cascade's links do not
    depend on its block, and the block holds one copy of them."""
    if len(fadings) != len(streams):
        raise DimensionMismatch(f"need one fading spec per stream, got {len(fadings)} "
                                f"for {len(streams)}")
    stacks = []
    for rows, cols, label in _cascade_links(dims):
        stack = np.empty((len(streams), rows, cols), dtype=complex)
        for row, fading, stream in zip(stack, fadings, streams):
            if fading.kind == "rayleigh":
                _fill_rayleigh(row, fading.path_gain, stream.child(*label))
            else:
                row[...] = gen_link(rows, cols, fading, stream.child(*label))
        stacks.append(stack)
    return tuple(stacks)


def gen_cascade(dims: Dimensions, fading: FadingSpec, stream: RandomStream,
                include_sides: bool = False) -> CascadeChannels:
    """Draw every link of a cascade, all following fading, from independent child streams:
    the pure cascade is draw_cascades' block of one stream."""
    l = dims.l
    hops = [stack[0] for stack in draw_cascades(dims, [fading], [stream])]
    sides = None
    if include_sides:
        h_rt = gen_link(dims.n_r, dims.n_t, fading, stream.child("side_rt"))
        h_ri = tuple(gen_link(dims.n_r, dims.n_i, fading, stream.child("side_ri", k))
                     for k in range(l - 1))
        h_it = tuple(gen_link(dims.n_i, dims.n_t, fading, stream.child("side_it", k))
                     for k in range(1, l))
        sides = SideLinks(h_rt, h_ri, h_it)
    return CascadeChannels.from_hops(hops, sides)
