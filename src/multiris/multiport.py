"""Impedance-domain model of a transmitter / surface cascade / receiver link.

The whole wireless system is one linear N-port: transmitter antennas, the
elements of each reconfigurable surface in order, then receiver antennas.
Its impedance matrix Z is held whole; Dimensions.ports says which rows and
columns belong to which port group. channel_z maps Z's blocks plus the
surface load impedances to the end-to-end voltage-transfer channel matrix.
A network reads which of these assumptions its blocks satisfy:

1. no feedback into the transmitter and none out of the receiver
   (Z_TI = Z_TR = Z_IR = 0),
2. no propagation against the cascade direction between surfaces
   (upper off-diagonal blocks of Z_II are zero),
3. no propagation that skips a surface (blocks of Z_II two or more below
   the diagonal are zero; with 2, Z_II is block bidiagonal),
4. matched, uncoupled transmitter and receiver arrays (Z_TT = Z_RR = z0*I),
5. matched, uncoupled surface arrays (each diagonal block of Z_II is z0*I),
6. the transmitter reaches only the first surface and the receiver hears
   only the last one (all other Z_IT / Z_RI blocks and Z_RT are zero).

channel_z needs only 1. It solves a surface core that is exactly block
bidiagonal by forward substitution and inverts any other core whole, so it
drops no block. A routine that needs an assumption the blocks break raises
AssumptionViolated instead of silently zeroing a block that is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    OpenCircuitSingularity,
    SingularDiagonalBlock,
    SingularMatrix,
    as_finite,
    is_finite_real,
    is_int,
    shown,
)

DEFAULT_Z0 = 50.0
CONDITION_CAP = 1e12

# Tolerance, relative to z0, within which a block counts as zero or as z0*I.
_BLOCK_TOL = 1e-10


@dataclass(frozen=True)
class Dimensions:
    """Port counts of the cascade: n_t transmit, n_r receive, l surfaces of n_i elements."""

    n_t: int
    n_r: int
    n_i: int
    l: int

    def __post_init__(self):
        for name in ("n_t", "n_r", "n_i", "l"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise DimensionMismatch(f"{name} must be a positive integer, got {shown(value)}")

    @property
    def n_ports(self) -> int:
        return self.n_t + self.l * self.n_i + self.n_r

    def ports(self, group) -> slice:
        """Rows (or columns) of the impedance matrix that hold a port group.

        Ports run transmitter, surface 0 ... surface l-1, receiver. A group is
        "t", "r", "i" (every surface element) or a surface index k in 0..l-1.
        """
        n_t, n_i = self.n_t, self.n_i
        end_i = n_t + self.l * n_i
        spans = {"t": (0, n_t), "i": (n_t, end_i), "r": (end_i, self.n_ports)}
        if is_int(group) and 0 <= group < self.l:
            return slice(n_t + group * n_i, n_t + (group + 1) * n_i)
        if isinstance(group, str) and group in spans:
            return slice(*spans[group])
        raise DimensionMismatch(f"a port group is 't', 'r', 'i' or a surface index in "
                                f"0..{self.l - 1}, got {shown(group)}")


def _checked_z0(z0) -> float:
    if not (is_finite_real(z0) and z0 > 0):
        raise DimensionMismatch(f"z0 must be a finite real number > 0, got {shown(z0)}")
    return float(z0)


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class MultiportNetwork:
    """Impedance matrix z of the full link, n_ports x n_ports in the port order
    of Dimensions.ports, held as a read-only copy so that assumptions, the ids
    1-6 of the module docstring that its blocks satisfy, cannot go stale.
    """

    dims: Dimensions
    z: np.ndarray
    z0: float = DEFAULT_Z0
    assumptions: frozenset[int] = field(init=False)

    def __post_init__(self):
        if not isinstance(self.dims, Dimensions):
            raise DimensionMismatch(f"dims must be a Dimensions, got {type(self.dims).__name__}")
        object.__setattr__(self, "z0", _checked_z0(self.z0))
        z = as_finite(self.z, "z").copy()
        n = self.dims.n_ports
        if z.shape != (n, n):
            raise DimensionMismatch(f"z must have shape {(n, n)}, got {z.shape}")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "assumptions", self._held_assumptions())

    def block(self, rows, cols) -> np.ndarray:
        """The block of z from port group cols to port group rows (a view)."""
        return self.z[self.dims.ports(rows), self.dims.ports(cols)]

    def _held_assumptions(self) -> frozenset[int]:
        tol = _BLOCK_TOL * self.z0
        l = self.dims.l
        b = self.block

        def zero(*blocks):
            return all(_max_abs(x) <= tol for x in blocks)

        def matched(*blocks):
            return all(_max_abs(x - self.z0 * np.eye(len(x))) <= tol for x in blocks)

        def surface_blocks(keep):
            return [b(i, j) for i in range(l) for j in range(l) if keep(i, j)]

        held = {
            1: zero(b("t", "i"), b("t", "r"), b("i", "r")),
            2: zero(*surface_blocks(lambda i, j: i < j)),
            3: zero(*surface_blocks(lambda i, j: i > j + 1)),
            4: matched(b("t", "t"), b("r", "r")),
            5: matched(*(b(k, k) for k in range(l))),
            6: zero(b("r", "t"), *(b(k, "t") for k in range(1, l)),
                    *(b("r", k) for k in range(l - 1))),
        }
        return frozenset(k for k, ok in held.items() if ok)

    def require(self, *ids: int):
        missing = sorted(set(ids) - self.assumptions)
        if missing:
            raise AssumptionViolated(
                f"this channel model needs assumption(s) {missing}, which the network's "
                f"blocks do not satisfy")


@dataclass(frozen=True, eq=False)
class RisLoadStack:
    """Per-surface load impedance matrices terminating the surface elements."""

    loads: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.loads) == 0:
            raise DimensionMismatch("a load stack needs at least one surface")
        loads = tuple(as_finite(z, f"load {k}") for k, z in enumerate(self.loads))
        n = loads[0].shape[0]
        for k, z in enumerate(loads):
            if z.shape != (n, n):
                raise DimensionMismatch(f"loads must be square and equally sized; load {k} has "
                                        f"shape {z.shape}, load 0 {loads[0].shape}")
        object.__setattr__(self, "loads", loads)

    @property
    def l(self) -> int:
        return len(self.loads)

    @property
    def n_i(self) -> int:
        return self.loads[0].shape[0]

    def is_lossless(self, tol: float = 1e-9) -> bool:
        """True when every load is purely reactive (Z = -Z^H within tol)."""
        return all(_max_abs(z + z.conj().T) <= tol * max(1.0, _max_abs(z)) for z in self.loads)


def _loads_for(net: MultiportNetwork, loads) -> RisLoadStack:
    stack = loads if isinstance(loads, RisLoadStack) else RisLoadStack(tuple(loads))
    if stack.l != net.dims.l or stack.n_i != net.dims.n_i:
        raise DimensionMismatch(
            f"load stack is {stack.l} x {stack.n_i} ports but the network has "
            f"{net.dims.l} surfaces of {net.dims.n_i} elements")
    return stack


def _checked_inv(a: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise SingularMatrix(what, float(cond))
    return np.linalg.inv(a)


# -- channel models --------------------------------------------------------------


def _between_end_arrays(net: MultiportNetwork, inner: np.ndarray) -> np.ndarray:
    """z0 * inv(z0*I + Z_RR) @ inner @ inv(Z_TT): inner seen through the end arrays."""
    eye_r = net.z0 * np.eye(net.dims.n_r)
    left = net.z0 * _checked_inv(eye_r + net.block("r", "r"), "z0*I + z_rr")
    return left @ inner @ _checked_inv(net.block("t", "t"), "z_tt")


def _bidiagonal_core(net: MultiportNetwork) -> bool:
    """True when every surface block above the diagonal, and every block two or
    more below it, is exactly zero, so the forward solve of _cascade_sum is exact."""
    l = net.dims.l
    return not any(net.block(i, j).any() for i in range(l) for j in range(l)
                   if i < j or i > j + 1)


def _dense_sum(net: MultiportNetwork, stack: RisLoadStack) -> np.ndarray:
    """Z_RT - Z_RI inv(Z_I + Z_II) Z_IT with the whole surface core inverted."""
    ports = net.dims.ports
    z = net.z.copy()
    for k, z_k in enumerate(stack.loads):
        z[ports(k), ports(k)] += z_k
    y = _checked_inv(z[ports("i"), ports("i")], "z_i + z_ii")
    return net.block("r", "t") - net.block("r", "i") @ y @ net.block("i", "t")


def _cascade_sum(net: MultiportNetwork, stack: RisLoadStack) -> np.ndarray:
    """Z_RT - Z_RI inv(Z_I + Z_II) Z_IT on a block-bidiagonal surface core, by one
    forward substitution over the surfaces, O(l):

        x_0 = inv(D_0) Z_IT,0,    x_k = inv(D_k) (Z_IT,k - Z_k,k-1 x_{k-1}),

    with D_k = load_k + Z_k,k; the result is Z_RT - sum_k Z_RI,k x_k. Raises
    SingularDiagonalBlock(k) when D_k exceeds the condition cap.
    """
    acc = net.block("r", "t").copy()
    x = None
    for k, load in enumerate(stack.loads):
        d_k = load + net.block(k, k)
        cond = np.linalg.cond(d_k)
        if not np.isfinite(cond) or cond > CONDITION_CAP:
            raise SingularDiagonalBlock(k, float(cond))
        rhs = net.block(k, "t") if k == 0 else net.block(k, "t") - net.block(k, k - 1) @ x
        x = np.linalg.solve(d_k, rhs)
        acc -= net.block("r", k) @ x
    return acc


def channel_z(net: MultiportNetwork, loads) -> np.ndarray:
    """End-to-end channel of a network terminated by its surface loads,

        z0 * inv(z0*I + Z_RR) @ (Z_RT - Z_RI inv(Z_I + Z_II) Z_IT) @ inv(Z_TT),

    where Z_I is the block-diagonal matrix of surface loads. Needs assumption 1.
    A surface core that is exactly block bidiagonal is solved by forward
    substitution, one thin solve per surface; any other core is inverted whole.
    """
    net.require(1)
    stack = _loads_for(net, loads)
    inner = _cascade_sum(net, stack) if _bidiagonal_core(net) else _dense_sum(net, stack)
    return _between_end_arrays(net, inner)


# -- impedance / scattering maps --------------------------------------------------


def _square(a, name: str) -> np.ndarray:
    arr = as_finite(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def z_to_scattering(z_load: np.ndarray, z0: float = DEFAULT_Z0) -> np.ndarray:
    """Scattering matrix of a load bank: Theta = inv(Z + z0 I) (Z - z0 I)."""
    z = _square(z_load, "load matrix")
    eye = _checked_z0(z0) * np.eye(z.shape[0])
    return _checked_inv(z + eye, "z_load + z0*I") @ (z - eye)


def scattering_to_z(theta: np.ndarray, z0: float = DEFAULT_Z0) -> np.ndarray:
    """Load impedance realizing a scattering matrix: Z = z0 (I + Theta) inv(I - Theta).

    Raises OpenCircuitSingularity when Theta has an eigenvalue at 1, since that
    element is an open circuit with no finite impedance, and SingularMatrix when
    I - Theta exceeds the condition cap all the same.
    """
    th = _square(theta, "scattering matrix")
    z0 = _checked_z0(z0)
    eigs = np.linalg.eigvals(th)
    if np.min(np.abs(eigs - 1.0)) < 1e-9:
        raise OpenCircuitSingularity(
            "scattering matrix has an eigenvalue at 1; the load is an open circuit")
    eye = np.eye(th.shape[0])
    return z0 * (eye + th) @ _checked_inv(eye - th, "I - theta")


def normalize_z_to_channel(z_block: np.ndarray, z0: float = DEFAULT_Z0) -> np.ndarray:
    """Convert a transfer impedance block to its channel-matrix normalization."""
    return as_finite(z_block, "z_block") / (2.0 * _checked_z0(z0))
