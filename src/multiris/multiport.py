"""Impedance-domain model of a transmitter / surface cascade / receiver link.

The whole wireless system is one linear N-port: transmitter antennas, the
elements of each reconfigurable surface in order, then receiver antennas.
Its impedance matrix is held in partitioned form. The channel expressions
here map that partition plus the surface load impedances to the end-to-end
voltage-transfer channel matrix under progressively stronger assumptions:

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

A network reads which of these its blocks satisfy from the blocks themselves;
a model raises AssumptionViolated instead of silently zeroing a block it drops
that is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    NonFiniteInput,
    OpenCircuitSingularity,
    SingularDiagonalBlock,
    SingularMatrix,
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


def _as_finite(a, name: str, ndims=(2,)) -> np.ndarray:
    """a as a finite complex array with one of the allowed ndims."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim not in ndims:
        raise DimensionMismatch(f"{name} must have ndim in {ndims}, got ndim {arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} has NaN or infinite entries")
    return arr


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class MultiportNetwork:
    """Partitioned impedance matrix of the full link.

    Blocks follow the transmitter / surfaces / receiver split: z_ii is the
    (l*n_i) x (l*n_i) surface-to-surface block, z_it and z_ri are the stacked
    transmitter-to-surface and surface-to-receiver blocks. assumptions holds
    the ids 1-6 of the module docstring that the blocks satisfy.
    """

    dims: Dimensions
    z_tt: np.ndarray
    z_ti: np.ndarray
    z_tr: np.ndarray
    z_it: np.ndarray
    z_ii: np.ndarray
    z_ir: np.ndarray
    z_rt: np.ndarray
    z_ri: np.ndarray
    z_rr: np.ndarray
    z0: float = DEFAULT_Z0
    assumptions: frozenset[int] = field(init=False)

    def __post_init__(self):
        d = self.dims
        if not (is_finite_real(self.z0) and self.z0 > 0):
            raise DimensionMismatch(f"z0 must be a finite real number > 0, got {shown(self.z0)}")
        object.__setattr__(self, "z0", float(self.z0))
        ni_all = d.l * d.n_i
        spec = {
            "z_tt": (d.n_t, d.n_t),
            "z_ti": (d.n_t, ni_all),
            "z_tr": (d.n_t, d.n_r),
            "z_it": (ni_all, d.n_t),
            "z_ii": (ni_all, ni_all),
            "z_ir": (ni_all, d.n_r),
            "z_rt": (d.n_r, d.n_t),
            "z_ri": (d.n_r, ni_all),
            "z_rr": (d.n_r, d.n_r),
        }
        for name, shape in spec.items():
            block = _as_finite(getattr(self, name), name)
            if block.shape != shape:
                raise DimensionMismatch(f"{name} must have shape {shape}, got {block.shape}")
            object.__setattr__(self, name, block)
        object.__setattr__(self, "assumptions", self._held_assumptions())

    # -- block accessors (surface indices are 0-based) ------------------------

    def _sl(self, k: int) -> slice:
        n = self.dims.n_i
        return slice(k * n, (k + 1) * n)

    def surface_block(self, k: int) -> np.ndarray:
        """Z_II diagonal block of surface k (its own array coupling)."""
        return self.z_ii[self._sl(k), self._sl(k)]

    def hop_block(self, k: int) -> np.ndarray:
        """Z_II subdiagonal block from surface k to surface k+1."""
        return self.z_ii[self._sl(k + 1), self._sl(k)]

    def z_it_block(self, k: int) -> np.ndarray:
        """Transmitter-to-surface-k block."""
        return self.z_it[self._sl(k), :]

    def z_ri_block(self, k: int) -> np.ndarray:
        """Surface-k-to-receiver block."""
        return self.z_ri[:, self._sl(k)]

    # -- assumptions ------------------------------------------------------------

    def _held_assumptions(self) -> frozenset[int]:
        tol = _BLOCK_TOL * self.z0
        l = self.dims.l

        def zero(*blocks):
            return all(_max_abs(b) <= tol for b in blocks)

        def matched(*blocks):
            return all(_max_abs(b - self.z0 * np.eye(len(b))) <= tol for b in blocks)

        def z_ii_blocks(keep):
            return [self.z_ii[self._sl(i), self._sl(j)]
                    for i in range(l) for j in range(l) if keep(i, j)]

        held = {
            1: zero(self.z_ti, self.z_tr, self.z_ir),
            2: zero(*z_ii_blocks(lambda i, j: i < j)),
            3: zero(*z_ii_blocks(lambda i, j: i > j + 1)),
            4: matched(self.z_tt, self.z_rr),
            5: matched(*(self.surface_block(k) for k in range(l))),
            6: zero(self.z_rt, *(self.z_it_block(k) for k in range(1, l)),
                    *(self.z_ri_block(k) for k in range(l - 1))),
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
        loads = tuple(_as_finite(z, f"load {k}") for k, z in enumerate(self.loads))
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


# -- structured inverse ---------------------------------------------------------


def block_subdiagonal_inverse(diagonal_blocks, subdiagonal_blocks) -> list[list[np.ndarray]]:
    """Invert a block matrix whose only nonzero blocks sit on the diagonal and
    the first subdiagonal.

    For M with diagonal blocks D_0..D_{l-1} and subdiagonal blocks S_k mapping
    block column k to block row k+1, the inverse N is block lower triangular:

        N[i][i] = inv(D_i)
        N[i][j] = (-1)^(i-j) inv(D_i) (S_{i-1} inv(D_{i-1})) ... (S_j inv(D_j)),  i > j

    with the factors multiplied in strictly decreasing block order, and
    N[i][j] for i < j exactly the zero matrix. Returns the inverse as a list
    of lists of blocks.
    """
    d = [np.asarray(b, dtype=complex) for b in diagonal_blocks]
    s = [np.asarray(b, dtype=complex) for b in subdiagonal_blocks]
    l = len(d)
    if l == 0:
        raise DimensionMismatch("need at least one diagonal block")
    if len(s) != l - 1:
        raise DimensionMismatch(f"{l} diagonal blocks need {l - 1} subdiagonal blocks, got {len(s)}")
    n = d[0].shape[0] if d[0].ndim == 2 else -1
    for k, b in enumerate(d):
        if b.ndim != 2 or b.shape != (n, n):
            raise DimensionMismatch(f"diagonal block {k} must be {n} x {n}, got shape {b.shape}")
    for k, b in enumerate(s):
        if b.ndim != 2 or b.shape != (n, n):
            raise DimensionMismatch(f"subdiagonal block {k} must be {n} x {n}, got shape {b.shape}")

    d_inv = []
    for k, b in enumerate(d):
        cond = np.linalg.cond(b)
        if not np.isfinite(cond) or cond > CONDITION_CAP:
            raise SingularDiagonalBlock(k, float(cond))
        d_inv.append(np.linalg.inv(b))
    sd = [s[k] @ d_inv[k] for k in range(l - 1)]

    out = [[np.zeros((n, n), dtype=complex) for _ in range(l)] for _ in range(l)]
    for i in range(l):
        out[i][i] = d_inv[i]
        acc = d_inv[i]
        for j in range(i - 1, -1, -1):
            acc = -(acc @ sd[j])
            out[i][j] = acc
    return out


# -- channel models --------------------------------------------------------------


def channel_z_general(net: MultiportNetwork, loads) -> np.ndarray:
    """End-to-end channel from the full impedance partition.

    Needs only assumption 1. Computes
    z0 * inv(z0*I + Z_RR) @ (Z_RT - Z_RI inv(Z_I + Z_II) Z_IT) @ inv(Z_TT)
    where Z_I is the block-diagonal matrix of surface loads.
    """
    net.require(1)
    stack = _loads_for(net, loads)
    d = net.dims
    z_i = np.zeros((d.l * d.n_i, d.l * d.n_i), dtype=complex)
    for k, z in enumerate(stack.loads):
        z_i[net._sl(k), net._sl(k)] = z
    y = _checked_inv(z_i + net.z_ii, "z_i + z_ii")
    inner = net.z_rt - net.z_ri @ y @ net.z_it
    left = net.z0 * _checked_inv(net.z0 * np.eye(d.n_r) + net.z_rr, "z0*I + z_rr")
    return left @ inner @ _checked_inv(net.z_tt, "z_tt")


def _cascade_sum(net: MultiportNetwork, diag_blocks) -> np.ndarray:
    """Z_RT minus the double sum of Z_RI,l Ybar[l][k] Z_IT,k over l >= k."""
    hops = [net.hop_block(k) for k in range(net.dims.l - 1)]
    ybar = block_subdiagonal_inverse(diag_blocks, hops)
    acc = net.z_rt.astype(complex).copy()
    for i in range(net.dims.l):
        z_ri_i = net.z_ri_block(i)
        for j in range(i + 1):
            acc -= z_ri_i @ ybar[i][j] @ net.z_it_block(j)
    return acc


def channel_z_cascade(net: MultiportNetwork, loads) -> np.ndarray:
    """Channel using the structured inverse of the block-bidiagonal surface core.

    Needs assumptions 1-3. Algebraically identical to channel_z_general on any
    network satisfying them, but never forms the dense surface inverse.
    """
    net.require(1, 2, 3)
    stack = _loads_for(net, loads)
    d_blocks = [stack.loads[k] + net.surface_block(k) for k in range(net.dims.l)]
    inner = _cascade_sum(net, d_blocks)
    d = net.dims
    left = net.z0 * _checked_inv(net.z0 * np.eye(d.n_r) + net.z_rr, "z0*I + z_rr")
    return left @ inner @ _checked_inv(net.z_tt, "z_tt")


def channel_z_matched(net: MultiportNetwork, loads) -> np.ndarray:
    """Channel for matched, uncoupled arrays everywhere (assumptions 1-5).

    The end-array inverses collapse and the model becomes
    (Z_RT - sum Z_RI,l Ybar[l][k] Z_IT,k) / (2 z0) with the surface diagonal
    blocks reduced to load + z0*I.
    """
    net.require(1, 2, 3, 4, 5)
    stack = _loads_for(net, loads)
    eye_i = net.z0 * np.eye(net.dims.n_i)
    d_blocks = [stack.loads[k] + eye_i for k in range(net.dims.l)]
    return _cascade_sum(net, d_blocks) / (2.0 * net.z0)


def channel_z_pure_cascade(net: MultiportNetwork, loads) -> np.ndarray:
    """Channel when only the through-cascade path exists (assumptions 1-6).

    H = -(-1)^(l-1)/(2 z0) * Z_RI,l-1 inv(Z_l-1 + z0 I)
        prod_{k=l-2..0} [ Z_hop,k inv(Z_k + z0 I) ] * Z_IT,0
    with the product taken in strictly decreasing surface order.
    """
    net.require(1, 2, 3, 4, 5, 6)
    stack = _loads_for(net, loads)
    l = net.dims.l
    eye_i = net.z0 * np.eye(net.dims.n_i)
    inv_last = _checked_inv(stack.loads[l - 1] + eye_i, f"load {l - 1} + z0*I")
    acc = net.z_ri_block(l - 1) @ inv_last
    for k in range(l - 2, -1, -1):
        inv_k = _checked_inv(stack.loads[k] + eye_i, f"load {k} + z0*I")
        acc = acc @ (net.hop_block(k) @ inv_k)
    sign = -((-1.0) ** (l - 1))
    return (sign / (2.0 * net.z0)) * (acc @ net.z_it_block(0))


# -- impedance / scattering maps --------------------------------------------------


def z_to_scattering(z_load: np.ndarray, z0: float = DEFAULT_Z0) -> np.ndarray:
    """Scattering matrix of a load bank: Theta = inv(Z + z0 I) (Z - z0 I)."""
    z = np.asarray(z_load, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise DimensionMismatch(f"load matrix must be square, got shape {z.shape}")
    eye = z0 * np.eye(z.shape[0])
    return _checked_inv(z + eye, "z_load + z0*I") @ (z - eye)


def scattering_to_z(theta: np.ndarray, z0: float = DEFAULT_Z0) -> np.ndarray:
    """Load impedance realizing a scattering matrix: Z = z0 (I + Theta) inv(I - Theta).

    Raises OpenCircuitSingularity when Theta has an eigenvalue at 1, since that
    element is an open circuit with no finite impedance.
    """
    th = np.asarray(theta, dtype=complex)
    if th.ndim != 2 or th.shape[0] != th.shape[1]:
        raise DimensionMismatch(f"scattering matrix must be square, got shape {th.shape}")
    eigs = np.linalg.eigvals(th)
    if np.min(np.abs(eigs - 1.0)) < 1e-9:
        raise OpenCircuitSingularity(
            "scattering matrix has an eigenvalue at 1; the load is an open circuit")
    eye = np.eye(th.shape[0])
    return z0 * (eye + th) @ np.linalg.inv(eye - th)


def normalize_z_to_channel(z_block: np.ndarray, z0: float = DEFAULT_Z0) -> np.ndarray:
    """Convert a transfer impedance block to its channel-matrix normalization."""
    return np.asarray(z_block, dtype=complex) / (2.0 * z0)
