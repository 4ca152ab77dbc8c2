"""Channel-gain maximization over surface configurations.

Closed forms for rank-1 line-of-sight cascades under both channel
conventions, an alternating maximizer for arbitrary multipath cascades, the
per-surface inner solvers it is built from, and spectral upper bounds on the
achievable gain.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .cascade import CascadeChannels, ScatteringStack, sweep_folds, times_factor
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    EmptySequence,
    NotRankOne,
    ZeroVector,
    as_finite,
    in_range,
    is_finite_real,
    is_int,
    shown,
)
from .fading import LosLink
from .rng import RandomStream

_TINY = 1e-300
_NORMAL = np.finfo(float).tiny
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 10000
_UNIT_TOL = 1e-9

# a line-of-sight block forms the link matrices of one hop position at a time, in
# chunks of at most this many bytes (one matrix if a matrix is larger): unchunked
# stacks, held by a pool worker and by its parent at once, raised peak memory by 17%
_LOS_CHUNK_BYTES = 1 << 20


# -- spectral primitives -----------------------------------------------------------


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex (T, n) stack, bit for bit as np.linalg.norm
    takes it of one row: sqrt(re . re + im . im) from two BLAS dots."""
    re, im = x.real, x.imag
    return np.sqrt((re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0, 0])


def _dominant_pairs(h: np.ndarray):
    """Largest singular triple (sigma (T,), u (T, m), v (T, n)) of each matrix of a
    complex stack h (T, m, n) by two-sided power iteration.

    Deterministic: starts from the first canonical basis vector plus a fixed ramp
    perturbation, and fixes the free phase so the largest-modulus entry of v is real
    positive. A matrix whose iterate vanishes gets sigma = 0 and keeps the u, v it
    stopped with, ungauged. Each member gets the triple it gets alone, bit for bit:
    every stacked product works matrix by matrix (h^H u is taken as (u^H h)^H, with
    no conjugate copy of h), a member that stops leaves the working stack, and each
    gauge phase is a scalar division.

    Kept only for the rank-1 factors: an SVD would pick a different rounding-level
    argmax |v| on uniform-modulus line-of-sight links, moving their cross gains.
    alg1 takes its pairs from LAPACK.
    """
    count, m, n = h.shape
    start = np.zeros(n, dtype=complex)
    start[0] = 1.0
    start += 1e-3 * np.arange(1, n + 1) / n
    start /= np.linalg.norm(start)
    u = np.zeros((count, m), dtype=complex)
    u[:, 0] = 1.0
    v = np.tile(start, (count, 1))
    zero = np.zeros(count, dtype=bool)
    rows, work, sigma_prev = np.arange(count), h, -1.0
    for _ in range(_POWER_MAX_ITER):
        w = (work @ v[rows, :, None])[:, :, 0]
        norm_w = _row_norms(w)
        ok = norm_w > _TINY
        u[rows[ok]] = w[ok] / norm_w[ok, None]
        z = (u[rows].conj()[:, None] @ work)[:, 0].conj()
        sigma = _row_norms(z)
        ok &= sigma > _TINY
        v[rows[ok]] = z[ok] / sigma[ok, None]
        zero[rows[~ok]] = True
        going = ok & ~(np.abs(sigma - sigma_prev) <= _POWER_TOL * sigma)
        if not going.all():
            rows, work, sigma = rows[going], work[going], sigma[going]
            if not len(rows):
                break
        sigma_prev = sigma

    # one consistency pass so (sigma, u, v) satisfy h v = sigma u exactly as computed
    live = np.flatnonzero(~zero)
    w = ((h if len(live) == count else h[live]) @ v[live, :, None])[:, :, 0]
    sigma = np.zeros(count)
    sigma[live] = norm_w = _row_norms(w)
    big = norm_w > _TINY
    u[live[big]] = w[big] / norm_w[big, None]
    k = np.argmax(np.abs(v[live]), axis=1)
    phase = np.array([np.conj(v[i, j] / abs(v[i, j]))
                      for i, j in zip(live.tolist(), k.tolist())], dtype=complex)[:, None]
    u[live] *= phase
    v[live] *= phase
    return sigma, u, v


def dominant_singular_pair(h):
    """Largest singular triple (sigma, u, v) of a 2-D h: _dominant_pairs over h alone."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise DimensionMismatch(f"need a 2-D matrix, got ndim {h.ndim}")
    if h.size == 0:
        raise EmptySequence(f"need a matrix with entries, got shape {h.shape}")
    sigma, u, v = _dominant_pairs(h[None])
    return float(sigma[0]), u[0], v[0]


def spectral_norm(h) -> float:
    """Largest singular value of a finite 2-D h, from LAPACK, in h's own dtype.

    The first of the descending singular values that np.linalg.svd returns is the
    value np.linalg.norm(h, 2) reads from the same call, bit for bit, without its
    axis and reduction wrapper. A NaN or infinite entry raises NonFiniteInput
    instead of LAPACK's error or its silent NaN.
    """
    h = as_finite(h, "h", dtype=None)
    return float(np.linalg.svd(h, compute_uv=False)[0])


def channel_gain(h) -> float:
    """Squared spectral norm of the channel: the gain a matched beamformer sees.
    RangeExceeded where the square leaves the double range."""
    sigma = spectral_norm(h)
    return in_range("channel_gain", lambda: sigma ** 2, sigma == 0.0)


# -- rank-1 factor extraction --------------------------------------------------------


def _rank_one_factors(h, tol: float = 1e-6):
    """Split one steering link h (m, n) into (path_gain, a, b), h = path_gain * outer(a, b).

    Raises NotRankOne when the second singular direction carries more than tol of
    the dominant one, or when the entry moduli are not uniform (so the factors are
    not unit-modulus steering vectors). The residual ||h - sigma u v^H||_F / sigma
    is read as sqrt(||h||_F^2 - sigma^2), since _dominant_pairs returns a unit v and
    u = h v / sigma; cancellation limits it to about sqrt(eps) ~ 1e-8, far below tol.
    """
    h = np.asarray(h, dtype=complex)
    rows, cols = h.shape
    sigma, u, v = (x[0] for x in _dominant_pairs(h[None]))
    if sigma <= 0.0:
        raise NotRankOne("zero matrix has no steering factors")
    residual = np.sqrt(max(np.vdot(h, h).real - sigma * sigma, 0.0)) / sigma
    if not residual <= tol:  # NaN too, from an overflowed inf - inf
        raise NotRankOne(f"relative residual {residual:.3e} beyond rank-1 tolerance {tol:.1e}")
    mod_u, mod_v = np.abs(u), np.abs(v)
    for mod in (mod_u, mod_v):
        top = mod.max()
        if top - mod.min() > tol * top:
            raise NotRankOne("entry moduli are not uniform; not a steering product")
    return float(sigma / np.sqrt(rows * cols)), u / mod_u, v.conj() / mod_v


def _require_pure_cascades(chs: Sequence[CascadeChannels]):
    """Raise AssumptionViolated if a cascade carries side links: the optimizers and
    bounds see only the pure cascade (assumption 6)."""
    if any(ch.sides is not None for ch in chs):
        raise AssumptionViolated("needs a pure cascade (assumption 6), got side links")


# -- closed-form line-of-sight configurations ------------------------------------------


def los_optimal_phases_widely(ch: CascadeChannels) -> ScatteringStack:
    """Gain-optimal phase vectors for a rank-1 cascade under the widely used model.

    Without the structural term the optimum simply cancels the steering
    phases, making b^T Theta a = n exactly, every realization. Each link of
    ch.hops() is factored once; surface k reads its arrival phases a from
    hops[l-k] and its departure phases b from hops[l-1-k]. A cascade with side links
    raises AssumptionViolated.
    """
    _require_pure_cascades([ch])
    _, a, b = zip(*(_rank_one_factors(h) for h in ch.hops()))
    l = ch.n_l
    return ScatteringStack("diagonal", tuple(
        np.exp(1j * (-np.angle(b[l - 1 - k]) - np.angle(a[l - k]))) for k in range(l)))


def _physics_from_widely(stack: ScatteringStack) -> ScatteringStack:
    """The physical-model optimum of a rank-1 cascade from its widely used one: on every
    surface theta_p = -theta_w e^(-j arg sum theta_w), a zero sum read as phase 0."""
    return ScatteringStack("diagonal", tuple(-t * np.exp(-1j * _phase_angles(t.sum()))
                                             for t in stack.thetas))


def los_optimal_phases_physics(ch: CascadeChannels) -> ScatteringStack:
    """Gain-optimal phase vectors for a rank-1 cascade under the physical model.

    At each surface the arrival phases a and departure phases b align every
    element to pi + arg(b^T a), which drives b^T (Theta - I) a to
    -(|b^T a| + n) e^(j arg(b^T a)): the tunable sum and the structural term
    add coherently. As b^T a = sum_n conj(theta_w[n]) for the widely used optimum
    theta_w = e^(-j(arg b + arg a)), this is theta_w turned by pi - arg sum theta_w.
    """
    return _physics_from_widely(los_optimal_phases_widely(ch))


def _factor_los_hop(hop: LosLink) -> tuple:
    """(a (T, m), b (T, n)) of one hop position's stacked links, u / |u| and conj(v) / |v|
    of the dominant pairs of the matrices path_gain * outer(a, b), as _rank_one_factors
    reads them. These are formed only to keep the gauge, the free common phase of the
    pair a, b, that factoring the drawn matrix gives: in place, in one buffer of at most
    _LOS_CHUNK_BYTES. A LosLink is checked where it is built, so only a zero matrix (a
    zero path gain, or entries whose squares underflow) raises here."""
    a, b = hop.a, hop.b
    count, per = len(a), max(1, _LOS_CHUNK_BYTES // (a.shape[1] * b.shape[1] * a.itemsize))
    buf = np.empty((min(per, count), a.shape[1], b.shape[1]), dtype=complex)
    parts = []
    for start in range(0, count, per):
        h = buf[:count - start]
        chunk = slice(start, start + len(h))
        np.multiply(a[chunk, :, None], b[chunk, None, :], out=h)
        h *= hop.path_gain
        sigma, u, v = _dominant_pairs(h)
        if (sigma <= 0.0).any():
            raise NotRankOne("zero matrix has no steering factors")
        parts.append((u / np.abs(u), v.conj() / np.abs(v)))
    return tuple(np.concatenate(part) for part in zip(*parts))


def los_gains(hops: Sequence[LosLink]) -> list[tuple[float, float, float]]:
    """(physics, widely_used, suboptimal_cross) optimal gains of each rank-1 cascade of
    a block, given as one stacked LosLink per hop position in ch.hops() order, row t
    for cascade t (what fading.draw_los_cascades returns); no gain depends on its block.

    With links h_j = lam_j a_j b_j^T and s = b_{j-1}^T a_j at the n-element surface
    between h_{j-1} and h_j, these are prod lam^2 n_r n_t times prod (n + |s|)^2,
    prod n^2 and prod |n - s|^2 (the widely used phases under the physical model).
    Each lam is its hop's drawn path gain. Each hop is factored as a stack, in the
    gauge of los_optimal_phases_widely, and each s is one stacked dot per surface;
    the products are then taken trial by trial in Python floats, each lam^2 joining
    its surface's factor in the order of the assembled channel. A gain beyond the
    double range raises RangeExceeded.
    """
    if not (isinstance(hops, Sequence) and hops and all(isinstance(hop, LosLink) for hop in hops)):
        raise DimensionMismatch("los_gains needs one or more stacked LosLinks")
    shapes = [hop.a.shape + hop.b.shape[1:] for hop in hops]
    if (len({t for t, _, _ in shapes}) > 1 or 0 in sum(shapes, ())
            or any(n != m for (_, _, n), (_, m, _) in zip(shapes, shapes[1:]))):
        raise DimensionMismatch(f"link stacks differ in length, are empty or unchained: {shapes}")
    first, *lam = (in_range("a squared path gain", lambda: float(hop.path_gain) ** 2, True)
                   for hop in hops)
    first *= shapes[0][1] * shapes[-1][2]
    factors = [_factor_los_hop(hop) for hop in hops]
    dots = [(a.shape[1], (b[:, None] @ a[:, :, None])[:, 0, 0])
            for (_, b), (a, _) in zip(factors, factors[1:])]
    surfaces = [(n, s.tolist()) for n, s in dots]
    gains = []
    for t in range(shapes[0][0]):
        physics = widely = cross = first
        for (n, s), link in zip(surfaces, lam):
            physics *= (n + abs(s[t])) ** 2 * link
            widely *= n * n * link
            cross *= abs(n - s[t]) ** 2 * link
        gains.append((physics, widely, cross))
    # the products overflow to inf and underflow to 0 silently, so the block is checked
    # once; a cross gain with a factor n - s of exactly 0 is exactly 0, and its trial's
    # physics gain stands in for it
    block = np.array(gains)
    for n, s in dots:
        block[s == n, 2] = block[s == n, 0]
    in_range("a line-of-sight gain", block.max)
    in_range("a line-of-sight gain", block.min)
    return gains


# -- inner problem ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InnerProblemData:
    """Coefficients of one surface's subproblem: maximize |g_rt + g_ri Theta g_it|^2.

    u and v are the unit-norm receive/transmit directions the coefficients
    were folded against. Raises NonFiniteInput on any NaN or infinite entry and
    DimensionMismatch unless g_rt is a scalar and the rest are 1-D arrays.
    """

    g_rt: complex
    g_ri: np.ndarray
    g_it: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g_rt", complex(as_finite(self.g_rt, "g_rt", (0,))))
        for name in ("g_ri", "g_it", "u", "v"):
            object.__setattr__(self, name, as_finite(getattr(self, name), name, (1,)))
        if self.g_ri.shape != self.g_it.shape:
            raise DimensionMismatch("g_ri and g_it must be equally long")
        _check_unit_pairs(self.u, self.v)


def _check_unit_pairs(u: np.ndarray, v: np.ndarray):
    """Raise DimensionMismatch unless every row of u and of v has unit norm."""
    sq = np.abs(np.concatenate((u, v), axis=-1)) ** 2
    norms = np.sqrt(np.add.reduceat(sq, [0, u.shape[-1]], axis=-1))
    if (np.abs(norms - 1.0) > _UNIT_TOL).any():
        raise DimensionMismatch("u and v must be unit norm")


def _phase_angles(g_rt) -> np.ndarray:
    """arg g_rt elementwise, taken as 0 for either signed zero.

    The angle of -0.0 is pi; adding +0.0 first turns every signed zero into
    +0.0, whose angle is 0, and changes no other value. arctan2 of the parts is
    np.angle without its wrapper, bit for bit.
    """
    z = np.add(g_rt, 0.0)
    return np.arctan2(z.imag, z.real)


def _diagonal_phases(g_rt, terms: np.ndarray) -> np.ndarray:
    """The phase vectors of inner_solve_diagonal, over any leading batch axes;
    terms holds the products g_ri[n] g_it[n]."""
    return np.exp(1j * (_phase_angles(g_rt)[..., None] - np.arctan2(terms.imag, terms.real)))


def inner_solve_diagonal(data: InnerProblemData) -> np.ndarray:
    """Optimal diagonal surface as its phase vector: align every product term with g_rt.

    theta_n = arg(g_rt) - arg(g_ri[n] g_it[n]) attains
    (|g_rt| + sum_n |g_ri[n] g_it[n]|)^2. A zero g_rt, of either sign,
    contributes phase 0.
    """
    return _diagonal_phases(data.g_rt, data.g_ri * data.g_it)


def _unitaries_with_first_columns(x: np.ndarray) -> np.ndarray:
    """Unitary matrices whose first columns are exactly the unit rows of x (B, n).

    The Q factor of [x, e_1, ..., e_{n-1}] in closed form: column k >= 1 is e_k
    made orthogonal to x, e_1, ..., e_{k-1}. With p_k = |x_0|^2 + sum_{j>=k} |x_j|^2
    (p_n = |x_0|^2) it holds sqrt(p_{k+1} / p_k) in row k,
    -x_i conj(x_k) / sqrt(p_k p_{k+1}) in row 0 and in every row i > k, and 0
    elsewhere. LAPACK's Householder QR returns the same columns times -1 on
    complex input. A row whose |x_0|^2 is not a normal float makes that basis
    (numerically) singular; it gets the reflection I - (e_0 - x)(e_0 - x)^H,
    which also maps e_0 to x. The result for x.conj() is the conjugate of the
    result for x.
    """
    count, n = x.shape
    sq = x.real ** 2 + x.imag ** 2
    flat = sq[:, 0] < _NORMAL
    head = np.where(flat, 1.0, sq[:, 0])[:, None]
    # sqrt(p_k) for k = 1, ..., n
    root = np.sqrt(np.concatenate((head + np.cumsum(sq[:, :0:-1], axis=1)[:, ::-1], head),
                                  axis=1))
    scale = np.empty_like(x)
    scale[:, 0] = 1.0
    scale[:, 1:] = -x[:, 1:].conj() / (root[:, :-1] * root[:, 1:])
    keep = np.tri(n, n, -1, dtype=bool)
    keep[0] = keep[:, 0] = True
    q = x[:, :, None] * scale[:, None, :]
    q *= keep
    q.reshape(count, n * n)[:, n + 1::n + 1] = root[:, 1:] / root[:, :-1]
    if flat.any():
        w = -x[flat]
        w[:, 0] += 1.0
        q[flat] = np.eye(n) - w[:, :, None] * w[:, None, :].conj()
    return q


def _unitary_solutions(g_rt: np.ndarray, g_ri: np.ndarray, g_it: np.ndarray,
                       norm_ri: np.ndarray, norm_it: np.ndarray) -> np.ndarray:
    """inner_solve_unitary for a stack of subproblems with nonzero g_ri and g_it rows:
    Q_y Q_x^H with Q_x e_0 = x = g_it / ||g_it|| and Q_y e_0 = y."""
    x = g_it / norm_it[:, None]
    y = np.exp(1j * _phase_angles(g_rt))[:, None] * g_ri.conj() / norm_ri[:, None]
    # the completion of x.conj() is conj(Q_x), so no conjugate copy of Q_x is needed
    q = _unitaries_with_first_columns(np.concatenate((x.conj(), y)))
    return q[len(x):] @ q[:len(x)].transpose(0, 2, 1)


def inner_solve_unitary(data: InnerProblemData) -> np.ndarray:
    """Optimal unconstrained-unitary surface matrix.

    Maps the direction of g_it onto e^(j arg g_rt) g_ri^H / ||g_ri||, so
    |g_rt + g_ri Theta g_it| = |g_rt| + ||g_ri|| ||g_it||, the Cauchy-Schwarz
    ceiling for unitary Theta. A zero g_rt, of either sign, contributes phase 0.
    """
    norm_ri = np.linalg.norm(data.g_ri)
    norm_it = np.linalg.norm(data.g_it)
    if norm_ri <= _TINY or norm_it <= _TINY:
        raise ZeroVector("inner_solve_unitary needs nonzero g_ri and g_it")
    return _unitary_solutions(np.array([data.g_rt]), data.g_ri[None], data.g_it[None],
                              np.array([norm_ri]), np.array([norm_it]))[0]


# -- alternating optimization --------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the alternating maximizer."""

    model: str = "physics"
    architecture: str = "diagonal"
    max_outer_iters: int = 100
    max_inner_iters: int = 50
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.model not in ("physics", "widely_used"):
            raise DimensionMismatch(f"model {shown(self.model)} is not physics or widely_used")
        if self.architecture not in ("diagonal", "unitary"):
            raise DimensionMismatch(
                f"architecture {shown(self.architecture)} is not diagonal or unitary")
        caps = (self.max_outer_iters, self.max_inner_iters)
        if not all(is_int(cap) and cap >= 1 for cap in caps):
            raise DimensionMismatch(f"iteration caps must be integers >= 1, got {shown(caps)}")
        if not (is_finite_real(self.rel_tol) and self.rel_tol > 0):
            raise DimensionMismatch(f"rel_tol must be finite and > 0, got {shown(self.rel_tol)}")
        object.__setattr__(self, "rel_tol", float(self.rel_tol))


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one alternating run."""

    stack: ScatteringStack
    gain_trace: tuple[float, ...]
    converged: bool
    iterations: int

    @property
    def gain(self) -> float:
        return self.gain_trace[-1]


def _init_thetas(ch: CascadeChannels, stream: RandomStream | None) -> list[np.ndarray]:
    """Initial surfaces as phase vectors of uniform random phases drawn from stream."""
    rng = (stream or RandomStream(0, ("alg1-init",))).generator()
    return [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, ch.width(k))) for k in range(ch.n_l)]


def _top_pairs(h: np.ndarray):
    """(sigma^2, u, v) of the largest singular triple of each stacked matrix, from
    LAPACK, in no fixed phase."""
    u, s, vh = np.linalg.svd(h)
    return s[:, 0] ** 2, u[:, :, 0], vh[:, 0].conj()


def _tune_surface(left: np.ndarray, right: np.ndarray, theta: np.ndarray,
                  offsets: np.ndarray, pair: tuple | None, cfg: OptimizerConfig):
    """Alternate the pair (u, v) and one surface's inner solution, member by member.

    left (A, n_r, n) and right (A, n, n_t) are the surface's end links, theta its
    stack (phase vectors (A, n) or matrices (A, n, n)), offsets the d of each
    member, and pair the (gain, u, v) of each member's whole channel as it stands.
    The last step of the previous visit computed that pair for the same channel,
    so only a run's first visit passes None and takes an initial pair here.

    A diagonal surface is folded through its coefficient products, built once per
    visit: coef[b, k] = vec(left[b, :, k] (x) right[b, k, :]). A step then reads its
    terms g_ri[k] g_it[k] as coef @ vec(conj(u) (x) v) and its fold as
    (theta - d) @ coef, one stacked matmul each. A unitary surface is solved from
    g_ri and g_it, for every member in one stacked call unless some member's fold
    is identically zero (then only the others are gathered and solved), and folded
    through left and right.

    A member stops once a step gains at most rel_tol of its fold gain. While every
    member stops on the same step (a lone member always does), the visit works on
    its arrays alone and returns them as they stand. Once members stop on different
    steps, the output stacks are allocated, the stopped members are written there
    and leave the working arrays, and the rest are written at the end. The returned
    arrays never share memory with the inputs. Every (u, v) pair the visit consumed
    is checked for unit norm once, at its end. Returns the tuned stack and each
    member's final (gain, u, v).
    """
    gain, u, v = _top_pairs(times_factor(left, theta, offsets) @ right) if pair is None \
        else pair
    count, n_r, n = left.shape
    diagonal = cfg.architecture == "diagonal"
    if diagonal:
        coef = (left.transpose(0, 2, 1)[:, :, :, None] * right[:, :, None, :]).reshape(
            count, n, -1)
    elif theta.ndim == 2:
        theta = theta[:, :, None] * np.eye(n)
    out = None
    rows = np.arange(count)
    used_u, used_v = [], []
    for _ in range(cfg.max_inner_iters):
        used_u.append(u)
        used_v.append(v)
        if diagonal:
            uv = (u.conj()[:, :, None] * v[:, None, :]).reshape(len(rows), -1, 1)
            terms = (coef @ uv)[:, :, 0]
            # the structural path -d left right seen through (u, v)
            g_rt = -offsets * terms.sum(axis=1)
            theta = _diagonal_phases(g_rt, terms)
            h = ((theta - offsets[:, None])[:, None, :] @ coef).reshape(len(rows), n_r, -1)
        else:
            g_ri = (u.conj()[:, None, :] @ left)[:, 0]
            g_it = (right @ v[:, :, None])[:, :, 0]
            g_rt = -offsets * (g_ri * g_it).sum(axis=1)
            norm_ri = np.linalg.norm(g_ri, axis=1)
            norm_it = np.linalg.norm(g_it, axis=1)
            live = (norm_ri > _TINY) & (norm_it > _TINY)
            if live.all():
                theta = _unitary_solutions(g_rt, g_ri, g_it, norm_ri, norm_it)
            else:
                # a member whose fold through this surface is identically zero keeps
                # its surface, so its gain does not move and it stops below
                theta = theta.copy()
                theta[live] = _unitary_solutions(g_rt[live], g_ri[live], g_it[live],
                                                 norm_ri[live], norm_it[live])
            h = times_factor(left, theta, offsets) @ right
        value, u, v = _top_pairs(h)
        going = value - gain > cfg.rel_tol * np.maximum(value, _TINY)
        gain = value
        if going.all():
            continue
        if not going.any():
            break
        stop = ~going
        if out is None:
            out = [np.empty((count, *now.shape[1:]), now.dtype) for now in (theta, gain, u, v)]
        done = rows[stop]
        for kept, now in zip(out, (theta, gain, u, v)):
            kept[done] = now[stop]
        rows, theta, offsets, gain, u, v = (
            a[going] for a in (rows, theta, offsets, gain, u, v))
        if diagonal:
            coef = coef[going]
        else:
            left, right = left[going], right[going]
    if out is not None:
        for kept, now in zip(out, (theta, gain, u, v)):
            kept[rows] = now
        theta, gain, u, v = out
    _check_unit_pairs(np.concatenate(used_u), np.concatenate(used_v))
    return theta, (gain, u, v)


def _shared_config(cfgs) -> OptimizerConfig:
    """The settings every member of a batch shares; only the model may differ."""
    first = cfgs[0]
    for cfg in cfgs[1:]:
        if replace(cfg, model=first.model) != first:
            raise DimensionMismatch(
                "batched runs must share architecture, iteration caps and rel_tol")
    return first


def _compact(links: list, keep: np.ndarray) -> list:
    """The members where keep is True, moved to the front of each stacked link.

    Overwrites the stacks and returns views of them: a dropped member's links are
    not copied again, and no second stack is allocated.
    """
    rows = np.flatnonzero(keep)
    for m in links:
        for j, i in enumerate(rows):
            if i != j:
                m[j] = m[i]
    return [m[:len(rows)] for m in links]


def alg1_batch(chs: Sequence[CascadeChannels], cfgs: Sequence[OptimizerConfig],
               streams: Sequence[RandomStream | None] | None = None) -> list[OptimizationResult]:
    """alg1_optimize for B independent members at once: chs[b], cfgs[b], streams[b].

    Members share cascade shapes, architecture, iteration caps and rel_tol
    (DimensionMismatch otherwise); each has its own model and draws its initial
    phases from its own stream, so each member's result is that of its own run,
    up to rounding. It does not depend on the batch it runs in: alone, inside a
    larger batch or with the batch permuted, a member's gain trace, stop and
    stack are the same bit for bit, because every stacked operation works per
    member (the harness packs blocks by cascade shape on this, and
    test_batch_composition_does_not_change_results pins it). Links are stacked on
    a leading axis and singular pairs come from one stacked LAPACK SVD per step.
    A member leaves the sweep loop's arrays at the end of the sweep in which it
    converges; inside a surface visit it leaves the working arrays when its step
    gain stalls, unless every member still in the visit stalls on that same step,
    which ends the visit with no copy. Each member's (gain, u, v) is carried from
    the last step of one surface visit into the next, across sweeps too, and
    compacted with the members, so only the first visit computes an initial pair;
    see _tune_surface for the coefficient products of a diagonal step and the unit
    check once per visit. A cascade with side links raises AssumptionViolated.
    """
    _require_pure_cascades(chs)
    count = len(chs)
    streams = [None] * count if streams is None else list(streams)
    if count == 0 or len(cfgs) != count or len(streams) != count:
        raise DimensionMismatch("a batch needs one config and one stream per cascade")
    cfg = _shared_config(cfgs)
    hops = [ch.hops() for ch in chs]
    if len({tuple(m.shape for m in h) for h in hops}) > 1:
        raise DimensionMismatch("batched cascades must share depth, widths, n_t and n_r")
    links = [np.stack(h) for h in zip(*hops)]
    starts = [_init_thetas(ch, s) for ch, s in zip(chs, streams)]
    thetas = [np.stack(surface) for surface in zip(*starts)]
    offsets = np.array([1.0 if c.model == "physics" else 0.0 for c in cfgs])

    members = np.arange(count)
    traces: list[list[float]] = [[] for _ in range(count)]
    # (surfaces, converged, sweeps) of each member once it stops
    finals: list[tuple | None] = [None] * count
    previous = pair = None
    for sweeps in range(1, cfg.max_outer_iters + 1):
        for pos, (left, right) in enumerate(sweep_folds(links, thetas, [offsets] * len(thetas))):
            thetas[pos], pair = _tune_surface(left, right, thetas[pos], offsets, pair, cfg)
        gain = pair[0]
        for m, g in zip(members, gain.tolist()):
            traces[m].append(g)
        converged = np.zeros(len(members), dtype=bool) if previous is None else \
            np.abs(gain - previous) <= cfg.rel_tol * np.maximum(gain, _TINY)
        stop = converged | (sweeps == cfg.max_outer_iters)
        for i in np.flatnonzero(stop):
            finals[members[i]] = ([t[i].copy() for t in thetas], bool(converged[i]), sweeps)
        if stop.all():
            break
        if stop.any():
            keep = ~stop
            members, offsets = members[keep], offsets[keep]
            pair = tuple(a[keep] for a in pair)
            links = _compact(links, keep)
            thetas = [t[keep] for t in thetas]
        previous = pair[0]
    return [OptimizationResult(ScatteringStack(cfg.architecture, tuple(surfaces)),
                               tuple(trace), converged, sweeps)
            for (surfaces, converged, sweeps), trace in zip(finals, traces)]


def alg1_optimize(ch: CascadeChannels, cfg: OptimizerConfig | None = None,
                  stream: RandomStream | None = None) -> OptimizationResult:
    """Alternating per-surface maximization of the end-to-end channel gain.

    Sweeps the surfaces in order. For each one it folds every other surface
    into equivalent end links, then alternates between the beamforming pair
    (u, v) of the folded channel and the closed-form inner solution for this
    surface until the fold's gain stalls. The trace records the gain after
    each full sweep; every step solves its subproblem exactly, so the trace
    never decreases (up to iteration noise). A batch of one of alg1_batch.

    Diagonal surfaces are carried, and returned, as phase vectors. The inner
    solutions do not depend on the common phase of (u, v), so the pair needs no
    phase convention.
    """
    return alg1_batch([ch], [cfg or OptimizerConfig()], [stream])[0]


# -- upper bounds ------------------------------------------------------------------------------


def upper_bound_physics(ch: CascadeChannels) -> float:
    """Architecture-independent gain ceiling for the physical pure-cascade model,
    from the block pass _upper_bounds over ch alone.

    Expanding prod (Theta_k - I) gives one signed term per set of kept Theta
    factors; each term is bounded by the spectral norms of the contiguous link
    products between the kept positions (each |Theta| <= 1). The sum of those
    bounds over all 2^l sets is a path sum over cut points, computed in O(l^2)
    segment norms: paths[0] = 1, paths[j] = sum_{i<j} paths[i] ||F_i ... F_{j-1}||.
    """
    return _upper_bounds([ch])[0][0]


def upper_bound_widely(ch: CascadeChannels) -> float:
    """Widely used gain ceiling, the product of squared link norms: _upper_bounds([ch])."""
    return _upper_bounds([ch])[1][0]


def _upper_bounds(chs: Sequence[CascadeChannels]) -> tuple[list[float], list[float]]:
    """upper_bound_physics and upper_bound_widely of every cascade of a batch that
    shares one cascade shape, bit for bit, from one stacked pass over the segments.

    Each segment F_i ... F_{j-1} of every member is one stacked product and its
    norms one stacked LAPACK call, which works matrix by matrix, so no member's
    bounds depend on its batch. The widely used bound takes its squared link norms
    from the length-1 segments of the physics path sum, so no link is decomposed twice.
    A cascade with side links raises AssumptionViolated.
    """
    _require_pure_cascades(chs)
    factors = [np.stack(h) for h in zip(*(ch.hops() for ch in chs))]
    count = len(factors)
    paths = [np.ones(len(chs))] + [np.zeros(len(chs)) for _ in range(count)]
    links = []
    for i in range(count):
        segment = factors[i]
        for j in range(i + 1, count + 1):
            if j > i + 1:
                segment = segment @ factors[j - 1]
            norms = np.linalg.svd(segment, compute_uv=False)[:, 0]
            if j == i + 1:
                links.append(norms.tolist())
            paths[j] += paths[i] * norms
    # the last steps in Python floats, as the scalar bounds take them
    physics = [p ** 2 for p in paths[count].tolist()]
    widely = [float(np.prod([s ** 2 for s in member])) for member in zip(*links)]
    return physics, widely
