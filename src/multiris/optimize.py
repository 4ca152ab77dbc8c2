"""Channel-gain maximization over surface configurations.

Closed forms for rank-1 line-of-sight cascades under both channel
conventions, an alternating maximizer for arbitrary multipath cascades, the
per-surface inner solvers it is built from, and spectral upper bounds on the
achievable gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CascadeChannels, ScatteringStack, fold
from .errors import DimensionMismatch, NotRankOne, ZeroVector
from .rng import RandomStream

_TINY = 1e-300
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 10000


# -- spectral primitives -----------------------------------------------------------


def dominant_singular_pair(h):
    """Largest singular triple (sigma, u, v) of h by two-sided power iteration.

    Deterministic: starts from the first canonical basis vector plus a fixed
    ramp perturbation, and fixes the free phase so the largest-modulus entry
    of v is real positive. Returns sigma = 0 with canonical u, v for a zero
    matrix.

    Kept only for the callers that need (u, v); an SVD would pick a different
    rounding-level argmax |v| on uniform-modulus line-of-sight links, moving the
    cross gains of _rank_one_factors. sigma alone comes from spectral_norm.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise DimensionMismatch(f"need a 2-D matrix, got ndim {h.ndim}")
    m, n = h.shape
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    v += 1e-3 * np.arange(1, n + 1) / n
    v /= np.linalg.norm(v)

    sigma_prev = -1.0
    sigma = 0.0
    u = np.zeros(m, dtype=complex)
    u[0] = 1.0
    for _ in range(_POWER_MAX_ITER):
        w = h @ v
        norm_w = np.linalg.norm(w)
        if norm_w <= _TINY:
            return 0.0, u, v
        u = w / norm_w
        z = h.conj().T @ u
        sigma = np.linalg.norm(z)
        if sigma <= _TINY:
            return 0.0, u, v
        v = z / sigma
        if abs(sigma - sigma_prev) <= _POWER_TOL * sigma:
            break
        sigma_prev = sigma

    # one consistency pass so (sigma, u, v) satisfy h v = sigma u exactly as computed
    w = h @ v
    sigma = float(np.linalg.norm(w))
    if sigma > _TINY:
        u = w / sigma
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return sigma, u * np.conj(phase), v * np.conj(phase)


def spectral_norm(h) -> float:
    """Largest singular value of h, from LAPACK."""
    h = np.asarray(h)
    if h.ndim != 2:
        raise DimensionMismatch(f"need a 2-D matrix, got ndim {h.ndim}")
    return float(np.linalg.norm(h, 2))


def channel_gain(h) -> float:
    """Squared spectral norm of the channel: the gain a matched beamformer sees."""
    return spectral_norm(h) ** 2


# -- rank-1 factor extraction --------------------------------------------------------


def _rank_one_factors(h, tol: float = 1e-6):
    """Split a steering link into (path_gain, a, b) with h = path_gain*outer(a, b).

    Raises NotRankOne when a second singular direction carries more than tol
    of the dominant one, or when the entry moduli are not uniform (so the
    factors are not unit-modulus steering vectors).
    """
    h = np.asarray(h, dtype=complex)
    rows, cols = h.shape
    sigma, u, v = dominant_singular_pair(h)
    if sigma <= 0.0:
        raise NotRankOne("zero matrix has no steering factors")
    residual = np.linalg.norm(h - sigma * np.outer(u, v.conj())) / sigma
    if residual > tol:
        raise NotRankOne(f"relative residual {residual:.3e} beyond rank-1 tolerance {tol:.1e}")
    mod_u, mod_v = np.abs(u), np.abs(v)
    if (mod_u.max() - mod_u.min()) > tol * mod_u.max() or \
       (mod_v.max() - mod_v.min()) > tol * mod_v.max():
        raise NotRankOne("entry moduli are not uniform; not a steering product")
    a = u / mod_u
    b = v.conj() / mod_v
    lam = sigma / np.sqrt(rows * cols)
    return float(lam), a, b


# -- closed-form line-of-sight configurations ------------------------------------------


def _los_cascade_factors(ch: CascadeChannels):
    links = [ch.h_it_1, *ch.inter, ch.h_ri_l]
    return [_rank_one_factors(m) for m in links]


def los_optimal_phases_physics(ch: CascadeChannels) -> ScatteringStack:
    """Gain-optimal diagonal phases for a rank-1 cascade under the physical model.

    At each surface the arrival phases a and departure phases b align every
    element to pi + arg(b^T a), which drives b^T (Theta - I) a to
    -(|b^T a| + n) e^(j arg(b^T a)): the tunable sum and the structural term
    add coherently.
    """
    factors = _los_cascade_factors(ch)
    thetas = []
    for k in range(ch.n_l):
        _, a, _ = factors[k]
        _, _, b = factors[k + 1]
        c = b @ a
        phases = np.pi + np.angle(c) - np.angle(b) - np.angle(a)
        thetas.append(np.diag(np.exp(1j * phases)))
    return ScatteringStack("diagonal", tuple(thetas))


def los_optimal_phases_widely(ch: CascadeChannels) -> ScatteringStack:
    """Gain-optimal diagonal phases for a rank-1 cascade under the widely used model.

    Without the structural term the optimum simply cancels the steering
    phases, making b^T Theta a = n exactly, every realization.
    """
    factors = _los_cascade_factors(ch)
    thetas = []
    for k in range(ch.n_l):
        _, a, _ = factors[k]
        _, _, b = factors[k + 1]
        phases = -np.angle(b) - np.angle(a)
        thetas.append(np.diag(np.exp(1j * phases)))
    return ScatteringStack("diagonal", tuple(thetas))


# -- inner problem ----------------------------------------------------------------------


@dataclass(frozen=True)
class InnerProblemData:
    """Coefficients of one surface's subproblem: maximize |g_rt + g_ri Theta g_it|^2.

    u and v are the unit-norm receive/transmit directions the coefficients
    were folded against.
    """

    g_rt: complex
    g_ri: np.ndarray
    g_it: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        g_ri = np.asarray(self.g_ri, dtype=complex)
        g_it = np.asarray(self.g_it, dtype=complex)
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        if g_ri.ndim != 1 or g_it.ndim != 1 or g_ri.shape != g_it.shape:
            raise DimensionMismatch("g_ri and g_it must be 1-D and equally long")
        for name, vec in (("u", u), ("v", v)):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
                raise DimensionMismatch(f"{name} must be unit norm")
        object.__setattr__(self, "g_rt", complex(self.g_rt))
        object.__setattr__(self, "g_ri", g_ri)
        object.__setattr__(self, "g_it", g_it)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def inner_objective(data: InnerProblemData, theta) -> float:
    return float(np.abs(data.g_rt + data.g_ri @ theta @ data.g_it) ** 2)


def inner_solve_diagonal(data: InnerProblemData) -> np.ndarray:
    """Optimal diagonal phases: align every product term with g_rt.

    theta_n = arg(g_rt) - arg(g_ri[n]) - arg(g_it[n]) attains
    (|g_rt| + sum_n |g_ri[n] g_it[n]|)^2. A zero g_rt contributes phase 0.
    """
    phases = np.angle(data.g_rt) - np.angle(data.g_ri) - np.angle(data.g_it)
    return np.diag(np.exp(1j * phases))


def _unitary_with_first_column(x: np.ndarray) -> np.ndarray:
    """A unitary matrix whose first column is exactly the unit vector x."""
    n = x.size
    basis = np.eye(n, dtype=complex)
    basis[:, 0] = x
    q, _ = np.linalg.qr(basis)
    # qr fixes the column only up to a unit phase; rotate it back onto x
    alpha = np.vdot(q[:, 0], x)
    q[:, 0] = q[:, 0] * alpha
    return q


def inner_solve_unitary(data: InnerProblemData) -> np.ndarray:
    """Optimal unconstrained-unitary surface matrix.

    Maps the direction of g_it onto e^(j arg g_rt) g_ri^H / ||g_ri||, so
    |g_rt + g_ri Theta g_it| = |g_rt| + ||g_ri|| ||g_it||, the Cauchy-Schwarz
    ceiling for unitary Theta.
    """
    norm_ri = np.linalg.norm(data.g_ri)
    norm_it = np.linalg.norm(data.g_it)
    if norm_ri <= _TINY or norm_it <= _TINY:
        raise ZeroVector("inner_solve_unitary needs nonzero g_ri and g_it")
    x = data.g_it / norm_it
    y = np.exp(1j * np.angle(data.g_rt)) * data.g_ri.conj() / norm_ri
    qx = _unitary_with_first_column(x)
    qy = _unitary_with_first_column(y)
    return qy @ qx.conj().T


# -- alternating optimization --------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the alternating maximizer."""

    model: str = "physics"
    architecture: str = "diagonal"
    max_outer_iters: int = 100
    max_inner_iters: int = 50
    rel_tol: float = 1e-6
    init: str = "random_phase"
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("physics", "widely_used"):
            raise DimensionMismatch(f"model must be 'physics' or 'widely_used', got {self.model!r}")
        if self.architecture not in ("diagonal", "unitary"):
            raise DimensionMismatch(
                f"architecture must be 'diagonal' or 'unitary', got {self.architecture!r}")
        if self.init not in ("identity", "random_phase"):
            raise DimensionMismatch(f"init must be 'identity' or 'random_phase', got {self.init!r}")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise DimensionMismatch("iteration caps must be >= 1")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise DimensionMismatch(f"rel_tol must be positive, got {self.rel_tol!r}")


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


def _init_thetas(ch: CascadeChannels, cfg: OptimizerConfig,
                 stream: RandomStream | None) -> list[np.ndarray]:
    if cfg.init == "identity":
        return [np.eye(ch.width(k), dtype=complex) for k in range(ch.n_l)]
    rng = (stream.generator() if stream is not None
           else RandomStream(cfg.seed, ("alg1-init",)).generator())
    return [np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, ch.width(k))))
            for k in range(ch.n_l)]


def alg1_optimize(ch: CascadeChannels, cfg: OptimizerConfig | None = None,
                  stream: RandomStream | None = None) -> OptimizationResult:
    """Alternating per-surface maximization of the end-to-end channel gain.

    Sweeps the surfaces in order. For each one it folds every other surface
    into equivalent end links, then alternates between the beamforming pair
    (u, v) of the folded channel and the closed-form inner solution for this
    surface until the fold's gain stalls. The trace records the gain after
    each full sweep; every step solves its subproblem exactly, so the trace
    never decreases (up to iteration noise).
    """
    cfg = cfg or OptimizerConfig()
    l = ch.n_l
    offsets = [1.0 if cfg.model == "physics" else 0.0] * l
    thetas = _init_thetas(ch, cfg, stream)

    trace: list[float] = []
    converged = False
    sweeps = 0
    best = 0.0
    for sweeps in range(1, cfg.max_outer_iters + 1):
        for pos in range(l):
            # folded channel: direct + left Theta right, direct the structural path
            left, right = fold(ch, thetas, offsets, pos)
            direct = -offsets[pos] * (left @ right)
            sigma, u, v = dominant_singular_pair(direct + left @ thetas[pos] @ right)
            best = sigma ** 2
            for _ in range(cfg.max_inner_iters):
                g_ri = u.conj() @ left
                g_it = right @ v
                # an exact 0 keeps np.angle(g_rt) at 0; a signed -0.0 would read as pi
                g_rt = complex(u.conj() @ direct @ v) if offsets[pos] else 0j
                data = InnerProblemData(g_rt, g_ri, g_it, u, v)
                if cfg.architecture == "diagonal":
                    thetas[pos] = inner_solve_diagonal(data)
                else:
                    try:
                        thetas[pos] = inner_solve_unitary(data)
                    except ZeroVector:
                        # the fold through this surface is identically zero;
                        # nothing to tune here
                        break
                sigma, u, v = dominant_singular_pair(direct + left @ thetas[pos] @ right)
                value = sigma ** 2
                gained = value - best
                best = value
                if gained <= cfg.rel_tol * max(value, _TINY):
                    break
        trace.append(best)
        if sweeps >= 2 and abs(trace[-1] - trace[-2]) <= cfg.rel_tol * max(trace[-1], _TINY):
            converged = True
            break

    stack = ScatteringStack(cfg.architecture, tuple(thetas))
    return OptimizationResult(stack, tuple(trace), converged, sweeps)


# -- upper bounds ------------------------------------------------------------------------------


def upper_bound_physics(ch: CascadeChannels) -> float:
    """Architecture-independent gain ceiling for the physical pure-cascade model.

    Expanding prod (Theta_k - I) gives one signed term per set of kept Theta
    factors; each term is bounded by the spectral norms of the contiguous link
    products between the kept positions (each |Theta| <= 1). The sum of those
    bounds over all 2^l sets is a path sum over cut points, computed in O(l^2)
    segment norms: paths[0] = 1, paths[j] = sum_{i<j} paths[i] ||F_i ... F_{j-1}||.
    """
    # a surface sits between each neighbouring pair of hops
    factors = ch.hops()
    count = len(factors)
    paths = [1.0] + [0.0] * count
    for i in range(count):
        segment = factors[i]
        for j in range(i + 1, count + 1):
            if j > i + 1:
                segment = segment @ factors[j - 1]
            paths[j] += paths[i] * spectral_norm(segment)
    return float(paths[count] ** 2)


def upper_bound_widely(ch: CascadeChannels) -> float:
    """Gain ceiling for the widely used model: product of squared link norms."""
    return float(np.prod([channel_gain(m) for m in ch.hops()]))


def best_of_restarts(ch: CascadeChannels, cfg: OptimizerConfig, stream: RandomStream,
                     restarts: int = 1) -> OptimizationResult:
    """Run alg1_optimize from several random initializations and keep the best."""
    if restarts < 1:
        raise DimensionMismatch("restarts must be >= 1")
    best = None
    for r in range(restarts):
        result = alg1_optimize(ch, cfg, stream.child("restart", r))
        if best is None or result.gain > best.gain:
            best = result
    return best
