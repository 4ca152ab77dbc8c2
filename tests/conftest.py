"""Shared test helpers: brute-force oracles, random instance builders and instance
shorthands."""

import hashlib
import tempfile
from fractions import Fraction
from itertools import product

import numpy as np

from multiris.cascade import (
    CascadeChannels,
    ScatteringStack,
    assemble_physics_channel,
    assemble_widely_used,
    factor_times,
    times_factor,
)
from multiris.errors import DimensionMismatch, SingularDiagonalBlock, ZeroVector, as_finite
from multiris.fading import (
    FadingSpec,
    LosLink,
    _draw_los_hop,
    gen_cascade,
    gen_los_link,
    gen_rayleigh_link,
)
from multiris.multiport import (
    CONDITION_CAP,
    DEFAULT_Z0,
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
)
from multiris.optimize import (
    InnerProblemData,
    OptimizationResult,
    OptimizerConfig,
    _phase_angles,
    _physics_from_widely,
    _rank_one_factors,
    alg1_batch,
    channel_gain,
    inner_solve_diagonal,
    los_optimal_phases_widely,
)
from multiris.rng import RandomStream

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property suite skips itself without hypothesis
    pass
else:
    # fixed examples and no example database, so runs repeat; the constants
    # hypothesis caches from local source files go to a directory removed at exit
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def int_list_seed_sequence(stream: RandomStream) -> np.random.SeedSequence:
    """The entropy a stream's generator must reproduce: the seed, then each label
    part as an int, a string standing for the first 16 bytes of its UTF-8 sha256
    read little-endian, all handed to SeedSequence as a list of Python ints."""
    parts = [p if isinstance(p, int)
             else int.from_bytes(hashlib.sha256(p.encode("utf-8")).digest()[:16], "little")
             for p in stream.label]
    return np.random.SeedSequence([stream.seed, *parts])


def los_link_oracle(rows: int, cols: int, stream: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """The steering vectors (a, b) of one line-of-sight link drawn link by link: one
    generator, rows uniform phases, then cols. The oracle for the block draw of
    fading, which must keep these bytes."""
    rng = stream.generator()
    a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, rows))
    b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, cols))
    return a, b


def draw_los_link(rows: int, cols: int, path_gain: float, stream: RandomStream) -> LosLink:
    """One line-of-sight link of one stream, as the block draw gives it: a LosLink
    stack of one row, a (1, rows) and b (1, cols)."""
    return _draw_los_hop(rows, cols, path_gain, [stream])


def rician_link_expression(rows: int, cols: int, spec: FadingSpec,
                           stream: RandomStream) -> np.ndarray:
    """A Rician link as one expression of its parts, each part a fresh array: the
    oracle for the in-place mix of gen_rician_link, which must keep these bytes."""
    k = spec.rician_k
    los = gen_los_link(rows, cols, 1.0, stream.child("specular"))
    nlos = gen_rayleigh_link(rows, cols, 1.0, stream.child("scatter"))
    mixed = np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos
    return spec.path_gain * mixed


def gaussian_cascade(dims: Dimensions, rng: np.random.Generator,
                     include_sides: bool = False) -> CascadeChannels:
    """A Rayleigh cascade at per-entry power 1/(2 n_i), the scale at which every
    matrix the impedance models invert stays well conditioned. Its stream is
    seeded from rng, so one generator still fixes all of a test's instances."""
    stream = RandomStream(int(rng.integers(2 ** 63)))
    return gen_cascade(dims, FadingSpec("rayleigh", 1 / np.sqrt(2 * dims.n_i)), stream,
                       include_sides)


# Random instance builders. Blocks are drawn so that every matrix the impedance
# models invert stays far from the condition cap, which keeps equivalence checks
# at their algebraic tolerance instead of drowning in roundoff.


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix: the unitary polar factor W V^H of a complex
    Gaussian matrix W S V^H, whose law is invariant under unitaries on both sides."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, _, vh = np.linalg.svd(g)
    return w @ vh


def well_conditioned_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """Generic non-Hermitian block with singular values in [1, 2] (cond <= 2)."""
    s = rng.uniform(1.0, 2.0, n)
    return haar_unitary(n, rng) @ np.diag(s) @ haar_unitary(n, rng).conj().T


def bidiagonal_instance(l: int, n: int, rng: np.random.Generator):
    """Diagonal and subdiagonal blocks for a well-conditioned structured inverse.

    Subdiagonal entries are scaled 1/(2 sqrt(n)) so the assembled matrix and
    its inverse both stay mild, keeping the dense oracle comparison honest.
    """
    diag = [well_conditioned_block(n, rng) for _ in range(l)]
    sub = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / (2.0 * np.sqrt(n))
           for _ in range(l - 1)]
    return diag, sub


def assemble_block_bidiagonal(diag, sub) -> np.ndarray:
    l = len(diag)
    n = diag[0].shape[0]
    m = np.zeros((l * n, l * n), dtype=complex)
    for k in range(l):
        m[k * n:(k + 1) * n, k * n:(k + 1) * n] = diag[k]
    for k in range(l - 1):
        m[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = sub[k]
    return m


def block_subdiagonal_inverse(diagonal_blocks, subdiagonal_blocks) -> list[list[np.ndarray]]:
    """Invert a block matrix whose only nonzero blocks sit on the diagonal and
    the first subdiagonal.

    For M with diagonal blocks D_0..D_{l-1} and subdiagonal blocks S_k mapping
    block column k to block row k+1, the inverse N is block lower triangular:

        N[i][i] = inv(D_i)
        N[i][j] = (-1)^(i-j) inv(D_i) (S_{i-1} inv(D_{i-1})) ... (S_j inv(D_j)),  i > j

    with the factors multiplied in strictly decreasing block order, and
    N[i][j] for i < j exactly the zero matrix. Returns the inverse as a list
    of lists of blocks: the oracle for the forward solve of the structured channel
    models in multiris.multiport.
    """
    d = [as_finite(b, f"diagonal block {k}") for k, b in enumerate(diagonal_blocks)]
    s = [as_finite(b, f"subdiagonal block {k}") for k, b in enumerate(subdiagonal_blocks)]
    l = len(d)
    if l == 0:
        raise DimensionMismatch("need at least one diagonal block")
    if len(s) != l - 1:
        raise DimensionMismatch(f"{l} diagonal blocks need {l - 1} subdiagonal blocks, got {len(s)}")
    n = d[0].shape[0]
    for kind, blocks in (("diagonal", d), ("subdiagonal", s)):
        for k, b in enumerate(blocks):
            if b.shape != (n, n):
                raise DimensionMismatch(f"{kind} block {k} must be {n} x {n}, got shape {b.shape}")

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


def random_diagonal_lossless_loads(l: int, n: int, rng: np.random.Generator,
                                   z0: float = DEFAULT_Z0) -> RisLoadStack:
    """Purely reactive single-connected loads, kept away from the open-circuit point."""
    loads = []
    for _ in range(l):
        theta = rng.uniform(0.35, 2.0 * np.pi - 0.35, n)
        loads.append(np.diag(1j * z0 * np.tan((np.pi - theta) / 2.0)))
    return RisLoadStack(tuple(loads))


def random_full_lossless_loads(l: int, n: int, rng: np.random.Generator,
                               z0: float = DEFAULT_Z0) -> RisLoadStack:
    """Purely reactive fully-connected loads: Z = j X with X real symmetric."""
    loads = []
    for _ in range(l):
        g = rng.standard_normal((n, n))
        loads.append(1j * z0 * (g + g.T) / 2.0)
    return RisLoadStack(tuple(loads))


def network_from_cascade(ch: CascadeChannels, z0: float = DEFAULT_Z0) -> MultiportNetwork:
    """Impedance network realizing a cascade: transfer blocks are 2*z0 times the
    channel blocks, end and surface arrays matched to z0."""
    l = ch.n_l
    n_i, n_t, n_r = ch.width(0), ch.n_t, ch.n_r
    for k in range(l):
        if ch.width(k) != n_i:
            raise DimensionMismatch("impedance synthesis needs uniform surface widths")
    dims = Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l)
    ports = dims.ports
    # every end and surface array matched: the diagonal blocks are z0*I
    z = z0 * np.eye(dims.n_ports, dtype=complex)
    z[ports(0), ports("t")] = 2.0 * z0 * ch.h_it_1
    for k in range(l - 1):
        z[ports(k + 1), ports(k)] = 2.0 * z0 * ch.inter[k]
    z[ports("r"), ports(l - 1)] = 2.0 * z0 * ch.h_ri_l
    if ch.sides is not None:
        z[ports("r"), ports("t")] = 2.0 * z0 * ch.sides.h_rt
        for k in range(l - 1):
            z[ports("r"), ports(k)] = 2.0 * z0 * ch.sides.h_ri[k]
            z[ports(k + 1), ports("t")] = 2.0 * z0 * ch.sides.h_it[k]
    return MultiportNetwork(dims, z, z0)


def random_phase_stack(widths, rng: np.random.Generator) -> ScatteringStack:
    """Diagonal surfaces of the given widths with uniform random phases."""
    thetas = tuple(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, w)) for w in widths)
    return ScatteringStack("diagonal", thetas)


def ones_cascade(l: int, n_i: int = 1, n_t: int = 1, n_r: int = 1) -> CascadeChannels:
    """All-ones links, the hand-computable SISO-style fixture."""
    return CascadeChannels(
        np.ones((n_i, n_t)),
        tuple(np.ones((n_i, n_i)) for _ in range(l - 1)),
        np.ones((n_r, n_i)),
    )


def fold(hops, thetas, offsets, pos: int) -> tuple[np.ndarray, np.ndarray]:
    """End links (left, right) of surface pos with every other surface folded in,
    rebuilt from scratch: the oracle for cascade.sweep_folds.

    hops is a link list in CascadeChannels.hops() order, so surface k sits between
    hops[l-1-k] and hops[l-k] and the pure-cascade channel is
    left (Th_pos - d I) right, with offsets[k] the d of surface k. Stacked hops,
    thetas and offsets carry a leading member axis. Uses the products of
    sweep_folds in the same order, so the two agree exactly.
    """
    l = len(hops) - 1
    left = hops[0]
    for k in range(l - 1, pos, -1):
        left = times_factor(left, thetas[k], offsets[k]) @ hops[l - k]
    right = hops[l]
    for k in range(pos):
        right = hops[l - 1 - k] @ factor_times(thetas[k], offsets[k], right)
    return left, right


def dense_cascade(ch: CascadeChannels, thetas, offsets) -> np.ndarray:
    """h_ri_l (Th_{l-1} - d_{l-1} I) ... inter[0] (Th_0 - d_0 I) h_it_1 multiplied out
    with every surface as a full n x n matrix: the oracle for cascade.assemble."""
    h = ch.h_it_1
    for theta, d, hop in zip(thetas, offsets, (*ch.inter, ch.h_ri_l)):
        full = np.diag(theta) if theta.ndim == 1 else theta
        h = hop @ (full - d * np.eye(len(full))) @ h
    return h


def full_physics_pairwise(ch: CascadeChannels, stack: ScatteringStack) -> np.ndarray:
    """The full multipath channel as the explicit sum over (entry, exit) surface
    pairs, l(l+1)/2 products: the oracle for cascade.assemble_full_physics."""
    thetas = stack.thetas
    out_links = list(ch.sides.h_ri) + [ch.h_ri_l]
    in_links = [ch.h_it_1] + list(ch.sides.h_it)
    h = ch.sides.h_rt
    for k in range(ch.n_l):
        h = h + times_factor(out_links[k], thetas[k], 1.0) @ in_links[k]
    for top in range(1, ch.n_l):
        acc = times_factor(out_links[top], thetas[top], 1.0)
        for k in range(top - 1, -1, -1):
            acc = times_factor(acc @ ch.inter[k], thetas[k], 1.0)
            h = h + acc @ in_links[k]
    return h


def los_physics_phases_per_surface(ch: CascadeChannels) -> list[np.ndarray]:
    """The physical-model line-of-sight optimum surface by surface, straight from
    the steering factors: pi + arg(b^T a) - arg b - arg a at every element, with
    a the arrival factor of the link entering the surface and b the departure
    factor of the link leaving it. The oracle for los_optimal_phases_physics,
    which turns the widely used optimum instead.
    """
    factors = [_rank_one_factors(m) for m in (ch.h_it_1, *ch.inter, ch.h_ri_l)]
    thetas = []
    for k in range(ch.n_l):
        _, a, _ = factors[k]
        _, _, b = factors[k + 1]
        thetas.append(np.exp(1j * (np.pi + np.angle(b @ a) - np.angle(b) - np.angle(a))))
    return thetas


def dominant_singular_pair_scalar(h):
    """Largest singular triple (sigma, u, v) of one 2-D h by the two-sided power
    iteration matrix-vector product by product: the oracle that
    optimize._dominant_pairs must match bit for bit on each member of a stack.

    Starts from e_1 plus a fixed ramp, stops once sigma moves by at most 1e-12 of
    itself (or after 10000 steps), returns sigma = 0 with the u, v it stopped with
    once an iterate vanishes, and otherwise turns (u, v) so that the largest-modulus
    entry of v is real positive after one consistency pass.
    """
    tiny, tol = 1e-300, 1e-12
    h = np.asarray(h, dtype=complex)
    m, n = h.shape
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    v += 1e-3 * np.arange(1, n + 1) / n
    v /= np.linalg.norm(v)
    sigma_prev = -1.0
    u = np.zeros(m, dtype=complex)
    u[0] = 1.0
    h_adj = h.conj().T
    for _ in range(10000):
        w = h @ v
        norm_w = np.linalg.norm(w)
        if norm_w <= tiny:
            return 0.0, u, v
        u = w / norm_w
        z = h_adj @ u
        sigma = np.linalg.norm(z)
        if sigma <= tiny:
            return 0.0, u, v
        v = z / sigma
        if abs(sigma - sigma_prev) <= tol * sigma:
            break
        sigma_prev = sigma
    w = h @ v
    sigma = float(np.linalg.norm(w))
    if sigma > tiny:
        u = w / sigma
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return sigma, u * np.conj(phase), v * np.conj(phase)


def rank_one_factors_scalar(h):
    """(path_gain, a, b) of one steering link from dominant_singular_pair_scalar, with
    no rank-1 checks: the oracle for the factors of optimize._rank_one_factors and of
    the stacked line-of-sight factoring, optimize._factor_los_hop."""
    rows, cols = h.shape
    sigma, u, v = dominant_singular_pair_scalar(h)
    return float(sigma / np.sqrt(rows * cols)), u / np.abs(u), v.conj() / np.abs(v)


def los_gains_per_trial(ch: CascadeChannels, path_gain: float) -> tuple[float, float, float]:
    """(physics, widely_used, suboptimal_cross) of one line-of-sight cascade drawn at
    path_gain: each link's a and b from rank_one_factors_scalar and its lam the drawn
    path_gain, then s = b_{j-1}^T a_j and the three products surface by surface. The
    oracle for the stacked gains of a line-of-sight block."""
    _, a, b = zip(*(rank_one_factors_scalar(h) for h in ch.hops()))
    link = path_gain ** 2
    physics = widely = cross = link * (ch.n_r * ch.n_t)
    for j in range(1, len(a)):
        n, s = len(a[j]), b[j - 1] @ a[j]
        physics *= (n + abs(s)) ** 2 * link
        widely *= n * n * link
        cross *= abs(n - s) ** 2 * link
    return float(physics), float(widely), float(cross)


def los_gains_assembled(ch: CascadeChannels) -> tuple[float, float, float]:
    """(physics, widely_used, suboptimal_cross) line-of-sight optima read off assembled
    channels: the widely used phases and the physics phases turned from them, each
    assembled under its model and decomposed by LAPACK. The oracle for los_gains."""
    stack_w = los_optimal_phases_widely(ch)
    return (channel_gain(assemble_physics_channel(ch, _physics_from_widely(stack_w))),
            channel_gain(assemble_widely_used(ch, stack_w)),
            channel_gain(assemble_physics_channel(ch, stack_w)))


def sigma_max_sq_2x2(h: np.ndarray) -> np.ndarray:
    """Closed-form squared spectral norm of a batch of 2x2 matrices.

    sigma1^2 = (T + sqrt(T^2 - 4 D)) / 2 with T the squared Frobenius norm
    and D = |det|^2. Independent of the package's power iteration.
    """
    t = np.sum(np.abs(h) ** 2, axis=(-2, -1))
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
    return (t + np.sqrt(disc)) / 2.0


def upper_bound_widely_product(ch: CascadeChannels) -> float:
    """The widely used bound as the product of each link's squared spectral norm, one
    channel_gain per link: the bit-exact oracle for the block pass, which reads the
    same LAPACK norms off the length-1 segments of its physics path sum."""
    return float(np.prod([channel_gain(m) for m in ch.hops()]))


def upper_bound_physics_path_sum(ch: CascadeChannels) -> float:
    """The physical-model bound as the O(l^2) path sum over cut points, one cascade
    at a time in Python floats: paths[0] = 1 and
    paths[j] = sum_{i<j} paths[i] ||F_i ... F_{j-1}|| over the links F in
    ch.hops() order, squared at the end. The bit-exact oracle for the stacked
    block pass, which forms the same products and norms member by member.
    """
    factors = ch.hops()
    count = len(factors)
    paths = [1.0] + [0.0] * count
    for i in range(count):
        segment = factors[i]
        for j in range(i + 1, count + 1):
            if j > i + 1:
                segment = segment @ factors[j - 1]
            paths[j] += paths[i] * float(np.linalg.svd(segment, compute_uv=False)[0])
    return paths[count] ** 2


def upper_bound_physics_expansion(ch: CascadeChannels) -> float:
    """The physical-model bound by explicit 2^l expansion of prod (Theta_k - I).

    Each set of kept Theta terms is bounded by the SVD spectral norms of the
    maximal contiguous link products between the kept positions; the bound is
    the squared sum over all sets. Exponential in l: the oracle for the path sum.
    """
    l = ch.n_l
    # links in product order: h_ri_l, inter[l-2], ..., inter[0], h_it_1
    factors = [ch.h_ri_l] + [ch.inter[k] for k in range(l - 2, -1, -1)] + [ch.h_it_1]
    count = len(factors)
    seg_norm = {}
    for i in range(count):
        acc = factors[i]
        seg_norm[(i, i)] = np.linalg.svd(acc, compute_uv=False)[0]
        for j in range(i + 1, count):
            acc = acc @ factors[j]
            seg_norm[(i, j)] = np.linalg.svd(acc, compute_uv=False)[0]

    total = 0.0
    for keep in product((False, True), repeat=l):
        # keep[k] selects the Theta term of surface k, which sits between
        # factors l-1-k and l-k in product order
        cuts = sorted(l - 1 - k for k in range(l) if keep[k])
        term = 1.0
        start = 0
        for c in cuts:
            term *= seg_norm[(start, c)]
            start = c + 1
        term *= seg_norm[(start, count - 1)]
        total += term
    return float(total ** 2)


def grid_search_gain_l2(ch: CascadeChannels, offset: float = 1.0, levels: int = 64,
                        chunk: int = 256) -> float:
    """Exhaustive best gain of a two-surface cascade over a discrete phase grid.

    Each surface is diagonal with phases from the `levels`-point grid; offset 1
    evaluates the physical (Theta - I) model, 0 the widely used one. Only
    supports 2x2 end channels and 2-element surfaces (the closed-form batch
    spectral norm needs 2x2 products).
    """
    assert ch.n_l == 2 and ch.n_t == 2 and ch.n_r == 2
    n = ch.width(0)
    assert n == 2 and ch.width(1) == 2
    a = ch.h_ri_l
    b = ch.inter[0]
    c = ch.h_it_1
    phases = 2.0 * np.pi * np.arange(levels) / levels
    # all diagonal combinations of one surface: (levels^2, 2)
    p0, p1 = np.meshgrid(phases, phases, indexing="ij")
    diag = np.exp(1j * np.stack([p0.ravel(), p1.ravel()], axis=1)) - offset

    # left[i] = A diag(d2_i) B   for every combination of surface 2
    left = (a[None, :, :] * diag[:, None, :]) @ b
    # right[j] = diag(d1_j) C    for every combination of surface 1
    right = diag[:, :, None] * c[None, :, :]

    best = 0.0
    combos = diag.shape[0]
    for start in range(0, combos, chunk):
        block = left[start:start + chunk, None]   # (chunk, 1, 2, 2)
        # every block[i] @ right[j] as explicit 2x2 products: a stacked @ of
        # a million 2x2 matrices costs about three times as much
        prod = np.empty((block.shape[0], combos, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                prod[..., i, j] = (block[..., i, 0] * right[None, :, 0, j]
                                   + block[..., i, 1] * right[None, :, 1, j])
        best = max(best, float(sigma_max_sq_2x2(prod).max()))
    return best


def unitaries_with_first_columns_qr(x: np.ndarray) -> np.ndarray:
    """Unitary matrices whose first columns are the unit rows of x (B, n), from
    LAPACK's Householder QR of [x, e_1, ..., e_{n-1}]: the oracle for the closed form.

    On complex input every column k >= 1 is -1 times the Gram-Schmidt column the
    package builds, and the sign cancels in Q_y Q_x^H. When the trailing diagonal
    entry is exactly real, as for a real x, zlarfg takes its tau = 0 branch and
    keeps the last column's sign, so a real x paired with a non-real y gives a
    Theta that differs in that column's sign. Both are optimal (unitary, Theta x = y).
    """
    count, n = x.shape
    basis = np.tile(np.eye(n, dtype=complex), (count, 1, 1))
    basis[:, :, 0] = x
    q, _ = np.linalg.qr(basis)
    # qr fixes each column only up to a unit phase; rotate it back onto x
    alpha = (q[:, None, :, 0].conj() @ x[:, :, None])[:, :, 0]
    q[:, :, 0] *= alpha
    return q


def inner_objective(data: InnerProblemData, theta) -> float:
    """|g_rt + g_ri Theta g_it|^2 for a phase vector or an n x n matrix theta: the
    value the inner solvers maximize, evaluated directly."""
    g_ri_theta = times_factor(data.g_ri[None], np.asarray(theta), 0.0)[0]
    return float(np.abs(data.g_rt + g_ri_theta @ data.g_it) ** 2)


def inner_solve_unitary_qr(data: InnerProblemData) -> np.ndarray:
    """inner_solve_unitary with its completion taken from LAPACK's QR."""
    norm_ri, norm_it = np.linalg.norm(data.g_ri), np.linalg.norm(data.g_it)
    if norm_ri <= 1e-300 or norm_it <= 1e-300:
        raise ZeroVector("inner_solve_unitary needs nonzero g_ri and g_it")
    x = data.g_it / norm_it
    y = np.exp(1j * _phase_angles(data.g_rt)) * data.g_ri.conj() / norm_ri
    qx, qy = unitaries_with_first_columns_qr(np.stack((x, y)))
    return qy @ qx.conj().T


def unitary_with_first_column_exact(x: np.ndarray) -> np.ndarray:
    """The Q of [x, e_1, ..., e_{n-1}] with a positive diagonal in R, by Gram-Schmidt
    in exact rational arithmetic; only the final normalisation rounds.

    Unlike LAPACK, whose normwise backward error moves a tiny x_0 by about
    1e-16 / |x_0| relative, every entry comes out to a few ulps.
    """
    n = len(x)

    def dot(a, b):  # a^H b of complex rationals held as (re, im) pairs
        return (sum(p[0] * q[0] + p[1] * q[1] for p, q in zip(a, b)),
                sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(a, b)))

    columns = [[(Fraction(v.real), Fraction(v.imag)) for v in x]]
    columns += [[(Fraction(int(i == k)), Fraction(0)) for i in range(n)] for k in range(1, n)]
    ortho = []
    for column in columns:
        w = column
        for u, norm_sq in ortho:
            re, im = dot(u, column)
            w = [(a - (p * re - q * im) / norm_sq, b - (p * im + q * re) / norm_sq)
                 for (a, b), (p, q) in zip(w, u)]
        ortho.append((w, dot(w, w)[0]))
    q = np.empty((n, n), dtype=complex)
    for k, (w, norm_sq) in enumerate(ortho):
        # scale by a power of two first so the rationals convert without underflow
        shift = norm_sq.numerator.bit_length() - norm_sq.denominator.bit_length()
        scale = Fraction(2) ** (-(shift // 2))
        norm = np.sqrt(float(norm_sq * scale * scale))
        q[:, k] = [complex(float(a * scale), float(b * scale)) / norm for a, b in w]
    return q


def alg1_dense_reference(ch: CascadeChannels, cfg, stream) -> OptimizationResult:
    """alg1_optimize on the dense reference path, the oracle for the fast one.

    Every surface is an n x n matrix, both end links are refolded from scratch
    at every position of every sweep, the singular pair comes from the power
    iteration of dominant_singular_pair_scalar, and unitary surfaces take their
    completion from LAPACK's QR. Draws the same initial phases as alg1_optimize.
    """
    l = ch.n_l
    offsets = [1.0 if cfg.model == "physics" else 0.0] * l
    rng = stream.generator()
    thetas = [np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, w))) for w in ch.widths()]

    trace = []
    converged = False
    sweeps = 0
    best = 0.0
    for sweeps in range(1, cfg.max_outer_iters + 1):
        for pos in range(l):
            left, right = fold(ch.hops(), thetas, offsets, pos)
            direct = -offsets[pos] * (left @ right)
            sigma, u, v = dominant_singular_pair_scalar(direct + left @ thetas[pos] @ right)
            best = sigma ** 2
            for _ in range(cfg.max_inner_iters):
                g_ri = u.conj() @ left
                g_it = right @ v
                g_rt = complex(u.conj() @ direct @ v)
                data = InnerProblemData(g_rt, g_ri, g_it, u, v)
                if cfg.architecture == "diagonal":
                    thetas[pos] = np.diag(inner_solve_diagonal(data))
                else:
                    try:
                        thetas[pos] = inner_solve_unitary_qr(data)
                    except ZeroVector:
                        break
                sigma, u, v = dominant_singular_pair_scalar(direct + left @ thetas[pos] @ right)
                value = sigma ** 2
                gained = value - best
                best = value
                if gained <= cfg.rel_tol * max(value, 1e-300):
                    break
        trace.append(best)
        if sweeps >= 2 and abs(trace[-1] - trace[-2]) <= cfg.rel_tol * max(trace[-1], 1e-300):
            converged = True
            break
    return OptimizationResult(ScatteringStack(cfg.architecture, tuple(thetas)), tuple(trace),
                              converged, sweeps)


def best_of_restarts(ch: CascadeChannels, cfg: OptimizerConfig, stream: RandomStream,
                     restarts: int = 1) -> OptimizationResult:
    """alg1 from several random initializations, run as one batch; the first strictly
    best run wins."""
    runs = alg1_batch([ch] * restarts, [cfg] * restarts,
                      [stream.child("restart", r) for r in range(restarts)])
    return max(runs, key=lambda run: run.gain)
