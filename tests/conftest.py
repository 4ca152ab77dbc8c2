"""Shared test helpers: brute-force oracles and instance shorthands."""

from itertools import product

import numpy as np

from multiris.cascade import CascadeChannels


def ones_cascade(l: int, n_i: int = 1, n_t: int = 1, n_r: int = 1) -> CascadeChannels:
    """All-ones links, the hand-computable SISO-style fixture."""
    return CascadeChannels(
        np.ones((n_i, n_t)),
        tuple(np.ones((n_i, n_i)) for _ in range(l - 1)),
        np.ones((n_r, n_i)),
    )


def sigma_max_sq_2x2(h: np.ndarray) -> np.ndarray:
    """Closed-form squared spectral norm of a batch of 2x2 matrices.

    sigma1^2 = (T + sqrt(T^2 - 4 D)) / 2 with T the squared Frobenius norm
    and D = |det|^2. Independent of the package's power iteration.
    """
    t = np.sum(np.abs(h) ** 2, axis=(-2, -1))
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
    return (t + np.sqrt(disc)) / 2.0


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
        block = left[start:start + chunk]         # (chunk, 2, 2)
        prod = block[:, None, :, :] @ right[None, :, :, :]   # (chunk, combos, 2, 2)
        best = max(best, float(sigma_max_sq_2x2(prod).max()))
    return best
