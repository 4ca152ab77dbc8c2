"""Optimizer: spectral primitives, inner solvers, closed forms, bounds, alg1."""

import itertools

import numpy as np
import pytest

from conftest import (
    alg1_dense_reference,
    best_of_restarts,
    dominant_singular_pair_scalar,
    fold,
    draw_los_link,
    gaussian_cascade,
    grid_search_gain_l2,
    inner_objective,
    los_gains_assembled,
    los_physics_phases_per_surface,
    ones_cascade,
    unitaries_with_first_columns_qr,
    unitary_with_first_column_exact,
    upper_bound_physics_expansion,
    upper_bound_physics_path_sum,
    upper_bound_widely_product,
)
from multiris import optimize
from multiris.cascade import (
    CascadeChannels,
    ScatteringStack,
    assemble_physics_channel,
    assemble_widely_used,
    sweep_folds,
    times_factor,
)
from multiris.errors import (
    AssumptionViolated,
    DimensionMismatch,
    EmptySequence,
    NonFiniteInput,
    NotRankOne,
    ZeroVector,
)
from multiris.fading import FadingSpec, LosLink, draw_los_cascades, gen_cascade, gen_los_link
from multiris.harness import ExperimentSpec
from multiris.multiport import Dimensions
from multiris.optimize import (
    InnerProblemData,
    OptimizerConfig,
    alg1_batch,
    alg1_optimize,
    channel_gain,
    dominant_singular_pair,
    inner_solve_diagonal,
    inner_solve_unitary,
    los_gains,
    los_optimal_phases_physics,
    los_optimal_phases_widely,
    spectral_norm,
    upper_bound_physics,
    upper_bound_widely,
)
from multiris.optimize import (
    _alg1_stacked,
    _dominant_pairs,
    _physics_from_widely,
    _rank_one_factors,
    _stack_cascades,
    _top_pairs,
    _tune_surface,
    _upper_bounds,
)
from multiris.rng import RandomStream
from multiris.scaling import expected_gain_widely_los


def _unit_rows(rng, count, n, first=None):
    """count random complex unit rows of length n; first[i], if not None, sets the
    modulus of row i's first entry before the row is normalised."""
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    for i, x0 in enumerate(first or ()):
        if x0 is not None:
            z[i, 0] *= x0 / abs(z[i, 0])
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestDominantSingularPair:
    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            h = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            sigma, u, v = dominant_singular_pair(h)
            ref = np.linalg.svd(h, compute_uv=False)[0]
            assert abs(sigma - ref) / ref < 1e-10
            assert np.linalg.norm(h @ v - sigma * u) / ref < 1e-8

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        _, _, v = dominant_singular_pair(h)
        k = int(np.argmax(np.abs(v)))
        assert abs(v[k].imag) < 1e-10 and v[k].real > 0

    def test_zero_matrix(self):
        sigma, u, v = dominant_singular_pair(np.zeros((3, 2)))
        assert sigma == 0.0
        assert np.linalg.norm(u) > 0 and np.linalg.norm(v) > 0

    def test_gain_of_rank_one(self):
        a = np.array([1.0, 1j, -1.0])
        b = np.array([1.0, -1j])
        h = 2.0 * np.outer(a, b)
        assert channel_gain(h) == pytest.approx(4.0 * 6.0, rel=1e-12)

    def test_spectral_norm_of_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_spectral_norm_near_degenerate_2x2(self):
        # sigma2 / sigma1 = 1 - 1e-7: a power iteration stalls about 5e-8 low here
        rng = np.random.default_rng(7)
        links = []
        for _ in range(3):
            q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            links.append(q1 @ np.diag([1.0, 1.0 - 1e-7]) @ q2.conj().T)
        sn = lambda m: np.linalg.svd(m, compute_uv=False)[0]
        for h in links:
            assert spectral_norm(h) == pytest.approx(sn(h), rel=1e-12)
        ch = CascadeChannels(links[0], (links[1],), links[2])
        expect = np.prod([sn(h) ** 2 for h in links])
        assert upper_bound_widely(ch) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 128), (128, 128)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_spectral_norm_is_the_lapack_two_norm(self, shape, dtype):
        rng = np.random.default_rng(shape[1])
        h = rng.standard_normal(shape)
        if dtype is complex:
            h = h + 1j * rng.standard_normal(shape)
        assert spectral_norm(h) == float(np.linalg.norm(h, 2))


def _assert_rows_match_scalar(h):
    """Every member of _dominant_pairs(h) equals the scalar oracle on that matrix alone."""
    sigma, u, v = _dominant_pairs(h)
    for t, m in enumerate(h):
        want_sigma, want_u, want_v = dominant_singular_pair_scalar(m)
        assert sigma[t] == want_sigma
        assert (u[t] == want_u).all() and (v[t] == want_v).all()
    return sigma


class TestDominantPairs:
    """The stacked power iteration against the scalar oracle, with ==."""

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32, 64, 128])
    def test_rank_one_links_at_every_los_shape(self, n):
        stream = RandomStream(59, ("pairs-los", n))
        for ends in (1, 2, 3):
            for k, shape in enumerate(((n, n), (n, ends), (ends, n))):
                _assert_rows_match_scalar(np.stack([
                    gen_los_link(*shape, path_gain, stream.child(ends, k, t))
                    for t, path_gain in enumerate((1.0, 0.37, 2.5, 1.0))]))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (2, 2), (3, 5), (8, 8),
                                       (16, 4), (32, 32)])
    def test_gaussian_matrices(self, shape):
        rng = np.random.default_rng(shape)
        _assert_rows_match_scalar(rng.standard_normal((6, *shape))
                                  + 1j * rng.standard_normal((6, *shape)))

    def test_near_degenerate_matrices_take_many_steps(self):
        # sigma_2 / sigma_1 = 0.99 and 0.999: about a thousand steps, and the
        # 10000-step cap
        rng = np.random.default_rng(67)
        h = []
        for ratio in (0.99, 0.999):
            q1 = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            q2 = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            h.append(q1 @ np.diag([1.0, ratio, 0.5, 0.1]) @ q2.conj().T)
        _assert_rows_match_scalar(np.stack(h))

    def test_zero_matrix(self):
        sigma = _assert_rows_match_scalar(np.zeros((2, 3, 4), dtype=complex))
        assert (sigma == 0.0).all()

    def test_members_stopping_at_different_steps(self):
        # a rank-1 link stops after two steps and the Gaussian ones after tens; the
        # zero matrix and one at scale 1e-170, whose squared entries underflow,
        # vanish on the first, while scale 1e-150 still iterates
        rng = np.random.default_rng(71)
        gauss = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        los = gen_los_link(8, 8, 0.37, RandomStream(71, ("mixed",)))
        h = np.stack([gauss[0], los, np.zeros((8, 8)), gauss[1] * 1e-170, gauss[2],
                      gauss[0] * 1e-150, los])
        sigma = _assert_rows_match_scalar(h)
        assert sigma[2] == sigma[3] == 0.0 and (sigma[[0, 1, 4, 5, 6]] > 0.0).all()

    def test_scalar_api_is_the_stack_of_one(self):
        rng = np.random.default_rng(73)
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        # a C-ordered matrix and a Fortran-ordered one
        for m in (h, h.T):
            sigma, u, v = dominant_singular_pair(m)
            want_sigma, want_u, want_v = dominant_singular_pair_scalar(m)
            assert type(sigma) is float and sigma == want_sigma
            assert (u == want_u).all() and (v == want_v).all()
        with pytest.raises(DimensionMismatch):
            dominant_singular_pair(np.ones((2, 2, 2)))
        for empty in (np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0))):
            with pytest.raises(EmptySequence):
                dominant_singular_pair(empty)


class TestRankOneFactors:
    def test_recovers_steering_product(self):
        h = gen_los_link(5, 3, 1.7, RandomStream(7, ("r1",)))
        lam, a, b = _rank_one_factors(h)
        assert lam == pytest.approx(1.7, rel=1e-10)
        assert np.linalg.norm(lam * np.outer(a, b) - h) < 1e-10

    def test_rejects_full_rank(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(NotRankOne):
            _rank_one_factors(h)

    def test_rejects_nonuniform_modulus(self):
        # rank-1 but not a steering product
        h = np.outer([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(NotRankOne):
            _rank_one_factors(h)

    def test_rejects_zero(self):
        with pytest.raises(NotRankOne):
            _rank_one_factors(np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    @pytest.mark.parametrize("scale", [0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    def test_residual_matches_direct_product(self, n, scale):
        # the residual the check uses sits within 1e-7 of ||h - sigma u v^H||_F / sigma:
        # a tolerance 1e-7 above the direct value passes the residual test, one 1e-7
        # below fails it
        rng = np.random.default_rng(n)
        h = gen_los_link(n, n, 0.9, RandomStream(n, ("residual",)))
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = h + scale * np.linalg.norm(h) / np.linalg.norm(noise) * noise
        sigma, u, v = dominant_singular_pair(h)
        direct = np.linalg.norm(h - sigma * np.outer(u, v.conj())) / sigma
        try:
            _rank_one_factors(h, tol=direct + 1e-7)
        except NotRankOne as exc:
            assert "moduli" in str(exc)
        if direct > 1e-7:
            with pytest.raises(NotRankOne, match="relative residual") as raised:
                _rank_one_factors(h, tol=direct - 1e-7)
            reported = float(str(raised.value).split()[2])
            assert reported == pytest.approx(direct, rel=1e-3)

    @pytest.mark.parametrize("scale, rank_one", [(1e-5, False), (1e-8, True)])
    def test_rank_two_perturbation(self, scale, rank_one):
        rng = np.random.default_rng(17)
        h = gen_los_link(32, 32, 1.3, RandomStream(17, ("rank2",)))
        x, y = _unit_rows(rng, 2, 32)
        h = h + scale * np.linalg.norm(h) * np.outer(x, y)
        if rank_one:
            lam, _, _ = _rank_one_factors(h)
            assert lam == pytest.approx(1.3, rel=1e-6)
        else:
            with pytest.raises(NotRankOne, match="relative residual"):
                _rank_one_factors(h)


class TestInnerSolvers:
    def test_hand_value_diagonal(self):
        # g_rt = -1, g_ri = g_it = [1, 1]: phases pi, value (1 + 2)^2 = 9
        u = np.array([1.0 + 0j])
        data = InnerProblemData(-1.0 + 0j, np.ones(2, dtype=complex),
                                np.ones(2, dtype=complex), u, u)
        theta = inner_solve_diagonal(data)
        assert theta.shape == (2,) and np.allclose(theta, -1.0)
        assert inner_objective(data, theta) == pytest.approx(9.0, rel=1e-12)
        assert inner_objective(data, np.diag(theta)) == pytest.approx(9.0, rel=1e-12)

    def test_diagonal_attains_analytic_value(self):
        rng = np.random.default_rng(13)
        u = np.array([1.0 + 0j])
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g_ri = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g_it = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g_rt = complex(rng.standard_normal() + 1j * rng.standard_normal())
            data = InnerProblemData(g_rt, g_ri, g_it, u, u)
            value = inner_objective(data, inner_solve_diagonal(data))
            expect = (abs(g_rt) + np.sum(np.abs(g_ri) * np.abs(g_it))) ** 2
            assert value == pytest.approx(expect, rel=1e-12)

    def test_diagonal_beats_random_search(self):
        rng = np.random.default_rng(17)
        n = 6
        g_ri = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g_it = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g_rt = complex(rng.standard_normal() + 1j * rng.standard_normal())
        u = np.array([1.0 + 0j])
        data = InnerProblemData(g_rt, g_ri, g_it, u, u)
        best_analytic = inner_objective(data, inner_solve_diagonal(data))
        phases = rng.uniform(0, 2 * np.pi, (10000, n))
        samples = np.abs(g_rt + ((g_ri * np.exp(1j * phases)) * g_it).sum(axis=1)) ** 2
        assert best_analytic >= samples.max() - 1e-9 * best_analytic

    def test_zero_g_rt_uses_zero_phase(self):
        u = np.array([1.0 + 0j])
        ones = np.ones(3, dtype=complex)
        # np.angle reads a signed zero as +-pi; every zero must give phase 0
        for g_rt in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            data = InnerProblemData(g_rt, ones, ones, u, u)
            theta = inner_solve_diagonal(data)
            assert np.array_equal(theta, ones)
            assert inner_objective(data, theta) == pytest.approx(9.0, rel=1e-12)
            assert np.allclose(inner_solve_unitary(data) @ ones, ones, atol=1e-12)

    def test_unitary_attains_cauchy_schwarz_value(self):
        """Random draws up to n = 128, plus the degenerate directions: a g_it or a
        g_ri whose first entry is exactly 0, and g_it = e_{n-1}. Those take the
        reflection branch of the completion and must not leak a divide warning."""
        rng = np.random.default_rng(19)
        u = np.array([1.0 + 0j])

        def draw(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        def zero_first(n):
            g = draw(n)
            g[0] = 0.0
            return g

        cases = [(draw(n), draw(n)) for n in [int(k) for k in rng.integers(1, 9, 20)] + [32, 128]]
        for n in (2, 3, 8, 128):
            last = np.zeros(n, dtype=complex)
            last[-1] = 1.0
            cases += [(draw(n), zero_first(n)), (zero_first(n), draw(n)), (draw(n), last),
                      (zero_first(n), last)]
        for g_ri, g_it in cases:
            n = len(g_ri)
            g_rt = complex(draw(1)[0])
            data = InnerProblemData(g_rt, g_ri, g_it, u, u)
            theta = inner_solve_unitary(data)
            assert np.isfinite(theta).all()
            assert np.abs(theta.conj().T @ theta - np.eye(n)).max() < 1e-12
            expect = (abs(g_rt) + np.linalg.norm(g_ri) * np.linalg.norm(g_it)) ** 2
            assert inner_objective(data, theta) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
    def test_completion_matches_lapack(self, n):
        """Theta = Q_y Q_x^H from the closed-form completion equals the one from
        LAPACK's QR on random complex pairs."""
        rng = np.random.default_rng(29 + n)
        pairs = _unit_rows(rng, 2 * 20, n)
        closed, lapack = (q[20:] @ q[:20].conj().transpose(0, 2, 1)
                          for q in (optimize._unitaries_with_first_columns(pairs),
                                    unitaries_with_first_columns_qr(pairs)))
        assert np.abs(closed - lapack).max() <= 1e-12

    @pytest.mark.parametrize("x0", [1e-8, 1e-150])
    def test_completion_with_tiny_first_entry(self, x0):
        """A first entry of modulus x0 in x, in y or in both.

        LAPACK's normwise backward error moves such an entry by about 1e-16
        absolute, so its Theta is off by about 1e-16 / x0 (about 1e-8 at
        x0 = 1e-8, anything at 1e-150); the closed form must match the exact
        rational Gram-Schmidt instead, to 1e-12."""
        rng = np.random.default_rng(31)
        for n in (2, 3, 8):
            for tiny_x, tiny_y in ((True, False), (False, True), (True, True)):
                x, y = _unit_rows(rng, 2, n, first=(x0 if tiny_x else None,
                                                    x0 if tiny_y else None))
                exact = [unitary_with_first_column_exact(z) for z in (x, y)]
                qx, qy = optimize._unitaries_with_first_columns(np.stack((x, y)))
                theta = qy @ qx.conj().T
                assert np.abs(theta - exact[1] @ exact[0].conj().T).max() <= 1e-12
                assert np.abs(theta @ x - y).max() <= 1e-15
                if x0 == 1e-8:
                    lx, ly = unitaries_with_first_columns_qr(np.stack((x, y)))
                    assert np.abs(theta - ly @ lx.conj().T).max() <= 1e-6

    def test_real_x_keeps_lapack_last_column_sign(self):
        """The one known difference from LAPACK, which needs no fix: for an exactly
        real x and a non-real y, zlarfg's tau = 0 branch keeps the sign of Q_x's
        last column, so LAPACK's Theta is the closed form's minus twice that
        column's term. Both map x to y and are unitary; Rayleigh and Rician draws
        are never exactly real."""
        rng = np.random.default_rng(37)
        for n in (2, 3, 8, 32):
            x = rng.standard_normal(n) + 0j
            x /= np.linalg.norm(x)
            y = _unit_rows(rng, 1, n)[0]
            qx, qy = optimize._unitaries_with_first_columns(np.stack((x, y)))
            lx, ly = unitaries_with_first_columns_qr(np.stack((x, y)))
            theta = qy @ qx.conj().T
            flipped = theta - 2.0 * np.outer(qy[:, -1], qx[:, -1].conj())
            assert np.abs(ly @ lx.conj().T - flipped).max() <= 1e-12
            for t in (theta, flipped):
                assert np.abs(t @ x - y).max() <= 1e-12
                assert np.abs(t.conj().T @ t - np.eye(n)).max() <= 1e-12

    def test_unitary_dominates_diagonal(self):
        rng = np.random.default_rng(23)
        u = np.array([1.0 + 0j])
        for _ in range(10):
            n = 5
            g_ri = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g_it = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            data = InnerProblemData(0.3 + 0.1j, g_ri, g_it, u, u)
            d_val = inner_objective(data, inner_solve_diagonal(data))
            u_val = inner_objective(data, inner_solve_unitary(data))
            assert u_val >= d_val - 1e-9 * u_val

    def test_zero_vector_rejected(self):
        u = np.array([1.0 + 0j])
        data = InnerProblemData(1.0 + 0j, np.zeros(3, dtype=complex),
                                np.ones(3, dtype=complex), u, u)
        with pytest.raises(ZeroVector):
            inner_solve_unitary(data)

    def test_unit_norm_required(self):
        with pytest.raises(DimensionMismatch):
            InnerProblemData(0j, np.ones(2, dtype=complex), np.ones(2, dtype=complex),
                             np.array([2.0 + 0j]), np.array([1.0 + 0j]))

    @pytest.mark.parametrize("field", ["g_rt", "g_ri", "g_it", "u", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("solve", [inner_solve_diagonal, inner_solve_unitary])
    def test_non_finite_data_rejected(self, solve, bad, field):
        """A NaN or infinite coefficient raises NonFiniteInput before either solver
        runs, instead of NaN phases or a leaked RuntimeWarning."""
        u = np.array([1.0 + 0j, 0.0])
        values = {"g_rt": 1.0 + 0j, "g_ri": np.ones(3, dtype=complex),
                  "g_it": np.ones(3, dtype=complex), "u": u, "v": u.copy()}
        if field == "g_rt":
            values[field] = complex(bad)
        else:
            values[field][-1] = bad
        with pytest.raises(NonFiniteInput):
            solve(InnerProblemData(**values))


class TestLosClosedForms:
    def test_all_ones_physics_phases(self):
        # all phases zero: optimum is theta = pi everywhere, |K| = n + |c| = 2n
        ch = ones_cascade(l=2, n_i=3)
        stack = los_optimal_phases_physics(ch)
        for theta in stack.thetas:
            assert theta.shape == (3,) and np.allclose(theta, -1.0)
        gain = channel_gain(assemble_physics_channel(ch, stack))
        assert gain == pytest.approx((6.0 ** 2) ** 2, rel=1e-12)

    def test_physics_gain_matches_per_draw_formula(self):
        n_i, l, n_t, n_r = 8, 3, 2, 2
        shapes = [(n_i, n_t)] + [(n_i, n_i)] * (l - 1) + [(n_r, n_i)]
        stream = RandomStream(29, ("losopt",))
        for trial in range(100):
            sub = stream.child(trial)
            links = [draw_los_link(r, c, 1.0, sub.child(k)) for k, (r, c) in enumerate(shapes)]
            ch = CascadeChannels(links[0].matrix()[0], tuple(m.matrix()[0] for m in links[1:-1]),
                                 links[-1].matrix()[0])
            gain = channel_gain(assemble_physics_channel(ch, los_optimal_phases_physics(ch)))
            expect = float(n_r * n_t)
            for k in range(l):
                c = links[k + 1].b[0] @ links[k].a[0]
                expect *= (abs(c) + n_i) ** 2
            assert abs(gain - expect) / expect < 1e-9

    def test_widely_gain_is_deterministic(self):
        n_i, l = 5, 3
        stream = RandomStream(31, ("losw",))
        expect = float(n_i) ** (2 * l) * 4.0
        for trial in range(50):
            ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=n_i, l=l), FadingSpec("los"),
                             stream.child(trial))
            gain = channel_gain(assemble_widely_used(ch, los_optimal_phases_widely(ch)))
            assert abs(gain - expect) / expect < 1e-9

    def test_physics_beats_grid_search(self):
        stream = RandomStream(37, ("grid",))
        ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=2, l=2), FadingSpec("los"), stream)
        gain = channel_gain(assemble_physics_channel(ch, los_optimal_phases_physics(ch)))
        grid_best = grid_search_gain_l2(ch, offset=1.0, levels=64)
        assert gain >= grid_best * (1.0 - 1e-9)

    def test_multipath_input_rejected(self):
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=2),
                                     np.random.default_rng(41))
        with pytest.raises(NotRankOne):
            los_optimal_phases_physics(ch)

    @pytest.mark.parametrize("case", ["empty", "empty-cascade", "mixed-shapes", "mixed-depths",
                                      "not-a-link", "not-chaining", "empty-link",
                                      "matrix-cascade", "matrix-links", "bare-cascade"])
    def test_gains_reject_malformed_blocks(self, case):
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=2)
        stream = RandomStream(59, ("los-block",))
        good = draw_los_cascades(dims, 1.0, [stream.child(0), stream.child(1)])
        ch = gaussian_cascade(dims, np.random.default_rng(41))
        block = {
            "empty": lambda: (),
            # stacks of no trials
            "empty-cascade": lambda: draw_los_cascades(dims, 1.0, []),
            # stacks of 2, 1 and 2 trials
            "mixed-shapes": lambda: (good[0], draw_los_cascades(dims, 1.0, [stream])[1], good[2]),
            # one link as 1-D vectors among the stacks, refused where it is built
            "mixed-depths": lambda: (good[0], LosLink(1.0, good[1].a[0], good[1].b[0]), good[2]),
            "not-a-link": lambda: (good[0], good[1].matrix(), good[2]),
            # hop 0 leaves 4 elements, hop 1 arrives at 3
            "not-chaining": lambda: (good[0], LosLink(1.0, np.ones((2, 3)), np.ones((2, 4))),
                                     good[2]),
            "empty-link": lambda: (LosLink(1.0, np.ones((2, 0)), np.ones((2, 0))),),
            # the matrix forms los_gains took before; a multipath cascade is refused too
            "matrix-cascade": lambda: [ch],
            "matrix-links": lambda: ch.hops(),
            "bare-cascade": lambda: ch,
        }[case]
        with pytest.raises(DimensionMismatch):
            los_gains(block())

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_scaled_link_cannot_reach_gains(self, side):
        """Each lam is read as its hop's path gain, so a link whose steering vector is
        doubled would read gains 4x below its assembled channel's (16384 against 65536
        for the widely used gain at l = 2, n_i = 8); it is refused where it is built,
        and the block it came from still reads the assembled gains."""
        dims = Dimensions(n_t=2, n_r=2, n_i=8, l=2)
        stream = RandomStream(83, ("los-scaled",))
        hops = list(draw_los_cascades(dims, 1.0, [stream]))
        vectors = {"a": hops[1].a, "b": hops[1].b}
        vectors[side] = 2.0 * vectors[side]
        with pytest.raises(DimensionMismatch, match="unit modulus"):
            hops[1] = LosLink(hops[1].path_gain, vectors["a"], vectors["b"])
            los_gains(hops)
        [gains] = los_gains(hops)
        expect = los_gains_assembled(gen_cascade(dims, FadingSpec("los"), stream))
        for got, want in zip(gains[:2], expect[:2]):
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_link_cannot_reach_gains(self, bad):
        # a NaN or infinite steering entry reads as such, not as a zero or
        # not-rank-1 matrix once los_gains factors it
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=1)
        hops = list(draw_los_cascades(dims, 1.0, [RandomStream(89, ("los-nan",))]))
        a = hops[0].a.copy()
        a[0, 1] = bad
        with pytest.raises(NonFiniteInput):
            hops[0] = LosLink(hops[0].path_gain, a, hops[0].b)
            los_gains(hops)

    @pytest.mark.parametrize("path_gain", [0.0, 1e-170])
    def test_zero_matrix_links_refused(self, path_gain):
        # a zero path gain, or one whose squared entries underflow, leaves no
        # steering factors to read
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=2)
        with pytest.raises(NotRankOne, match="zero matrix"):
            los_gains(draw_los_cascades(dims, path_gain, [RandomStream(97, ("los-zero",))]))

    @pytest.mark.parametrize("n_i", [2, 128])
    @pytest.mark.parametrize("l", [1, 4])
    def test_gains_do_not_depend_on_the_block(self, l, n_i):
        stream = RandomStream(61, ("los-batch", l, n_i))
        dims = Dimensions(n_t=2, n_r=2, n_i=n_i, l=l)
        streams = [stream.child(t) for t in range(40)]
        gains = los_gains(draw_los_cascades(dims, 0.37, streams))
        assert gains == los_gains(draw_los_cascades(dims, 0.37, streams[::-1]))[::-1]
        assert gains == [los_gains(draw_los_cascades(dims, 0.37, [s]))[0] for s in streams]

    @pytest.mark.parametrize("path_gain", [1.0, 0.37])
    @pytest.mark.parametrize("n_i, l", [(1, 1), (8, 2), (128, 4), (16, 6)])
    def test_widely_used_gain_is_one_closed_form_value(self, n_i, l, path_gain):
        # every trial of a block reads the same widely used gain: the law's, whose
        # path gain is the whole cascade's amplitude, path_gain^(l + 1)
        dims = Dimensions(n_t=3, n_r=2, n_i=n_i, l=l)
        stream = RandomStream(67, ("los-widely", n_i, l))
        gains = los_gains(draw_los_cascades(dims, path_gain, [stream.child(t) for t in range(40)]))
        [widely] = {w for _, w, _ in gains}
        expect = expected_gain_widely_los(n_i, l, 3, 2, path_gain ** (l + 1))
        assert abs(widely - expect) <= 1e-14 * expect

    # every n_i up to 32 at every depth, then the shapes acceptance criteria 4 and 5
    # score through los_gains
    @pytest.mark.parametrize("l, n_i", [*itertools.product([1, 2, 3, 4, 5, 6], [1, 2, 3, 8, 32]),
                                        (4, 16), (4, 128)])
    def test_gains_match_assembled_channels(self, n_i, l):
        # the cross gain is compared on the physics scale: n - s cancels at n_i = 1
        for n_t, n_r in ((2, 2), (1, 3), (3, 1)):
            for path_gain in (1.0, 0.37):
                stream = RandomStream(47, ("los-gains", l, n_i, n_t, n_r, repr(path_gain)))
                for trial in range(2):
                    dims = Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l)
                    ch = gen_cascade(dims, FadingSpec("los", path_gain), stream.child(trial))
                    [(physics, widely, cross)] = los_gains(
                        draw_los_cascades(dims, path_gain, [stream.child(trial)]))
                    expect = los_gains_assembled(ch)
                    assert abs(physics - expect[0]) <= 1e-12 * expect[0]
                    assert abs(widely - expect[1]) <= 1e-12 * expect[1]
                    assert abs(cross - expect[2]) <= 1e-12 * expect[0]

    @pytest.mark.parametrize("log10_gain", [-99.0, 99.0])
    @pytest.mark.parametrize("l, n_i, ends", [(1, 1, 1), (6, 1, 1), (6, 32, 9), (2, 128, 4)])
    def test_gains_keep_their_scale_at_the_window_edges(self, log10_gain, l, n_i, ends):
        # the path gain that puts the spec's gain scale at 10^log10_gain scales the
        # unit-gain trial's physics and widely used optima by path_gain^(2(l+1))
        path_gain = 10 ** ((log10_gain - l * 2 * np.log10(n_i) - np.log10(ends)) / (2 * (l + 1)))
        ExperimentSpec("los", l, n_i, seed=0, trials=1, n_t=ends, n_r=1, path_gain=path_gain)
        dims = Dimensions(n_t=ends, n_r=1, n_i=n_i, l=l)
        stream = RandomStream(53, ("los-scale", l, n_i))
        unit = los_gains(draw_los_cascades(dims, 1.0, [stream]))[0]
        scaled = los_gains(draw_los_cascades(dims, path_gain, [stream]))[0]
        for got, base in zip(scaled[:2], unit[:2]):
            assert got > 0.0 and abs(got / base / path_gain ** (2 * (l + 1)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n_i", [1, 2, 8, 128])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_physics_matches_per_surface_oracle(self, n_i, l):
        stream = RandomStream(43, ("los-oracle", n_i, l))
        for trial in range(3):
            ch = gen_cascade(Dimensions(n_t=2, n_r=3, n_i=n_i, l=l), FadingSpec("los", 0.7),
                             stream.child(trial))
            stack = los_optimal_phases_physics(ch)
            for theta, expect in zip(stack.thetas, los_physics_phases_per_surface(ch),
                                     strict=True):
                assert np.abs(theta - expect).max() <= 1e-12

    def test_physics_matches_oracle_on_all_ones(self):
        ch = ones_cascade(l=3, n_i=4, n_t=2, n_r=2)
        for theta, expect in zip(los_optimal_phases_physics(ch).thetas,
                                 los_physics_phases_per_surface(ch), strict=True):
            assert np.abs(theta - expect).max() <= 1e-12

    def test_orthogonal_steering_factors(self):
        # b^T a = 0: the structural term vanishes, so the physics optimum is the
        # widely used one up to a common phase, and any common phase is optimal
        ch = CascadeChannels(np.array([[1.0, 1.0], [1.0, 1.0]]), (),
                             np.array([[1.0, -1.0], [1.0, -1.0]]))
        _, a, _ = _rank_one_factors(ch.h_it_1)
        _, _, b = _rank_one_factors(ch.h_ri_l)
        assert abs(b @ a) <= 1e-15
        (theta,) = los_optimal_phases_physics(ch).thetas
        assert np.isfinite(theta).all()
        assert np.abs(np.abs(theta) - 1.0).max() <= 1e-15
        gain = channel_gain(assemble_physics_channel(ch, (theta,)))
        expect = 2 * 2 * (abs(b @ a) + 2) ** 2
        assert gain == pytest.approx(expect, rel=1e-12)

    def test_zero_sum_reads_as_phase_zero(self):
        # both sums are exactly zero, so the physics stack is -theta_w
        for widely in ([1.0, -1.0], [1.0, 1j, -1.0, -1j]):
            stack = ScatteringStack("diagonal", (np.array(widely, dtype=complex),))
            (theta,) = _physics_from_widely(stack).thetas
            assert np.array_equal(theta, -stack.thetas[0])


class TestUpperBounds:
    def test_siso_all_ones_physics_bound_attained(self):
        ch = ones_cascade(l=2)
        assert upper_bound_physics(ch) == pytest.approx(16.0, rel=1e-12)
        stack = [np.array([[-1.0 + 0j]])] * 2
        assert channel_gain(assemble_physics_channel(ch, stack)) == pytest.approx(16.0, rel=1e-12)

    def test_two_surface_expansion_value(self):
        # four segment-norm products: |ATBTC| style expansion with unit thetas
        rng = np.random.default_rng(43)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=2), rng)
        a, b, c = ch.h_ri_l, ch.inter[0], ch.h_it_1
        sn = lambda m: np.linalg.svd(m, compute_uv=False)[0]
        expect = (sn(a) * sn(b) * sn(c) + sn(a) * sn(b @ c) +
                  sn(a @ b) * sn(c) + sn(a @ b @ c)) ** 2
        assert upper_bound_physics(ch) == pytest.approx(expect, rel=1e-10)

    def test_widely_bound_is_norm_product(self):
        rng = np.random.default_rng(47)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=3), rng)
        sn = lambda m: np.linalg.svd(m, compute_uv=False)[0]
        expect = (sn(ch.h_ri_l) * sn(ch.inter[0]) * sn(ch.inter[1]) * sn(ch.h_it_1)) ** 2
        assert upper_bound_widely(ch) == pytest.approx(expect, rel=1e-10)

    def test_path_sum_matches_expansion_oracle(self):
        rng = np.random.default_rng(51)
        for l in (1, 2, 3, 4, 5, 6, 17):
            ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=2, l=l), rng)
            expect = upper_bound_physics_expansion(ch)
            assert upper_bound_physics(ch) == pytest.approx(expect, rel=1e-12)

    def test_bounds_hold_for_random_configurations(self):
        rng = np.random.default_rng(53)
        stream = RandomStream(53, ("ub",))
        for trial in range(10):
            dims = Dimensions(n_t=2, n_r=2, n_i=4, l=3)
            ch = gen_cascade(dims, FadingSpec("rayleigh"), stream.child(trial))
            ub_p = upper_bound_physics(ch)
            ub_w = upper_bound_widely(ch)
            thetas = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) for _ in range(3)]
            assert channel_gain(assemble_physics_channel(ch, thetas)) <= ub_p * (1 + 1e-9)
            assert channel_gain(assemble_widely_used(ch, thetas)) <= ub_w * (1 + 1e-9)

    def test_block_pass_matches_scalar_bounds(self):
        """_upper_bounds over a block is, bit for bit and member by member, the
        path-sum and norm-product oracles and the member's own block of one: stacked
        products and stacked norms work member by member, and the widely used bound
        reads the physics pass's own link norms."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.given(st.integers(1, 6), st.integers(1, 12), st.sampled_from((1, 2, 3)),
                   st.sampled_from((1, 2, 3)), st.integers(1, 4), st.data())
        def check(l, n_i, n_t, n_r, size, data):
            dims = Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l)
            stream = RandomStream(data.draw(st.integers(0, 2 ** 32 - 1)), ("block-bounds",))
            chs = [gen_cascade(dims, FadingSpec("rayleigh"), stream.child(b))
                   for b in range(size)]
            # one member has a zero link, so both of its bounds are 0
            member, link = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, l))
            hops = chs[member].hops()
            hops[link] = np.zeros_like(hops[link])
            chs[member] = CascadeChannels(hops[-1], tuple(reversed(hops[1:-1])), hops[0])
            physics, widely = _upper_bounds(_stack_cascades(chs)[0])
            for ch, p, w in zip(chs, physics, widely):
                assert p == upper_bound_physics_path_sum(ch)
                assert w == upper_bound_widely_product(ch) == upper_bound_widely(ch)
                assert _upper_bounds(_stack_cascades([ch])[0]) == ([p], [w])
                assert upper_bound_physics(ch) == p
            assert physics[member] == widely[member] == 0.0

        check()


    def test_widely_bound_reads_only_the_link_norms(self, monkeypatch):
        """upper_bound_widely is the widely used column of the block pass, bit for bit,
        from one stacked LAPACK call per link: no segment product and no segment norm."""
        stream = RandomStream(149, ("widely-links",))
        shapes = [(1, 3, 2, 2), (2, 4, 1, 3), (3, 5, 3, 1), (4, 16, 2, 2), (6, 2, 2, 2)]
        chs = [gen_cascade(Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l), FadingSpec("rayleigh"),
                           stream.child(l, n_i)) for l, n_i, n_t, n_r in shapes]
        svd = np.linalg.svd
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        for ch in chs:
            want = _upper_bounds(_stack_cascades([ch])[0])[1][0]
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "svd", counted)
                got = upper_bound_widely(ch)
            assert got == want
            assert calls == [(1, *h.shape) for h in ch.hops()]


class TestSideLinksRefused:
    """alg1, the upper bounds and the line-of-sight closed forms see only the pure
    cascade, so a cascade carrying side links is refused instead of being optimized
    without its direct and skip paths."""

    @staticmethod
    def _pair(fading):
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=2)
        stream = RandomStream(101, ("sided", fading.kind))
        sided = gen_cascade(dims, fading, stream, include_sides=True)
        return CascadeChannels(sided.h_it_1, sided.inter, sided.h_ri_l), sided

    @pytest.mark.parametrize("entry", ["alg1_optimize", "alg1_batch", "upper_bound_physics",
                                       "upper_bound_widely", "_upper_bounds"])
    def test_multipath_entry_points(self, entry):
        pure, sided = self._pair(FadingSpec("rayleigh"))
        cfg = OptimizerConfig(max_outer_iters=2)
        run = {
            "alg1_optimize": lambda ch: alg1_optimize(ch, cfg),
            # a sided cascade anywhere in a batch
            "alg1_batch": lambda ch: alg1_batch([pure, ch], [cfg, cfg]),
            "upper_bound_physics": upper_bound_physics,
            "upper_bound_widely": upper_bound_widely,
            # the block pass reads stacks, which _stack_cascades builds and checks
            "_upper_bounds": lambda ch: _upper_bounds(_stack_cascades([pure, ch])[0]),
        }[entry]
        run(pure)
        with pytest.raises(AssumptionViolated, match="assumption 6"):
            run(sided)

    @pytest.mark.parametrize("closed_form", [los_optimal_phases_widely,
                                             los_optimal_phases_physics])
    def test_line_of_sight_closed_forms(self, closed_form):
        pure, sided = self._pair(FadingSpec("los"))
        closed_form(pure)
        with pytest.raises(AssumptionViolated, match="assumption 6"):
            closed_form(sided)


class TestOptimizerConfig:
    @pytest.mark.parametrize("change", [
        {"max_outer_iters": 2.5},
        {"max_outer_iters": 0},
        {"max_outer_iters": -10 ** 5000},
        {"max_inner_iters": True},
        {"max_inner_iters": "5"},
        {"rel_tol": "x"},
        {"rel_tol": True},
        {"rel_tol": 0.0},
        {"rel_tol": float("nan")},
        {"rel_tol": float("inf")},
        {"rel_tol": 10 ** 400},
        {"model": "exact"},
        {"architecture": "beyond"},
        {"max_inner_iters": 0},
    ])
    def test_bad_settings_rejected(self, change):
        with pytest.raises(DimensionMismatch):
            OptimizerConfig(**change)

    def test_run_without_stream_draws_the_default_init_stream(self):
        ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=2), FadingSpec("rayleigh"),
                         RandomStream(61, ("cfg",)))
        cfg = OptimizerConfig(max_outer_iters=3)
        default = alg1_optimize(ch, cfg)
        explicit = alg1_optimize(ch, cfg, RandomStream(0, ("alg1-init",)))
        assert default.gain_trace == explicit.gain_trace


class TestAlg1:
    def test_siso_all_ones_reaches_bound(self):
        ch = ones_cascade(l=2)
        cfg = OptimizerConfig(model="physics", architecture="diagonal", rel_tol=1e-10)
        res = alg1_optimize(ch, cfg, RandomStream(59, ("a1",)))
        assert res.gain == pytest.approx(16.0, rel=1e-9)
        assert res.converged

    def test_trace_non_decreasing(self):
        stream = RandomStream(61, ("mono",))
        for trial in range(6):
            ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=5, l=3),
                             FadingSpec("rayleigh"), stream.child("ch", trial))
            for model in ("physics", "widely_used"):
                for arch in ("diagonal", "unitary"):
                    cfg = OptimizerConfig(model=model, architecture=arch)
                    res = alg1_optimize(ch, cfg, stream.child("opt", model, arch, trial))
                    diffs = np.diff(res.gain_trace)
                    assert np.all(diffs >= -1e-9 * max(res.gain, 1.0))

    def test_gain_never_beats_bound(self):
        stream = RandomStream(67, ("bnd",))
        for trial in range(6):
            ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=2),
                             FadingSpec("rayleigh"), stream.child("ch", trial))
            for model, bound in (("physics", upper_bound_physics(ch)),
                                 ("widely_used", upper_bound_widely(ch))):
                cfg = OptimizerConfig(model=model, architecture="unitary")
                res = alg1_optimize(ch, cfg, stream.child("opt", model, trial))
                assert res.gain <= bound * (1 + 1e-9)

    def test_unitary_reaches_widely_bound(self):
        stream = RandomStream(71, ("tight",))
        cfg = OptimizerConfig(model="widely_used", architecture="unitary",
                              rel_tol=1e-12, max_outer_iters=500, max_inner_iters=200)
        for trial in range(5):
            ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=8, l=2),
                             FadingSpec("rayleigh"), stream.child("ch", trial))
            res = alg1_optimize(ch, cfg, stream.child("opt", trial))
            bound = upper_bound_widely(ch)
            assert res.gain >= bound * (1 - 1e-6)
            assert res.gain <= bound * (1 + 1e-9)

    def test_unitary_dominates_diagonal(self):
        stream = RandomStream(73, ("dom",))
        for trial in range(4):
            ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=2),
                             FadingSpec("rayleigh"), stream.child("ch", trial))
            gains = {}
            for arch in ("diagonal", "unitary"):
                cfg = OptimizerConfig(model="physics", architecture=arch, rel_tol=1e-9,
                                      max_outer_iters=200)
                res = best_of_restarts(ch, cfg, stream.child("opt", arch, trial), restarts=3)
                gains[arch] = res.gain
            assert gains["unitary"] >= gains["diagonal"] * (1 - 1e-6)

    def test_los_closed_form_never_beaten(self):
        stream = RandomStream(79, ("loscmp",))
        ch = gen_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=2), FadingSpec("los"),
                         stream.child("ch"))
        closed = channel_gain(assemble_physics_channel(ch, los_optimal_phases_physics(ch)))
        cfg = OptimizerConfig(model="physics", architecture="diagonal", rel_tol=1e-10,
                              max_outer_iters=300)
        best = best_of_restarts(ch, cfg, stream.child("opt"), restarts=10)
        assert best.gain <= closed * (1 + 1e-6)

    def test_stack_architecture_matches_config(self):
        ch = ones_cascade(l=2, n_i=3)
        stream = RandomStream(83, ("arch",))
        res_d = alg1_optimize(ch, OptimizerConfig(model="physics", architecture="diagonal"),
                              stream.child("d"))
        assert res_d.stack.architecture == "diagonal"
        res_u = alg1_optimize(ch, OptimizerConfig(model="widely_used", architecture="unitary"),
                              stream.child("u"))
        assert res_u.stack.architecture == "unitary"

    def test_widely_gain_invariant_under_common_phase(self):
        rng = np.random.default_rng(89)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=2), rng)
        thetas = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) for _ in range(2)]
        rotated = [thetas[0] * np.exp(1j * 0.7), thetas[1]]
        g = channel_gain(assemble_widely_used(ch, thetas))
        g_rot = channel_gain(assemble_widely_used(ch, rotated))
        assert g_rot == pytest.approx(g, rel=1e-10)
        # the physical model has no such invariance
        p = channel_gain(assemble_physics_channel(ch, thetas))
        p_rot = channel_gain(assemble_physics_channel(ch, rotated))
        assert abs(p_rot - p) > 1e-6 * p


class TestPhaseVectorStacks:
    def test_assemblies_match_diagonal_matrices(self):
        """Every diagonal stack alg1 or a line-of-sight closed form returns holds
        phase vectors, and both assemblies of it match the same stack passed as
        np.diag matrices."""
        stream = RandomStream(97, ("phase-vectors",))
        stacks = []
        for l, n_i in ((1, 4), (2, 8), (4, 16)):
            dims = Dimensions(n_t=2, n_r=2, n_i=n_i, l=l)
            ray = gen_cascade(dims, FadingSpec("rayleigh"), stream.child("ray", l))
            for model in ("physics", "widely_used"):
                run = alg1_optimize(ray, OptimizerConfig(model=model),
                                    stream.child("opt", l, model))
                stacks.append((ray, run.stack))
            los = gen_cascade(dims, FadingSpec("los"), stream.child("los", l))
            stacks += [(los, los_optimal_phases_physics(los)),
                       (los, los_optimal_phases_widely(los))]
        for ch, stack in stacks:
            assert stack.architecture == "diagonal"
            assert [theta.shape for theta in stack.thetas] == [(w,) for w in ch.widths()]
            matrices = [np.diag(theta) for theta in stack.thetas]
            for assemble in (assemble_physics_channel, assemble_widely_used):
                h, want = assemble(ch, stack), assemble(ch, matrices)
                assert np.linalg.norm(h - want) <= 1e-13 * np.linalg.norm(want)


class TestAlg1MatchesDenseReference:
    def test_trial_by_trial(self, monkeypatch):
        """Batches, phase vectors, one fold pass per sweep and the LAPACK pair change
        no result.

        One batch per (l, n_i, architecture) mixes both models over three draws;
        members converge at different sweeps, one hits the sweep cap, and every
        unitary batch also carries a member whose fold is identically zero (a
        zero first link). Each member must also match its own batch-of-one run.
        At every position of every sweep, the end links the one-pass fold hands
        out must be exactly fold(...) of the current surfaces.
        """
        positions = []

        def checked_sweep(hops, thetas, offsets):
            for pos, (left, right) in enumerate(sweep_folds(hops, thetas, offsets)):
                want_left, want_right = fold(hops, thetas, offsets, pos)
                assert np.array_equal(left, want_left)
                assert np.array_equal(right, want_right)
                positions.append(pos)
                yield left, right

        monkeypatch.setattr(optimize, "sweep_folds", checked_sweep)
        stream = RandomStream(101, ("batch-reference",))
        sweep_counts, capped, zero_folds = set(), 0, 0
        for l in (1, 2, 3, 4):
            for n_i in (4, 8):
                draws = [_rayleigh(stream.child("ch", l, n_i, s), l, n_i) for s in range(3)]
                for arch in ("diagonal", "unitary"):
                    chs = list(draws)
                    if arch == "unitary":
                        chs.append(CascadeChannels(np.zeros_like(draws[0].h_it_1), draws[0].inter,
                                                   draws[0].h_ri_l))
                    members = [(ch, OptimizerConfig(model=model, architecture=arch),
                                stream.child("opt", l, n_i, arch, k, model))
                               for k, ch in enumerate(chs)
                               for model in ("physics", "widely_used")]
                    runs = alg1_batch(*zip(*members))
                    for (ch, cfg, opt), run in zip(members, runs):
                        ref = alg1_dense_reference(ch, cfg, opt)
                        alone = alg1_optimize(ch, cfg, opt)
                        assert (run.converged, run.iterations) == (ref.converged, ref.iterations)
                        assert (run.converged, run.iterations) == \
                            (alone.converged, alone.iterations)
                        assert abs(run.gain - ref.gain) <= 1e-9 * ref.gain
                        if ref.gain == 0.0:  # an identically zero fold keeps its surfaces
                            for mine, theirs in zip(run.stack.thetas, ref.stack.thetas):
                                assert np.array_equal(mine, theirs)
                        assert abs(run.gain - alone.gain) <= 1e-12 * alone.gain
                        assert np.allclose(run.gain_trace, alone.gain_trace, rtol=1e-12, atol=0)
                        for mine, theirs in zip(run.stack.thetas, alone.stack.thetas):
                            assert np.allclose(mine, theirs, rtol=0, atol=1e-9)
                        assert run.stack.architecture == arch
                        sweep_counts.add(run.iterations)
                        capped += not run.converged
                        zero_folds += run.gain == 0.0
        assert set(positions) == {0, 1, 2, 3}
        assert len(sweep_counts) >= 5
        assert capped > 0
        assert zero_folds == 2 * 8

    @pytest.mark.parametrize("n_r, n_t", [(1, 3), (3, 2)])
    def test_folds_that_are_not_two_by_two(self, n_r, n_t):
        """The diagonal step reshapes its coefficient products to n_r x n_t folds; a
        receive or transmit side of one or three antennas must match the dense
        reference too, for both architectures and both models."""
        stream = RandomStream(113, ("batch-reference-shapes", n_r, n_t))
        dims = [Dimensions(n_t=n_t, n_r=n_r, n_i=n_i, l=l) for l in (1, 2, 3) for n_i in (4, 8)]
        for d in dims:
            draws = [gen_cascade(d, FadingSpec("rayleigh"), stream.child("ch", d.l, d.n_i, s))
                     for s in range(2)]
            for arch in ("diagonal", "unitary"):
                members = [(ch, OptimizerConfig(model=model, architecture=arch),
                            stream.child("opt", d.l, d.n_i, arch, k, model))
                           for k, ch in enumerate(draws)
                           for model in ("physics", "widely_used")]
                runs = alg1_batch(*zip(*members))
                for (ch, cfg, opt), run in zip(members, runs):
                    ref = alg1_dense_reference(ch, cfg, opt)
                    assert (run.converged, run.iterations) == (ref.converged, ref.iterations)
                    assert abs(run.gain - ref.gain) <= 1e-9 * ref.gain


def _rayleigh(stream, l, n_i):
    return gen_cascade(Dimensions(n_t=2, n_r=2, n_i=n_i, l=l), FadingSpec("rayleigh"), stream)


class TestAlg1Batch:
    def test_mismatched_members_rejected(self):
        stream = RandomStream(107, ("batch-mismatch",))
        a, b = _rayleigh(stream.child("a"), 2, 4), _rayleigh(stream.child("b"), 2, 5)
        c = _rayleigh(stream.child("c"), 3, 4)
        diag, unit = OptimizerConfig(), OptimizerConfig(architecture="unitary")
        with pytest.raises(DimensionMismatch):
            alg1_batch([a, b], [diag, diag])
        with pytest.raises(DimensionMismatch):
            alg1_batch([a, c], [diag, diag])
        with pytest.raises(DimensionMismatch):
            alg1_batch([a, a], [diag, unit])
        with pytest.raises(DimensionMismatch):
            alg1_batch([a, a], [diag, OptimizerConfig(max_outer_iters=5)])
        with pytest.raises(DimensionMismatch):
            alg1_batch([a, a], [diag])
        with pytest.raises(DimensionMismatch):
            alg1_batch([], [])

    @pytest.mark.parametrize("arch", ["diagonal", "unitary"])
    def test_batch_composition_does_not_change_results(self, arch):
        """A member's run is bit for bit the same alone, inside a larger batch and
        with that batch permuted: the harness packs the K grid of one (l, n_i) into
        one batch and relies on this for its bytes. The batch mixes both models,
        Rician draws of several K, members that stop at different sweeps and steps,
        and for the unitary architecture a member whose fold is identically zero."""
        stream = RandomStream(137, ("batch-composition",))
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=2)
        chs = [gen_cascade(dims, FadingSpec("rician", 1.0, k), stream.child("ch", s))
               for s, k in enumerate((0.0, 0.0, 1.0, 3.0, 30.0))]
        if arch == "unitary":
            chs.append(CascadeChannels(np.zeros_like(chs[0].h_it_1), chs[0].inter,
                                       chs[0].h_ri_l))
        members = [(ch, OptimizerConfig(model=model, architecture=arch, max_outer_iters=8),
                    stream.child("opt", s, model))
                   for s, ch in enumerate(chs) for model in ("physics", "widely_used")]
        whole = alg1_batch(*zip(*members))
        order = np.random.default_rng(3).permutation(len(members))
        permuted = alg1_batch(*zip(*(members[i] for i in order)))
        by_member = {int(i): run for i, run in zip(order, permuted)}
        for i, member in enumerate(members):
            alone = alg1_batch(*zip(member))[0]
            for run in (whole[i], by_member[i]):
                assert run.gain_trace == alone.gain_trace
                assert (run.converged, run.iterations) == (alone.converged, alone.iterations)
                assert run.stack.architecture == alone.stack.architecture == arch
                for mine, theirs in zip(run.stack.thetas, alone.stack.thetas, strict=True):
                    assert np.array_equal(mine, theirs)
        # members leave the batch at different sweeps, and some hit the cap
        assert len({run.iterations for run in whole}) >= 3
        assert not all(run.converged for run in whole)

    @staticmethod
    def _assert_runs_alone(members, runs):
        for member, run in zip(members, runs, strict=True):
            alone = alg1_batch(*zip(member))[0]
            assert run.gain_trace == alone.gain_trace
            assert (run.converged, run.iterations) == (alone.converged, alone.iterations)
            for mine, theirs in zip(run.stack.thetas, alone.stack.thetas, strict=True):
                assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("arch", ["diagonal", "unitary"])
    def test_shared_cascade_matches_equal_copies(self, arch):
        """Members that share one cascade object share one row of the link stack; the
        same members given one equal copy each, one row each, get the same bits."""
        stream = RandomStream(151, ("shared-stack",))
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=3)
        chs = [gen_cascade(dims, FadingSpec("rician", 1.0, k), stream.child("ch", s))
               for s, k in enumerate((0.0, 3.0))]
        members = [(ch, OptimizerConfig(model=model, architecture=arch, max_outer_iters=8),
                    stream.child("opt", s, model, r))
                   for s, ch in enumerate(chs) for model in ("physics", "widely_used")
                   for r in range(2)]
        shared = alg1_batch(*zip(*members))
        copies = alg1_batch(*zip(*((CascadeChannels.from_hops([h.copy() for h in ch.hops()]),
                                    cfg, opt) for ch, cfg, opt in members)))
        for mine, theirs in zip(shared, copies, strict=True):
            assert mine.gain_trace == theirs.gain_trace
            assert (mine.converged, mine.iterations) == (theirs.converged, theirs.iterations)
            for a, b in zip(mine.stack.thetas, theirs.stack.thetas, strict=True):
                assert np.array_equal(a, b)
        assert len({run.iterations for run in shared}) >= 2

    @pytest.mark.parametrize("arch", ["diagonal", "unitary"])
    def test_uneven_members_per_cascade(self, arch):
        """Cascades with one, two, three and one members, interleaved in the batch, so
        the (trial, slot) layout masks slots from the start and trials leave the stack
        at different sweeps: each member gets its run alone, and the stacked links are
        left as they came."""
        stream = RandomStream(157, ("uneven-stack",))
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=2)
        chs = [gen_cascade(dims, FadingSpec("rician", 1.0, k), stream.child("ch", s))
               for s, k in enumerate((30.0, 1.0, 3.0, 0.0))]
        layout = [(0, "physics"), (1, "widely_used"), (2, "physics"), (1, "physics"),
                  (2, "widely_used"), (3, "widely_used"), (2, "physics")]
        members = [(chs[s], OptimizerConfig(model=model, architecture=arch, max_outer_iters=8),
                    stream.child("opt", i)) for i, (s, model) in enumerate(layout)]
        runs = alg1_batch(*zip(*members))
        self._assert_runs_alone(members, runs)
        assert len({run.iterations for run in runs}) >= 3
        # the first row's trial stops before the last row's, so its row swaps with a
        # running one
        assert runs[0].iterations < runs[5].iterations
        # the core on a stack it did not build: finished trials swap behind running ones,
        # and the swaps are undone before it returns
        links, trials = _stack_cascades(chs)
        before = [link.copy() for link in links]
        cfgs, opts = [m[1] for m in members], [m[2] for m in members]
        stacked = _alg1_stacked(links, [s for s, _ in layout], cfgs, opts)
        assert trials == [0, 1, 2, 3]
        for link, kept in zip(links, before, strict=True):
            assert np.array_equal(link, kept)
        for mine, theirs in zip(stacked, runs, strict=True):
            assert mine.gain_trace == theirs.gain_trace

    def test_best_of_restarts_keeps_the_best_run(self):
        stream = RandomStream(109, ("restarts",))
        ch = _rayleigh(stream.child("ch"), 2, 4)
        cfg = OptimizerConfig(model="physics", rel_tol=1e-9)
        alone = [alg1_optimize(ch, cfg, stream.child("opt").child("restart", r))
                 for r in range(6)]
        gains = [run.gain for run in alone]
        best = best_of_restarts(ch, cfg, stream.child("opt"), restarts=6)
        want = alone[int(np.argmax(gains))]
        assert best.gain == pytest.approx(want.gain, rel=1e-12)
        assert best.gain_trace == pytest.approx(want.gain_trace, rel=1e-12)

    def test_each_visit_reuses_the_pair_of_the_last(self, monkeypatch):
        """A surface visit starts from the pair the previous visit's last step took, so a
        batch takes one initial pair, then one per step: l + 1 stacked pairs for one
        sweep of one step per surface, where restarting every visit would take 2l."""
        l = 3
        stream = RandomStream(127, ("carried-pair",))
        draws = [_rayleigh(stream.child("ch", s), l, 4) for s in range(2)]
        members = [(ch, OptimizerConfig(model=model, architecture=arch, max_outer_iters=1,
                                        max_inner_iters=1),
                    stream.child("opt", s, model))
                   for arch in ("diagonal", "unitary")
                   for s, ch in enumerate(draws) for model in ("physics", "widely_used")]
        top_pairs = optimize._top_pairs
        calls = []

        def counted(h):
            calls.append(len(h))
            return top_pairs(h)

        monkeypatch.setattr(optimize, "_top_pairs", counted)
        for batch in (members[:4], members[4:]):
            calls.clear()
            alg1_batch(*zip(*batch))
            # every call stacks all four members
            assert calls == [4] * (l + 1)

    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    def test_every_consumed_pair_is_checked(self, monkeypatch, bad):
        """The unit check runs once per sweep, on every pair the sweep consumed: the
        initial pair and the pairs carried into later visits. The pair of the run's
        last step is consumed by no step."""
        ch = _rayleigh(RandomStream(131, ("checked-pair",)), 3, 4)
        cfg = OptimizerConfig(max_outer_iters=1, max_inner_iters=1)
        top_pairs = optimize._top_pairs
        calls = []

        def stretched(h):
            gain, u, v = top_pairs(h)
            calls.append(None)
            return (gain, 2.0 * u, v) if len(calls) == bad + 1 else (gain, u, v)

        monkeypatch.setattr(optimize, "_top_pairs", stretched)
        if bad < 3:
            with pytest.raises(DimensionMismatch, match="unit norm"):
                alg1_optimize(ch, cfg, RandomStream(1, ("opt",)))
        else:
            assert alg1_optimize(ch, cfg, RandomStream(1, ("opt",))).gain > 0.0
            assert len(calls) == 4

    @pytest.mark.parametrize("arch", ["diagonal", "unitary"])
    @pytest.mark.parametrize("visit", ["together", "apart", "cap"])
    def test_tune_surface_never_aliases_its_inputs(self, arch, visit):
        """A visit may return its working arrays as they stand, so none of them may be
        an input: the returned stack and pair share no memory with left, right, theta,
        offsets or the carried pair, and none of those is written. Covers a visit whose
        members all stop on the same step (two copies of one member), one whose members
        stop apart (a member with a zero end link stops at once) and one the inner cap
        ends."""
        stream = RandomStream(139, ("no-alias",))
        ch = _rayleigh(stream.child("ch"), 2, 4)
        left, right = ch.h_ri_l @ ch.inter[0], ch.h_it_1
        if visit == "together":
            lefts, cap = [left, left], 50
        elif visit == "apart":
            lefts, cap = [left, np.zeros_like(left)], 50
        else:
            lefts, cap = [left, 2.0 * left], 1
        left, right = np.stack(lefts), np.stack([right, right])
        offsets = np.array([1.0, 1.0]) if visit == "together" else np.array([1.0, 0.0])
        phases = np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (2, 4)))
        if visit == "together":
            phases[1] = phases[0]
        theta = phases if arch == "diagonal" else phases[:, :, None] * np.eye(4)
        pair = _top_pairs(times_factor(left, theta, offsets) @ right)
        inputs = (left, right, theta, offsets, *pair)
        before = [a.copy() for a in inputs]
        steps = []

        def counted(h):
            steps.append(None)
            return _top_pairs(h)

        cfg = OptimizerConfig(architecture=arch, max_inner_iters=cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_top_pairs", counted)
            out, out_pair = _tune_surface(left, right, theta, offsets, pair, cfg, [], [])
        assert {"together": 1 < len(steps) < cap, "apart": 1 < len(steps) < cap,
                "cap": len(steps) == cap}[visit]
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
        for returned in (out, *out_pair):
            assert len(returned) == 2
            for a in inputs:
                assert not np.shares_memory(returned, a)
        if visit == "together":
            assert np.array_equal(out[0], out[1]) and out_pair[0][0] == out_pair[0][1]
        if visit == "apart":
            assert out_pair[0][1] == 0.0
