"""Optimizer: spectral primitives, inner solvers, closed forms, bounds, alg1."""

import numpy as np
import pytest

from conftest import grid_search_gain_l2, ones_cascade, upper_bound_physics_expansion
from multiris.cascade import (
    CascadeChannels,
    assemble_physics_channel,
    assemble_widely_used,
)
from multiris.errors import DimensionMismatch, NotRankOne, ZeroVector
from multiris.fading import FadingSpec, draw_los_link, gen_cascade
from multiris.multiport import Dimensions
from multiris.optimize import (
    InnerProblemData,
    OptimizerConfig,
    alg1_optimize,
    best_of_restarts,
    channel_gain,
    dominant_singular_pair,
    inner_objective,
    inner_solve_diagonal,
    inner_solve_unitary,
    los_optimal_phases_physics,
    los_optimal_phases_widely,
    spectral_norm,
    upper_bound_physics,
    upper_bound_widely,
)
from multiris.optimize import _rank_one_factors
from multiris.rng import RandomStream
from multiris.validation import random_cascade_channels


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


class TestRankOneFactors:
    def test_recovers_steering_product(self):
        link = draw_los_link(5, 3, 1.7, RandomStream(7, ("r1",)))
        lam, a, b = _rank_one_factors(link.matrix())
        assert lam == pytest.approx(1.7, rel=1e-10)
        assert np.linalg.norm(lam * np.outer(a, b) - link.matrix()) < 1e-10

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


class TestInnerSolvers:
    def test_hand_value_diagonal(self):
        # g_rt = -1, g_ri = g_it = [1, 1]: phases pi, value (1 + 2)^2 = 9
        u = np.array([1.0 + 0j])
        data = InnerProblemData(-1.0 + 0j, np.ones(2, dtype=complex),
                                np.ones(2, dtype=complex), u, u)
        theta = inner_solve_diagonal(data)
        assert np.allclose(np.diag(theta), -1.0)
        assert inner_objective(data, theta) == pytest.approx(9.0, rel=1e-12)

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
        data = InnerProblemData(0j, np.ones(3, dtype=complex), np.ones(3, dtype=complex), u, u)
        value = inner_objective(data, inner_solve_diagonal(data))
        assert value == pytest.approx(9.0, rel=1e-12)

    def test_unitary_attains_cauchy_schwarz_value(self):
        rng = np.random.default_rng(19)
        u = np.array([1.0 + 0j])
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g_ri = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g_it = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g_rt = complex(rng.standard_normal() + 1j * rng.standard_normal())
            data = InnerProblemData(g_rt, g_ri, g_it, u, u)
            theta = inner_solve_unitary(data)
            assert np.abs(theta.conj().T @ theta - np.eye(n)).max() < 1e-12
            expect = (abs(g_rt) + np.linalg.norm(g_ri) * np.linalg.norm(g_it)) ** 2
            assert inner_objective(data, theta) == pytest.approx(expect, rel=1e-10)

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


class TestLosClosedForms:
    def test_all_ones_physics_phases(self):
        # all phases zero: optimum is theta = pi everywhere, |K| = n + |c| = 2n
        ch = ones_cascade(l=2, n_i=3)
        stack = los_optimal_phases_physics(ch)
        for theta in stack.thetas:
            assert np.allclose(np.diag(theta), -1.0)
        gain = channel_gain(assemble_physics_channel(ch, stack))
        assert gain == pytest.approx((6.0 ** 2) ** 2, rel=1e-12)

    def test_physics_gain_matches_per_draw_formula(self):
        n_i, l, n_t, n_r = 8, 3, 2, 2
        shapes = [(n_i, n_t)] + [(n_i, n_i)] * (l - 1) + [(n_r, n_i)]
        stream = RandomStream(29, ("losopt",))
        for trial in range(100):
            sub = stream.child(trial)
            links = [draw_los_link(r, c, 1.0, sub.child(k)) for k, (r, c) in enumerate(shapes)]
            ch = CascadeChannels(links[0].matrix(), tuple(m.matrix() for m in links[1:-1]),
                                 links[-1].matrix())
            gain = channel_gain(assemble_physics_channel(ch, los_optimal_phases_physics(ch)))
            expect = float(n_r * n_t)
            for k in range(l):
                c = links[k + 1].b @ links[k].a
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
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=4, l=2),
                                     np.random.default_rng(41))
        with pytest.raises(NotRankOne):
            los_optimal_phases_physics(ch)


class TestUpperBounds:
    def test_siso_all_ones_physics_bound_attained(self):
        ch = ones_cascade(l=2)
        assert upper_bound_physics(ch) == pytest.approx(16.0, rel=1e-12)
        stack = [np.array([[-1.0 + 0j]])] * 2
        assert channel_gain(assemble_physics_channel(ch, stack)) == pytest.approx(16.0, rel=1e-12)

    def test_two_surface_expansion_value(self):
        # four segment-norm products: |ATBTC| style expansion with unit thetas
        rng = np.random.default_rng(43)
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=3, l=2), rng)
        a, b, c = ch.h_ri_l, ch.inter[0], ch.h_it_1
        sn = lambda m: np.linalg.svd(m, compute_uv=False)[0]
        expect = (sn(a) * sn(b) * sn(c) + sn(a) * sn(b @ c) +
                  sn(a @ b) * sn(c) + sn(a @ b @ c)) ** 2
        assert upper_bound_physics(ch) == pytest.approx(expect, rel=1e-10)

    def test_widely_bound_is_norm_product(self):
        rng = np.random.default_rng(47)
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=3, l=3), rng)
        sn = lambda m: np.linalg.svd(m, compute_uv=False)[0]
        expect = (sn(ch.h_ri_l) * sn(ch.inter[0]) * sn(ch.inter[1]) * sn(ch.h_it_1)) ** 2
        assert upper_bound_widely(ch) == pytest.approx(expect, rel=1e-10)

    def test_path_sum_matches_expansion_oracle(self):
        rng = np.random.default_rng(51)
        for l in (1, 2, 3, 4, 5, 6, 17):
            ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=2, l=l), rng)
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

    def test_identity_init_supported(self):
        ch = ones_cascade(l=2, n_i=2)
        cfg = OptimizerConfig(model="widely_used", architecture="diagonal", init="identity")
        res = alg1_optimize(ch, cfg)
        assert res.gain == pytest.approx(upper_bound_widely(ch), rel=1e-6)

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
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=4, l=2), rng)
        thetas = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) for _ in range(2)]
        rotated = [thetas[0] * np.exp(1j * 0.7), thetas[1]]
        g = channel_gain(assemble_widely_used(ch, thetas))
        g_rot = channel_gain(assemble_widely_used(ch, rotated))
        assert g_rot == pytest.approx(g, rel=1e-10)
        # the physical model has no such invariance
        p = channel_gain(assemble_physics_channel(ch, thetas))
        p_rot = channel_gain(assemble_physics_channel(ch, rotated))
        assert abs(p_rot - p) > 1e-6 * p
