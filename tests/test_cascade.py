"""Scattering-domain assembly: both conventions, full multipath, per-surface offsets."""

import numpy as np
import pytest

from conftest import (
    dense_cascade,
    draw_los_link,
    fold,
    full_physics_pairwise,
    gaussian_cascade,
    network_from_cascade,
    ones_cascade,
    random_phase_stack,
)
from multiris.cascade import (
    CascadeChannels,
    ScatteringStack,
    SideLinks,
    assemble,
    assemble_physics_channel,
    assemble_widely_used,
    cascade_from_network,
    sweep_folds,
)
from multiris.errors import DimensionMismatch, NonFiniteInput
from multiris.multiport import (
    Dimensions,
    RisLoadStack,
    channel_z,
    scattering_to_z,
)
from multiris.optimize import InnerProblemData, channel_gain
from multiris.rng import RandomStream


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


class TestScatteringStack:
    """Diagonal surfaces come in as a phase vector or a diagonal matrix and are
    stored as the phase vector."""

    def test_diagonal_unit_modulus_enforced(self):
        for theta in (np.diag([1.0, 0.5]), np.array([1.0, 0.5])):
            with pytest.raises(DimensionMismatch):
                ScatteringStack("diagonal", (theta,))

    def test_diagonal_offdiagonal_rejected(self):
        theta = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
        with pytest.raises(DimensionMismatch):
            ScatteringStack("diagonal", (theta,))

    @pytest.mark.parametrize("architecture, theta", [
        ("diagonal", np.array(1.0)),
        ("diagonal", np.ones((2, 2, 2))),
        ("diagonal", np.ones((2, 3))),
        ("unitary", np.ones(2)),
        ("unitary", np.ones((2, 3))),
    ])
    def test_wrong_ndim_or_shape_rejected(self, architecture, theta):
        with pytest.raises(DimensionMismatch):
            ScatteringStack(architecture, (theta,))

    def test_unitary_enforced(self):
        with pytest.raises(DimensionMismatch):
            ScatteringStack("unitary", (np.array([[1.0, 0.0], [0.0, 2.0]]),))

    def test_unknown_architecture(self):
        with pytest.raises(DimensionMismatch):
            ScatteringStack("tree", (np.eye(2),))

    def test_valid_stacks_accepted(self):
        rng = np.random.default_rng(3)
        diag = random_phase_stack((4, 4), rng)
        assert diag.l == 2
        assert all(theta.shape == (4,) for theta in diag.thetas)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        ScatteringStack("unitary", (q,))

    def test_non_finite_rejected(self):
        for theta in (np.diag([1.0, np.nan]), np.array([1.0, np.nan])):
            with pytest.raises(NonFiniteInput):
                ScatteringStack("diagonal", (theta.astype(complex),))

    def test_matrix_and_its_diagonal_give_equal_thetas(self):
        phases = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 5))
        from_matrix = ScatteringStack("diagonal", (np.diag(phases),))
        from_vector = ScatteringStack("diagonal", (phases,))
        assert from_matrix.thetas[0].shape == (5,)
        assert np.array_equal(from_matrix.thetas[0], from_vector.thetas[0])


class TestCascadeChannels:
    def test_chain_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            CascadeChannels(np.ones((4, 2)), (np.ones((4, 3)),), np.ones((2, 4)))

    def test_width_bookkeeping(self):
        ch = CascadeChannels(np.ones((4, 2)), (np.ones((3, 4)),), np.ones((2, 3)))
        assert ch.widths() == (4, 3)
        assert ch.n_t == 2 and ch.n_r == 2 and ch.n_l == 2

    def test_equality_and_hash_are_by_identity(self):
        # array fields cannot be compared or hashed by value, so these classes don't try
        rng = np.random.default_rng(41)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=2), rng, include_sides=True)
        twin = CascadeChannels(ch.h_it_1.copy(), tuple(m.copy() for m in ch.inter),
                               ch.h_ri_l.copy(), ch.sides)
        assert ch == ch and ch != twin
        stack = random_phase_stack((3, 3), rng)
        net = network_from_cascade(ch)
        others = (RisLoadStack((np.eye(3),)), draw_los_link(3, 2, 1.0, RandomStream(1)),
                  InnerProblemData(0j, np.ones(3), np.ones(3), np.eye(2)[0], np.eye(2)[0]))
        for obj in (ch, ch.sides, stack, net, *others):
            assert hash(obj) == hash(obj) and obj == obj
        assert {ch: 1, twin: 2}[twin] == 2

    def test_non_finite_rejected(self):
        inter = np.ones((4, 4))
        inter[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            CascadeChannels(np.ones((4, 2)), (inter,), np.ones((2, 4)))

    def test_side_links_non_finite_rejected(self):
        h_rt = np.ones((2, 2), dtype=complex)
        h_rt[0, 0] = complex(0.0, np.inf)
        with pytest.raises(NonFiniteInput):
            SideLinks(h_rt, (np.ones((2, 4)),), (np.ones((4, 2)),))


class TestPureCascadeAssembly:
    def test_identity_zeroes_physics_exactly(self):
        rng = np.random.default_rng(9)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=3), rng)
        h = assemble_physics_channel(ch, [np.eye(4)] * 3)
        assert np.all(h == 0.0)

    def test_siso_all_ones_physics(self):
        # two 1-element surfaces at theta = pi: each factor is -2, channel 4, gain 16
        ch = ones_cascade(l=2)
        stack = [np.array([[np.exp(1j * np.pi)]])] * 2
        h = assemble_physics_channel(ch, stack)
        assert h.shape == (1, 1)
        assert abs(h[0, 0] - 4.0) < 1e-12
        assert channel_gain(h) == pytest.approx(16.0, rel=1e-12)

    def test_siso_all_ones_widely(self):
        ch = ones_cascade(l=2)
        stack = [np.array([[np.exp(1j * np.pi)]])] * 2
        h = assemble_widely_used(ch, stack)
        assert abs(h[0, 0] - 1.0) < 1e-12
        assert channel_gain(h) == pytest.approx(1.0, rel=1e-12)

    def test_two_surface_expansion_identity(self):
        # H - H' = -A T2 B C - A B T1 C + A B C  with A,B,C the hop links
        rng = np.random.default_rng(13)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=2), rng)
        stack = random_phase_stack((3, 3), rng)
        t1, t2 = (np.diag(t) for t in stack.thetas)
        a, b, c = ch.h_ri_l, ch.inter[0], ch.h_it_1
        h = assemble_physics_channel(ch, stack)
        h_prime = assemble_widely_used(ch, stack)
        structural = -a @ t2 @ b @ c - a @ b @ t1 @ c + a @ b @ c
        assert rel_err(h, h_prime + structural) < 1e-13

    def test_matches_impedance_pure_cascade(self):
        rng = np.random.default_rng(17)
        for l in (1, 2, 3):
            ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=l), rng)
            net = network_from_cascade(ch)
            stack = random_phase_stack((3,) * l, rng)
            loads = [scattering_to_z(np.diag(t), net.z0) for t in stack.thetas]
            h_z = channel_z(net, loads)
            h_s = assemble_physics_channel(cascade_from_network(net), stack)
            assert rel_err(h_z, h_s) < 1e-12

    def test_fold_reassembles_channel(self):
        rng = np.random.default_rng(19)
        for l in (1, 2, 3, 4):
            ch = gaussian_cascade(Dimensions(n_t=2, n_r=3, n_i=4, l=l), rng)
            diag = random_phase_stack((4,) * l, rng).thetas
            unit = tuple(np.linalg.qr(rng.standard_normal((4, 4)) +
                                      1j * rng.standard_normal((4, 4)))[0] for _ in range(l))
            for thetas, matrices in ((diag, [np.diag(t) for t in diag]), (unit, unit)):
                for offset, assemble in ((1.0, assemble_physics_channel),
                                         (0.0, assemble_widely_used)):
                    whole = assemble(ch, thetas)
                    for pos in range(l):
                        left, right = fold(ch.hops(), thetas, [offset] * l, pos)
                        h = left @ (matrices[pos] - offset * np.eye(4)) @ right
                        assert rel_err(h, whole) < 1e-12

    def test_sweep_folds_on_stacked_hops(self):
        """On a stacked hop list with one d per member, every (left, right) that
        sweep_folds yields is, exactly, the fold oracle on that member's own hops."""
        rng = np.random.default_rng(23)
        for l in (1, 2, 3, 4):
            for count in (2, 3):
                chs = [gaussian_cascade(Dimensions(n_t=2, n_r=3, n_i=4, l=l), rng)
                       for _ in range(count)]
                hops = [np.stack(h) for h in zip(*(ch.hops() for ch in chs))]
                offsets = np.array([1.0, 0.0, 1.0][:count])
                diag = [np.stack(t) for t in zip(*(random_phase_stack((4,) * l, rng).thetas
                                                   for _ in range(count)))]
                unit = [np.linalg.qr(rng.standard_normal((count, 4, 4)) +
                                     1j * rng.standard_normal((count, 4, 4)))[0]
                        for _ in range(l)]
                for thetas in (diag, unit):
                    folds = list(sweep_folds(hops, thetas, [offsets] * l))
                    assert len(folds) == l
                    for pos, (left, right) in enumerate(folds):
                        for b, ch in enumerate(chs):
                            want_left, want_right = fold(ch.hops(), [t[b] for t in thetas],
                                                         [offsets[b]] * l, pos)
                            assert np.array_equal(left[b], want_left)
                            assert np.array_equal(right[b], want_right)

    def test_theta_count_checked(self):
        ch = ones_cascade(l=2)
        with pytest.raises(DimensionMismatch):
            assemble_physics_channel(ch, [np.eye(1)])

    def test_theta_width_checked(self):
        ch = ones_cascade(l=2, n_i=3)
        with pytest.raises(DimensionMismatch):
            assemble_physics_channel(ch, [np.eye(3), np.eye(2)])
        with pytest.raises(DimensionMismatch):
            assemble_physics_channel(ch, [np.ones(3), np.ones(2)])
        with pytest.raises(DimensionMismatch):
            assemble_physics_channel(ch, [np.ones(3), np.ones((3, 3, 3))])

    @pytest.mark.parametrize("bad", [np.array([1.0, np.nan, 1.0]), np.diag([1.0, np.inf, 1.0])])
    def test_theta_non_finite_rejected(self, bad):
        ch = ones_cascade(l=2, n_i=3)
        with pytest.raises(NonFiniteInput):
            assemble_widely_used(ch, [np.ones(3), bad])


class TestFullMultipath:
    """assemble on a cascade that carries side links sums its direct and skip paths."""

    def test_term_enumeration_and_count(self):
        # the assembly must equal the explicit path sum, which has 1 + l(l+1)/2 terms
        rng = np.random.default_rng(19)
        l = 4
        dims = Dimensions(n_t=2, n_r=2, n_i=3, l=l)
        ch = gaussian_cascade(dims, rng, include_sides=True)
        stack = random_phase_stack((3,) * l, rng)
        thetas = [np.diag(t) for t in stack.thetas]
        out_links = list(ch.sides.h_ri) + [ch.h_ri_l]
        in_links = [ch.h_it_1] + list(ch.sides.h_it)
        eye = np.eye(3)

        terms = [ch.sides.h_rt]
        for k in range(l):
            terms.append(out_links[k] @ (thetas[k] - eye) @ in_links[k])
        for top in range(1, l):
            for k in range(top):
                acc = out_links[top] @ (thetas[top] - eye)
                for p in range(top - 1, k - 1, -1):
                    acc = acc @ ch.inter[p] @ (thetas[p] - eye)
                terms.append(acc @ in_links[k])
        assert len(terms) == 1 + l * (l + 1) // 2 == 11
        assert rel_err(assemble_physics_channel(ch, stack), sum(terms)) < 1e-12

    @pytest.mark.parametrize("architecture", ["diagonal", "unitary"])
    def test_one_pass_matches_pairwise_sum(self, architecture):
        rng = np.random.default_rng(37)
        for l in range(1, 6):
            ch = gaussian_cascade(Dimensions(n_t=2, n_r=3, n_i=4, l=l), rng, include_sides=True)
            if architecture == "diagonal":
                stack = random_phase_stack((4,) * l, rng)
            else:
                gauss = rng.normal(size=(l, 4, 4)) + 1j * rng.normal(size=(l, 4, 4))
                stack = ScatteringStack("unitary", tuple(np.linalg.qr(gauss)[0]))
            assert rel_err(assemble_physics_channel(ch, stack),
                           full_physics_pairwise(ch, stack)) < 1e-12

    @pytest.mark.parametrize("offsets", [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)],
                             ids=["widely", "mixed-1010", "mixed-0110"])
    def test_any_offsets_match_pairwise_sum(self, offsets):
        # the direct and skip paths are summed whatever each surface's offset
        rng = np.random.default_rng(53)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=3, n_i=4, l=4), rng, include_sides=True)
        stack = random_phase_stack((4,) * 4, rng)
        want = full_physics_pairwise(ch, stack, offsets)
        pure = CascadeChannels(ch.h_it_1, ch.inter, ch.h_ri_l)
        assert rel_err(assemble(pure, stack, offsets), want) > 1e-3
        assert rel_err(assemble(ch, stack, offsets), want) < 1e-12
        if offsets == (0, 0, 0, 0):
            assert rel_err(assemble_widely_used(ch, stack), want) < 1e-12

    def test_matches_impedance_matched_model(self):
        rng = np.random.default_rng(29)
        for l in (2, 3):
            dims = Dimensions(n_t=2, n_r=2, n_i=3, l=l)
            ch = gaussian_cascade(dims, rng, include_sides=True)
            net = network_from_cascade(ch)
            stack = random_phase_stack((3,) * l, rng)
            loads = [scattering_to_z(np.diag(t), net.z0) for t in stack.thetas]
            h_z = channel_z(net, loads)
            h_s = assemble_physics_channel(cascade_from_network(net), stack)
            assert rel_err(h_z, h_s) < 1e-12

    def test_reduces_to_pure_cascade_when_sides_vanish(self):
        rng = np.random.default_rng(31)
        dims = Dimensions(n_t=2, n_r=2, n_i=3, l=3)
        ch = gaussian_cascade(dims, rng)
        from multiris.cascade import SideLinks
        zero_sides = SideLinks(np.zeros((2, 2)),
                               tuple(np.zeros((2, 3)) for _ in range(2)),
                               tuple(np.zeros((3, 2)) for _ in range(2)))
        ch_sided = CascadeChannels(ch.h_it_1, ch.inter, ch.h_ri_l, zero_sides)
        stack = random_phase_stack((3, 3, 3), rng)
        assert rel_err(assemble_physics_channel(ch_sided, stack),
                       assemble_physics_channel(ch, stack)) < 1e-13


class TestMultiSector:
    """A sectored surface used reflectively keeps its structural term (offset 1),
    one used transmissively contributes bare Theta (offset 0)."""

    def test_all_reflective_matches_physics(self):
        rng = np.random.default_rng(37)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=3), rng)
        stack = random_phase_stack((4, 4, 4), rng)
        assert rel_err(assemble_physics_channel(ch, stack),
                       dense_cascade(ch, stack.thetas, [1, 1, 1])) < 1e-13

    def test_all_transmissive_matches_widely_used(self):
        rng = np.random.default_rng(41)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=4, l=2), rng)
        stack = random_phase_stack((4, 4), rng)
        assert rel_err(assemble_widely_used(ch, stack),
                       dense_cascade(ch, stack.thetas, [0, 0])) < 1e-13

    def test_mixed_uses_hand_formula(self):
        # surface 1 reflective (offset 1), surface 2 transmissive (offset 0)
        rng = np.random.default_rng(43)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=2, l=2), rng)
        stack = random_phase_stack((2, 2), rng)
        t1, t2 = (np.diag(t) for t in stack.thetas)
        expect = ch.h_ri_l @ t2 @ ch.inter[0] @ (t1 - np.eye(2)) @ ch.h_it_1
        assert rel_err(assemble(ch, stack, [1, 0]), expect) < 1e-13
        assert rel_err(dense_cascade(ch, stack.thetas, [1, 0]), expect) < 1e-13

    def test_reduced_width_mismatch_rejected(self):
        # one offset per surface, each exactly 0 or 1
        rng = np.random.default_rng(47)
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=3, l=2), rng)
        stack = random_phase_stack((3, 3), rng)
        for offsets in ([1], [1, 0, 1], [1, 0.5], [np.nan, 1]):
            with pytest.raises(DimensionMismatch, match="offsets"):
                assemble(ch, stack, offsets)
