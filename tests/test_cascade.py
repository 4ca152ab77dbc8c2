"""Scattering-domain assembly: both conventions, full multipath, sectors."""

import numpy as np
import pytest

from conftest import ones_cascade
from multiris.cascade import (
    CascadeChannels,
    MultiSectorSpec,
    ScatteringStack,
    SideLinks,
    SurfaceSectors,
    assemble_full_physics,
    assemble_multisector,
    assemble_physics_channel,
    assemble_widely_used,
    cascade_from_network,
    fold,
)
from multiris.errors import (
    DimensionMismatch,
    MissingSideLinks,
    NonFiniteInput,
    SectorIndexOutOfRange,
)
from multiris.multiport import channel_z_matched, channel_z_pure_cascade, scattering_to_z
from multiris.optimize import channel_gain
from multiris.validation import (
    network_from_cascade,
    random_cascade_channels,
    random_phase_stack,
)
from multiris.multiport import Dimensions


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


class TestScatteringStack:
    def test_diagonal_unit_modulus_enforced(self):
        with pytest.raises(DimensionMismatch):
            ScatteringStack("diagonal", (np.diag([1.0, 0.5]),))

    def test_diagonal_offdiagonal_rejected(self):
        theta = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
        with pytest.raises(DimensionMismatch):
            ScatteringStack("diagonal", (theta,))

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
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        ScatteringStack("unitary", (q,))

    def test_non_finite_rejected(self):
        theta = np.diag([1.0, np.nan]).astype(complex)
        with pytest.raises(NonFiniteInput):
            ScatteringStack("diagonal", (theta,))


class TestCascadeChannels:
    def test_chain_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            CascadeChannels(np.ones((4, 2)), (np.ones((4, 3)),), np.ones((2, 4)))

    def test_width_bookkeeping(self):
        ch = CascadeChannels(np.ones((4, 2)), (np.ones((3, 4)),), np.ones((2, 3)))
        assert ch.widths() == (4, 3)
        assert ch.n_t == 2 and ch.n_r == 2 and ch.n_l == 2

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        dims = Dimensions(n_t=2, n_r=2, n_i=3, l=3)
        ch = random_cascade_channels(dims, rng, include_sides=True)
        back = CascadeChannels.from_json(ch.to_json())
        assert rel_err(back.h_it_1, ch.h_it_1) == 0.0
        assert all(rel_err(a, b) == 0.0 for a, b in zip(back.inter, ch.inter))
        assert rel_err(back.sides.h_rt, ch.sides.h_rt) == 0.0

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
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=4, l=3), rng)
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
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=3, l=2), rng)
        stack = random_phase_stack((3, 3), rng)
        t1, t2 = stack.thetas
        a, b, c = ch.h_ri_l, ch.inter[0], ch.h_it_1
        h = assemble_physics_channel(ch, stack)
        h_prime = assemble_widely_used(ch, stack)
        structural = -a @ t2 @ b @ c - a @ b @ t1 @ c + a @ b @ c
        assert rel_err(h, h_prime + structural) < 1e-13

    def test_matches_impedance_pure_cascade(self):
        rng = np.random.default_rng(17)
        for l in (1, 2, 3):
            ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=3, l=l), rng)
            net = network_from_cascade(ch)
            stack = random_phase_stack((3,) * l, rng)
            loads = [scattering_to_z(t, net.z0) for t in stack.thetas]
            h_z = channel_z_pure_cascade(net, loads)
            h_s = assemble_physics_channel(cascade_from_network(net), stack)
            assert rel_err(h_z, h_s) < 1e-12

    def test_fold_reassembles_channel(self):
        rng = np.random.default_rng(19)
        for l in (1, 2, 3, 4):
            ch = random_cascade_channels(Dimensions(n_t=2, n_r=3, n_i=4, l=l), rng)
            diag = random_phase_stack((4,) * l, rng).thetas
            unit = tuple(np.linalg.qr(rng.standard_normal((4, 4)) +
                                      1j * rng.standard_normal((4, 4)))[0] for _ in range(l))
            for thetas in (diag, unit):
                for offset, assemble in ((1.0, assemble_physics_channel),
                                         (0.0, assemble_widely_used)):
                    whole = assemble(ch, thetas)
                    for pos in range(l):
                        left, right = fold(ch, thetas, [offset] * l, pos)
                        h = left @ (thetas[pos] - offset * np.eye(4)) @ right
                        assert rel_err(h, whole) < 1e-12

    def test_theta_count_checked(self):
        ch = ones_cascade(l=2)
        with pytest.raises(DimensionMismatch):
            assemble_physics_channel(ch, [np.eye(1)])

    def test_theta_width_checked(self):
        ch = ones_cascade(l=2, n_i=3)
        with pytest.raises(DimensionMismatch):
            assemble_physics_channel(ch, [np.eye(3), np.eye(2)])


class TestFullMultipath:
    def test_requires_side_links(self):
        ch = ones_cascade(l=2)
        with pytest.raises(MissingSideLinks):
            assemble_full_physics(ch, [np.eye(1)] * 2)

    def test_term_enumeration_and_count(self):
        # the assembly must equal the explicit path sum, which has 1 + l(l+1)/2 terms
        rng = np.random.default_rng(19)
        l = 4
        dims = Dimensions(n_t=2, n_r=2, n_i=3, l=l)
        ch = random_cascade_channels(dims, rng, include_sides=True)
        stack = random_phase_stack((3,) * l, rng)
        thetas = stack.thetas
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
        assert rel_err(assemble_full_physics(ch, stack), sum(terms)) < 1e-12

    def test_matches_impedance_matched_model(self):
        rng = np.random.default_rng(29)
        for l in (2, 3):
            dims = Dimensions(n_t=2, n_r=2, n_i=3, l=l)
            ch = random_cascade_channels(dims, rng, include_sides=True)
            net = network_from_cascade(ch)
            stack = random_phase_stack((3,) * l, rng)
            loads = [scattering_to_z(t, net.z0) for t in stack.thetas]
            h_z = channel_z_matched(net, loads)
            h_s = assemble_full_physics(cascade_from_network(net), stack)
            assert rel_err(h_z, h_s) < 1e-12

    def test_reduces_to_pure_cascade_when_sides_vanish(self):
        rng = np.random.default_rng(31)
        dims = Dimensions(n_t=2, n_r=2, n_i=3, l=3)
        ch = random_cascade_channels(dims, rng)
        from multiris.cascade import SideLinks
        zero_sides = SideLinks(np.zeros((2, 2)),
                               tuple(np.zeros((2, 3)) for _ in range(2)),
                               tuple(np.zeros((3, 2)) for _ in range(2)))
        ch_sided = CascadeChannels(ch.h_it_1, ch.inter, ch.h_ri_l, zero_sides)
        stack = random_phase_stack((3, 3, 3), rng)
        assert rel_err(assemble_full_physics(ch_sided, stack),
                       assemble_physics_channel(ch, stack)) < 1e-13


class TestMultiSector:
    def test_sector_index_validation(self):
        with pytest.raises(SectorIndexOutOfRange):
            SurfaceSectors(2, arrival=3, departure=1)
        with pytest.raises(SectorIndexOutOfRange):
            SurfaceSectors(2, arrival=0, departure=1)

    def test_divisibility_checked(self):
        with pytest.raises(DimensionMismatch):
            MultiSectorSpec(7, (SurfaceSectors(2, 1, 1),))

    def test_all_reflective_matches_physics(self):
        rng = np.random.default_rng(37)
        spec = MultiSectorSpec(4, tuple(SurfaceSectors(1, 1, 1) for _ in range(3)))
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=4, l=3), rng)
        stack = random_phase_stack((4, 4, 4), rng)
        assert rel_err(assemble_multisector(ch, stack, spec),
                       assemble_physics_channel(ch, stack)) == 0.0

    def test_all_transmissive_matches_widely_used(self):
        rng = np.random.default_rng(41)
        spec = MultiSectorSpec(8, tuple(SurfaceSectors(2, 1, 2) for _ in range(2)))
        widths = tuple(spec.reduced_width(k) for k in range(2))
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=widths[0], l=2), rng)
        stack = random_phase_stack(widths, rng)
        assert rel_err(assemble_multisector(ch, stack, spec),
                       assemble_widely_used(ch, stack)) == 0.0

    def test_mixed_uses_hand_formula(self):
        # surface 1 reflective (delta 1), surface 2 transmissive (delta 0)
        rng = np.random.default_rng(43)
        spec = MultiSectorSpec(4, (SurfaceSectors(2, 2, 2), SurfaceSectors(2, 1, 2)))
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=2, l=2), rng)
        stack = random_phase_stack((2, 2), rng)
        t1, t2 = stack.thetas
        expect = ch.h_ri_l @ t2 @ ch.inter[0] @ (t1 - np.eye(2)) @ ch.h_it_1
        assert rel_err(assemble_multisector(ch, stack, spec), expect) < 1e-13

    def test_reduced_width_mismatch_rejected(self):
        rng = np.random.default_rng(47)
        spec = MultiSectorSpec(8, (SurfaceSectors(2, 1, 1),))
        ch = random_cascade_channels(Dimensions(n_t=2, n_r=2, n_i=3, l=1), rng)
        with pytest.raises(DimensionMismatch):
            assemble_multisector(ch, random_phase_stack((3,), rng), spec)
