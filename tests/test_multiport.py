"""Impedance-domain core: the channel, its dense and structured-inverse oracles, conversions."""

import numpy as np
import pytest

from conftest import (
    assemble_block_bidiagonal,
    bidiagonal_instance,
    block_subdiagonal_inverse,
    channel_z_dense,
    gaussian_cascade,
    network_from_cascade,
    random_diagonal_lossless_loads,
    random_full_lossless_loads,
)
from multiris.cascade import cascade_from_network
from multiris.errors import (
    AssumptionViolated,
    DimensionMismatch,
    NonFiniteInput,
    OpenCircuitSingularity,
    SingularDiagonalBlock,
    SingularMatrix,
)
from multiris.multiport import (
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
    _between_end_arrays,
    _cascade_sum,
    channel_z,
    normalize_z_to_channel,
    scattering_to_z,
    z_to_scattering,
)


def rel_err(a, b):
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


class TestDimensions:
    def test_port_count(self):
        d = Dimensions(n_t=2, n_r=3, n_i=4, l=2)
        assert d.n_ports == 2 + 8 + 3

    @pytest.mark.parametrize("bad", [dict(n_t=0), dict(n_r=-1), dict(n_i=0), dict(l=0),
                                     dict(n_t=True), dict(n_i=2.0), dict(l=-10 ** 5000)])
    def test_rejects_nonpositive(self, bad):
        kwargs = dict(n_t=1, n_r=1, n_i=1, l=1)
        kwargs.update(bad)
        with pytest.raises(DimensionMismatch):
            Dimensions(**kwargs)

    @pytest.mark.parametrize("dims", [Dimensions(1, 1, 1, 1), Dimensions(2, 3, 4, 2),
                                      Dimensions(3, 1, 2, 5), Dimensions(1, 4, 7, 3)],
                             ids=repr)
    def test_ports_tile_in_order(self, dims):
        index = range(dims.n_ports)
        rows = [list(index[dims.ports(g)]) for g in ("t", *range(dims.l), "r")]
        assert sum(rows, []) == list(index)
        assert [len(r) for r in rows] == [dims.n_t, *[dims.n_i] * dims.l, dims.n_r]
        assert list(index[dims.ports("i")]) == sum(rows[1:-1], [])
        assert dims.ports(np.int64(dims.l - 1)) == dims.ports(dims.l - 1)

    @pytest.mark.parametrize("group", [2, -1, "x", "T", "", "ti", True, 1.0, None, (0,)])
    def test_ports_reject_unknown_groups(self, group):
        with pytest.raises(DimensionMismatch, match="port group"):
            Dimensions(n_t=2, n_r=2, n_i=3, l=2).ports(group)


class TestBlockSubdiagonalInverse:
    """The conftest oracle the structured channel models are checked against."""

    def test_single_block_is_plain_inverse(self):
        d = [np.array([[2.0, 1.0], [0.0, 2.0]])]
        out = block_subdiagonal_inverse(d, [])
        assert rel_err(out[0][0], np.linalg.inv(d[0])) < 1e-14

    def test_two_scalar_blocks_hand_value(self):
        # M = [[2, 0], [1, 4]] -> inverse [[0.5, 0], [-0.125, 0.25]]
        out = block_subdiagonal_inverse([np.array([[2.0]]), np.array([[4.0]])],
                                        [np.array([[1.0]])])
        assert out[0][0][0, 0] == pytest.approx(0.5)
        assert out[1][1][0, 0] == pytest.approx(0.25)
        assert out[1][0][0, 0] == pytest.approx(-0.125)
        assert out[0][1][0, 0] == 0.0

    def test_upper_blocks_exactly_zero(self):
        rng = np.random.default_rng(7)
        d, s = bidiagonal_instance(4, 3, rng)
        out = block_subdiagonal_inverse(d, s)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.all(out[i][j] == 0.0)

    def test_oracle_l5_random_4x4(self):
        rng = np.random.default_rng(11)
        d, s = bidiagonal_instance(5, 4, rng)
        m = assemble_block_bidiagonal(d, s)
        out = block_subdiagonal_inverse(d, s)
        assert rel_err(np.block(out), np.linalg.inv(m)) < 1e-10

    def test_oracle_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            l = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            d, s = bidiagonal_instance(l, n, rng)
            m = assemble_block_bidiagonal(d, s)
            out = block_subdiagonal_inverse(d, s)
            inv = np.block(out) if l > 1 else out[0][0]
            assert rel_err(inv, np.linalg.inv(m)) < 1e-10

    def test_singular_block_named(self):
        d = [np.eye(2), np.zeros((2, 2)), np.eye(2)]
        s = [np.eye(2), np.eye(2)]
        with pytest.raises(SingularDiagonalBlock) as exc:
            block_subdiagonal_inverse(d, s)
        assert exc.value.index == 1

    def test_block_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            block_subdiagonal_inverse([np.eye(2), np.eye(2)], [])

    def test_block_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            block_subdiagonal_inverse([np.eye(2), np.eye(3)], [np.eye(2)])


def build_trivial_network(z_rt_scale=2.0):
    """No surface coupling at all: only the direct Z_RT path."""
    z0 = 50.0
    eye, zeros = z0 * np.eye(2), np.zeros((2, 2))
    z = np.block([[eye, zeros, zeros], [zeros, eye, zeros],
                  [z_rt_scale * z0 * np.ones((2, 2)), zeros, eye]])
    return MultiportNetwork(Dimensions(n_t=2, n_r=2, n_i=2, l=1), z, z0)


def moved(net, rows, cols, entry=(0, 0), by=1.0):
    """net with one entry of its (rows, cols) block moved by `by`."""
    z = net.z.copy()
    z[net.dims.ports(rows), net.dims.ports(cols)][entry] += by
    return MultiportNetwork(net.dims, z, net.z0)


# the network broken_network starts from: three surfaces, so every Z_II block kind exists
_DIMS = Dimensions(n_t=2, n_r=2, n_i=3, l=3)

# one block per assumption id: the block whose first entry, moved, breaks it
_BREAKS = {
    1: ("t", "i"),
    2: (0, 1),      # surface 1 back into surface 0
    3: (2, 0),      # surface 0 straight to surface 2
    4: ("r", "r"),
    5: (1, 1),      # surface 1's own coupling
    6: ("r", "t"),
}


def broken_network(ids, seed=61):
    """A matched pure-cascade network with one block entry moved by 1 (z0 is 50)
    for each assumption id in ids."""
    net = network_from_cascade(gaussian_cascade(_DIMS, np.random.default_rng(seed)))
    for k in ids:
        net = moved(net, *_BREAKS[k])
    return net


class TestChannelModels:
    def test_direct_path_normalization(self):
        # with Z_RT = 2 z0 J and matched ends the channel is exactly J
        net = build_trivial_network()
        assert net.assumptions == {1, 2, 3, 4, 5}
        loads = RisLoadStack((1j * 50.0 * np.eye(2),))
        h = channel_z(net, loads)
        assert rel_err(h, np.ones((2, 2))) < 1e-14

    def test_general_requires_assumption_one(self):
        fed_back = moved(build_trivial_network(), "t", "i")
        assert fed_back.assumptions == {2, 3, 4, 5}
        with pytest.raises(AssumptionViolated, match=r"\[1\]"):
            channel_z(fed_back, RisLoadStack((1j * 50.0 * np.eye(2),)))

    def test_assumptions_read_from_blocks(self):
        everything = {1, 2, 3, 4, 5, 6}
        for held in ({1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5}, everything):
            assert broken_network(everything - held).assumptions == held
        # a break within the tolerance, 1e-10 z0, still counts as zero
        assert moved(broken_network(()), "r", "t", by=1e-9).assumptions == everything

    def test_impedance_matrix_is_a_read_only_copy(self):
        # assumptions are read once, so z must not change under them
        ch = gaussian_cascade(Dimensions(n_t=2, n_r=2, n_i=2, l=2), np.random.default_rng(73))
        net = network_from_cascade(ch)
        ports = net.dims.ports
        with pytest.raises(ValueError, match="read-only"):
            net.z[ports("r"), ports("t")] += 100.0
        # the caller's array stays theirs: writing into it leaves the network as it was
        z = net.z.copy()
        copied = MultiportNetwork(net.dims, z, net.z0)
        loads = random_diagonal_lossless_loads(2, 2, np.random.default_rng(79))
        h = channel_z(copied, loads)
        z[ports("r"), ports("t")] += 100.0
        assert 6 in copied.assumptions
        assert np.array_equal(channel_z(copied, loads), h)
        assert rel_err(channel_z_dense(copied, loads), h) < 1e-12

    @pytest.mark.parametrize("include_sides", [False, True])
    def test_cascade_round_trips_through_its_network(self, include_sides):
        # side links come back exactly when the cascade had them
        dims = Dimensions(n_t=2, n_r=3, n_i=2, l=3)
        ch = gaussian_cascade(dims, np.random.default_rng(71), include_sides)
        back = cascade_from_network(network_from_cascade(ch))
        assert (back.sides is None) == (not include_sides)
        pairs = list(zip(ch.hops(), back.hops()))
        if include_sides:
            pairs += [(ch.sides.h_rt, back.sides.h_rt),
                      *zip(ch.sides.h_ri + ch.sides.h_it, back.sides.h_ri + back.sides.h_it)]
        for a, b in pairs:
            assert rel_err(a, b) < 1e-15

    @pytest.mark.parametrize("broken", [1, 2, 3, 4, 5, 6])
    def test_models_refuse_a_broken_assumption(self, broken):
        # channel_z needs only assumption 1; on any other break it still matches
        # the dense oracle, whichever route the core takes
        net = broken_network({broken})
        assert net.assumptions == {1, 2, 3, 4, 5, 6} - {broken}
        loads = random_diagonal_lossless_loads(3, 3, np.random.default_rng(67))
        if broken == 1:
            with pytest.raises(AssumptionViolated, match=r"\[1\]"):
                channel_z(net, loads)
        else:
            want = channel_z_dense(net, loads)
            assert rel_err(channel_z(net, loads), want) < 1e-12
        if broken in (2, 3):
            # the forward solve alone would drop the moved core block
            dropped = _between_end_arrays(net, _cascade_sum(net, loads))
            assert rel_err(dropped, want) > 1e-6
        if broken <= 5:
            with pytest.raises(AssumptionViolated):
                cascade_from_network(net)
        else:
            assert cascade_from_network(net).sides is not None

    def test_model_chain_on_random_matched_instances(self):
        rng = np.random.default_rng(31)
        stream_trials = 12
        for i in range(stream_trials):
            l = int(rng.integers(1, 5))
            dims = Dimensions(n_t=2, n_r=2, n_i=int(rng.integers(2, 5)), l=l)
            ch = gaussian_cascade(dims, rng)
            net = network_from_cascade(ch)
            loads = (random_diagonal_lossless_loads(l, dims.n_i, rng) if i % 2
                     else random_full_lossless_loads(l, dims.n_i, rng))
            assert rel_err(channel_z_dense(net, loads), channel_z(net, loads)) < 1e-12

    def test_chain_holds_with_side_links(self):
        # side links break assumption 6 but keep the core bidiagonal
        rng = np.random.default_rng(37)
        for _ in range(6):
            l = int(rng.integers(2, 4))
            dims = Dimensions(n_t=2, n_r=2, n_i=3, l=l)
            ch = gaussian_cascade(dims, rng, include_sides=True)
            net = network_from_cascade(ch)
            loads = random_full_lossless_loads(l, 3, rng)
            assert 6 not in net.assumptions
            assert rel_err(channel_z_dense(net, loads), channel_z(net, loads)) < 1e-12

    # each case id names the removed route that once served its network: mismatched
    # end arrays with a side link, a side link alone, and the pure cascade
    @pytest.mark.parametrize("breaks", [{4, 6}, {6}, set()],
                             ids=["channel_z_cascade", "channel_z_matched",
                                  "channel_z_pure_cascade"])
    def test_singular_surface_block_named(self, breaks):
        # a load of -z0 I cancels surface 1's matched diagonal block
        net = broken_network(breaks)
        assert net.assumptions == {1, 2, 3, 4, 5, 6} - breaks
        loads = random_diagonal_lossless_loads(3, 3, np.random.default_rng(89))
        loads = RisLoadStack((loads.loads[0], -net.z0 * np.eye(3), loads.loads[2]))
        with pytest.raises(SingularDiagonalBlock) as exc:
            channel_z(net, loads)
        assert exc.value.index == 1

    def test_pure_cascade_keeps_side_blocks_within_tolerance(self):
        # side blocks below 1e-10 z0 still satisfy assumption 6, and the
        # forward solve must carry them as the dense oracle does
        rng = np.random.default_rng(83)
        net = network_from_cascade(gaussian_cascade(_DIMS, rng))
        z, ports = net.z.copy(), net.dims.ports
        for rows, cols in (("r", "t"), ("r", 0), ("r", 1), (1, "t"), (2, "t")):
            shape = z[ports(rows), ports(cols)].shape
            z[ports(rows), ports(cols)] = 0.9e-10 * net.z0 * np.exp(2j * np.pi * rng.random(shape))
        near = MultiportNetwork(net.dims, z, net.z0)
        assert near.assumptions == {1, 2, 3, 4, 5, 6}
        loads = random_full_lossless_loads(3, 3, rng)
        h = channel_z_dense(near, loads)
        assert rel_err(h, channel_z_dense(net, loads)) > 1e-12
        assert rel_err(h, channel_z(near, loads)) < 1e-12

    def test_core_blocks_within_tolerance_are_kept(self):
        # upward and skip blocks below 1e-10 z0 still satisfy assumptions 2 and 3,
        # but they are not zero, so channel_z must carry them as the dense oracle does
        rng = np.random.default_rng(101)
        net = network_from_cascade(gaussian_cascade(_DIMS, rng))
        z, ports = net.z.copy(), net.dims.ports
        for rows, cols in ((0, 1), (1, 2), (0, 2), (2, 0)):
            shape = z[ports(rows), ports(cols)].shape
            z[ports(rows), ports(cols)] = 0.9e-10 * net.z0 * np.exp(2j * np.pi * rng.random(shape))
        near = MultiportNetwork(net.dims, z, net.z0)
        assert near.assumptions == {1, 2, 3, 4, 5, 6}
        loads = random_full_lossless_loads(3, 3, rng)
        h = channel_z_dense(near, loads)
        assert rel_err(h, channel_z_dense(net, loads)) > 1e-12
        assert rel_err(h, channel_z(near, loads)) < 1e-12

    def test_matched_prefactor_is_half_z0_inverse(self):
        # on a matched pure direct-path network the channel is Z_RT / (2 z0)
        net = build_trivial_network(z_rt_scale=0.8)
        loads = RisLoadStack((1j * 50.0 * np.eye(2),))
        h = channel_z(net, loads)
        assert rel_err(h, normalize_z_to_channel(net.block("r", "t"), 50.0)) < 1e-14

    def test_load_stack_shape_checked(self):
        net = build_trivial_network()
        with pytest.raises(DimensionMismatch):
            channel_z(net, RisLoadStack((1j * np.eye(3),)))

    @pytest.mark.parametrize("z0", [True, 0.0, float("nan"), float("inf"), "50",
                                    pytest.param(10 ** 400, id="10**400"),
                                    pytest.param(-10 ** 5000, id="-10**5000")])
    def test_reference_impedance_checked(self, z0):
        net = build_trivial_network()
        with pytest.raises(DimensionMismatch, match="z0 must be"):
            MultiportNetwork(net.dims, net.z, z0)

    @pytest.mark.parametrize("z", [np.eye(7), np.eye(6)[:5], np.ones(6), np.eye(6)[None]],
                             ids=["7x7", "5x6", "1-d", "3-d"])
    def test_impedance_matrix_shape_checked(self, z):
        # n_t + l n_i + n_r = 2 + 2 + 2 ports
        with pytest.raises(DimensionMismatch, match="z must"):
            MultiportNetwork(Dimensions(n_t=2, n_r=2, n_i=2, l=1), z)

    @pytest.mark.parametrize("dims", [(2, 2, 2, 1), None, 6], ids=["tuple", "None", "int"])
    def test_dimensions_type_checked(self, dims):
        # a tuple of the right counts used to fail on dims.n_ports with an AttributeError
        with pytest.raises(DimensionMismatch, match="dims must be a Dimensions"):
            MultiportNetwork(dims, np.eye(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_blocks_and_loads_rejected(self, bad):
        # on an instance whose other inputs are valid, a NaN block would otherwise give
        # a NaN channel and NaN loads a LinAlgError
        rng = np.random.default_rng(59)
        dims = Dimensions(n_t=2, n_r=2, n_i=3, l=2)
        net = network_from_cascade(gaussian_cascade(dims, rng))
        loads = random_diagonal_lossless_loads(2, 3, rng)
        assert np.isfinite(channel_z(net, loads)).all()
        with pytest.raises(NonFiniteInput, match="z has NaN"):
            moved(net, 1, 0, entry=(1, 1), by=bad)
        broken = loads.loads[1].copy()
        broken[0, 0] = bad
        with pytest.raises(NonFiniteInput, match="load 1"):
            RisLoadStack((loads.loads[0], broken))


class TestConversions:
    def test_quarter_phase_load(self):
        # Theta = j I maps to Z = j z0 tan(pi/4) I = j z0 I
        theta = 1j * np.eye(3)
        z = scattering_to_z(theta, 50.0)
        assert rel_err(z, 1j * 50.0 * np.eye(3)) < 1e-12

    def test_round_trip_z_theta_z(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            z = random_full_lossless_loads(1, n, rng).loads[0]
            theta = z_to_scattering(z)
            assert rel_err(scattering_to_z(theta), z) < 1e-10
            # a lossless load gives a unitary theta
            assert np.abs(theta.conj().T @ theta - np.eye(n)).max() < 1e-10

    def test_round_trip_theta_z_theta(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            theta = np.diag(np.exp(1j * rng.uniform(0.3, 6.0, n)))
            assert rel_err(z_to_scattering(scattering_to_z(theta)), theta) < 1e-10

    def test_lossless_load_gives_unitary_theta(self):
        rng = np.random.default_rng(47)
        z = random_full_lossless_loads(1, 5, rng).loads[0]
        theta = z_to_scattering(z)
        assert np.abs(theta.conj().T @ theta - np.eye(5)).max() < 1e-12

    def test_open_circuit_rejected(self):
        with pytest.raises(OpenCircuitSingularity):
            scattering_to_z(np.eye(2))

    def test_near_open_circuit_rejected(self):
        # eigenvalues 1 +- 3.2e-9 pass the open-circuit test, but I - Theta has
        # condition 1e17: its inverse would be a load of max |Z| ~ 1e19
        theta = np.array([[1.0, 1.0], [1e-17, 1.0]])
        with pytest.raises(SingularMatrix, match="I - theta"):
            scattering_to_z(theta)

    def test_normalize_is_linear_scaling(self):
        block = np.arange(6, dtype=complex).reshape(2, 3)
        assert rel_err(normalize_z_to_channel(block, 50.0), block / 100.0) < 1e-15

    # unchecked, NaN reaches LAPACK (a bare LinAlgError) or the result (a silent NaN)
    @pytest.mark.parametrize("call", [
        lambda: scattering_to_z(np.array([[np.nan]])),
        lambda: z_to_scattering(np.array([[np.nan]])),
        lambda: normalize_z_to_channel(np.array([[np.nan]])),
    ], ids=["scattering_to_z", "z_to_scattering", "normalize"])
    def test_non_finite_input_rejected(self, call):
        with pytest.raises(NonFiniteInput):
            call()

    # unchecked, these return an answer for a z0 no port can have (0 with a divide warning)
    @pytest.mark.parametrize("call", [
        lambda: z_to_scattering(np.eye(2), 0.0),
        lambda: z_to_scattering(np.eye(2), -50.0),
        lambda: scattering_to_z(1j * np.eye(2), float("nan")),
        lambda: normalize_z_to_channel(np.eye(2), 0.0),
    ], ids=["z_to_scattering-0", "z_to_scattering-negative", "scattering_to_z-nan", "normalize-0"])
    def test_conversions_check_reference_impedance(self, call):
        with pytest.raises(DimensionMismatch, match="z0 must be"):
            call()


class TestLoadStack:
    def test_lossless_detection(self):
        rng = np.random.default_rng(53)
        stack = random_full_lossless_loads(2, 4, rng)
        assert stack.is_lossless()
        lossy = RisLoadStack((np.eye(4) * (3 + 1j),))
        assert not lossy.is_lossless()

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatch):
            RisLoadStack((np.eye(2), np.eye(3)))
