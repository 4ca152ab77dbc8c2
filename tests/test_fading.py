"""Link generators: statistics, determinism, stream independence."""

import copy
import dataclasses
import enum
import pickle

import numpy as np
import pytest

from multiris.errors import DimensionMismatch, NonFiniteInput
from multiris.fading import (
    FadingSpec,
    LosLink,
    _draw_los_hop,
    draw_cascades,
    draw_los_cascades,
    gen_cascade,
    gen_link,
    gen_los_link,
    gen_rayleigh_link,
    gen_rician_link,
)
from multiris.multiport import Dimensions
from multiris.rng import RandomStream

from conftest import (
    draw_los_link,
    int_list_seed_sequence,
    los_link_oracle,
    rician_link_expression,
)


class _One(enum.IntEnum):
    ONE = 1


class TestRandomStream:
    def test_same_label_same_draws(self):
        s = RandomStream(123, ("a", 4))
        x = s.generator().standard_normal(8)
        y = s.generator().standard_normal(8)
        assert np.array_equal(x, y)

    def test_child_extends_label(self):
        s = RandomStream(123)
        assert s.child("x", 2).label == ("x", 2)

    def test_sibling_streams_differ(self):
        s = RandomStream(123)
        x = s.child("a").generator().standard_normal(8)
        y = s.child("b").generator().standard_normal(8)
        assert not np.allclose(x, y)

    def test_negative_parts_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1, (-3,))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(-1)

    @pytest.mark.parametrize("seed", [True, 1.0, pytest.param(-10 ** 5000, id="-10**5000")])
    def test_non_int_or_huge_negative_seed_rejected(self, seed):
        # our own message, even for an int Python refuses to repr
        with pytest.raises(ValueError, match="seed must be"):
            RandomStream(seed)

    def test_huge_negative_part_rejected(self):
        with pytest.raises(ValueError, match="label parts must be"):
            RandomStream(1, (-10 ** 5000,))

    @pytest.mark.parametrize("label, draw", [
        (("point", 4, 128, "trial", 3, "channel"), 0.45796770430416844),
        ((4, 128, 3), 0.22268693575870202),
    ])
    def test_pinned_draws(self, label, draw):
        # pinned literals: a change to how label parts are encoded moves every table
        for _ in range(2):
            assert RandomStream(20240402, label).generator().random() == draw

    @pytest.mark.parametrize("part, error, message", [
        (True, TypeError, "ints or strings, not bool"),
        (-1, ValueError, "non-negative, got -1"),
        (1.5, TypeError, "ints or strings, got float"),
        # whole labels that are not tuples: "trial" would draw as ("t", "r", "i", "a", "l")
        ("trial", TypeError, "label must be a tuple of parts, got str"),
        (["a"], TypeError, "label must be a tuple of parts, got list"),
    ])
    def test_bad_parts_rejected(self, part, error, message):
        label = part if isinstance(part, (str, list)) else ("trial", part)
        with pytest.raises(error, match=message):
            RandomStream(1, label)

    @pytest.mark.parametrize("part, error, message", [
        (True, TypeError, "ints or strings, not bool"),
        (1.0, TypeError, "ints or strings, got float"),
        (-1, ValueError, "non-negative, got -1"),
    ])
    def test_bad_parts_rejected_after_cache_warmed(self, part, error, message):
        # True == 1.0 == 1 and they hash alike: the part cache must not hand
        # them the entry that 1, or an int subclass equal to it, leaves behind
        RandomStream(1).child(1, _One.ONE).generator()
        with pytest.raises(error, match=message):
            RandomStream(1, ("trial", part))
        with pytest.raises(error, match=message):
            RandomStream(1).child("trial", part)
        with pytest.raises(error, match=message):
            RandomStream(1, ("trial",)).child(part)

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 130 + 7])
    def test_generator_matches_int_list_entropy(self, seed):
        parts = ("point", 0, 2 ** 32, "trial", 10 ** 40, "channel", 7, "hop")
        for depth in range(len(parts) + 1):
            stream = RandomStream(seed, parts[:depth])
            by_child = RandomStream(seed).child(*parts[:depth // 2]).child(*parts[depth // 2:depth])
            assert by_child == stream and hash(by_child) == hash(stream)
            oracle = int_list_seed_sequence(stream)
            # the seed words are built at construction and carried by child, so a
            # replaced, unpickled or copied stream must draw by its own label
            relabelled = dataclasses.replace(RandomStream(seed, ("other",)), label=parts[:depth])
            for built in (stream, by_child, relabelled, pickle.loads(pickle.dumps(by_child)),
                          copy.deepcopy(by_child)):
                assert built == stream and hash(built) == hash(stream)
                assert repr(built) == f"RandomStream(seed={seed!r}, label={parts[:depth]!r})"
                gen = built.generator()
                assert np.array_equal(gen.bit_generator.seed_seq.pool, oracle.pool)
                assert np.array_equal(gen.random(4), np.random.default_rng(oracle).random(4))

    def test_seed_words_take_no_part_in_eq_hash_or_repr(self):
        stream = RandomStream(5, ("a", 1))
        other = RandomStream(5, ("a", 1))
        object.__setattr__(other, "_words", b"")
        assert other == stream and hash(other) == hash(stream) and repr(other) == repr(stream)


class TestLosLink:
    def test_rank_one_unit_modulus(self):
        link = draw_los_link(6, 4, 2.5, RandomStream(5, ("los",)))
        assert link.a.shape == (1, 6) and link.b.shape == (1, 4)
        h = link.matrix()[0]
        s = np.linalg.svd(h, compute_uv=False)
        assert s[0] == pytest.approx(2.5 * np.sqrt(24), rel=1e-12)
        assert np.all(s[1:] < 1e-12)
        assert np.allclose(np.abs(link.a), 1.0)
        assert np.allclose(np.abs(link.b), 1.0)

    def test_entry_magnitudes_equal_path_gain(self):
        h = gen_los_link(3, 5, 0.7, RandomStream(6, ("los",)))
        assert np.allclose(np.abs(h), 0.7)

    def test_inner_product_clt_variance(self):
        # b^T a over paired 64-vectors approaches CN(0, 64); the links are drawn as
        # stacks over a block of streams, row t being the a of an (n, 1) link and the b
        # of a (1, n) link of stream t
        n = 64
        draws = 100000
        chunk = 10000
        stream = RandomStream(7, ("clt",))
        vals = np.empty(draws, dtype=complex)
        for start in range(0, draws, chunk):
            subs = [stream.child(t) for t in range(start, start + chunk)]
            ins = _draw_los_hop(n, 1, 1.0, [sub.child("in") for sub in subs])
            outs = _draw_los_hop(1, n, 1.0, [sub.child("out") for sub in subs])
            assert ins.a.shape == outs.b.shape == (chunk, n)
            vals[start:start + chunk] = (outs.b[:, None] @ ins.a[:, :, None])[:, 0, 0]
        var = np.mean(np.abs(vals) ** 2)
        assert abs(var - n) / n < 0.05
        # and |b^T a| has mean close to sqrt(pi n / 4)
        mean_abs = np.mean(np.abs(vals))
        assert abs(mean_abs - np.sqrt(np.pi * n / 4.0)) / np.sqrt(np.pi * n / 4.0) < 0.05

    @pytest.mark.parametrize("path_gain", [float("nan"), float("inf"), -float("inf"), -1.0,
                                           True, None, "1"])
    def test_bad_path_gain_rejected_at_construction(self, path_gain):
        """A gain FadingSpec refuses is refused here too, before los_gains could turn
        it into a RuntimeWarning and a misleading NotRankOne."""
        with pytest.raises(DimensionMismatch, match="path_gain"):
            LosLink(path_gain, np.ones((1, 2)), np.ones((1, 3)))

    @pytest.mark.parametrize("a_shape, b_shape", [((2,), (4, 3)), ((4, 2), (3,)),
                                                  ((4, 2), (5, 3)), ((2, 4, 2), (2, 4, 3)),
                                                  ((), (3,)), ((2,), ()), ((2,), (3,))])
    def test_unequal_or_deep_stacks_rejected(self, a_shape, b_shape):
        # a stack is a pair of 2-D arrays of one length; a lone link is a stack of
        # one, not a pair of 1-D vectors
        with pytest.raises(DimensionMismatch, match="steering vectors"):
            LosLink(1.0, np.ones(a_shape), np.ones(b_shape))

    @pytest.mark.parametrize("a, b", [([["x"]], [["y"]]), ([[object()]], [[1.0]]),
                                      ([[1.0]], [[1.0, "x"]])],
                             ids=["string", "object", "mixed"])
    def test_non_numeric_stacks_rejected(self, a, b):
        # numpy's own ValueError or TypeError would escape the package's error types
        with pytest.raises(DimensionMismatch, match="steering vectors are not numeric"):
            LosLink(1.0, a, b)
        # an empty block's stacks have no rows, and are numeric
        empty = LosLink(1.0, np.ones((0, 3)), np.ones((0, 2)))
        assert empty.a.shape == (0, 3) and empty.b.shape == (0, 2)

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("modulus", [2.0, 0.5, 1.0 + 1e-9, 0.0])
    def test_non_unit_modulus_rejected(self, side, modulus):
        """lam is read as path_gain, which holds only for unit-modulus steering
        vectors: a scaled entry is refused, not turned into a wrong gain."""
        hop = _draw_los_hop(4, 3, 0.37, [RandomStream(79, ("scaled", t)) for t in range(3)])
        vectors = {"a": hop.a.copy(), "b": hop.b.copy()}
        vectors[side][1, 2] *= modulus
        with pytest.raises(DimensionMismatch, match="unit modulus"):
            LosLink(hop.path_gain, vectors["a"], vectors["b"])

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf),
                                     complex(np.nan, 1.0)])
    def test_non_finite_entries_rejected(self, side, bad):
        vectors = {"a": np.ones((2, 4), dtype=complex), "b": np.ones((2, 3), dtype=complex)}
        vectors[side][1, 0] = bad
        with pytest.raises(NonFiniteInput):
            LosLink(1.0, vectors["a"], vectors["b"])

    def test_stack_matrix_is_each_links_outer_product(self):
        stream = RandomStream(9, ("los-stack",))
        hop = _draw_los_hop(3, 5, 0.37, [stream.child(t) for t in range(4)])
        h = hop.matrix()
        assert h.shape == (4, 3, 5)
        for t in range(4):
            want = 0.37 * np.outer(hop.a[t], hop.b[t])
            assert h[t].tobytes() == want.tobytes()
            assert _same_bits(gen_los_link(3, 5, 0.37, stream.child(t)), want)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _labelled_links(dims: Dimensions, stream: RandomStream) -> list[tuple]:
    """(rows, cols, child stream) of each link of a cascade in ch.hops() order."""
    l = dims.l
    return [(dims.n_r, dims.n_i, stream.child("ri", l - 1)),
            *((dims.n_i, dims.n_i, stream.child("hop", k)) for k in reversed(range(l - 1))),
            (dims.n_i, dims.n_t, stream.child("it", 0))]


class TestLosBlockDraw:
    """A line-of-sight block is drawn as one stack per hop position; row t of every
    stack keeps the bytes of stream t's per-link draw (conftest.los_link_oracle)."""

    @pytest.mark.parametrize("path_gain", [0.0, 0.37])
    @pytest.mark.parametrize("n_i", [1, 5, 128])
    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_links_match_the_per_link_oracle(self, l, n_i, path_gain):
        dims = Dimensions(n_t=3, n_r=2, n_i=n_i, l=l)
        streams = [RandomStream(67, ("oracle", l, n_i, t)) for t in range(5)]
        block = draw_los_cascades(dims, path_gain, streams)
        labelled = zip(*(_labelled_links(dims, stream) for stream in streams))
        for hop, links in zip(block, labelled, strict=True):
            assert hop.path_gain == path_gain and len(hop.a) == len(hop.b) == len(streams)
            for t, (rows, cols, child) in enumerate(links):
                a, b = los_link_oracle(rows, cols, child)
                single = draw_los_link(rows, cols, path_gain, child)
                assert single.path_gain == path_gain
                for drawn_a, drawn_b in ((hop.a[t], hop.b[t]), (single.a[0], single.b[0])):
                    assert _same_bits(drawn_a, a) and _same_bits(drawn_b, b)
                assert _same_bits(gen_los_link(rows, cols, path_gain, child),
                                  path_gain * np.outer(a, b))

    def test_links_do_not_depend_on_the_block(self):
        # each stream is drawn alone, in a block and in the reversed block
        dims = Dimensions(n_t=1, n_r=4, n_i=6, l=3)
        streams = [RandomStream(71, ("position", t)) for t in range(6)]
        alone = [draw_los_cascades(dims, 0.37, [stream]) for stream in streams]
        forward = draw_los_cascades(dims, 0.37, streams)
        backward = draw_los_cascades(dims, 0.37, streams[::-1])
        for t, want in enumerate(alone):
            for block, row in ((forward, t), (backward, len(streams) - 1 - t)):
                for hop, ref in zip(block, want, strict=True):
                    assert _same_bits(hop.a[row], ref.a[0]) and _same_bits(hop.b[row], ref.b[0])
        # an empty block is l + 1 stacks of no links
        empty = draw_los_cascades(dims, 0.37, [])
        assert [(hop.a.shape, hop.b.shape) for hop in empty] == [
            ((0, rows), (0, cols)) for rows, cols, _ in _labelled_links(dims, streams[0])]

    @pytest.mark.parametrize("k", [0.5, 10.0])
    def test_rician_specular_part_matches_the_oracle(self, k):
        spec = FadingSpec("rician", path_gain=0.37, rician_k=k)
        stream = RandomStream(73, ("ric-oracle",))
        a, b = los_link_oracle(4, 3, stream.child("specular"))
        scatter = gen_rayleigh_link(4, 3, 1.0, stream.child("scatter"))
        want = spec.path_gain * (np.sqrt(k / (k + 1.0)) * (1.0 * np.outer(a, b))
                                 + np.sqrt(1.0 / (k + 1.0)) * scatter)
        assert _same_bits(gen_rician_link(4, 3, spec, stream), want)


class TestRayleigh:
    def test_first_two_moments(self):
        h = gen_rayleigh_link(1000, 1000, 1.3, RandomStream(11, ("ray",)))
        mean = h.mean()
        var = np.mean(np.abs(h) ** 2)
        assert abs(mean) < 4 * 1.3 / 1000.0
        assert abs(var - 1.3 ** 2) / 1.3 ** 2 < 0.02

    def test_determinism(self):
        s = RandomStream(13, ("d",))
        assert np.array_equal(gen_rayleigh_link(4, 4, 1.0, s), gen_rayleigh_link(4, 4, 1.0, s))


class TestRician:
    def test_k_zero_matches_rayleigh_moments(self):
        spec = FadingSpec("rician", path_gain=1.0, rician_k=0.0)
        h = gen_rician_link(400, 400, spec, RandomStream(17, ("ric",)))
        r = gen_rayleigh_link(400, 400, 1.0, RandomStream(17, ("ray",)))
        assert abs(np.mean(np.abs(h) ** 2) - np.mean(np.abs(r) ** 2)) < 0.02
        assert abs(np.var(h.real) - np.var(r.real)) < 0.02

    def test_large_k_is_nearly_rank_one(self):
        spec = FadingSpec("rician", path_gain=1.0, rician_k=1e6)
        h = gen_rician_link(8, 8, spec, RandomStream(19, ("ric",)))
        s = np.linalg.svd(h, compute_uv=False)
        assert s[1] / s[0] < 1e-2

    def test_unit_average_power_for_any_k(self):
        for k in (1.0, 10.0):
            spec = FadingSpec("rician", path_gain=1.0, rician_k=k)
            h = gen_rician_link(320, 320, spec, RandomStream(23, ("ric", int(k))))
            assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 3.0, 10.0, 30.0])
    def test_in_place_mix_matches_the_expression(self, k):
        # 3 path gains x 5 shapes x 5 seeds per K, square and not, down to one entry
        for path_gain in (1.0, 0.37, 2.5):
            spec = FadingSpec("rician", path_gain, k)
            for rows, cols in ((1, 1), (2, 32), (32, 2), (32, 32), (7, 5)):
                for seed in range(5):
                    stream = RandomStream(seed, ("ric-mix",))
                    assert np.array_equal(gen_rician_link(rows, cols, spec, stream),
                                          rician_link_expression(rows, cols, spec, stream))

    def test_k_sweep_is_paired(self):
        # same stream, different K: the specular and scatter parts are reused
        stream = RandomStream(29, ("pair",))
        h0 = gen_rician_link(4, 4, FadingSpec("rician", 1.0, 0.0), stream)
        h_inf = gen_rician_link(4, 4, FadingSpec("rician", 1.0, 1e12), stream)
        scatter = gen_rayleigh_link(4, 4, 1.0, stream.child("scatter"))
        specular = gen_los_link(4, 4, 1.0, stream.child("specular"))
        assert np.allclose(h0, scatter)
        assert np.allclose(h_inf, specular, atol=1e-5)


class TestFadingSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionMismatch):
            FadingSpec("nakagami")

    def test_negative_k_rejected(self):
        with pytest.raises(DimensionMismatch):
            FadingSpec("rician", rician_k=-1.0)

    @pytest.mark.parametrize("field", ["path_gain", "rician_k"])
    @pytest.mark.parametrize("value", ["x", None, True, [1.0], float("nan"), float("inf"),
                                       pytest.param(10 ** 400, id="10**400"),
                                       pytest.param(-10 ** 5000, id="-10**5000")])
    def test_non_number_rejected(self, field, value):
        with pytest.raises(DimensionMismatch):
            FadingSpec("rician", **{field: value})


class TestLinkSize:
    @pytest.mark.parametrize("size", [(0, 2), (2, 0), (-1, 2), (2.0, 2), (True, 2), ("2", 2)])
    @pytest.mark.parametrize("gen", [draw_los_link, gen_rayleigh_link])
    def test_bad_rows_or_cols_rejected(self, gen, size):
        """The two leaf generators refuse a count that is not an int >= 1, instead of
        numpy's negative-dimension error or an empty link."""
        with pytest.raises(DimensionMismatch, match="rows and cols"):
            gen(*size, 1.0, RandomStream(59))

    @pytest.mark.parametrize("path_gain", [float("nan"), float("inf"), -float("inf"), -1.0,
                                           10 ** 400, True, None, "1"])
    @pytest.mark.parametrize("gen", [draw_los_link, gen_rayleigh_link])
    def test_bad_path_gain_rejected(self, gen, path_gain):
        """The two leaf generators refuse a gain FadingSpec refuses, instead of
        returning a NaN or infinite link."""
        with pytest.raises(DimensionMismatch, match="path_gain"):
            gen(2, 2, path_gain, RandomStream(59))


class TestBlockDraw:
    """A multipath block is drawn as one (T, rows, cols) stack per hop position; row t
    of every stack keeps the bytes of stream t's own draw of that link."""

    _FADINGS = (FadingSpec("rayleigh", 0.37), FadingSpec("rician", 0.37, 0.0),
                FadingSpec("rician", 0.37, 3.0), FadingSpec("los", 0.37))

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_rows_are_each_streams_links(self, l):
        # one fading spec per row, as a K grid's block mixes rows of several K
        dims = Dimensions(n_t=3, n_r=2, n_i=5, l=l)
        streams = [RandomStream(79, ("block", l, t)) for t in range(len(self._FADINGS))]
        block = draw_cascades(dims, list(self._FADINGS), streams)
        for t, (fading, stream) in enumerate(zip(self._FADINGS, streams)):
            labelled = [gen_link(rows, cols, fading, child)
                        for rows, cols, child in _labelled_links(dims, stream)]
            ch = gen_cascade(dims, fading, stream)
            for stack, hop, want in zip(block, ch.hops(), labelled, strict=True):
                assert stack.shape == (len(streams), *want.shape)
                assert _same_bits(stack[t], want) and _same_bits(hop, want)

    def test_rows_do_not_depend_on_the_block(self):
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=3)
        fadings = [FadingSpec("rician", 1.0, k) for k in (0.0, 1.0, 30.0)]
        streams = [RandomStream(83, ("position", t)) for t in range(3)]
        forward = draw_cascades(dims, fadings, streams)
        backward = draw_cascades(dims, fadings[::-1], streams[::-1])
        for t, (fading, stream) in enumerate(zip(fadings, streams)):
            alone = draw_cascades(dims, [fading], [stream])
            for ahead, behind, want in zip(forward, backward, alone, strict=True):
                assert _same_bits(ahead[t], want[0]) and _same_bits(behind[2 - t], want[0])
        # an empty block is l + 1 stacks of no links
        assert [stack.shape for stack in draw_cascades(dims, [], [])] == [
            (0, 2, 4), (0, 4, 4), (0, 4, 4), (0, 4, 2)]

    def test_one_fading_spec_per_stream(self):
        dims = Dimensions(n_t=2, n_r=2, n_i=4, l=2)
        with pytest.raises(DimensionMismatch, match="one fading spec per stream"):
            draw_cascades(dims, [FadingSpec("rayleigh")], [RandomStream(1), RandomStream(2)])


class TestGenCascade:
    def test_shapes_and_determinism(self):
        dims = Dimensions(n_t=2, n_r=3, n_i=5, l=4)
        s = RandomStream(31, ("casc",))
        ch = gen_cascade(dims, FadingSpec("rayleigh"), s)
        assert ch.h_it_1.shape == (5, 2)
        assert len(ch.inter) == 3 and ch.inter[0].shape == (5, 5)
        assert ch.h_ri_l.shape == (3, 5)
        ch2 = gen_cascade(dims, FadingSpec("rayleigh"), s)
        assert np.array_equal(ch.h_it_1, ch2.h_it_1)
        assert np.array_equal(ch.h_ri_l, ch2.h_ri_l)

    def test_los_cascade_is_rank_one_per_link(self):
        dims = Dimensions(n_t=2, n_r=2, n_i=6, l=4)
        ch = gen_cascade(dims, FadingSpec("los"), RandomStream(37, ("los",)))
        for m in (ch.h_it_1, *ch.inter, ch.h_ri_l):
            s = np.linalg.svd(m, compute_uv=False)
            assert np.all(s[1:] < 1e-12 * s[0])

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_los_draws_follow_the_link_labels(self, l):
        # the line-of-sight links come from draw_los_cascades, in hops() order, each from
        # the child stream every other fading kind draws that link from
        dims = Dimensions(n_t=3, n_r=1, n_i=5, l=l)
        stream = RandomStream(43, ("los-labels", l))
        hops = draw_los_cascades(dims, 0.37, [stream])
        ch = gen_cascade(dims, FadingSpec("los", 0.37), stream)
        labelled = [gen_los_link(rows, cols, 0.37, child)
                    for rows, cols, child in _labelled_links(dims, stream)]
        for drawn, hop, want in zip(hops, ch.hops(), labelled, strict=True):
            assert drawn.path_gain == 0.37 and drawn.matrix().shape == (1, *hop.shape)
            assert (drawn.matrix()[0] == hop).all() and (hop == want).all()

    def test_links_are_independent(self):
        dims = Dimensions(n_t=100, n_r=100, n_i=1000, l=2)
        ch = gen_cascade(dims, FadingSpec("rayleigh"), RandomStream(41, ("ind",)))
        x = ch.h_it_1.ravel()
        y = ch.h_ri_l.ravel()
        corr = np.abs(np.vdot(x - x.mean(), y - y.mean())) / (
            np.linalg.norm(x - x.mean()) * np.linalg.norm(y - y.mean()))
        assert corr < 0.01

    def test_side_links_drawn_on_request(self):
        dims = Dimensions(n_t=2, n_r=3, n_i=4, l=3)
        ch = gen_cascade(dims, FadingSpec("rayleigh"), RandomStream(53, ("s",)),
                         include_sides=True)
        assert ch.sides is not None
        assert ch.sides.h_rt.shape == (3, 2)
        assert len(ch.sides.h_ri) == 2 and ch.sides.h_ri[0].shape == (3, 4)
        assert len(ch.sides.h_it) == 2 and ch.sides.h_it[0].shape == (4, 2)
