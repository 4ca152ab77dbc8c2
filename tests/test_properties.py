"""Invariants of the optimizer and the assemblies on small random cascades."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_cascade, random_phase_stack
from multiris.cascade import ScatteringStack, assemble, assemble_physics_channel
from multiris.fading import FadingSpec, gen_cascade
from multiris.multiport import Dimensions
from multiris.optimize import (
    OptimizerConfig,
    alg1_optimize,
    channel_gain,
    upper_bound_physics,
    upper_bound_widely,
)
from multiris.rng import RandomStream

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

seeds = st.integers(0, 2 ** 32 - 1)
cascades = st.builds(
    lambda n_t, n_r, n_i, l, seed: gen_cascade(Dimensions(n_t, n_r, n_i, l),
                                               FadingSpec("rayleigh"),
                                               RandomStream(seed, ("property-cascade",))),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), seeds)
configs = st.builds(OptimizerConfig, model=st.sampled_from(("physics", "widely_used")),
                    architecture=st.sampled_from(("diagonal", "unitary")))


def _run(ch, cfg, seed):
    return alg1_optimize(ch, cfg, RandomStream(seed, ("property-opt",)))


@given(cascades, configs, seeds)
def test_gain_within_bound(ch, cfg, seed):
    bound = upper_bound_physics(ch) if cfg.model == "physics" else upper_bound_widely(ch)
    assert _run(ch, cfg, seed).gain <= bound * (1 + 1e-9)


@given(cascades, configs, seeds)
def test_gain_trace_never_falls(ch, cfg, seed):
    res = _run(ch, cfg, seed)
    assert np.all(np.diff(res.gain_trace) >= -1e-9 * res.gain)


@given(cascades, configs, st.integers(1, 3), seeds)
def test_gain_is_the_gain_of_the_returned_stack(ch, cfg, cap, seed):
    # the gain comes from the pair carried through the run, not from the stack it
    # returns; caps of 1-3 steps and sweeps stop most runs early, the defaults let
    # them converge
    for c in (cfg, replace(cfg, max_outer_iters=cap, max_inner_iters=cap)):
        run = _run(ch, c, seed)
        offset = 1 if c.model == "physics" else 0
        expect = channel_gain(assemble(ch, run.stack, [offset] * ch.n_l))
        assert abs(run.gain - expect) <= 1e-12 * expect


@given(cascades, seeds)
def test_unitary_reaches_norm_product_bound(ch, seed):
    # a run stopped by the sweep cap may still be short of the bound
    res = _run(ch, OptimizerConfig(model="widely_used", architecture="unitary"), seed)
    assume(res.converged)
    assert res.gain >= (1 - 1e-4) * upper_bound_widely(ch)


@given(cascades, st.sampled_from(("physics", "widely_used")), seeds)
def test_diagonal_stacks_are_unit_modulus_diagonal(ch, model, seed):
    res = _run(ch, OptimizerConfig(model=model, architecture="diagonal"), seed)
    assert [theta.shape for theta in res.stack.thetas] == [(w,) for w in ch.widths()]
    for theta in res.stack.thetas:
        assert np.abs(np.abs(theta) - 1.0).max() <= 1e-12


@given(cascades)
def test_identity_surfaces_null_physical_channel(ch):
    eyes = [np.eye(w) for w in ch.widths()]
    assert not assemble_physics_channel(ch, eyes).any()
    # the phase-vector form of the same surfaces
    ones = [np.ones(w, dtype=complex) for w in ch.widths()]
    assert not assemble(ch, ones, [1] * ch.n_l).any()


def _random_stack(widths, architecture, rng):
    if architecture == "diagonal":
        return random_phase_stack(widths, rng)
    # the Q of a complex Gaussian matrix is unitary
    return ScatteringStack("unitary", tuple(
        np.linalg.qr(rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w)))[0]
        for w in widths))


@given(cascades, st.sampled_from(("diagonal", "unitary")), st.data(), seeds)
def test_assemble_matches_dense_product(ch, architecture, data, seed):
    offsets = data.draw(st.lists(st.sampled_from((0, 1)), min_size=ch.n_l, max_size=ch.n_l))
    stack = _random_stack(ch.widths(), architecture, np.random.default_rng(seed))
    h = assemble(ch, stack, offsets)
    expect = dense_cascade(ch, stack.thetas, offsets)
    assert np.linalg.norm(h - expect) <= 1e-12 * max(np.linalg.norm(expect), 1e-300)
