"""End-to-end acceptance runs.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
with the measured numbers, so a full run reads as a checklist. Budgets are
asserted alongside the numeric tolerances.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assemble_block_bidiagonal,
    best_of_restarts,
    bidiagonal_instance,
    block_subdiagonal_inverse,
    channel_z_dense,
    dense_cascade,
    gaussian_cascade,
    grid_search_gain_l2,
    network_from_cascade,
    random_diagonal_lossless_loads,
    random_full_lossless_loads,
    random_phase_stack,
    well_conditioned_block,
)
from multiris.cascade import assemble, assemble_physics_channel, cascade_from_network
from multiris.fading import FadingSpec, draw_los_cascades, gen_cascade
from multiris.harness import ExperimentSpec, emit, figure_preset, run_experiment
from multiris.multiport import (
    Dimensions,
    MultiportNetwork,
    RisLoadStack,
    channel_z,
    z_to_scattering,
)
from multiris.optimize import (
    OptimizerConfig,
    alg1_batch,
    alg1_optimize,
    los_gains,
    upper_bound_physics,
    upper_bound_widely,
)
from multiris.rng import RandomStream
from multiris.scaling import (
    estimate_mean_sq_singular_values,
    expected_gain_physics_los,
    expected_gain_widely_los,
    normalized_gain_los,
    relative_difference_los,
    structural_scattering_strength,
)


@pytest.fixture
def report(capsys):
    def _report(idx: int, ok: bool, text: str):
        with capsys.disabled():
            print(f"[{idx:2d}/11] {'PASS' if ok else 'FAIL'} {text}")
    return _report


def _rel_err(a, b) -> float:
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)
    return float(np.linalg.norm(a - b) / scale)


def _los_point_gains(n_i: int, l: int, trials: int, stream: RandomStream):
    """Per-trial optimized gains at one line-of-sight grid point, trial t drawn from
    stream.child(t): the physical model at its optimum, the widely used model at its
    optimum, and the physical model at the widely used optimum (paired draws). One
    block through the path that writes the line-of-sight tables."""
    dims = Dimensions(n_t=2, n_r=2, n_i=n_i, l=l)
    gains = los_gains(draw_los_cascades(dims, 1.0, [stream.child(t) for t in range(trials)]))
    return tuple(np.array(gains).T)


@pytest.fixture(scope="module")
def los_metric_samples():
    out = {}
    for n_i, l in ((16, 4), (128, 4)):
        stream = RandomStream(4001, ("acceptance", "los-metrics", n_i, l))
        out[(n_i, l)] = _los_point_gains(n_i, l, 1000, stream)
    return out


def _bidiagonal_network(diag, sub, rng) -> MultiportNetwork:
    """A network meeting assumptions 1-3 whose surface core is the block-bidiagonal
    matrix of diag and sub, with random end arrays and every surface coupled to
    both ends."""
    l, n = len(diag), diag[0].shape[0]
    dims = Dimensions(n_t=int(rng.integers(1, 4)), n_r=int(rng.integers(1, 4)), n_i=n, l=l)
    ports = dims.ports
    z = np.zeros((dims.n_ports, dims.n_ports), dtype=complex)
    z[ports("t"), ports("t")] = well_conditioned_block(dims.n_t, rng)
    z[ports("r"), ports("r")] = well_conditioned_block(dims.n_r, rng)
    for rows, cols in (("r", "t"), ("r", "i"), ("i", "t")):
        shape = z[ports(rows), ports(cols)].shape
        z[ports(rows), ports(cols)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for k in range(l):
        z[ports(k), ports(k)] = diag[k]
    for k in range(l - 1):
        z[ports(k + 1), ports(k)] = sub[k]
    return MultiportNetwork(dims, z)


def test_structured_inverse_oracle(report):
    t0 = time.perf_counter()
    rng = RandomStream(1001, ("acceptance", "inverse")).generator()
    ends = RandomStream(1001, ("acceptance", "inverse", "ends")).generator()
    worst = 0.0
    worst_channel = 0.0
    for _ in range(200):
        l = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        diag, sub = bidiagonal_instance(l, n, rng)
        blocks = block_subdiagonal_inverse(diag, sub)
        dense = np.linalg.inv(assemble_block_bidiagonal(diag, sub))
        stacked = np.block(blocks) if l > 1 else blocks[0][0]
        worst = max(worst, _rel_err(stacked, dense))
        # the forward solve of channel_z against the channel built from the
        # oracle's blocks, on the same core with zero loads
        net = _bidiagonal_network(diag, sub, ends)
        inner = net.block("r", "t") - sum(
            net.block("r", i) @ blocks[i][j] @ net.block(j, "t")
            for i in range(l) for j in range(i + 1))
        expected = (net.z0 * np.linalg.inv(net.z0 * np.eye(net.dims.n_r) + net.block("r", "r"))
                    @ inner @ np.linalg.inv(net.block("t", "t")))
        loads = RisLoadStack(tuple(np.zeros((n, n)) for _ in range(l)))
        worst_channel = max(worst_channel, _rel_err(channel_z(net, loads), expected))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and worst_channel < 1e-10 and dt < 10.0
    report(1, ok, f"structured block inverse vs dense oracle, and the cascade channel's "
                  f"forward solve vs those blocks, on 200 instances (worst rel err "
                  f"{worst:.2e} and {worst_channel:.2e} < 1e-10, {dt:.1f} s < 10 s)")
    assert worst < 1e-10
    assert worst_channel < 1e-10
    assert dt < 10.0


def test_model_chain_equivalence(report):
    t0 = time.perf_counter()
    rng = RandomStream(1002, ("acceptance", "chain")).generator()
    worst = 0.0
    worst_single = 0.0
    for i in range(100):
        l = 1 if i < 20 else int(rng.integers(1, 5))
        dims = Dimensions(n_t=int(rng.integers(1, 4)), n_r=int(rng.integers(1, 4)),
                          n_i=int(rng.integers(1, 6)), l=l)
        ch = gaussian_cascade(dims, rng)
        net = network_from_cascade(ch)
        loads = (random_diagonal_lossless_loads(l, dims.n_i, rng) if i % 2 == 0
                 else random_full_lossless_loads(l, dims.n_i, rng))
        h_dense = channel_z_dense(net, loads)
        thetas = [z_to_scattering(z, net.z0) for z in loads.loads]
        h_s = assemble_physics_channel(cascade_from_network(net), thetas)
        for other in (channel_z(net, loads), h_s):
            worst = max(worst, _rel_err(h_dense, other))
        if l == 1:
            # single surface: the whole chain collapses to one reflected hop
            h_hop = ch.h_ri_l @ (thetas[0] - np.eye(dims.n_i)) @ ch.h_it_1
            worst_single = max(worst_single, _rel_err(h_dense, h_hop))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and worst_single < 1e-12 and dt < 10.0
    report(2, ok, f"the impedance channel, its dense oracle and the scattering route agree "
                  f"on 100 instances "
                  f"(worst rel err {worst:.2e}, single-surface reduction {worst_single:.2e} "
                  f"< 1e-12, {dt:.1f} s < 10 s)")
    assert worst < 1e-12
    assert worst_single < 1e-12
    assert dt < 10.0


def test_los_scaling_law(report):
    t0 = time.perf_counter()
    worst_mean = 0.0
    worst_widely = 0.0
    for n_i in (32, 64, 128):
        for l in (2, 4):
            stream = RandomStream(1003, ("acceptance", "scaling", n_i, l))
            phys, widely, _ = _los_point_gains(n_i, l, 1000, stream)
            expect_p = expected_gain_physics_los(n_i, l, 2, 2)
            expect_w = expected_gain_widely_los(n_i, l, 2, 2)
            worst_mean = max(worst_mean, abs(phys.mean() - expect_p) / expect_p)
            worst_widely = max(worst_widely, float(np.abs(widely - expect_w).max() / expect_w))
    dt = time.perf_counter() - t0
    ok = worst_mean < 0.03 and worst_widely < 1e-9 and dt < 120.0
    report(3, ok, f"line-of-sight scaling law at n_i in (32,64,128), l in (2,4), 1000 trials "
                  f"(worst mean dev {100 * worst_mean:.2f}% < 3%, worst per-trial widely err "
                  f"{worst_widely:.2e} < 1e-9, {dt:.1f} s < 120 s)")
    assert worst_mean < 0.03
    assert worst_widely < 1e-9
    assert dt < 120.0


def test_relative_difference_los(report, los_metric_samples):
    closed_16 = relative_difference_los(16, 4)
    closed_128 = relative_difference_los(128, 4)
    anchor_ok = abs(closed_16 - 4.14) / 4.14 < 0.002 and \
        abs(closed_128 - 0.838) / 0.838 < 0.002
    devs = {}
    for (n_i, l), closed in (((16, 4), closed_16), ((128, 4), closed_128)):
        phys, widely, _ = los_metric_samples[(n_i, l)]
        eta_hat = (phys.mean() - widely.mean()) / widely.mean()
        devs[n_i] = abs(eta_hat - closed) / closed
    mc_ok = all(d < 0.05 for d in devs.values())
    ok = anchor_ok and mc_ok
    report(4, ok, f"relative gain difference: closed form {closed_16:.4f} / {closed_128:.4f} "
                  f"at (16,4) / (128,4), Monte Carlo off by "
                  f"{100 * devs[16]:.2f}% / {100 * devs[128]:.2f}% (< 5%)")
    assert anchor_ok
    assert mc_ok


def test_normalized_gain_los(report, los_metric_samples):
    closed_16 = normalized_gain_los(16, 4)
    closed_128 = normalized_gain_los(128, 4)
    anchor_ok = abs(closed_16 - 0.248) / 0.248 < 0.003 and \
        abs(closed_128 - 0.561) / 0.561 < 0.002
    devs = {}
    for (n_i, l), closed in (((16, 4), closed_16), ((128, 4), closed_128)):
        phys, _, cross = los_metric_samples[(n_i, l)]
        rho_hat = cross.mean() / phys.mean()
        devs[n_i] = abs(rho_hat - closed) / closed
    mc_ok = all(d < 0.05 for d in devs.values())
    ok = anchor_ok and mc_ok
    report(5, ok, f"normalized gain of cross-tuned phases: closed form {closed_16:.4f} / "
                  f"{closed_128:.4f} at (16,4) / (128,4), Monte Carlo off by "
                  f"{100 * devs[16]:.2f}% / {100 * devs[128]:.2f}% (< 5%)")
    assert anchor_ok
    assert mc_ok


def test_widely_bound_tightness_unitary(report):
    t0 = time.perf_counter()
    stream = RandomStream(1006, ("acceptance", "tight"))
    combos = ((2, 8), (2, 16), (3, 8), (3, 16))
    cfg = OptimizerConfig(model="widely_used", architecture="unitary",
                          rel_tol=1e-12, max_outer_iters=500, max_inner_iters=200)
    worst_gap = 0.0
    # instance i has shape combos[i % 4]; one batch per shape, each member on the
    # streams of its own instance
    for c, (l, n_i) in enumerate(combos):
        instances = range(c, 50, len(combos))
        chs = [gen_cascade(Dimensions(2, 2, n_i, l), FadingSpec("rayleigh"),
                           stream.child("ch", i)) for i in instances]
        runs = alg1_batch(chs, [cfg] * len(chs), [stream.child("opt", i) for i in instances])
        for ch, res in zip(chs, runs):
            bound = upper_bound_widely(ch)
            worst_gap = max(worst_gap, (bound - res.gain) / bound)
    dt = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and dt < 120.0
    report(6, ok, f"unitary surfaces reach the norm-product bound on 50 Rayleigh instances "
                  f"(worst rel gap {worst_gap:.2e} < 1e-6, {dt:.1f} s < 120 s)")
    assert worst_gap < 1e-6
    assert dt < 120.0


# the abstract's headline cell, deep-cascade at l = 4 and n_i = 128, as run_experiment
# writes it; a change that moves it updates these pins and lists old and new in CHANGES.md
HEADLINE = {"eta": 14.274447675411617, "rho": 0.07218803940790113}


def test_multipath_discrepancy_trends(report):
    t0 = time.perf_counter()
    # rows in the preset's model order: physics, widely_used, suboptimal_cross
    phys, widely, cross = run_experiment(replace(figure_preset("deep-cascade"), n_i_grid=(128,)))
    rho_band = (0.03, 0.15)
    # pinned at perfbench's reference tolerance, 1e-6 relative
    pin_dev = max(abs(phys.eta / HEADLINE["eta"] - 1), abs(cross.rho / HEADLINE["rho"] - 1))
    bounded = all(r.bound_mean >= r.mean_gain * (1 - 1e-9) for r in (phys, widely))
    dt = time.perf_counter() - t0
    ok = (phys.trials == 100 and phys.eta > 5.0 and rho_band[0] <= cross.rho <= rho_band[1]
          and pin_dev <= 1e-6 and bounded and dt < 1800.0)
    report(7, ok, f"deep multipath discrepancy at n_i=128, l=4 ({phys.trials} trials): "
                  f"eta {phys.eta:.2f} > 5, rho {cross.rho:.3f} in [{rho_band[0]}, {rho_band[1]}], "
                  f"off the pinned cell by {pin_dev:.1e} <= 1e-6, bound >= gain: {bounded} "
                  f"(rel std err {100 * phys.std_err / phys.mean_gain:.1f}% / "
                  f"{100 * cross.std_err / cross.mean_gain:.1f}%, converged "
                  f"{phys.converged_frac:.2f} / {widely.converged_frac:.2f}, {dt:.0f} s < 1800 s)")
    assert phys.trials == 100
    assert phys.eta > 5.0
    assert rho_band[0] <= cross.rho <= rho_band[1]
    assert pin_dev <= 1e-6
    assert bounded
    assert dt < 1800.0


def test_optimizer_properties(report):
    t0 = time.perf_counter()
    stream = RandomStream(1008, ("acceptance", "alg1"))
    worst_drop = 0.0
    worst_over = 0.0
    runs = 0
    for i, (l, n_i) in enumerate(((2, 4), (3, 5)) * 3):
        ch = gen_cascade(Dimensions(2, 2, n_i, l), FadingSpec("rayleigh"),
                         stream.child("ch", i))
        for model, bound_fn in (("physics", upper_bound_physics),
                                ("widely_used", upper_bound_widely)):
            bound = bound_fn(ch)
            for arch in ("diagonal", "unitary"):
                cfg = OptimizerConfig(model=model, architecture=arch)
                res = alg1_optimize(ch, cfg, stream.child("opt", i, model, arch))
                trace = np.array(res.gain_trace)
                if len(trace) > 1:
                    worst_drop = max(worst_drop, float(np.max(-np.diff(trace)) / res.gain))
                worst_over = max(worst_over, (res.gain - bound) / bound)
                runs += 1
    # brute-force oracle at the smallest multipath size
    worst_short = 0.0
    for i in range(8):
        ch = gen_cascade(Dimensions(2, 2, 2, 2), FadingSpec("rayleigh"),
                         stream.child("grid-ch", i))
        cfg = OptimizerConfig(model="physics", architecture="diagonal",
                              rel_tol=1e-10, max_outer_iters=300)
        res = best_of_restarts(ch, cfg, stream.child("grid-opt", i), restarts=5)
        grid_best = grid_search_gain_l2(ch, offset=1.0, levels=64)
        worst_short = max(worst_short, (grid_best - res.gain) / grid_best)
    dt = time.perf_counter() - t0
    ok = worst_drop <= 1e-9 and worst_over <= 1e-9 and worst_short < 0.02 and dt < 300.0
    report(8, ok, f"optimizer invariants over {runs} runs: worst trace drop {worst_drop:.2e} "
                  f"<= 1e-9, worst bound excess {worst_over:.2e} <= 1e-9, worst gap to the "
                  f"64-level grid oracle {100 * worst_short:.2f}% < 2% ({dt:.0f} s < 300 s)")
    assert worst_drop <= 1e-9
    assert worst_over <= 1e-9
    assert worst_short < 0.02
    assert dt < 300.0


def test_multisector_identities(report):
    rng = RandomStream(1009, ("acceptance", "sector")).generator()
    worst_trans = 0.0
    for _ in range(10):
        l = int(rng.integers(1, 4))
        # eight elements in four sectors, every surface used transmissively
        widths = (8 // 4,) * l
        ch = gaussian_cascade(Dimensions(2, 2, widths[0], l), rng)
        stack = random_phase_stack(widths, rng)
        worst_trans = max(worst_trans, _rel_err(assemble(ch, stack, [0] * l),
                                                dense_cascade(ch, stack.thetas, [0] * l)))
    ch = gaussian_cascade(Dimensions(2, 2, 4, 3), rng)
    h_null = assemble_physics_channel(ch, [np.eye(4)] * 3)
    null_max = float(np.abs(h_null).max())
    lam = estimate_mean_sq_singular_values(6, 6, FadingSpec("los"),
                                           RandomStream(1009, ("s",)), draws=60)
    s_hat = structural_scattering_strength(lam)
    s_err = abs(s_hat - 1.0 / 36.0) * 36.0
    ok = worst_trans < 1e-12 and null_max == 0.0 and s_err < 1e-9
    report(9, ok, f"sector identities: all-transmissive vs dense bare-Theta product "
                  f"{worst_trans:.2e} < 1e-12, identity surfaces null the channel exactly "
                  f"(max {null_max}), rank-1 scattering strength off by {s_err:.2e}")
    assert worst_trans < 1e-12
    assert null_max == 0.0
    assert s_err < 1e-9


def test_rician_trend(report):
    t0 = time.perf_counter()
    spec = ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(32,), seed=20250301,
                          trials=500, rician_k=(0.0, 1.0, 3.0, 10.0, 30.0),
                          models=("physics", "widely_used"),
                          architectures=("diagonal", "unitary"))
    table = run_experiment(spec)
    etas = {}
    for arch in ("diagonal", "unitary"):
        rows = [r for r in table if r.model == "physics" and r.architecture == arch]
        rows.sort(key=lambda r: r.rician_k)
        etas[arch] = [r.eta for r in rows]
    dt = time.perf_counter() - t0
    ok = all(all(b < a for a, b in zip(vals, vals[1:])) for vals in etas.values())
    fmt = {a: "[" + ", ".join(f"{v:.3f}" for v in v_list) + "]" for a, v_list in etas.items()}
    report(10, ok, f"relative difference falls as the specular share grows "
                   f"(k = 0,1,3,10,30; diagonal {fmt['diagonal']}, unitary {fmt['unitary']}; "
                   f"{dt:.0f} s)")
    for vals in etas.values():
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_deterministic_outputs(report, tmp_path):
    spec = figure_preset("smoke")
    blobs = {}
    for fmt in ("csv", "json"):
        outs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 2)):
            table = run_experiment(spec, parallel=workers)
            outs.append(emit(table, fmt, tmp_path / f"{name}.{fmt}").read_bytes())
        blobs[fmt] = outs
    rician = ExperimentSpec(scenario="rician", l=(2,), n_i_grid=(4,), seed=9, trials=6,
                            rician_k=(0.0, 2.0), models=("physics", "widely_used"))
    r_outs = []
    for name, workers in (("r1", 1), ("r2", 2)):
        table = run_experiment(rician, parallel=workers)
        r_outs.append(emit(table, "csv", tmp_path / f"{name}.csv").read_bytes())
    ok = all(o[0] == o[1] == o[2] for o in blobs.values()) and r_outs[0] == r_outs[1]
    report(11, ok, "reruns are byte-identical for CSV and JSON, sequential and "
                   "2-process parallel, across scenarios")
    for outs in blobs.values():
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]
    assert r_outs[0] == r_outs[1]
