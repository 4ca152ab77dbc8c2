"""Closed-form scaling laws, discrepancy metrics, and their Monte Carlo twins."""

import decimal
import math

import numpy as np
import pytest

from conftest import draw_los_link
from multiris.errors import (
    DegenerateDenominator,
    DimensionMismatch,
    EmptySample,
    EmptySequence,
    NonFiniteInput,
    RangeExceeded,
)
from multiris.fading import FadingSpec
from multiris.rng import RandomStream
from multiris.scaling import (
    estimate_mean_sq_singular_values,
    expected_gain_physics_los,
    expected_gain_suboptimal_los,
    expected_gain_widely_los,
    mc_normalized_gain,
    mc_relative_difference,
    normalized_gain_los,
    relative_difference_los,
    structural_scattering_strength,
)


class TestClosedForms:
    def test_single_element_two_hop_value(self):
        val = expected_gain_physics_los(1, 2, 2, 2)
        assert val == pytest.approx(56.92563222884743, rel=1e-12)

    def test_widely_used_value(self):
        val = expected_gain_widely_los(4, 4, 2, 2)
        assert val == pytest.approx(262144.0, rel=1e-12)

    def test_suboptimal_value(self):
        val = expected_gain_suboptimal_los(4, 2, 2, 2)
        assert val == pytest.approx(1600.0, rel=1e-12)

    def test_path_gain_scales_quadratically(self):
        for fn in (expected_gain_physics_los, expected_gain_widely_los,
                   expected_gain_suboptimal_los):
            assert fn(8, 3, 2, 4, path_gain=3.0) == pytest.approx(9.0 * fn(8, 3, 2, 4),
                                                                  rel=1e-12)

    def test_suboptimal_depth_doubling_identity(self):
        # squaring the two-hop value and stripping one gain/aperture factor
        # lands exactly on the four-hop value
        for n in (2, 8, 32):
            two = expected_gain_suboptimal_los(n, 2, 2, 2, path_gain=1.3)
            four = expected_gain_suboptimal_los(n, 4, 2, 2, path_gain=1.3)
            assert two ** 2 / (1.3 ** 2 * 2 * 2) == pytest.approx(four, rel=1e-12)

    def test_metric_factorizations(self):
        for n, l in ((4, 1), (16, 3), (64, 5)):
            physics = expected_gain_physics_los(n, l, 3, 2)
            widely = expected_gain_widely_los(n, l, 3, 2)
            sub = expected_gain_suboptimal_los(n, l, 3, 2)
            assert physics / widely == pytest.approx(1.0 + relative_difference_los(n, l),
                                                     rel=1e-12)
            assert sub / physics == pytest.approx(normalized_gain_los(n, l), rel=1e-12)

    def test_eta_anchor_values(self):
        assert relative_difference_los(16, 4) == pytest.approx(4.138708207123815, rel=1e-12)
        assert relative_difference_los(128, 4) == pytest.approx(0.8387526551504014, rel=1e-12)

    def test_rho_anchor_values(self):
        assert normalized_gain_los(16, 4) == pytest.approx(0.24800577692314102, rel=1e-12)
        assert normalized_gain_los(128, 4) == pytest.approx(0.5610423561438945, rel=1e-12)

    def test_depth_zero(self):
        assert relative_difference_los(64, 0) == 0.0
        assert normalized_gain_los(64, 0) == 1.0
        # no surface: the bare path gain and aperture, even where n_i^2 is out of range
        for fn in _GAINS:
            assert fn(64, 0, 2, 3, path_gain=2.0) == 24.0
            assert fn(10 ** 300, 0, 1, 1) == 1.0

    def test_eta_asymptote(self):
        # eta -> l sqrt(pi / n) for wide surfaces
        n, l = 10 ** 6, 2
        assert relative_difference_los(n, l) == pytest.approx(l * math.sqrt(math.pi / n),
                                                              rel=2e-3)

    def test_eta_crossover_in_element_count(self):
        # gains from structure dominate for small surfaces and fade for large ones
        assert relative_difference_los(16, 4) > 1.0
        assert relative_difference_los(128, 4) < 1.0

    def test_rho_increases_with_elements(self):
        values = [normalized_gain_los(n, 4) for n in (4, 16, 64, 256)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rho_and_eta_at_the_top_of_the_double_range(self):
        # pi * n_i alone would overflow to inf here and read rho as 0
        assert normalized_gain_los(10 ** 308, 4) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= relative_difference_los(10 ** 308, 1) < 1e-150

    def test_split_square_root_moves_values_by_rounding_only(self):
        # sqrt(pi) * sqrt(n_i) against sqrt(pi * n_i), at the points the acceptance tests read
        for n, l in ((16, 4), (128, 4)):
            s = math.sqrt(math.pi * n)
            eta = ((n + s + 1.0) ** l - float(n) ** l) / float(n) ** l
            assert relative_difference_los(n, l) == pytest.approx(eta, rel=1e-15)
            rho = ((n + 1.0) / (n + s + 1.0)) ** l
            assert normalized_gain_los(n, l) == pytest.approx(rho, rel=1e-15)
        for n in (32, 64, 128):
            for l in (2, 4):
                physics = (n * n + math.sqrt(math.pi * n) * n + n) ** l * 2 * 2
                assert expected_gain_physics_los(
                    n, l, 2, 2) == pytest.approx(physics, rel=1e-15)

    def test_overflow_guard(self):
        with pytest.raises(RangeExceeded):
            expected_gain_physics_los(10 ** 9, 40, 1, 1)
        # eta itself is small here although (n_i + sqrt(pi n_i) + 1)^l overflows
        assert relative_difference_los(10 ** 9, 40) == pytest.approx(
            _decimal_eta(10 ** 9, 40), rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda: expected_gain_physics_los(10 ** 200, 1, 1, 1),
        lambda: expected_gain_suboptimal_los(10 ** 200, 1, 1, 1),
        lambda: expected_gain_widely_los(1, 1, 1, 1, path_gain=1e200),
        lambda: expected_gain_physics_los(2, 1, 10 ** 200, 10 ** 200),
        # l log(n_i^2) equals log(max double) after rounding: the power itself overflows
        lambda: expected_gain_widely_los(2, 512, 1, 1),
        lambda: relative_difference_los(1, 1000),
    ])
    def test_gains_beyond_the_double_range_raise(self, call):
        with pytest.raises(RangeExceeded):
            call()

    @pytest.mark.parametrize("call", [
        lambda: normalized_gain_los(1, 10 ** 4),
        lambda: expected_gain_widely_los(4, 2, 2, 2, path_gain=1e-200),
        lambda: expected_gain_physics_los(2, 2, 2, 2, path_gain=1e-170),
        # a subnormal result is below the range too: 1e-320
        lambda: expected_gain_widely_los(1, 1, 1, 1, path_gain=1e-160),
    ])
    def test_gains_below_the_double_range_raise(self, call):
        # each comes out as 0.0 in doubles, a 100% relative error
        with pytest.raises(RangeExceeded, match="underflows"):
            call()

    def test_exact_zeros_and_the_smallest_normals_are_returned(self):
        for fn in _GAINS:
            assert fn(4, 2, 2, 2, path_gain=0) == 0.0
            assert fn(4, 2, 2, 2, path_gain=0.0) == 0.0
        assert relative_difference_los(4, 0) == 0.0
        assert expected_gain_widely_los(1, 1, 1, 1, path_gain=2e-154) == pytest.approx(4e-308)

    @pytest.mark.parametrize("n_i, path_gain", [(10 ** 10, 1e-200), (10 ** 20, 1e-190)])
    def test_gains_whose_factors_leave_the_range_are_returned(self, n_i, path_gain):
        # path_gain^2 underflows (1e-400), or n_i^(2l) overflows (1e400), but the
        # gain, about 1e-200 or 1e20, is a normal double
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            exact = decimal.Decimal(path_gain) ** 2 * decimal.Decimal(n_i) ** 20
        assert expected_gain_widely_los(n_i, 10, 1, 1, path_gain=path_gain) == pytest.approx(
            float(exact), rel=1e-12)

    @pytest.mark.parametrize("fn, model", [(expected_gain_widely_los, "widely_used"),
                                           (expected_gain_physics_los, "physics"),
                                           (expected_gain_suboptimal_los, "suboptimal_cross")])
    def test_gains_whose_n_i_squared_overflows_are_returned(self, fn, model):
        # n_i^2 = 1e400 is inf as a double, but path_gain^2 n_i^2, about 1e-100, is not
        assert fn(10 ** 200, 1, 1, 1, path_gain=1e-250) == pytest.approx(
            _decimal_gain(model, 10 ** 200, 1, 1e-250), rel=1e-12)

    @pytest.mark.parametrize("n_i, l", [(128, 150), (10 ** 9, 40), (10 ** 200, 1), (16, 4),
                                        (1, 5), (128, 4)])
    def test_eta_matches_a_decimal_evaluation(self, n_i, l):
        assert relative_difference_los(n_i, l) == pytest.approx(_decimal_eta(n_i, l), rel=1e-12)

    def test_numpy_scalars_give_python_floats(self):
        val = expected_gain_physics_los(np.int64(4), np.int64(2), np.int64(2), np.int64(2),
                                        np.float64(1.0))
        assert type(val) is float
        assert val == expected_gain_physics_los(4, 2, 2, 2)


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _decimal_eta(n_i, l):
    """(1 + (sqrt(pi n_i) + 1) / n_i)^l - 1 in 400-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        n = decimal.Decimal(n_i)
        return float((1 + ((_PI * n).sqrt() + 1) / n) ** l - 1)


def _decimal_gain(model, n_i, l, path_gain):
    """path_gain^2 times the per-surface factor of model to the l in 400-digit decimal
    arithmetic, with n_t = n_r = 1."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        n = decimal.Decimal(n_i)
        factor = {"physics": n * n + (_PI * n).sqrt() * n + n, "widely_used": n * n,
                  "suboptimal_cross": n * n + n}[model]
        return float(decimal.Decimal(path_gain) ** 2 * factor ** l)


_GAINS = (expected_gain_physics_los, expected_gain_widely_los, expected_gain_suboptimal_los)


class TestInputValidation:
    def test_rejects_nonpositive_dims(self):
        for dims in ((0, 2, 2, 2), (4, 2, 2, -1), (4, -1, 2, 2), (4, 2, 0, 2)):
            for fn in _GAINS:
                with pytest.raises(DimensionMismatch):
                    fn(*dims)

    def test_rejects_bool_dims(self):
        for fn in _GAINS:
            with pytest.raises(DimensionMismatch):
                fn(True, 2, 2, 2)

    def test_rejects_huge_negative_dims(self):
        for fn in _GAINS:
            with pytest.raises(DimensionMismatch, match="n_i, n_t, n_r >= 1"):
                fn(-10 ** 5000, 2, 2, 2)

    @pytest.mark.parametrize("field", ["n_i", "l", "n_t", "n_r"])
    def test_rejects_dims_beyond_double_range(self, field):
        dims = {"n_i": 4, "l": 2, "n_t": 2, "n_r": 2, field: 10 ** 400}
        for fn in _GAINS:
            with pytest.raises(DimensionMismatch, match="double range"):
                fn(**dims)

    def test_rejects_bad_path_gain(self):
        for fn in _GAINS:
            with pytest.raises(DimensionMismatch):
                fn(4, 2, 2, 2, path_gain=-0.5)
            with pytest.raises(DimensionMismatch):
                fn(4, 2, 2, 2, path_gain=float("nan"))

    @pytest.mark.parametrize("n_i, l", [
        (float("nan"), 2),
        (4, float("nan")),
        (True, 2),
        (4, True),
        (2.5, 2),
        (4, 2.5),
        pytest.param(-10 ** 5000, 2, id="n_i=-10**5000"),
        pytest.param(10 ** 400, 2, id="n_i=10**400"),
        pytest.param(4, 10 ** 400, id="l=10**400"),
    ])
    def test_closed_form_metrics_reject_bad_dims(self, n_i, l):
        for metric in (relative_difference_los, normalized_gain_los):
            with pytest.raises(DimensionMismatch, match="need ints"):
                metric(n_i, l)

    @pytest.mark.parametrize("path_gain", ["x", None, True, [1.0], float("inf"),
                                           pytest.param(10 ** 400, id="10**400"),
                                           pytest.param(-10 ** 5000, id="-10**5000")])
    def test_rejects_non_number_path_gain(self, path_gain):
        for fn in _GAINS:
            with pytest.raises(DimensionMismatch):
                fn(4, 2, 2, 2, path_gain=path_gain)


class TestMonteCarloMetrics:
    def test_eta_matches_closed_form_on_los_draws(self):
        n, l = 4, 2
        stream = RandomStream(101, ("mc-eta",))
        widely = expected_gain_widely_los(n, l, 2, 2)
        physics = []
        for t in range(400):
            sub = stream.child(t)
            links = [draw_los_link(n, 2, 1.0, sub.child(0)),
                     draw_los_link(n, n, 1.0, sub.child(1)),
                     draw_los_link(2, n, 1.0, sub.child(2))]
            g = 4.0
            for k in range(l):
                c = links[k + 1].b[0] @ links[k].a[0]
                g *= (abs(c) + n) ** 2
            physics.append(g)
        eta_hat = mc_relative_difference(physics, [widely] * 400)
        assert eta_hat == pytest.approx(3.563465477029342, rel=0.1)

    def test_rho_of_identical_samples_is_one(self):
        g = [1.0, 2.0, 3.0]
        assert mc_normalized_gain(g, g) == pytest.approx(1.0, rel=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptySample):
            mc_relative_difference([], [])
        with pytest.raises(EmptySample):
            mc_normalized_gain([], [1.0])

    def test_unpaired_samples_rejected(self):
        with pytest.raises(DimensionMismatch):
            mc_relative_difference([1.0, 2.0], [1.0])

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            mc_relative_difference([1.0], [0.0])
        with pytest.raises(DegenerateDenominator):
            mc_normalized_gain([1.0], [0.0])

    @pytest.mark.parametrize("metric, x, y", [
        (mc_relative_difference, [math.nan, 1.0], [1.0, 1.0]),
        (mc_relative_difference, [1.0], [math.nan]),
        (mc_normalized_gain, [math.inf, 1.0], [1.0, 1.0]),
    ])
    def test_non_finite_samples_rejected(self, metric, x, y):
        with pytest.raises(NonFiniteInput):
            metric(x, y)


class TestScatteringStrength:
    def test_rank_one_spectrum(self):
        lam = np.zeros(8)
        lam[0] = 2.5
        assert structural_scattering_strength(lam) == pytest.approx(1.0 / 64.0, rel=1e-12)

    def test_flat_spectrum(self):
        assert structural_scattering_strength(np.ones(8)) == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(EmptySequence):
            structural_scattering_strength([])
        with pytest.raises(DimensionMismatch):
            structural_scattering_strength([1.0, 2.0])
        with pytest.raises(DegenerateDenominator):
            structural_scattering_strength([0.0, 0.0])
        with pytest.raises(NonFiniteInput):
            structural_scattering_strength([math.nan, 1.0])

    def test_estimate_rejects_empty_links(self):
        with pytest.raises(DimensionMismatch, match="rows and cols"):
            estimate_mean_sq_singular_values(0, 2, FadingSpec("los"), RandomStream(31))

    @pytest.mark.parametrize("draws", [0, 2.5, True])
    def test_estimate_rejects_bad_draw_counts(self, draws):
        with pytest.raises(EmptySample, match="draws must be an integer"):
            estimate_mean_sq_singular_values(4, 4, FadingSpec("los"), RandomStream(31),
                                             draws=draws)

    def test_los_estimate_is_rank_one(self):
        lam = estimate_mean_sq_singular_values(4, 4, FadingSpec("los"),
                                               RandomStream(31, ("s-los",)), draws=50)
        s = structural_scattering_strength(lam)
        assert s == pytest.approx(1.0 / 16.0, rel=1e-9)

    def test_rayleigh_sits_between_extremes(self):
        lam = estimate_mean_sq_singular_values(4, 4, FadingSpec("rayleigh"),
                                               RandomStream(37, ("s-ray",)), draws=400)
        s = structural_scattering_strength(lam)
        assert 1.0 / 16.0 < s < 1.0 / 4.0

    def test_nonincreasing_in_rician_k(self):
        values = []
        for k in (0.0, 1.0, 10.0, 1e6):
            lam = estimate_mean_sq_singular_values(
                4, 4, FadingSpec("rician", rician_k=k),
                RandomStream(41, ("s-rice",)), draws=400)
            values.append(structural_scattering_strength(lam))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0 / 16.0, rel=1e-3)
