"""Tests for A/B-test statistics."""

import math

import numpy as np
import pytest

from repro.metrics.stats import (
    LiftResult,
    _two_sided_p_value,
    bootstrap_mean_ci,
    relative_lift,
    two_proportion_test,
)


class TestRelativeLift:
    def test_positive(self):
        assert np.isclose(relative_lift(1.1, 1.0), 0.1)

    def test_negative(self):
        assert np.isclose(relative_lift(0.9, 1.0), -0.1)

    def test_zero_control_rejected(self):
        with pytest.raises(ValueError):
            relative_lift(1.0, 0.0)


class TestTwoProportion:
    def test_clear_difference_significant(self):
        result = two_proportion_test(600, 10_000, 500, 10_000)
        assert result.significant_95
        assert result.lift > 0
        assert result.direction == "up"

    def test_identical_rates_not_significant(self):
        result = two_proportion_test(500, 10_000, 500, 10_000)
        assert not result.significant_95
        assert np.isclose(result.lift, 0.0)

    def test_small_sample_not_significant(self):
        result = two_proportion_test(6, 100, 5, 100)
        assert not result.significant_95

    def test_negative_direction(self):
        result = two_proportion_test(400, 10_000, 500, 10_000)
        assert result.lift < 0
        assert result.direction == "down"

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_test(1, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_test(11, 10, 1, 10)

    def test_degenerate_zero_rates(self):
        result = two_proportion_test(0, 100, 0, 100)
        assert isinstance(result, LiftResult)
        assert not result.significant_95

    def test_p_value_symmetry(self):
        a = two_proportion_test(550, 10_000, 500, 10_000)
        b = two_proportion_test(500, 10_000, 550, 10_000)
        assert np.isclose(a.p_value, b.p_value)


class TestTwoSidedPValue:
    def test_far_tail_keeps_relative_precision(self):
        assert math.isclose(
            _two_sided_p_value(10.0), 1.5239706048321186e-23, rel_tol=1e-12
        )
        assert _two_sided_p_value(-10.0) == _two_sided_p_value(10.0)

    def test_five_percent_critical_value(self):
        p_value = _two_sided_p_value(1.959963984540054)
        assert math.isclose(p_value, 0.05, abs_tol=1e-12)

    def test_huge_difference_is_significant_not_zero(self):
        # z is about 19.8: ``1 - cdf`` cancels to exactly 0 here.
        result = two_proportion_test(2000, 10_000, 1000, 10_000)
        assert 0.0 < result.p_value < 1e-80
        assert result.significant_95

    def test_agrees_with_scipy_normal_tail(self):
        stats = pytest.importorskip("scipy.stats")
        for z in np.linspace(-8.0, 8.0, 1601):
            p_value = _two_sided_p_value(z)
            assert abs(p_value - 2.0 * stats.norm.sf(abs(z))) <= 1e-15, z
            # The former ``2 * (1 - cdf)`` form, so no 5% decision moves.
            assert abs(p_value - 2.0 * (1.0 - stats.norm.cdf(abs(z)))) <= 1e-15, z


class TestBootstrap:
    def test_ci_contains_mean_of_tight_sample(self, rng):
        values = rng.normal(10.0, 0.1, size=500)
        est, low, high = bootstrap_mean_ci(values, rng)
        assert low < 10.0 < high
        assert np.isclose(est, values.mean())

    def test_ci_width_shrinks_with_n(self, rng):
        narrow = rng.normal(0, 1, size=4000)
        wide = narrow[:40]
        _, low_n, high_n = bootstrap_mean_ci(narrow, rng)
        _, low_w, high_w = bootstrap_mean_ci(wide, rng)
        assert (high_n - low_n) < (high_w - low_w)

    def test_custom_statistic(self, rng):
        values = rng.normal(0, 1, size=300)
        est, low, high = bootstrap_mean_ci(values, rng, statistic=np.median)
        assert low <= est <= high

    def test_empty_sample_rejected(self, rng):
        with pytest.raises(ValueError):
            bootstrap_mean_ci(np.array([]), rng)

    def test_bad_alpha(self, rng):
        with pytest.raises(ValueError):
            bootstrap_mean_ci(np.ones(5), rng, alpha=1.5)
