"""Tests for distribution-free median CIs (McKean–Schrader / Price–Bonett)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import compare_medians, median_standard_error
from repro.stats.median_ci import normal_quantile


def median_interval(values):
    """A median and its 95% CI, ``(median, low, high)``, as
    :func:`compare_medians` gives them against a constant zero sample (whose
    standard error is 0, so the interval is the median's own)."""
    result = compare_medians(values, [0.0] * len(values))
    return result.difference, result.ci_low, result.ci_high


class TestNormalQuantile:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.5, 0.0),
            (0.975, 1.959964),
            (0.95, 1.644854),
            (0.025, -1.959964),
            (0.9999, 3.719016),
        ],
    )
    def test_known_values(self, p, expected):
        assert abs(normal_quantile(p) - expected) < 1e-4

    def test_rejects_boundaries(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_symmetry(self):
        for p in (0.6, 0.8, 0.99, 0.999):
            assert abs(normal_quantile(p) + normal_quantile(1 - p)) < 1e-9


class TestMedianSE:
    def test_requires_five_samples(self):
        with pytest.raises(ValueError):
            median_standard_error([1.0, 2.0, 3.0, 4.0])

    def test_se_shrinks_with_sample_size(self):
        rng = random.Random(11)
        small = [rng.gauss(0, 1) for _ in range(50)]
        large = [rng.gauss(0, 1) for _ in range(5000)]
        assert median_standard_error(large) < median_standard_error(small)

    def test_se_close_to_asymptotic_for_normal(self):
        # For N(0,1), SE(median) ~ 1.2533 / sqrt(n).
        rng = random.Random(13)
        n = 4000
        ses = [
            median_standard_error([rng.gauss(0, 1) for _ in range(n)])
            for _ in range(20)
        ]
        mean_se = sum(ses) / len(ses)
        expected = 1.2533 / math.sqrt(n)
        assert abs(mean_se - expected) / expected < 0.25

    def test_constant_sample_has_zero_se(self):
        assert median_standard_error([5.0] * 100) == 0.0


class TestMedianCI:
    def test_ci_brackets_median(self):
        rng = random.Random(17)
        values = [rng.expovariate(0.1) for _ in range(500)]
        med, low, high = median_interval(values)
        assert low <= med <= high

    def test_coverage_is_approximately_nominal(self):
        # Repeated sampling from Exp(1) (true median ln 2): the 95% CI
        # should contain ln 2 in roughly 95% of replicates.
        rng = random.Random(19)
        hits = 0
        trials = 300
        for _ in range(trials):
            values = [rng.expovariate(1.0) for _ in range(200)]
            _, low, high = median_interval(values)
            if low <= math.log(2) <= high:
                hits += 1
        assert hits / trials > 0.88


class TestCompareMedians:
    def test_detects_clear_shift(self):
        rng = random.Random(23)
        a = [rng.gauss(50, 3) for _ in range(200)]
        b = [rng.gauss(40, 3) for _ in range(200)]
        result = compare_medians(a, b)
        assert result.valid
        assert result.exceeds(5.0)
        assert 8 < result.difference < 12

    def test_identical_populations_do_not_exceed(self):
        rng = random.Random(29)
        a = [rng.gauss(40, 5) for _ in range(300)]
        b = [rng.gauss(40, 5) for _ in range(300)]
        result = compare_medians(a, b)
        assert result.valid
        assert not result.exceeds(2.0)
        assert result.ci_high >= -2.0

    def test_min_samples_rule(self):
        a = [1.0] * 29
        b = [2.0] * 100
        result = compare_medians(a, b)
        assert not result.valid
        assert not result.exceeds(0.0)

    def test_tiny_samples_return_invalid_not_error(self):
        result = compare_medians([1.0, 2.0], [3.0])
        assert not result.valid
        assert math.isnan(result.difference)

    def test_tight_ci_rule(self):
        rng = random.Random(31)
        # Huge variance on few-ish samples => wide CI => invalid at 10ms cap.
        a = [rng.gauss(100, 80) for _ in range(40)]
        b = [rng.gauss(100, 80) for _ in range(40)]
        result = compare_medians(a, b, max_ci_width=10.0)
        assert not result.valid

    def test_ci_narrows_as_samples_grow(self):
        rng = random.Random(41)
        small = compare_medians(
            [rng.gauss(40, 5) for _ in range(50)], [rng.gauss(40, 5) for _ in range(50)]
        )
        large = compare_medians(
            [rng.gauss(40, 5) for _ in range(2000)],
            [rng.gauss(40, 5) for _ in range(2000)],
        )
        assert large.ci_high - large.ci_low < small.ci_high - small.ci_low

    def test_higher_confidence_widens_the_ci(self):
        rng = random.Random(43)
        a = [rng.expovariate(0.05) for _ in range(400)]
        b = [rng.expovariate(0.05) for _ in range(400)]
        narrow = compare_medians(a, b, confidence=0.90)
        wide = compare_medians(a, b, confidence=0.99)
        assert narrow.difference == wide.difference
        assert wide.ci_low < narrow.ci_low
        assert wide.ci_high > narrow.ci_high

    def test_difference_uses_the_even_sample_midpoint(self):
        result = compare_medians([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0] * 5)
        assert result.difference == 3.5
        assert (result.n_a, result.n_b) == (6, 5)

    def test_statistically_equal_or_greater(self):
        rng = random.Random(37)
        a = [rng.gauss(0.9, 0.05) for _ in range(200)]
        b = [rng.gauss(0.5, 0.05) for _ in range(200)]
        better = compare_medians(a, b)
        worse = compare_medians(b, a)
        assert better.statistically_equal_or_greater()
        assert not worse.statistically_equal_or_greater()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1000), min_size=30, max_size=200),
    st.lists(st.floats(min_value=0, max_value=1000), min_size=30, max_size=200),
)
def test_difference_sign_flips_when_swapped(a, b):
    forward = compare_medians(a, b)
    backward = compare_medians(b, a)
    assert forward.difference == pytest.approx(-backward.difference)
    assert forward.ci_low == pytest.approx(-backward.ci_high)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=30, max_size=200))
def test_self_comparison_is_centered(values):
    result = compare_medians(values, values)
    assert result.difference == pytest.approx(0.0)
    assert result.ci_low <= 0.0 <= result.ci_high
