"""Tests for bootstrap CIs and their agreement with the fast parametric-free
intervals the paper's methodology uses."""

import random

import pytest

from repro.stats.median_ci import compare_medians
from tests.bootstrap import bootstrap_median_ci, bootstrap_median_difference_ci


class TestBootstrapMedian:
    def test_brackets_the_median(self):
        rng = random.Random(1)
        values = [rng.expovariate(0.05) for _ in range(300)]
        med, low, high = bootstrap_median_ci(values, rng=random.Random(2))
        assert low <= med <= high

    def test_interval_shrinks_with_samples(self):
        rng = random.Random(3)
        small = [rng.gauss(50, 5) for _ in range(40)]
        large = [rng.gauss(50, 5) for _ in range(2000)]
        _, lo_s, hi_s = bootstrap_median_ci(small, rng=random.Random(4))
        _, lo_l, hi_l = bootstrap_median_ci(large, rng=random.Random(5))
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci([1.0, 2.0])
        with pytest.raises(ValueError):
            bootstrap_median_ci([1.0] * 10, resamples=10)


class TestBootstrapDifference:
    def test_detects_shift(self):
        rng = random.Random(7)
        a = [rng.gauss(50, 3) for _ in range(200)]
        b = [rng.gauss(42, 3) for _ in range(200)]
        diff, low, high = bootstrap_median_difference_ci(
            a, b, rng=random.Random(8)
        )
        assert 6 < diff < 10
        assert low > 4.0

    def test_no_shift_interval_covers_zero(self):
        rng = random.Random(9)
        a = [rng.gauss(50, 3) for _ in range(200)]
        b = [rng.gauss(50, 3) for _ in range(200)]
        _, low, high = bootstrap_median_difference_ci(a, b, rng=random.Random(10))
        assert low <= 0.0 <= high


class TestAgreementWithFastPath:
    """The empirical justification for the production CI construction."""

    def test_median_ci_widths_agree(self):
        rng = random.Random(11)
        values = [rng.lognormvariate(3.5, 0.6) for _ in range(500)]
        # Against a constant sample (standard error 0) the difference CI is
        # the median's own.
        fast = compare_medians(values, [0.0] * len(values))
        _, boot_lo, boot_hi = bootstrap_median_ci(
            values, resamples=2000, rng=random.Random(12)
        )
        fast_width = fast.ci_high - fast.ci_low
        boot_width = boot_hi - boot_lo
        assert fast_width == pytest.approx(boot_width, rel=0.5)

    def test_difference_decisions_agree(self):
        rng = random.Random(13)
        for shift in (0.0, 2.0, 8.0):
            a = [rng.gauss(50 + shift, 4) for _ in range(300)]
            b = [rng.gauss(50, 4) for _ in range(300)]
            fast = compare_medians(a, b)
            _, boot_lo, _ = bootstrap_median_difference_ci(
                a, b, resamples=1500, rng=random.Random(int(shift))
            )
            # Same verdict at a 1 ms threshold, away from the boundary.
            if abs(shift - 1.0) > 1.0:
                assert fast.exceeds(1.0) == (boot_lo > 1.0), shift
