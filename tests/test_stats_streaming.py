"""Tests for streaming (t-digest based) median comparison."""

import random

import pytest

from repro.stats.median_ci import compare_medians
from repro.stats.streaming import (
    streaming_compare,
    streaming_median_se,
)
from repro.stats.tdigest import TDigest


class TestStreamingSe:
    def test_matches_exact_estimator(self):
        rng = random.Random(5)
        values = [rng.gauss(40.0, 4.0) for _ in range(2000)]
        digest = TDigest.of(values)
        from repro.stats.median_ci import median_standard_error

        exact = median_standard_error(values)
        streamed = streaming_median_se(digest)
        assert streamed == pytest.approx(exact, rel=0.25)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            streaming_median_se(TDigest.of([1.0, 2.0]))


class TestStreamingCompare:
    def test_matches_exact_comparison(self):
        rng = random.Random(7)
        a = [rng.gauss(50.0, 3.0) for _ in range(1000)]
        b = [rng.gauss(42.0, 3.0) for _ in range(1000)]
        exact = compare_medians(a, b)
        streamed = streaming_compare(TDigest.of(a), TDigest.of(b))
        assert streamed.valid
        assert streamed.difference == pytest.approx(exact.difference, abs=0.5)
        assert streamed.exceeds(5.0) == exact.exceeds(5.0)

    def test_detects_clear_shift(self):
        rng = random.Random(9)
        a = TDigest.of([rng.gauss(50.0, 2.0) for _ in range(500)])
        b = TDigest.of([rng.gauss(40.0, 2.0) for _ in range(500)])
        result = streaming_compare(a, b)
        assert result.exceeds(5.0)

    def test_identical_distributions_no_event(self):
        rng = random.Random(11)
        a = TDigest.of([rng.gauss(40.0, 2.0) for _ in range(500)])
        b = TDigest.of([rng.gauss(40.0, 2.0) for _ in range(500)])
        result = streaming_compare(a, b)
        assert not result.exceeds(2.0)

    def test_min_samples_rule(self):
        a = TDigest.of([1.0] * 20)
        b = TDigest.of([2.0] * 100)
        assert not streaming_compare(a, b).valid

    def test_tight_ci_rule(self):
        rng = random.Random(13)
        a = TDigest.of([rng.gauss(100.0, 90.0) for _ in range(40)])
        b = TDigest.of([rng.gauss(100.0, 90.0) for _ in range(40)])
        assert not streaming_compare(a, b, max_ci_width=5.0).valid
