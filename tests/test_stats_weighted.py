"""Tests for percentiles and weighted ECDFs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import weighted_ecdf, weighted_fraction_at_most
from repro.stats.weighted import percentile
from tests.helpers import ecdf


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50.0) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50.0) == 2.5

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestEcdf:
    """``ecdf`` is the tests' oracle (``tests.helpers``) for ``CdfSeries``."""

    def test_unweighted_fractions(self):
        xs, fs = ecdf([3.0, 1.0, 2.0])
        assert xs == [1.0, 2.0, 3.0]
        assert fs == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]

    def test_weighted_fractions(self):
        xs, fs = weighted_ecdf([10.0, 20.0], [3.0, 1.0])
        assert xs == [10.0, 20.0]
        assert fs == [pytest.approx(0.75), pytest.approx(1.0)]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ecdf([])

    def test_weighted_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            weighted_ecdf([1.0, 2.0], [1.0])

    def test_weighted_zero_total_weight_raises(self):
        with pytest.raises(ValueError):
            weighted_ecdf([1.0, 2.0], [0.0, 0.0])

    def test_weighted_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_ecdf([], [])


class TestFractionAtMost:
    def test_basic(self):
        values = [10.0, 20.0, 30.0]
        weights = [1.0, 1.0, 2.0]
        assert weighted_fraction_at_most(values, weights, 20.0) == pytest.approx(0.5)
        assert weighted_fraction_at_most(values, weights, 9.0) == 0.0
        assert weighted_fraction_at_most(values, weights, 30.0) == 1.0

    def test_threshold_between_points(self):
        assert weighted_fraction_at_most([1.0, 3.0], [1.0, 1.0], 2.0) == pytest.approx(0.5)

    def test_heavy_weight_dominates(self):
        values = [1.0, 100.0]
        weights = [1.0, 99.0]
        assert weighted_fraction_at_most(values, weights, 50.0) == pytest.approx(0.01)


values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50
)


@settings(max_examples=50, deadline=None)
@given(values_strategy)
def test_unit_weights_give_the_unweighted_ecdf(values):
    xs, fractions = weighted_ecdf(values, [1.0] * len(values))
    expected_xs, expected_fractions = ecdf(values)
    assert xs == expected_xs
    assert fractions == pytest.approx(expected_fractions)


@settings(max_examples=50, deadline=None)
@given(values_strategy, st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_monotone_in_q(values, q1, q2):
    # Linear interpolation rounds: allow one part in 1e12 of the scale.
    slack = 1e-12 * (1.0 + max(abs(v) for v in values))
    low, high = sorted((q1, q2))
    assert percentile(values, low) <= percentile(values, high) + slack
    assert min(values) - slack <= percentile(values, low) <= max(values) + slack
