"""Tests for the random-variate helpers behind the workload generator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.sampling import (
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    lognormal_from_quantiles,
)


def draws(dist, rng, count):
    return [dist.sample(rng) for _ in range(count)]


class TestPrimitives:
    def test_uniform_bounds(self):
        rng = random.Random(2)
        dist = Uniform(5.0, 6.0)
        for _ in range(100):
            assert 5.0 <= dist.sample(rng) <= 6.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)

    def test_lognormal_median(self):
        rng = random.Random(4)
        dist = LogNormal(mu=math.log(100.0), sigma=0.8)
        values = sorted(draws(dist, rng, 20001))
        assert abs(values[10000] - 100.0) / 100.0 < 0.05

    def test_lognormal_clamping(self):
        rng = random.Random(5)
        dist = LogNormal(mu=0.0, sigma=3.0, low=0.5, high=2.0)
        for _ in range(500):
            assert 0.5 <= dist.sample(rng) <= 2.0

    def test_pareto_tail(self):
        rng = random.Random(6)
        dist = Pareto(xm=1.0, alpha=1.5)
        values = draws(dist, rng, 10000)
        assert min(values) >= 1.0
        assert max(values) > 10.0  # heavy tail produces large values


    def test_pareto_cap(self):
        rng = random.Random(9)
        dist = Pareto(xm=1.0, alpha=0.5, high=50.0)
        values = draws(dist, rng, 2000)
        assert max(values) == 50.0
        assert min(values) >= 1.0

    def test_degenerate_uniform_is_constant(self):
        rng = random.Random(10)
        assert set(draws(Uniform(3.0, 3.0), rng, 50)) == {3.0}

    def test_lognormal_median_property(self):
        assert LogNormal(mu=math.log(250.0), sigma=1.0).median == pytest.approx(250.0)


class TestMixture:
    def test_weights_normalize(self):
        m = Mixture([(2.0, Uniform(1.0, 1.0)), (2.0, Uniform(2.0, 2.0))])
        weights = [w for w, _ in m.components]
        assert weights == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_component_proportions(self):
        rng = random.Random(7)
        m = Mixture([(0.8, Uniform(0.0, 0.0)), (0.2, Uniform(1.0, 1.0))])
        values = draws(m, rng, 20000)
        assert abs(sum(values) / len(values) - 0.2) < 0.02

    def test_single_component_matches_the_component(self):
        component = LogNormal(mu=1.0, sigma=0.5)
        mixture = Mixture([(3.0, component)])
        rng_a, rng_b = random.Random(11), random.Random(11)
        for _ in range(20):
            rng_b.random()  # the mixture's component roll
            assert mixture.sample(rng_a) == component.sample(rng_b)

    def test_empty_mixture_raises(self):
        with pytest.raises(ValueError):
            Mixture([])

    def test_nonpositive_weights_raise(self):
        with pytest.raises(ValueError):
            Mixture([(0.0, Uniform(1.0, 1.0))])


class TestQuantileFit:
    def test_fit_passes_through_quantiles(self):
        dist = lognormal_from_quantiles(0.5, 3000.0, 0.9, 50000.0)
        rng = random.Random(8)
        values = sorted(draws(dist, rng, 40001))
        p50 = values[20000]
        p90 = values[int(0.9 * 40000)]
        assert abs(p50 - 3000.0) / 3000.0 < 0.05
        assert abs(p90 - 50000.0) / 50000.0 < 0.10

    def test_fit_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lognormal_from_quantiles(0.5, 10.0, 0.5, 20.0)  # equal quantiles
        with pytest.raises(ValueError):
            lognormal_from_quantiles(0.9, 10.0, 0.5, 20.0)  # decreasing CDF
        with pytest.raises(ValueError):
            lognormal_from_quantiles(0.5, -1.0, 0.9, 20.0)  # negative value


class TestDeterminism:
    def test_same_seed_same_stream(self):
        dist = LogNormal(mu=1.0, sigma=0.5)
        assert draws(dist, random.Random(42), 10) == draws(dist, random.Random(42), 10)

    def test_different_seed_different_stream(self):
        dist = LogNormal(mu=1.0, sigma=0.5)
        assert draws(dist, random.Random(42), 10) != draws(dist, random.Random(43), 10)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=10.0, max_value=1e4),
    st.floats(min_value=0.55, max_value=0.95),
    st.floats(min_value=2e4, max_value=1e7),
)
def test_fitted_lognormal_median_between_anchors(q1, x1, q2, x2):
    dist = lognormal_from_quantiles(q1, x1, q2, x2)
    assert x1 <= dist.median <= x2
