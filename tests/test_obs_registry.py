"""Unit + property tests for the metrics registry (``repro.obs.registry``).

The property under the most scrutiny is the merge algebra: counter and
gauge merges must be commutative and associative, because the parallel
pipeline folds shard registries back in whatever order the executor yields
them and the result must not depend on it (the counter-equality
invariant; see ``repro/obs/__init__.py``).
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    TimerStat,
    activate_metrics,
    active_metrics,
    merge_into_active,
)

pytestmark = pytest.mark.obs

# --------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------- #
class TestCounters:
    def test_inc_defaults_to_one_and_accumulates(self):
        registry = MetricsRegistry()
        assert registry.inc("pipeline.samples.read") == 1
        assert registry.inc("pipeline.samples.read", 4) == 5
        assert registry.counter("pipeline.samples.read") == 5

    def test_unset_counter_reads_zero(self):
        assert MetricsRegistry().counter("never.touched") == 0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="monotonic"):
            registry.inc("pipeline.samples.read", -1)

    def test_zero_increment_materializes_the_counter(self):
        registry = MetricsRegistry()
        registry.inc("methodology.transactions.coalesced", 0)
        assert "methodology.transactions.coalesced" in registry.counters

    @pytest.mark.parametrize(
        "name",
        ["Pipeline.read", "pipeline..read", ".read", "read.", "sp ace", "dash-ed", ""],
    )
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().inc(name)

    @pytest.mark.parametrize("name", ["a", "a.b", "io.rows_read", "x9.y_0.z"])
    def test_valid_names_accepted(self, name):
        registry = MetricsRegistry()
        registry.inc(name)
        assert registry.counter(name) == 1

    def test_counters_view_is_sorted_and_detached(self):
        registry = MetricsRegistry()
        registry.inc("b.two")
        registry.inc("a.one")
        view = registry.counters
        assert list(view) == ["a.one", "b.two"]
        view["a.one"] = 99
        assert registry.counter("a.one") == 1


# --------------------------------------------------------------------- #
# Gauges
# --------------------------------------------------------------------- #
class TestGauges:
    def test_set_and_read(self):
        registry = MetricsRegistry()
        registry.set_gauge("pipeline.rows", 42)
        assert registry.gauge("pipeline.rows") == 42.0
        assert registry.gauge("missing") is None

    def test_set_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("pipeline.rows", 10)
        registry.set_gauge("pipeline.rows", 3)
        assert registry.gauge("pipeline.rows") == 3.0

    def test_merge_takes_maximum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge("netsim.sim_time_seconds", 4.0)
        b.set_gauge("netsim.sim_time_seconds", 9.0)
        b.set_gauge("only.theirs", 1.0)
        a.merge(b)
        assert a.gauge("netsim.sim_time_seconds") == 9.0
        assert a.gauge("only.theirs") == 1.0


# --------------------------------------------------------------------- #
# Timers
# --------------------------------------------------------------------- #
class TestTimers:
    def test_observe_accumulates_summary(self):
        registry = MetricsRegistry()
        for value in (0.2, 0.1, 0.4):
            registry.observe("stage.merge", value)
        stat = registry.timer_stat("stage.merge")
        assert stat.count == 3
        assert stat.total == pytest.approx(0.7)
        assert stat.min == pytest.approx(0.1)
        assert stat.max == pytest.approx(0.4)
        assert stat.mean == pytest.approx(0.7 / 3)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TimerStat().observe(-0.001)

    def test_timer_contextmanager_records_one_observation(self):
        registry = MetricsRegistry()
        with registry.timer("stage.block"):
            pass
        stat = registry.timer_stat("stage.block")
        assert stat.count == 1
        assert stat.total >= 0.0

    def test_timer_contextmanager_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.timer("stage.boom"):
                raise RuntimeError("boom")
        assert registry.timer_stat("stage.boom").count == 1

    def test_quantile_requires_observations(self):
        with pytest.raises(ValueError, match="no observations"):
            TimerStat().quantile(0.5)

    def test_merge_combines_extrema_and_counts(self):
        a, b = TimerStat(), TimerStat()
        for value in (0.1, 0.3):
            a.observe(value)
        for value in (0.05, 0.6):
            b.observe(value)
        a.merge(b)
        assert a.count == 4
        assert a.min == pytest.approx(0.05)
        assert a.max == pytest.approx(0.6)
        assert a.total == pytest.approx(1.05)

    def test_to_dict_with_and_without_observations(self):
        empty = TimerStat().to_dict()
        assert empty["count"] == 0
        assert "p50_seconds" not in empty
        stat = TimerStat()
        stat.observe(0.5)
        payload = stat.to_dict()
        assert payload["count"] == 1
        assert payload["p50_seconds"] == pytest.approx(0.5)
        assert payload["p99_seconds"] == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# Merge algebra (Hypothesis)
# --------------------------------------------------------------------- #
_NAMES = st.sampled_from(
    ["pipeline.samples.read", "io.rows_read", "methodology.transactions.raw",
     "core.aggregation.samples", "netsim.events_processed"]
)
_COUNTER_MAPS = st.dictionaries(_NAMES, st.integers(min_value=0, max_value=10**9))
_GAUGE_MAPS = st.dictionaries(
    _NAMES, st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
)


def _registry(counters, gauges):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.inc(name, value)
    for name, value in gauges.items():
        registry.set_gauge(name, value)
    return registry


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(a=_COUNTER_MAPS, b=_COUNTER_MAPS, ga=_GAUGE_MAPS, gb=_GAUGE_MAPS)
    def test_merge_commutes(self, a, b, ga, gb):
        ab = _registry(a, ga).merge(_registry(b, gb))
        ba = _registry(b, gb).merge(_registry(a, ga))
        assert ab.counters == ba.counters
        assert ab.gauges == ba.gauges

    @settings(max_examples=60, deadline=None)
    @given(a=_COUNTER_MAPS, b=_COUNTER_MAPS, c=_COUNTER_MAPS)
    def test_merge_associates(self, a, b, c):
        left = _registry(a, {}).merge(_registry(b, {}).merge(_registry(c, {})))
        right = _registry(a, {}).merge(_registry(b, {})).merge(_registry(c, {}))
        assert left.counters == right.counters

    @settings(max_examples=30, deadline=None)
    @given(a=_COUNTER_MAPS)
    def test_empty_registry_is_identity(self, a):
        merged = _registry(a, {}).merge(MetricsRegistry())
        assert merged.counters == _registry(a, {}).counters

    def test_timer_summary_merge_is_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            a.observe("stage.x", value)
        for value in (0.4, 0.5):
            b.observe("stage.x", value)
        ab = MetricsRegistry().merge(a).merge(b).timer_stat("stage.x")
        ba = MetricsRegistry().merge(b).merge(a).timer_stat("stage.x")
        assert (ab.count, ab.total, ab.min, ab.max) == (
            ba.count, ba.total, ba.min, ba.max
        )


# --------------------------------------------------------------------- #
# Serialization & pickling
# --------------------------------------------------------------------- #
class TestSerialization:
    def test_to_dict_round_trips_counters_and_gauges(self):
        registry = _registry(
            {"pipeline.samples.read": 7}, {"pipeline.rows": 5.0}
        )
        registry.observe("stage.x", 0.25)
        payload = registry.to_dict()
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.counters == registry.counters
        assert rebuilt.gauges == registry.gauges
        # Timers are summarized, not reconstructed.
        assert rebuilt.timer_stat("stage.x") is None
        assert payload["timers"]["stage.x"]["count"] == 1

    def test_registry_is_picklable(self):
        registry = _registry({"io.rows_read": 3}, {"pipeline.rows": 1.0})
        registry.observe("stage.x", 0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counters == registry.counters
        assert clone.timer_stat("stage.x").count == 1

    def test_len_counts_all_kinds(self):
        registry = _registry({"a.b": 1}, {"c.d": 2.0})
        registry.observe("e.f", 0.1)
        assert len(registry) == 3
        assert len(MetricsRegistry()) == 0


# --------------------------------------------------------------------- #
# Active-registry plumbing
# --------------------------------------------------------------------- #
class TestActiveRegistry:
    def test_activation_is_scoped_and_restores_previous(self):
        assert active_metrics() is None
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with activate_metrics(outer):
            assert active_metrics() is outer
            with activate_metrics(inner):
                assert active_metrics() is inner
            assert active_metrics() is outer
        assert active_metrics() is None

    def test_merge_into_active_folds_counters(self):
        target, worker = MetricsRegistry(), MetricsRegistry()
        worker.inc("pipeline.samples.read", 5)
        with activate_metrics(target):
            merge_into_active(worker)
        assert target.counter("pipeline.samples.read") == 5

    def test_merge_into_active_without_activation_is_noop(self):
        worker = MetricsRegistry()
        worker.inc("pipeline.samples.read")
        merge_into_active(worker)  # must not raise
        assert active_metrics() is None

    def test_merge_into_active_skips_self_merge(self):
        registry = MetricsRegistry()
        registry.inc("pipeline.samples.read", 3)
        with activate_metrics(registry):
            merge_into_active(registry)
        assert registry.counter("pipeline.samples.read") == 3
