"""Tests for Figures 8–10 and Tables 1–2 drivers on controlled stores."""

import math

import pytest

from repro.core.aggregation import AggregationStore
from repro.core.classification import TemporalClass
from repro.core.records import Relationship, UserGroupKey
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.routing_analysis import (
    WeightedDifferenceCdf,
    fig8_degradation,
    fig9_opportunity,
    fig10_relationship_comparison,
    table1_temporal_classes,
    table2_opportunity_relationships,
)

from tests.helpers import DEFAULT_GROUP, fill_window


def controlled_dataset(store, study_windows=96):
    dataset = StudyDataset(study_windows=study_windows)
    dataset.store = store
    return dataset


class TestWeightedDifferenceCdf:
    def test_accumulates_valid_only(self):
        from repro.core.comparison import WindowVerdict

        acc = WeightedDifferenceCdf()
        acc.add(WindowVerdict(0, 5.0, 4.0, 6.0, True, 100))
        acc.add(WindowVerdict(1, math.nan, -math.inf, math.inf, False, 300))
        assert acc.valid_traffic_fraction == pytest.approx(0.25)
        assert acc.traffic_fraction_at_least(5.0) == 1.0
        assert acc.traffic_fraction_at_least(6.0) == 0.0

    def test_ci_gated_fraction(self):
        from repro.core.comparison import WindowVerdict

        acc = WeightedDifferenceCdf()
        acc.add(WindowVerdict(0, 6.0, 5.5, 6.5, True, 100))   # exceeds 5 at CI
        acc.add(WindowVerdict(1, 6.0, 4.5, 7.5, True, 100))   # does not
        assert acc.traffic_fraction_at_least(5.0, use_ci_low=True) == pytest.approx(0.5)

    def test_empty(self):
        acc = WeightedDifferenceCdf()
        assert acc.traffic_fraction_at_least(1.0) == 0.0
        assert acc.valid_traffic_fraction == 0.0


class TestFig8Driver:
    def test_detects_injected_spike(self):
        store = AggregationStore()
        for window in range(10):
            rtt = 60.0 if window == 7 else 40.0
            fill_window(store, window=window, rtt_ms=rtt, hdratio=0.9)
        result = fig8_degradation(controlled_dataset(store))
        assert result.minrtt.traffic_fraction_at_least(15.0, use_ci_low=True) > 0.0
        assert result.minrtt.valid_traffic_fraction > 0.9

    def test_stable_store_no_degradation(self):
        store = AggregationStore()
        for window in range(10):
            fill_window(store, window=window, rtt_ms=40.0, hdratio=0.9)
        result = fig8_degradation(controlled_dataset(store))
        assert result.minrtt.traffic_fraction_at_least(5.0, use_ci_low=True) == 0.0


class TestFig9Driver:
    def test_detects_better_alternate(self):
        store = AggregationStore()
        for window in range(4):
            fill_window(store, window=window, rtt_ms=50.0, hdratio=0.9, rank=0)
            fill_window(store, window=window, rtt_ms=38.0, hdratio=0.9, rank=1)
        result = fig9_opportunity(controlled_dataset(store))
        assert result.minrtt.traffic_fraction_at_least(5.0, use_ci_low=True) == 1.0
        assert result.minrtt_within_of_optimal(3.0) == 0.0

    def test_no_alternates_no_opportunity(self):
        store = AggregationStore()
        for window in range(4):
            fill_window(store, window=window, rtt_ms=50.0, hdratio=0.9, rank=0)
        result = fig9_opportunity(controlled_dataset(store))
        assert result.minrtt.differences == []


class TestFig10Driver:
    def test_peer_vs_transit_pairing(self):
        store = AggregationStore()
        for window in range(3):
            fill_window(
                store, window=window, rtt_ms=40.0, hdratio=0.9, rank=0,
                relationship=Relationship.PRIVATE,
            )
            fill_window(
                store, window=window, rtt_ms=48.0, hdratio=0.9, rank=1,
                relationship=Relationship.TRANSIT,
            )
        result = fig10_relationship_comparison(controlled_dataset(store))
        pair = result.by_pair["peering-vs-transit"]
        assert len(pair.differences) == 3
        # preferred − alternate: negative (peer is faster).
        assert result.median_difference("peering-vs-transit") < -5.0

    def test_no_matching_alternate_type(self):
        store = AggregationStore()
        fill_window(store, window=0, rtt_ms=40.0, hdratio=0.9, rank=0,
                    relationship=Relationship.PRIVATE)
        fill_window(store, window=0, rtt_ms=42.0, hdratio=0.9, rank=1,
                    relationship=Relationship.PUBLIC)
        result = fig10_relationship_comparison(controlled_dataset(store))
        assert result.by_pair["peering-vs-transit"].differences == []
        assert len(result.by_pair["private-vs-public"].differences) == 1


class TestTable1Driver:
    def _store_with_diurnal_group(self, days=10):
        from repro.core.classification import WINDOWS_PER_DAY

        store = AggregationStore()
        for window in range(days * WINDOWS_PER_DAY):
            slot = window % WINDOWS_PER_DAY
            degraded = 80 <= slot < 88  # same evening block daily
            fill_window(
                store,
                window=window,
                rtt_ms=60.0 if degraded else 40.0,
                hdratio=0.9,
                count=35,
            )
        return store, days * WINDOWS_PER_DAY

    def test_diurnal_group_classified(self):
        store, windows = self._store_with_diurnal_group()
        dataset = controlled_dataset(store, study_windows=windows)
        result = table1_temporal_classes(dataset)
        blue, orange = result.fractions(
            "degradation", "minrtt", 5.0, TemporalClass.DIURNAL
        )
        assert blue == pytest.approx(1.0)
        assert 0.0 < orange < blue

    def test_uneventful_at_high_threshold(self):
        store, windows = self._store_with_diurnal_group()
        dataset = controlled_dataset(store, study_windows=windows)
        result = table1_temporal_classes(dataset)
        blue, orange = result.fractions(
            "degradation", "minrtt", 50.0, TemporalClass.UNEVENTFUL
        )
        assert blue == pytest.approx(1.0)
        assert orange == 0.0


class TestTable2Driver:
    def test_relationship_attribution(self):
        store = AggregationStore()
        for window in range(4):
            fill_window(
                store, window=window, rtt_ms=52.0, hdratio=0.9, rank=0,
                relationship=Relationship.PRIVATE,
            )
            fill_window(
                store, window=window, rtt_ms=38.0, hdratio=0.9, rank=1,
                relationship=Relationship.TRANSIT,
            )
        dataset = controlled_dataset(store)
        result = table2_opportunity_relationships(dataset)
        assert result.relative("minrtt", "private->transit") == pytest.approx(1.0)
        assert result.absolute("minrtt", "private->transit") > 0.0

    def test_no_opportunity_empty_rows(self):
        store = AggregationStore()
        for window in range(4):
            fill_window(store, window=window, rtt_ms=40.0, hdratio=0.9, rank=0)
            fill_window(store, window=window, rtt_ms=40.0, hdratio=0.9, rank=1)
        dataset = controlled_dataset(store)
        result = table2_opportunity_relationships(dataset)
        assert sum(result.relative("minrtt", name) for name in result.rows["minrtt"]) == 0.0


class TestVerdictCache:
    def test_cache_returns_same_object(self):
        store = AggregationStore()
        for window in range(4):
            fill_window(store, window=window, rtt_ms=40.0, hdratio=0.9)
        dataset = controlled_dataset(store)
        first = dataset.verdicts("minrtt", "degradation")
        second = dataset.verdicts("minrtt", "degradation")
        assert first is second

    def test_unknown_kind_rejected(self):
        dataset = controlled_dataset(AggregationStore())
        with pytest.raises(ValueError):
            dataset.verdicts("minrtt", "nonsense")

    def test_cache_is_dropped_when_the_store_changes(self):
        store = AggregationStore()
        for window in range(4):
            fill_window(store, window=window, rtt_ms=40.0, hdratio=0.9)
        dataset = controlled_dataset(store)
        before = dataset.verdicts("minrtt", "degradation")
        assert [v.window for v in before[DEFAULT_GROUP]] == [0, 1, 2, 3]
        fill_window(store, window=4, rtt_ms=40.0, hdratio=0.9)
        after = dataset.verdicts("minrtt", "degradation")
        assert after is not before
        assert [v.window for v in after[DEFAULT_GROUP]] == [0, 1, 2, 3, 4]
        assert dataset.verdicts("minrtt", "degradation") is after


class _WalkCountingDict(dict):
    """A dict that counts every walk over the whole of itself."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def items(self):
        self.walks += 1
        return super().items()

    def values(self):
        self.walks += 1
        return super().values()


def _whole_store_walks(groups: int) -> int:
    """Whole-store iterations made by every §5–§6 driver over ``groups``
    user groups (3 windows, a preferred and a transit alternate each)."""
    store = AggregationStore()
    for index in range(groups):
        group = UserGroupKey(
            pop="ams1", prefix=f"10.{index // 256}.{index % 256}.0/24", country="NL"
        )
        for window in range(3):
            fill_window(
                store, window=window, rtt_ms=50.0, hdratio=0.9, count=30,
                rank=0, group=group, relationship=Relationship.PRIVATE,
            )
            fill_window(
                store, window=window, rtt_ms=40.0, hdratio=0.9, count=30,
                rank=1, group=group, relationship=Relationship.TRANSIT,
            )
    assert len(store.groups()) == groups
    dataset = controlled_dataset(store, study_windows=3)
    store._store = counted = _WalkCountingDict(store._store)
    for metric in ("minrtt", "hdratio"):
        for kind in ("degradation", "opportunity"):
            assert len(dataset.verdicts(metric, kind)) == groups
    fig8_degradation(dataset)
    assert len(fig9_opportunity(dataset).minrtt.differences) == 3 * groups
    fig10 = fig10_relationship_comparison(dataset)
    assert len(fig10.by_pair["peering-vs-transit"].differences) == 3 * groups
    table1_temporal_classes(dataset)
    table2_opportunity_relationships(dataset)
    return counted.walks


class TestLookupComplexity:
    """Finding a group's aggregations must cost what it finds, not the
    store: counted in iterations, so the guard holds on any host."""

    def test_whole_store_walks_do_not_grow_with_groups(self):
        few, many = _whole_store_walks(12), _whole_store_walks(120)
        # The tables each total the preferred-route traffic once; nothing
        # walks the store per group or per (group, window).
        assert few == many
        assert many <= 4
