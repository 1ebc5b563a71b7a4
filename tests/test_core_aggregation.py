"""Tests for user-group/window aggregation (§3.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import Aggregation, AggregationStore, window_index
from repro.core.constants import AGGREGATION_WINDOW_SECONDS
from repro.core.records import Relationship, UserGroupKey

from tests.helpers import DEFAULT_GROUP, fill_window, make_route, make_sample


class TestWindowIndex:
    def test_window_boundaries(self):
        assert window_index(0.0) == 0
        assert window_index(AGGREGATION_WINDOW_SECONDS - 0.001) == 0
        assert window_index(AGGREGATION_WINDOW_SECONDS) == 1

    def test_custom_window(self):
        assert window_index(59.0, window_seconds=60.0) == 0
        assert window_index(61.0, window_seconds=60.0) == 1


class TestAggregationStore:
    def test_samples_grouped_by_key(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0), hdratio=1.0)
        store.add(make_sample(20.0, 42.0), hdratio=0.5)
        assert len(store) == 1
        agg = store.get(DEFAULT_GROUP, 0, 0)
        assert agg is not None
        assert agg.session_count == 2
        assert agg.traffic_bytes == 200_000

    def test_different_windows_split(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0))
        store.add(make_sample(AGGREGATION_WINDOW_SECONDS + 10.0, 40.0))
        assert len(store) == 2
        assert store.windows() == [0, 1]

    def test_different_route_ranks_split(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0, route=make_route(rank=0)))
        store.add(make_sample(10.0, 50.0, route=make_route(rank=1)))
        assert len(store) == 2
        assert store.route_ranks(DEFAULT_GROUP, 0) == [0, 1]

    def test_different_pops_split(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0, pop="ams1"))
        store.add(make_sample(10.0, 40.0, pop="sjc1"))
        assert len(store.groups()) == 2

    def test_missing_route_rejected(self):
        store = AggregationStore()
        sample = make_sample(10.0, 40.0)
        sample.route = None
        with pytest.raises(ValueError):
            store.add(sample)

    def test_minrtt_p50(self):
        store = AggregationStore()
        for rtt in (30.0, 40.0, 50.0):
            store.add(make_sample(10.0, rtt), hdratio=None)
        agg = store.get(DEFAULT_GROUP, 0, 0)
        assert agg.minrtt_p50 == pytest.approx(40.0)

    def test_hdratio_p50_ignores_untestable_sessions(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0), hdratio=None)
        store.add(make_sample(11.0, 40.0), hdratio=0.8)
        agg = store.get(DEFAULT_GROUP, 0, 0)
        assert agg.hdratio_p50 == pytest.approx(0.8)
        assert agg.session_count == 2
        assert len(agg.hdratios) == 1

    def test_hdratio_p50_none_when_no_testable(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0), hdratio=None)
        assert store.get(DEFAULT_GROUP, 0, 0).hdratio_p50 is None

    def test_group_series_ordering(self):
        store = AggregationStore()
        for window in (3, 1, 2):
            fill_window(store, window=window, rtt_ms=40.0, hdratio=0.9, count=5)
        series = store.group_series(DEFAULT_GROUP, route_rank=0)
        assert [agg.window for agg in series] == [1, 2, 3]

    def test_group_windows_filters_rank(self):
        store = AggregationStore()
        fill_window(store, window=0, rtt_ms=40.0, hdratio=0.9, count=5, rank=0)
        fill_window(store, window=1, rtt_ms=40.0, hdratio=0.9, count=5, rank=1)
        assert store.group_windows(DEFAULT_GROUP, route_rank=0) == [0]
        assert store.group_windows(DEFAULT_GROUP, route_rank=1) == [1]

    def test_has_min_samples(self):
        store = AggregationStore()
        fill_window(store, window=0, rtt_ms=40.0, hdratio=0.9, count=29)
        assert not store.get(DEFAULT_GROUP, 0, 0).has_min_samples
        fill_window(store, window=1, rtt_ms=40.0, hdratio=0.9, count=30)
        assert store.get(DEFAULT_GROUP, 0, 1).has_min_samples

    def test_computes_hdratio_from_transactions_when_present(self):
        from repro.core.records import TransactionRecord

        sample = make_sample(10.0, 60.0)
        # One large fast transaction: tests and achieves HD.
        sample.transactions = [
            TransactionRecord(
                first_byte_time=0.0,
                ack_time=0.12,
                response_bytes=150_000,
                last_packet_bytes=1500,
                cwnd_bytes_at_first_byte=15000,
            )
        ]
        store = AggregationStore()
        agg = store.add(sample)
        assert agg.hdratios == [1.0]


class TestAggregationMerge:
    """Merge contract backing the sharded pipeline (repro.pipeline.parallel)."""

    def test_merge_rejects_key_mismatch(self):
        store = AggregationStore()
        a = store.add(make_sample(10.0, 40.0, route=make_route(rank=0)))
        b = store.add(make_sample(10.0, 50.0, route=make_route(rank=1)))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_concatenates_in_argument_order(self):
        first = AggregationStore()
        second = AggregationStore()
        for rtt in (30.0, 31.0):
            first.add(make_sample(10.0, rtt), hdratio=0.2)
        for rtt in (50.0, 51.0):
            second.add(make_sample(20.0, rtt), hdratio=0.9)
        merged = first.get(DEFAULT_GROUP, 0, 0).merge(second.get(DEFAULT_GROUP, 0, 0))
        assert merged.min_rtts_ms == [30.0, 31.0, 50.0, 51.0]
        assert merged.hdratios == [0.2, 0.2, 0.9, 0.9]

    def test_merge_sums_counters_and_keeps_first_route(self):
        first = AggregationStore()
        second = AggregationStore()
        route_a = make_route(rank=0, as_path=(64500, 1))
        route_b = make_route(rank=0, as_path=(64500, 2))
        first.add(make_sample(10.0, 40.0, route=route_a, bytes_sent=100))
        second.add(make_sample(20.0, 41.0, route=route_b, bytes_sent=250))
        second.add(make_sample(21.0, 42.0, route=route_b, bytes_sent=250))
        merged = first.get(DEFAULT_GROUP, 0, 0).merge(second.get(DEFAULT_GROUP, 0, 0))
        assert merged.session_count == 3
        assert merged.traffic_bytes == 600
        assert merged.route == route_a

    def test_merge_median_spans_both_sides(self):
        first = AggregationStore()
        second = AggregationStore()
        for i in range(40):
            first.add(make_sample(10.0 + i * 0.1, 30.0), hdratio=0.5)
            second.add(make_sample(14.0 + i * 0.1, 50.0), hdratio=0.5)
        merged = first.get(DEFAULT_GROUP, 0, 0).merge(second.get(DEFAULT_GROUP, 0, 0))
        assert merged.minrtt_p50 == pytest.approx(40.0)


class TestStoreMerge:
    def test_put_merges_on_collision(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0))
        other = AggregationStore()
        other.add(make_sample(20.0, 50.0))
        ((key, piece),) = other.items()
        store.put(key, piece)
        merged = store.get(DEFAULT_GROUP, 0, 0)
        assert merged.min_rtts_ms == [40.0, 50.0]
        assert merged.session_count == 2

    def test_replace_checks_the_identity_of_what_it_installs(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0))
        ((key, _),) = store.items()
        with pytest.raises(ValueError):
            store.replace(key, _piece_for((DEFAULT_GROUP, 1, 0)))

    def test_puts_append_new_keys_in_other_order(self):
        store = AggregationStore()
        store.add(make_sample(10.0, 40.0, route=make_route(rank=0)))
        other = AggregationStore()
        other.add(make_sample(10.0, 45.0, route=make_route(rank=1)))
        other.add(make_sample(10.0, 41.0, route=make_route(rank=0)))
        for key, piece in other.items():
            store.put(key, piece)
        assert [rank for (_, rank, _), _ in store.items()] == [0, 1]
        assert store.get(DEFAULT_GROUP, 0, 0).min_rtts_ms == [40.0, 41.0]
        assert store.get(DEFAULT_GROUP, 1, 0).min_rtts_ms == [45.0]

    def test_mutation_count_moves_on_every_add_put_and_merge(self):
        store = AggregationStore()
        assert store.mutation_count == 0
        store.add(make_sample(10.0, 40.0))
        store.add(make_sample(11.0, 41.0))  # same key: still a mutation
        assert store.mutation_count == 2
        other = AggregationStore()
        other.add(make_sample(20.0, 50.0))
        other.add(make_sample(20.0, 51.0, route=make_route(rank=1)))
        ((key, piece), _) = other.items()
        store.put(key, piece)  # a merge into an existing key counts too
        assert store.mutation_count == 3
        for key, piece in other.items():  # one mutation per key of ``other``
            store.put(key, piece)
        assert store.mutation_count == 5
        assert len(store) == 2


# --------------------------------------------------------------------- #
# The index is held to the scan it replaced
# --------------------------------------------------------------------- #
INDEX_GROUPS = [
    UserGroupKey(pop=pop, prefix=prefix, country=country)
    for pop, prefix, country in (
        ("ams1", "203.0.112.0/20", "NL"),
        ("ams1", "198.51.100.0/24", "NL"),
        ("sjc1", "203.0.112.0/20", "US"),
    )
]
ABSENT_GROUP = UserGroupKey(pop="gru1", prefix="192.0.2.0/24", country="BR")

_keys = st.tuples(
    st.sampled_from(INDEX_GROUPS), st.integers(0, 2), st.integers(0, 4)
)
_operations = st.one_of(
    st.tuples(st.just("add"), _keys),
    st.tuples(st.just("put"), _keys),
    st.tuples(st.just("replace"), _keys),
    st.tuples(st.just("put_all"), st.lists(_keys, max_size=6)),
)


def _sample_for(key):
    group, rank, window = key
    return make_sample(
        end_time=window * AGGREGATION_WINDOW_SECONDS + 10.0,
        min_rtt_ms=40.0,
        route=make_route(prefix=group.prefix, rank=rank),
        pop=group.pop,
        country=group.country,
    )


def _piece_for(key):
    group, rank, window = key
    return Aggregation(
        group=group,
        route_rank=rank,
        window=window,
        min_rtts_ms=[41.0],
        traffic_bytes=1_000,
        session_count=1,
    )


def _apply(store, operation):
    """Run one operation; returns how many add/put/replace calls it amounts to."""
    name, argument = operation
    if name == "add":
        store.add(_sample_for(argument), hdratio=0.5)
        return 1
    if name == "put":
        # Lands on a new key or merges into an existing one, as drawn.
        store.put(argument, _piece_for(argument))
        return 1
    if name == "replace":
        # Swaps the object in place; a key not installed is refused.
        if store.get(*argument) is None:
            with pytest.raises(KeyError):
                store.replace(argument, _piece_for(argument))
            return 0
        keys = [key for key, _ in store.items()]
        piece = _piece_for(argument)
        store.replace(argument, piece)
        assert [key for key, _ in store.items()] == keys
        assert store.get(*argument) is piece
        return 1
    # put_all: every key of a second store, in that store's order.
    other = AggregationStore()
    for key in argument:
        other.add(_sample_for(key), hdratio=0.5)
    for key, piece in other.items():
        store.put(key, piece)
    return len(other)


@settings(max_examples=150, deadline=None)
@given(st.lists(_operations, max_size=25))
def test_indexed_lookups_equal_the_scan_over_items(operations):
    """``groups`` / ``group_windows`` / ``group_series`` / ``route_ranks``
    answer from the index; the comprehensions over the whole store they
    replaced live on here as the oracle, evaluated over ``items()`` —
    values, objects and order all have to match, for present and absent
    groups, ranks and windows alike."""
    store = AggregationStore()
    calls = sum(_apply(store, operation) for operation in operations)
    assert store.mutation_count == calls
    items = store.items()
    assert len(items) == len(store)

    scanned_groups = {}
    for (group, _, _), _ in items:
        scanned_groups.setdefault(group)
    assert store.groups() == list(scanned_groups)

    for group in INDEX_GROUPS + [ABSENT_GROUP]:
        for rank in range(4):  # rank 3 is never inserted
            assert store.group_windows(group, route_rank=rank) == sorted(
                window
                for (key_group, key_rank, window), _ in items
                if key_group == group and key_rank == rank
            )
            series = store.group_series(group, route_rank=rank)
            scanned = sorted(
                (
                    aggregation
                    for (key_group, key_rank, _), aggregation in items
                    if key_group == group and key_rank == rank
                ),
                key=lambda aggregation: aggregation.window,
            )
            assert len(series) == len(scanned)
            assert all(ours is theirs for ours, theirs in zip(series, scanned))
        for window in range(6):  # window 5 is never inserted
            assert store.route_ranks(group, window) == sorted(
                key_rank
                for (key_group, key_rank, key_window), _ in items
                if key_group == group and key_window == window
            )
    for (group, rank, window), aggregation in items:
        assert store.get(group, rank, window) is aggregation
