"""Served = batch over cached partials, and the partials' lifetime.

A cold query is a merge: the engine keeps one partial per store
partition, folded at the store's window and split by (PoP, country,
window) cell, and answers a query by merging the cells its filters
admit — ``/v1/routing`` after re-keying each cell to its hour. This file
holds that design to the batch pipeline:

- a Hypothesis property over random PoPs x countries x window range x
  profile, on one live engine while its store is appended to, rewritten
  in place and compacted: the merged dataset equals ``build_dataset``
  over the equivalently filtered sample stream (rows, aggregations,
  filter stats, data counters, verdicts; a routing aggregation's value
  lists as multisets, since its hour is merged window by window), the
  payloads rendered from the two are byte-identical, and merging the same
  partials again leaves them byte-unchanged;
- lifetime: an append builds exactly its new partitions' partials, once
  for both profiles, and an in-place rewrite or a compaction drops every
  partial;
- carry-over: after an append, a cold query extends its previous
  result with the appended partitions' cells, and over many appends —
  late samples into old windows, hourly routing windows that span
  appends, a growing study period — every body and dataset equals a fresh
  engine's; anything but an append, or a carried entry that does not
  qualify, merges in full;
- fault isolation: a damaged partition fails only the queries that admit
  it, and its partial is never cached.
"""

import dataclasses
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import faultinject
from repro.core.aggregation import window_index
from repro.faultinject import FaultPlan
from repro.pipeline import build_dataset, read_samples
from repro.pipeline.experiments import CdfSeries
from repro.serve import QueryEngine, render_payload
from repro.serve.engine import _CacheEntry
from repro.store import TraceStoreReader, compact_store, write_store
from repro.store.writer import append_to_store, load_manifest

from tests.helpers import assert_same_analysis_state, make_trace_samples

pytestmark = pytest.mark.serve

POPS = ("ams1", "sjc1", "gru1", "nowhere")
COUNTRIES = ("NL", "DE", "US", "MX", "BR", "AR")
PATHS = {"analyze": ("/v1/quantiles", "/v1/degradation"), "routing": ("/v1/routing",)}

QUERIES = st.tuples(
    st.sampled_from(sorted(PATHS)),
    st.none() | st.frozensets(st.sampled_from(POPS), min_size=1),
    st.none() | st.frozensets(st.sampled_from(COUNTRIES), min_size=1),
    st.none()
    | st.tuples(st.integers(0, 13), st.integers(0, 4)).map(
        lambda span: (span[0], span[0] + span[1])
    ),
)


def dataset_kwargs(engine, profile):
    if profile == "analyze":
        return dict(
            study_windows=engine.study_windows,
            keep_response_sizes=True,
            window_seconds=engine.window_seconds,
        )
    return dict(
        study_windows=engine.routing_windows,
        keep_response_sizes=True,
        window_seconds=engine.routing_window_seconds,
    )


def cache_key(profile, pops, countries, window):
    return (
        profile,
        tuple(sorted(pops)) if pops is not None else None,
        tuple(sorted(countries)) if countries is not None else None,
        window,
    )


def params_of(pops, countries, window):
    params = {}
    if pops is not None:
        params["pop"] = sorted(pops)
    if countries is not None:
        params["country"] = sorted(countries)
    if window is not None:
        params["window"] = [f"{window[0]}-{window[1]}"]
    return params


def batch_dataset(samples, kwargs, pops, countries, window):
    """``build_dataset`` over the samples the filters name, in stream order."""
    chosen = [
        sample
        for sample in samples
        if (pops is None or sample.pop in pops)
        and (countries is None or sample.client_country in countries)
        and (
            window is None
            or window[0]
            <= window_index(sample.end_time, kwargs["window_seconds"])
            <= window[1]
        )
    ]
    return build_dataset(chosen, **kwargs)


def assert_served_equals_batch(engine, store, query):
    profile, pops, countries, window = query
    params = params_of(pops, countries, window)
    served_bodies = [
        render_payload(engine.handle(path, params)[1]) for path in PATHS[profile]
    ]
    key = cache_key(profile, pops, countries, window)
    served = engine.cache.get(key).dataset
    kwargs = dataset_kwargs(engine, profile)
    batch = batch_dataset(list(read_samples(store)), kwargs, pops, countries, window)
    multiset = profile == "routing"

    assert_same_analysis_state(served, batch, multiset=multiset)
    kind = "degradation" if profile == "analyze" else "opportunity"
    for metric in ("minrtt", "hdratio"):
        assert served.verdicts(metric, kind) == batch.verdicts(metric, kind)

    # The payloads the engine renders from the batch dataset: a fresh
    # engine whose cache holds it under the query's key.
    twin = QueryEngine(store)
    twin.cache.put(key, _CacheEntry(batch))
    assert served_bodies == [
        render_payload(twin.handle(path, params)[1]) for path in PATHS[profile]
    ]

    # Merging is copy-on-merge: the partials a query read are unchanged,
    # so merging them again gives the same dataset.
    frozen = pickle.dumps(engine._partials)
    for _ in range(2):
        again = engine._merge_partials(profile, pops, countries, window)
        assert_same_analysis_state(again.dataset, batch, multiset=multiset)
        assert again.partitions == len(engine._partitions)
    assert pickle.dumps(engine._partials) == frozen


def test_served_equals_batch_across_appends_rewrite_and_compaction(tmp_path):
    store = tmp_path / "live.store"
    write_store(store, make_trace_samples(300, seed=41, windows=8))
    engine = QueryEngine(store)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query=QUERIES)
    def check(query):
        assert_served_equals_batch(engine, store, query)

    def rewrite():
        # Same path, new content and a new data file: every partial goes.
        write_store(store, list(read_samples(store))[50:])

    def append_then_compact():
        append_to_store(store, make_trace_samples(80, seed=53, windows=12))
        assert not compact_store(store).skipped

    steps = [
        lambda: None,
        # Same (PoP, band) keys again: aggregations span partitions.
        lambda: append_to_store(store, make_trace_samples(120, seed=43, windows=8)),
        # Past the study period: the study shape grows.
        lambda: append_to_store(store, make_trace_samples(120, seed=47, windows=12)),
        rewrite,
        append_then_compact,
    ]
    for step in steps:
        step()
        # Queried at every step, so each append has results to extend.
        for profile in PATHS:
            assert_served_equals_batch(engine, store, (profile, None, None, None))
        check()
    assert engine.metrics.counter("serve.merges.extended") >= 4


class TestPartialLifetime:
    @pytest.fixture()
    def store(self, tmp_path):
        path = tmp_path / "live.store"
        write_store(path, make_trace_samples(400, seed=3, windows=8))
        return path

    @staticmethod
    def _warm(engine):
        for path in ("/v1/quantiles", "/v1/routing"):
            assert engine.handle(path, {})[0] == 200

    @staticmethod
    def _partials(engine):
        return engine.handle("/v1/health", {})[1]["partials"]

    @staticmethod
    def _merges(engine):
        return engine.handle("/v1/health", {})[1]["merges"]

    def test_append_builds_exactly_its_new_partitions(self, store):
        engine = QueryEngine(store)
        self._warm(engine)
        before = len(TraceStoreReader(store).partitions)
        # Routing merges the partials the analyze query built.
        assert self._partials(engine) == {
            "cached": before, "built": before, "reused": before, "dropped": 0,
        }
        assert self._merges(engine) == {"extended": 0, "full": 2}
        append_to_store(store, make_trace_samples(150, seed=17, windows=12))
        added = len(TraceStoreReader(store).partitions) - before
        assert added > 0
        self._warm(engine)
        # Each cold query extends its carried dataset with the appended
        # partitions' cells alone: it reads no earlier partial — the
        # earlier partitions' cells are already merged in — and routing
        # reuses what the analyze query built.
        assert self._partials(engine) == {
            "cached": before + added,
            "built": before + added,
            "reused": before + added,
            "dropped": 0,
        }
        assert self._merges(engine) == {"extended": 2, "full": 2}
        assert engine.metrics.counter("pipeline.samples.read") == 550
        fresh = QueryEngine(store)
        for path in ("/v1/quantiles", "/v1/degradation", "/v1/routing"):
            assert render_payload(engine.handle(path, {})[1]) == render_payload(
                fresh.handle(path, {})[1]
            )

    @pytest.mark.parametrize("rewrite", ["write_store", "compact_store"])
    def test_rewrite_or_compaction_drops_every_partial(self, store, rewrite):
        if rewrite == "compact_store":
            append_to_store(store, make_trace_samples(100, seed=19, windows=8))
        engine = QueryEngine(store)
        self._warm(engine)
        cached = self._partials(engine)["cached"]
        if rewrite == "write_store":
            # The same bytes at the same offsets under the same CRCs, in a
            # new data file: only the file's identity tells them apart.
            before = load_manifest(store)["partitions"]
            write_store(store, list(read_samples(store)))
            assert load_manifest(store)["partitions"] == before
        else:
            assert not compact_store(store).skipped
        after = len(TraceStoreReader(store).partitions)
        assert self._partials(engine) == {
            "cached": 0, "built": cached, "reused": cached, "dropped": cached,
        }
        # Both query results were merged from dropped partials, and none
        # is carried: the next queries merge in full.
        assert engine.cache.invalidations == 2
        assert engine.cache.carried(("analyze", None, None, None)) is None
        self._warm(engine)
        assert self._partials(engine)["built"] == cached + after
        assert self._merges(engine) == {"extended": 0, "full": 4}
        assert engine.handle("/v1/quantiles", {})[1]["sessions"] == (
            QueryEngine(store).handle("/v1/quantiles", {})[1]["sessions"]
        )


def in_window(samples, window):
    """``samples`` (all generated in window 0) moved into ``window``."""
    offset = window * 900.0

    def moved(txn):
        return dataclasses.replace(
            txn,
            first_byte_time=txn.first_byte_time + offset,
            ack_time=txn.ack_time + offset,
            last_byte_write_time=txn.last_byte_write_time + offset,
        )

    return [
        dataclasses.replace(
            sample,
            start_time=sample.start_time + offset,
            end_time=sample.end_time + offset,
            transactions=[moved(txn) for txn in sample.transactions],
        )
        for sample in samples
    ]


#: A dashboard over the live store: the analyze queries share a cache key
#: when their filters do, so eight keys are merged per generation.
DASHBOARD = (
    ("/v1/quantiles", {}),
    ("/v1/degradation", {}),
    ("/v1/degradation", {"metric": ["hdratio"]}),
    ("/v1/quantiles", {"pop": ["ams1"]}),
    ("/v1/quantiles", {"pop": ["sjc1"], "country": ["US"]}),
    ("/v1/quantiles", {"country": ["NL"]}),
    # Old windows only: late samples are the sole appends it admits.
    ("/v1/quantiles", {"window": ["0-3"]}),
    ("/v1/quantiles", {"window": ["6-9"]}),
    ("/v1/routing", {}),
    ("/v1/routing", {"pop": ["ams1"]}),
)


def dashboard_cache_keys():
    keys = []
    for path, params in DASHBOARD:
        profile = "routing" if path == "/v1/routing" else "analyze"
        window = params.get("window")
        if window is not None:
            lo, hi = window[0].split("-")
            window = (int(lo), int(hi))
        key = cache_key(
            profile,
            frozenset(params["pop"]) if "pop" in params else None,
            frozenset(params["country"]) if "country" in params else None,
            window,
        )
        if key not in keys:
            keys.append(key)
    return keys


class TestCarryOver:
    """A cold query after an append extends the previous generation's
    dataset with the appended partitions' cells; the result is a fresh
    engine's in every field, and no partial is touched."""

    def assert_equals_fresh(self, engine, store):
        fresh = QueryEngine(store)
        for path, params in DASHBOARD:
            assert render_payload(engine.handle(path, params)[1]) == render_payload(
                fresh.handle(path, params)[1]
            ), (path, params)
        for key in dashboard_cache_keys():
            live, built = engine.cache.get(key), fresh.cache.get(key)
            assert live.partitions == built.partitions == len(fresh._partitions)
            assert live.max_order_key == built.max_order_key
            ours, theirs = live.dataset, built.dataset
            assert_same_analysis_state(ours, theirs)
            assert ours.study_windows == theirs.study_windows
            assert ours.shard_report == theirs.shard_report
            kind = "opportunity" if key[0] == "routing" else "degradation"
            for metric in ("minrtt", "hdratio"):
                assert ours.verdicts(metric, kind) == theirs.verdicts(metric, kind)

    def test_churn_appends_equal_a_fresh_engine(self, tmp_path):
        store = tmp_path / "live.store"
        write_store(store, make_trace_samples(400, seed=3, windows=8))
        engine = QueryEngine(store)
        self.assert_equals_fresh(engine, store)
        keys = len(dashboard_cache_keys())
        assert engine.handle("/v1/health", {})[1]["merges"] == {
            "extended": 0, "full": keys,
        }
        studies = {engine.study_windows}
        for round_ in range(9):
            window = 8 + round_
            fresh_window = in_window(
                make_trace_samples(60, seed=100 + round_, windows=1), window
            )
            # Late samples into windows 2 and 7: cells (and aggregation
            # keys) the carried datasets already hold.
            late = in_window(make_trace_samples(6, seed=200 + round_, windows=1), 2)
            late += in_window(make_trace_samples(6, seed=300 + round_, windows=1), 7)
            append_to_store(store, fresh_window + late)
            untouched = {key: pickle.dumps(v) for key, v in engine._partials.items()}
            self.assert_equals_fresh(engine, store)
            studies.add(engine.study_windows)
            # Every cold query of the round extended its carried result.
            assert engine.handle("/v1/health", {})[1]["merges"] == {
                "extended": keys * (round_ + 1), "full": keys,
            }
            assert {
                key: pickle.dumps(engine._partials[key]) for key in untouched
            } == untouched
        # Windows 8..16: the study period grew at bands 2, 3 and 4.
        assert studies == {8, 12, 16, 20}

    def test_out_of_order_keys_merge_in_full(self, tmp_path):
        store = tmp_path / "live.store"
        write_store(store, make_trace_samples(300, seed=5, windows=8))
        engine = QueryEngine(store)
        engine.handle("/v1/quantiles", {})
        append_to_store(store, make_trace_samples(80, seed=7, windows=8))
        engine.handle("/v1/health", {})  # the engine notices the append
        key = ("analyze", None, None, None)
        carried = engine.cache.carried(key)
        assert carried is not None and not engine.cache.get(key)
        # A carried entry claiming order keys past the appended ones.
        claims_more = _CacheEntry(carried.dataset, carried.partitions, 10**9)
        frozen = pickle.dumps(carried.dataset)
        merged = engine._merge_partials("analyze", None, None, None, claims_more)
        assert pickle.dumps(carried.dataset) == frozen
        assert merged.dataset is not carried.dataset
        assert engine.metrics.counter("serve.merges.full") == 2
        assert engine.metrics.counter("serve.merges.extended") == 0
        fresh = QueryEngine(store)
        fresh.handle("/v1/quantiles", {})
        assert_same_analysis_state(merged.dataset, fresh.cache.get(key).dataset)

    def test_an_evicted_entry_merges_in_full(self, tmp_path):
        store = tmp_path / "live.store"
        write_store(store, make_trace_samples(300, seed=5, windows=8))
        engine = QueryEngine(store, cache_capacity=2)
        pops = ("ams1", "sjc1", "gru1")
        for pop in pops:
            engine.handle("/v1/quantiles", {"pop": [pop]})
        append_to_store(store, make_trace_samples(80, seed=7, windows=8))
        # ams1 was evicted before the append, so it merges in full; putting
        # it back makes room by dropping the oldest carried entry, sjc1's.
        # Only gru1's is extended.
        for pop in ("ams1", "gru1", "sjc1"):
            engine.handle("/v1/quantiles", {"pop": [pop]})
        assert engine.handle("/v1/health", {})[1]["merges"] == {
            "extended": 1, "full": 5,
        }
        fresh = QueryEngine(store)
        for pop in pops:
            assert engine.handle("/v1/quantiles", {"pop": [pop]}) == fresh.handle(
                "/v1/quantiles", {"pop": [pop]}
            )

    def test_damage_in_an_appended_partition_leaves_the_carried_dataset(
        self, tmp_path
    ):
        store = tmp_path / "live.store"
        write_store(store, make_trace_samples(400, seed=3, windows=8))
        engine = QueryEngine(store)
        assert engine.handle("/v1/quantiles", {})[0] == 200
        before = len(TraceStoreReader(store).partitions)
        append_to_store(store, in_window(make_trace_samples(90, seed=9, windows=1), 8))
        victim = TraceStoreReader(store).partitions[before]
        engine.handle("/v1/health", {})  # the engine notices the append
        carried = engine.cache.carried(("analyze", None, None, None))
        frozen = pickle.dumps(carried.dataset)
        plan = FaultPlan(flip_byte={"partition": victim["id"], "offset": 0})
        with faultinject.inject(plan):
            status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "CorruptBlockError"
        assert (payload["partition"], payload["offset"], payload["length"]) == (
            victim["id"], victim["offset"], victim["length"]
        )
        assert pickle.dumps(carried.dataset) == frozen
        # The fault is gone: the carried result is extended after all.
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 200
        assert payload == QueryEngine(store).handle("/v1/quantiles", {})[1]
        assert engine.handle("/v1/health", {})[1]["merges"] == {
            "extended": 1, "full": 1,
        }


class TestFaultIsolation:
    """A flipped frame byte fails the queries that admit its partition,
    naming the partition and its byte range, and nothing else; its partial
    is never cached, so the engine serves again once the fault is gone."""

    def test_damage_is_confined_to_queries_that_admit_it(self, tmp_path):
        store = tmp_path / "live.store"
        write_store(store, make_trace_samples(400, seed=3, windows=8))
        partitions = TraceStoreReader(store).partitions
        victim = next(p for p in partitions if p["pop"] == "sjc1")
        engine = QueryEngine(store)
        plan = FaultPlan(flip_byte={"partition": victim["id"], "offset": 0})
        with faultinject.inject(plan):
            for params in ({}, {"pop": ["sjc1"]}, {}):
                status, payload = engine.handle("/v1/quantiles", params)
                assert status == 503
                assert payload["error"] == "CorruptBlockError"
                assert (
                    payload["partition"], payload["offset"], payload["length"]
                ) == (victim["id"], victim["offset"], victim["length"])
            for params in ({"pop": ["ams1"]}, {"pop": ["ams1", "gru1"]}):
                assert engine.handle("/v1/quantiles", params)[0] == 200
            _, health = engine.handle("/v1/health", {})
            assert health["status"] == "degraded"
            assert health["quarantine"]["partitions"] == [victim["id"]]
            cached = health["partials"]["cached"]
            assert cached == health["partials"]["built"] < len(partitions)
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 200
        assert payload == QueryEngine(store).handle("/v1/quantiles", {})[1]
        assert engine.metrics.counter("serve.partials.built") == len(partitions)


def test_a_cold_quantiles_query_builds_only_the_series_it_serves(
    tmp_path, monkeypatch
):
    """``/v1/quantiles`` serves fig6's two global series; the per-continent
    splits fig6 also draws are never served, so a cold query builds none."""
    store = tmp_path / "t.store"
    write_store(store, make_trace_samples(300, seed=3, windows=4))
    engine = QueryEngine(store)
    labels = []
    of = CdfSeries.of.__func__

    def recording_of(cls, label, values):
        labels.append(label)
        return of(cls, label, values)

    monkeypatch.setattr(CdfSeries, "of", classmethod(recording_of))
    for params in ({}, {"pop": ["ams1"]}):
        status, payload = engine.handle("/v1/quantiles", params)
        assert status == 200 and payload["hd_sessions"] > 0
    assert labels == ["all"] * 4

