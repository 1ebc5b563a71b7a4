"""LRU cache semantics, pinned by a Hypothesis model + invalidation tests.

The hot-aggregation cache's accounting is load-bearing: the serving
benchmark's hit-rate floor and the concurrency suite's counter-exactness
assertions are computed from ``hits``/``misses``/``evictions``, so this
file holds a stateful model against arbitrary operation sequences —
a plain dict-plus-recency-list executes every sequence alongside the real
cache and the two must agree on contents, order, accounting, evicted
pairs and carried entries (an append's flush keeps them, unservable,
within the capacity) at every step.

The second half pins the generation-invalidation contract end to end:
after ``append_to_store`` lands new windows in a served store, the next
query must rebuild from the appended store (never serve the pre-append
aggregate) and the flush must be visible in the invalidation counters —
and the manifest is parsed again only when its stat identity moves.
"""

import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import repro.serve.engine as serve_engine
import repro.store.reader as store_reader
from repro.obs import MetricsRegistry
from repro.serve import LruCache, QueryEngine, render_payload
from repro.store import compact_store, write_store
from repro.store.writer import (
    append_to_store,
    load_manifest,
    manifest_identity,
    read_manifest_bytes,
)

from tests.helpers import make_trace_samples

pytestmark = pytest.mark.serve


class ModelLru:
    """Reference LRU: dict + explicit recency list, no cleverness."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = {}
        self.order = []  # least- to most-recently used
        self.carried = []  # (key, value) pairs, oldest first
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def get(self, key):
        if key in self.data:
            self.hits += 1
            self.order.remove(key)
            self.order.append(key)
            return self.data[key]
        self.misses += 1
        return None

    def put(self, key, value):
        evicted = []
        self.carried = [pair for pair in self.carried if pair[0] != key]
        if key in self.data:
            self.data[key] = value
            self.order.remove(key)
            self.order.append(key)
            return evicted
        self.data[key] = value
        self.order.append(key)
        while len(self.data) + len(self.carried) > self.capacity:
            if self.carried:
                self.carried.pop(0)
                continue
            victim = self.order.pop(0)
            evicted.append((victim, self.data.pop(victim)))
            self.evictions += 1
        return evicted

    def invalidate_all(self, carry=False):
        dropped = len(self.data)
        if carry:
            self.carried += [(key, self.data[key]) for key in self.order]
        else:
            self.carried = []
        self.data.clear()
        self.order.clear()
        if dropped:
            self.invalidations += dropped
        return dropped

    def carried_value(self, key):
        return dict(self.carried).get(key)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.integers(0, 9)),
        st.tuples(st.just("put"), st.integers(0, 9)),
        st.tuples(st.just("invalidate"), st.just(0)),
        st.tuples(st.just("carry"), st.just(0)),
        st.tuples(st.just("carried"), st.integers(0, 9)),
    ),
    max_size=60,
)


class TestLruModel:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 6), ops=OPS)
    def test_matches_reference_model(self, capacity, ops):
        cache = LruCache(capacity)
        model = ModelLru(capacity)
        for step, (op, key) in enumerate(ops):
            if op == "get":
                assert cache.get(key) == model.get(key)
            elif op == "put":
                assert cache.put(key, step) == model.put(key, step)
            elif op == "carried":
                assert cache.carried(key) == model.carried_value(key)
            else:
                carry = op == "carry"
                assert cache.invalidate_all(carry=carry) == model.invalidate_all(
                    carry=carry
                )
            # Invariants after *every* step, not just at the end.
            assert len(cache) + len(cache._carried) <= capacity
            assert len(cache) == len(model.data)
            assert cache.keys() == model.order
            assert list(cache._carried.items()) == model.carried
            assert (cache.hits, cache.misses) == (model.hits, model.misses)
            assert cache.evictions == model.evictions
            assert cache.invalidations == model.invalidations
        assert cache.hits + cache.misses == sum(
            1 for op, _ in ops if op == "get"
        )

    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(1, 6), ops=OPS)
    def test_metrics_mirror_counters_exactly(self, capacity, ops):
        registry = MetricsRegistry()
        cache = LruCache(capacity, metrics=registry)
        for step, (op, key) in enumerate(ops):
            if op == "get":
                cache.get(key)
            elif op == "put":
                cache.put(key, step)
            elif op == "carried":
                cache.carried(key)
            else:
                cache.invalidate_all(carry=op == "carry")
        assert registry.counter("serve.cache.hits") == cache.hits
        assert registry.counter("serve.cache.misses") == cache.misses
        assert registry.counter("serve.cache.evictions") == cache.evictions
        assert (
            registry.counter("serve.cache.invalidations")
            == cache.invalidations
        )


class TestLruEdges:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_update_refreshes_recency_without_eviction(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)  # update: "b" is now LRU
        assert cache.put("c", 4) == [("b", 2)]
        assert cache.get("a") == 3
        assert cache.evictions == 1

    def test_contains_does_not_touch_accounting(self):
        cache = LruCache(2)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("b", 2)
        # Membership tests must not have refreshed "a"'s recency either.
        assert cache.put("c", 3) == [("a", 1)]


class TestAppendInvalidation:
    """An append_to_store generation change must flush served aggregates."""

    @pytest.fixture()
    def store(self, tmp_path):
        path = tmp_path / "live.store"
        samples = make_trace_samples(400, seed=3, windows=8)
        write_store(path, samples)
        return path

    def test_append_never_serves_pre_append_aggregate(self, store):
        engine = QueryEngine(store)
        _, before = engine.handle("/v1/quantiles", {})
        _, warm = engine.handle("/v1/quantiles", {})
        assert warm == before
        assert engine.cache.hits == 1

        extra = make_trace_samples(300, seed=17, windows=8)
        append_to_store(store, extra)

        _, after = engine.handle("/v1/quantiles", {})
        assert engine.cache.invalidations >= 1
        assert after["generation"] != before["generation"]
        assert after["sessions"] > before["sessions"]
        # The rebuilt aggregate equals a cold engine over the appended
        # store — i.e. the served numbers really are post-append numbers.
        _, cold = QueryEngine(store).handle("/v1/quantiles", {})
        assert after == cold

    def test_append_invalidates_every_profile(self, store):
        engine = QueryEngine(store)
        engine.handle("/v1/quantiles", {})
        engine.handle("/v1/routing", {})
        assert len(engine.cache) == 2
        append_to_store(store, make_trace_samples(50, seed=23, windows=8))
        engine.handle("/v1/quantiles", {})
        # The flush dropped both cached aggregations, not just the one
        # whose key was re-requested.
        assert engine.cache.invalidations == 2
        assert len(engine.cache) == 1

    def test_study_period_follows_appends(self, store):
        """Regression: an unpinned study period was derived once, at
        startup, so appends past it skewed §5 coverage (a live engine
        served coverage 2.0 where a fresh one served 1.0). Every body a
        live engine serves after appends is a fresh engine's."""
        queries = [
            ("/v1/quantiles", {}),
            ("/v1/quantiles", {"pop": ["ams1"]}),
            ("/v1/degradation", {}),
            ("/v1/degradation", {"metric": ["hdratio"], "window": ["6-12"]}),
            ("/v1/routing", {}),
        ]
        engine = QueryEngine(store)
        for path, params in queries:
            engine.handle(path, params)
        for seed in (5, 7):
            append_to_store(store, make_trace_samples(300, seed=seed, windows=16))
            fresh = QueryEngine(store)
            for path, params in queries:
                assert render_payload(engine.handle(path, params)[1]) == (
                    render_payload(fresh.handle(path, params)[1])
                ), (path, params)
        assert engine.study_windows == 16

    def test_generation_stable_without_append(self, store):
        engine = QueryEngine(store)
        _, first = engine.handle("/v1/health", {})
        for _ in range(3):
            engine.handle("/v1/quantiles", {})
        _, again = engine.handle("/v1/health", {})
        assert first["generation"] == again["generation"]
        assert engine.cache.invalidations == 0


ENDPOINTS = ("/v1/quantiles", "/v1/degradation", "/v1/routing", "/v1/health")


def _generation_of(store):
    manifest = load_manifest(store)
    return {
        "row_count": manifest["row_count"],
        "data_bytes": manifest["data_bytes"],
        "partitions": len(manifest["partitions"]),
    }


class TestManifestParsedOnlyWhenItChanges:
    """A warm request costs a ``stat``: the engine re-parses the manifest
    only when :func:`manifest_identity` has moved since its last parse."""

    @pytest.fixture()
    def store(self, tmp_path):
        path = tmp_path / "live.store"
        write_store(path, make_trace_samples(400, seed=3, windows=8))
        return path

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The stores whose manifest was read — by the engine's own
        ``load_manifest`` and by any reader opened without the engine's
        parse, whether or not that reader's memo then skips the parse."""
        calls = []

        def counted(path):
            calls.append(path)
            return load_manifest(path)

        def counted_read(path):
            calls.append(path)
            return read_manifest_bytes(path)

        monkeypatch.setattr(serve_engine, "load_manifest", counted)
        monkeypatch.setattr(store_reader, "read_manifest_bytes", counted_read)
        return calls

    @staticmethod
    def _warm(engine):
        for path in ENDPOINTS:
            assert engine.handle(path, {})[0] == 200

    def test_warm_requests_parse_nothing(self, store, parses):
        engine = QueryEngine(store)
        self._warm(engine)
        hits = engine.cache.hits
        del parses[:]
        for request in range(100):
            assert engine.handle(ENDPOINTS[request % 4], {})[0] == 200
        assert parses == []
        assert engine.cache.hits == hits + 75

    def test_append_costs_one_parse_and_flushes(self, store, parses):
        engine = QueryEngine(store)
        self._warm(engine)
        _, before = engine.handle("/v1/health", {})
        append_to_store(store, make_trace_samples(50, seed=17, windows=8))
        del parses[:]
        _, after = engine.handle("/v1/health", {})
        assert parses == [store]
        assert after["generation"] != before["generation"]
        assert after["generation"] == _generation_of(store)
        # Both cached aggregations: "analyze" (quantiles, degradation) and
        # "routing".
        assert len(engine.cache) == 0
        assert engine.cache.invalidations == 2

    def test_compaction_swap_costs_one_parse_and_flushes(self, tmp_path, parses):
        store = tmp_path / "streamed.store"
        samples = make_trace_samples(400, seed=3, windows=8)
        write_store(store, samples[:200])
        append_to_store(store, samples[200:])
        engine = QueryEngine(store)
        self._warm(engine)
        _, before = engine.handle("/v1/health", {})
        report = compact_store(store)
        assert not report.skipped
        del parses[:]
        _, after = engine.handle("/v1/health", {})
        assert parses == [store]
        assert after["generation"] != before["generation"]
        assert after["generation"]["partitions"] == report.partitions_after
        assert len(engine.cache) == 0
        assert engine.cache.invalidations == 2

    def test_same_length_rewrite_in_place_is_noticed(self, store, parses):
        engine = QueryEngine(store)
        self._warm(engine)
        manifest_path = store / "manifest.json"
        raw = manifest_path.read_bytes()
        edited = raw.replace(b'"row_count":400,', b'"row_count":401,', 1)
        assert edited != raw and len(edited) == len(raw)
        before = manifest_identity(store)
        with open(manifest_path, "r+b") as handle:
            handle.write(edited)
        # A filesystem clock may be coarser than this test is quick; a
        # real writer an instant later leaves a later mtime.
        os.utime(manifest_path, ns=(before[3], before[3] + 1_000_000))
        after = manifest_identity(store)
        assert after[:3] == before[:3] and after[3] != before[3]
        del parses[:]
        _, health = engine.handle("/v1/health", {})
        assert parses == [store]
        assert health["generation"]["row_count"] == 401

    def test_identity_is_read_before_the_parse(self, store, monkeypatch):
        """An append that lands between the engine's parse and its caching
        of the identity must show on the next request. Were the identity
        read after the parse, it would vouch for a manifest the engine
        never parsed, and the next request would repeat the stale one."""
        engine = QueryEngine(store)
        self._warm(engine)
        append_to_store(store, make_trace_samples(50, seed=17, windows=8))

        def parse_then_append(path):
            manifest = load_manifest(path)
            monkeypatch.setattr(serve_engine, "load_manifest", load_manifest)
            append_to_store(store, make_trace_samples(50, seed=19, windows=8))
            return manifest

        monkeypatch.setattr(serve_engine, "load_manifest", parse_then_append)
        _, raced = engine.handle("/v1/health", {})
        assert raced["generation"]["row_count"] == 450
        _, after = engine.handle("/v1/health", {})
        assert after["generation"] == _generation_of(store)
        assert after["generation"]["row_count"] == 500


class TestTargetMemo:
    """``handle_target`` — the server's entry, which memoizes each raw
    target's resolution — answers a request sequence exactly as
    ``handle`` over ``parse_qs`` does on a fresh engine: the same
    statuses, the same bytes and the same counters after every request."""

    SEQUENCE = (
        "/v1/quantiles",
        "/v1/quantiles",
        "/v1/quantiles?pop=ams1&country=NL",
        "/v1/quantiles?country=NL&pop=ams1",
        "/v1/quantiles?pop=ams1&pop=ams1&country=NL",
        "/v1/quantiles?pop=sjc1&pop=ams1",
        "/v1/quantiles?pop=ams1&pop=sjc1",
        "/v1/degradation?metric=hdratio&window=1-4",
        "/v1/degradation?window=1-4&metric=hdratio",
        "/v1/degradation?metric=hdratio&metric=minrtt",  # 400
        "/v1/quantiles?threshold=1",  # 400
        "/v1/nope?pop=ams1",  # 404
        "/v1/routing?slack_ms=3",
        "/v1/routing?slack_ms=3.0",
        "/v1/health?verify=1",
        "/v1/health",
        "APPEND",
        "/v1/quantiles",
        "/v1/quantiles?country=NL&pop=ams1",
        "/v1/degradation?metric=hdratio&window=1-4",
        "/v1/quantiles?threshold=1",
        "/v1/routing?slack_ms=3",
        "/v1/health?verify=1",
        "/v1/quantiles?pop=ams1&pop=sjc1",
        "/v1/quantiles",
    )

    @pytest.mark.parametrize("capacity", [64, 2])
    def test_memoized_targets_answer_as_parsed_ones(self, tmp_path, capacity):
        from urllib.parse import parse_qs, urlsplit

        store = tmp_path / "live.store"
        write_store(store, make_trace_samples(400, seed=3, windows=8))
        by_target = QueryEngine(store, cache_capacity=capacity)
        by_params = QueryEngine(store, cache_capacity=capacity)
        statuses = set()
        for target in self.SEQUENCE:
            if target == "APPEND":
                append_to_store(store, make_trace_samples(120, seed=17, windows=8))
                continue
            split = urlsplit(target)
            status, payload = by_params.handle(
                split.path, parse_qs(split.query, keep_blank_values=True)
            )
            memoized, answer = by_target.handle_target(target)
            assert memoized == status, target
            assert render_payload(answer) == render_payload(payload), target
            assert by_target.metrics.counters == by_params.metrics.counters, target
            statuses.add(status)
        assert statuses == {200, 400, 404}
        assert (by_target.cache.evictions > 0) == (capacity == 2)
        # Only the targets that answered 200 were memoized.
        assert set(by_target._targets) == {
            target
            for target in self.SEQUENCE
            if target != "APPEND"
            and "threshold=1" not in target
            and "nope" not in target
            and "metric=minrtt" not in target
        }
