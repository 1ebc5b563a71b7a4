"""Concurrent serving: many clients, live appends, exact accounting.

Three properties a serving layer must hold under fire, each pinned here
over a real socket (``make_server``'s thread-per-connection HTTP/1.1
loop, one engine; ``tests/test_serve_http.py`` pins the transport
itself):

1. **No torn responses.** Every body a client reads parses as JSON, names
   a store generation that actually existed, and carries exactly the
   session count a cold rebuild of that generation produces — even while
   ``append_to_store`` lands new windows mid-flight.
2. **No cross-request state bleed.** Each response echoes the filters of
   the request it answers, and identical queries yield byte-identical
   bodies no matter which thread asked or what ran in between.
3. **Exact counters.** ``serve.*`` totals equal the sum of per-client
   tallies — no lost updates under concurrency (the engine serializes
   request handling, which this suite would catch regressing) — and
   ``serve.requests`` equals ``ok + client_error + server_error``: a
   request the transport rejects is a ``protocol_error``, never one of
   them.
"""

import http.client
import json
import threading

import pytest

from repro.serve import QueryEngine, make_server, render_payload
from repro.store import write_store
from repro.store.writer import append_to_store

from tests.helpers import make_trace_samples

pytestmark = pytest.mark.serve

CLIENTS = 8
REQUESTS_PER_CLIENT = 12

#: A repeated-key mix: a few hot queries plus per-thread variety.
QUERY_MIX = [
    "/v1/quantiles",
    "/v1/quantiles?pop=ams1",
    "/v1/quantiles?country=NL&country=BR",
    "/v1/degradation",
    "/v1/degradation?metric=hdratio",
    "/v1/routing",
    "/v1/health",
]


def _fetch(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _run_clients(host, port, paths_for_client):
    """Run one thread per client; returns each client's (path, status, body)
    records plus any transport errors."""
    results = [[] for _ in range(len(paths_for_client))]
    errors = []

    def client(index, paths):
        try:
            for path in paths:
                status, body = _fetch(host, port, path)
                results[index].append((path, status, body))
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append((index, repr(error)))

    threads = [
        threading.Thread(target=client, args=(index, paths))
        for index, paths in enumerate(paths_for_client)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


@pytest.fixture()
def served_store(tmp_path):
    path = tmp_path / "served.store"
    write_store(path, make_trace_samples(500, seed=7, windows=8))
    server = make_server(path, port=0, cache_capacity=16)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield path, server, host, port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestConcurrentClients:
    def test_threaded_responses_byte_identical_and_counters_exact(
        self, served_store
    ):
        _, server, host, port = served_store
        paths_for_client = [
            [
                QUERY_MIX[(client + step) % len(QUERY_MIX)]
                for step in range(REQUESTS_PER_CLIENT)
            ]
            for client in range(CLIENTS)
        ]
        results, errors = _run_clients(host, port, paths_for_client)
        assert errors == []

        # Identical queries -> byte-identical bodies, regardless of thread
        # or ordering. /v1/health reports live counters, so only its
        # stable core is compared.
        by_path = {}
        for records in results:
            for path, status, body in records:
                assert status == 200, (path, body)
                if path == "/v1/health":
                    payload = json.loads(body)
                    body = render_payload(
                        {
                            "status": payload["status"],
                            "generation": payload["generation"],
                            "quarantine": payload["quarantine"],
                        }
                    )
                by_path.setdefault(path, set()).add(body)
        assert {path: len(bodies) for path, bodies in by_path.items()} == {
            path: 1 for path in by_path
        }

        # Counter exactness: the engine's totals are the sum of what the
        # clients actually did.
        total = CLIENTS * REQUESTS_PER_CLIENT
        engine = server.engine
        assert engine.metrics.counter("serve.requests") == total
        assert engine.metrics.counter("serve.responses.ok") == total
        assert engine.metrics.counter("serve.responses.client_error") == 0
        assert engine.metrics.counter("serve.responses.server_error") == 0
        assert engine.metrics.counter("serve.responses.protocol_error") == 0
        data_requests = sum(
            1
            for records in results
            for path, _, _ in records
            if path != "/v1/health"
        )
        assert engine.cache.hits + engine.cache.misses == data_requests
        # The mix repeats 6 data queries across 96 requests: almost all
        # warm. Distinct (profile-normalized) keys bound the misses.
        assert engine.cache.misses <= 6
        assert engine.cache.hits == data_requests - engine.cache.misses

    def test_threaded_bytes_match_serial_engine(self, served_store):
        """The acceptance bar: serial and threaded serve identical bytes."""
        path, _, host, port = served_store
        from urllib.parse import parse_qs, urlsplit

        serial = QueryEngine(path, cache_capacity=16)
        data_paths = [p for p in QUERY_MIX if p != "/v1/health"]
        results, errors = _run_clients(
            host, port, [data_paths for _ in range(4)]
        )
        assert errors == []
        for records in results:
            for query, status, body in records:
                split = urlsplit(query)
                _, expected = serial.handle(
                    split.path, parse_qs(split.query, keep_blank_values=True)
                )
                assert status == 200
                assert body == render_payload(expected), query

    def test_filter_echo_never_bleeds_across_requests(self, served_store):
        _, _, host, port = served_store
        filters = ["ams1", "sjc1", "gru1", "none1"]
        paths_for_client = [
            [f"/v1/quantiles?pop={pop}" for _ in range(REQUESTS_PER_CLIENT)]
            for pop in filters
        ]
        results, errors = _run_clients(host, port, paths_for_client)
        assert errors == []
        for client_index, records in enumerate(results):
            expected_pop = filters[client_index]
            for _, status, body in records:
                assert status == 200
                payload = json.loads(body)
                assert payload["filters"]["pops"] == [expected_pop]


class TestConcurrentAppends:
    def test_no_torn_responses_while_ingest_appends(self, served_store):
        store, server, host, port = served_store

        # Generation -> expected unfiltered session count, observed by a
        # cold engine. Seeded with the initial store; extended after every
        # append below (appends happen between snapshots, so the set of
        # generations that ever existed is exactly this dict's keys).
        def snapshot():
            _, payload = QueryEngine(store).handle("/v1/quantiles", {})
            expected[json.dumps(payload["generation"], sort_keys=True)] = (
                payload["sessions"]
            )

        expected = {}
        snapshot()

        stop = threading.Event()
        records, errors = [], []

        def hammer():
            try:
                while not stop.is_set():
                    status, body = _fetch(host, port, "/v1/quantiles")
                    records.append((status, body))
            except Exception as error:  # noqa: BLE001
                errors.append(repr(error))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for append_round in range(3):
                append_to_store(
                    store,
                    make_trace_samples(120, seed=100 + append_round, windows=8),
                )
                snapshot()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert errors == []
        assert records, "clients made no requests"

        torn = []
        for status, body in records:
            assert status == 200
            payload = json.loads(body)  # parses -> not byte-torn
            key = json.dumps(payload["generation"], sort_keys=True)
            if key not in expected or payload["sessions"] != expected[key]:
                torn.append(payload)
        assert torn == []

        # The appends flushed the cache: at least one invalidation per
        # append that was observed by a subsequent query.
        engine = server.engine
        assert engine.cache.invalidations >= 1
        assert engine.metrics.counter("serve.responses.server_error") == 0
