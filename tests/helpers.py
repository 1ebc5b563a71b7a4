"""Shared builders for analysis-layer tests.

These construct minimal :class:`SessionSample` streams with controlled
MinRTT/HDratio values so the aggregation/comparison/classification layers can
be tested without running the workload generator.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import socket
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Tuple

import pytest

from repro.core.aggregation import AggregationStore
from repro.core.constants import AGGREGATION_WINDOW_SECONDS
from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
    UserGroupKey,
)
from repro.dist import protocol
from repro.dist.client import parse_addr
from repro.pipeline import ParallelOptions, StudyDataset, parallel, read_samples
from repro.pipeline.io import write_samples
from repro.pipeline.table import SessionChunk
from repro.store import write_store
from repro.store.schema import COLUMNS


class _ThreadPool(ThreadPoolExecutor):
    """A thread pool that takes ``ProcessPoolExecutor``'s arguments; the
    pool's start-method context means nothing to threads."""

    def __init__(self, max_workers=None, mp_context=None):
        super().__init__(max_workers)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run the pool backend's shards on threads of this process.

    ``ParallelOptions(workers > 1)`` still picks the pool and the
    FIRST_COMPLETED retry loop runs unchanged; only the pool class is
    swapped, so a programmatic ``faultinject.inject(...)`` plan reaches
    the shards and a count-limited fault keeps one budget (under the
    env-var activation a real process pool needs, every child has its
    own). Import the fixture into a test module to use it.
    """
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _ThreadPool)


def request_shutdown(addr: str, timeout: float = 5.0) -> bool:
    """Ask the ``repro worker`` daemon at ``addr`` to stop (``MSG_SHUTDOWN``);
    True when it acknowledged, False when nothing answered."""
    try:
        with socket.create_connection(parse_addr(addr), timeout=timeout) as sock:
            protocol.send_frame(sock, protocol.MSG_SHUTDOWN)
            frame = protocol.recv_frame(sock, allow_eof=True)
        return frame is not None and frame[0] == protocol.MSG_PONG
    except (OSError, protocol.ProtocolError):
        return False


#: The single-host ways to run a shard plan — the real process pool, the
#: pool on threads (``in_process_pool``), and inline — as test ids.
LOCAL_BACKENDS = ("process", "thread", "serial")


@pytest.fixture
def local_options(request):
    """``build(backend, shards, workers=4, **kw)``: the ``ParallelOptions``
    whose inputs derive the named :data:`LOCAL_BACKENDS` entry."""

    def build(backend: str, shards: int, workers: int = 4, **kwargs):
        if backend == "thread":
            request.getfixturevalue("in_process_pool")
        if backend == "serial":
            workers = 1
        return ParallelOptions(workers=workers, shards=shards, **kwargs)

    return build


def write_trace_paths(root: pathlib.Path, samples) -> dict:
    """``samples`` saved once per file-backed source a shard plan can read:
    ``{"store": ..., "plain": ..., "gz": ...}``.

    A sharded plan names bytes on disk, so every sharded test reads one of
    these. The store's bands are two windows wide: an 8-window, 3-PoP
    stream then has 12 partitions, enough for a 4-shard plan to get four
    chunks (the default band would leave it three).
    """
    paths = {
        "store": root / "trace.store",
        "plain": root / "trace.jsonl",
        "gz": root / "trace.jsonl.gz",
    }
    write_store(paths["store"], samples, band_windows=2)
    write_samples(paths["plain"], samples)
    write_samples(paths["gz"], samples)
    return paths


DEFAULT_GROUP = UserGroupKey(pop="ams1", prefix="203.0.112.0/20", country="NL")

_session_counter = [0]


def make_route(
    prefix: str = DEFAULT_GROUP.prefix,
    rank: int = 0,
    relationship: Relationship = Relationship.PRIVATE,
    as_path=(64500,),
    prepended: bool = False,
) -> RouteInfo:
    return RouteInfo(
        prefix=prefix,
        as_path=tuple(as_path),
        relationship=relationship,
        preference_rank=rank,
        prepended=prepended,
    )


def make_sample(
    end_time: float,
    min_rtt_ms: float,
    route: Optional[RouteInfo] = None,
    pop: str = DEFAULT_GROUP.pop,
    country: str = DEFAULT_GROUP.country,
    bytes_sent: int = 100_000,
    duration: float = 30.0,
) -> SessionSample:
    _session_counter[0] += 1
    return SessionSample(
        session_id=_session_counter[0],
        start_time=max(end_time - duration, 0.0),
        end_time=end_time,
        http_version=HttpVersion.HTTP_2,
        min_rtt_seconds=min_rtt_ms / 1000.0,
        bytes_sent=bytes_sent,
        busy_time_seconds=duration * 0.1,
        transactions=[],
        route=route or make_route(),
        pop=pop,
        client_country=country,
    )


def make_trace_samples(
    count: int,
    seed: int = 0,
    hosting_fraction: float = 0.05,
    dense_fraction: float = 0.5,
    windows: int = 8,
) -> List[SessionSample]:
    """A deterministic, diverse sample stream for pipeline-level tests.

    Half the stream (``dense_fraction``) lands in one user group so at
    least one group clears the 30-sample aggregation floor and produces
    valid comparisons; the rest scatters across PoPs, prefixes, countries,
    route ranks, hosting-flagged networks, and transaction mixes so every
    ingestion branch is exercised.
    """
    rng = random.Random(seed)
    pops = ("ams1", "sjc1", "gru1")
    countries = {"ams1": ("NL", "DE"), "sjc1": ("US", "MX"), "gru1": ("BR", "AR")}
    continents = {"NL": "EU", "DE": "EU", "US": "NA", "MX": "NA", "BR": "SA", "AR": "SA"}
    samples: List[SessionSample] = []
    for i in range(count):
        dense = rng.random() < dense_fraction
        if dense:
            pop, country = "ams1", "NL"
            # A third of the dense group's sessions ride the best alternate,
            # mirroring the §6 parallel-measurement split, so opportunity
            # comparisons have a populated rank-1 side.
            prefix, rank = "203.0.112.0/20", rng.choice((0, 0, 1))
        else:
            pop = rng.choice(pops)
            country = rng.choice(countries[pop])
            prefix = f"198.51.{rng.randrange(4)}.0/24"
            rank = rng.choice((0, 0, 1, 2))
        window = rng.randrange(windows)
        end_time = window * AGGREGATION_WINDOW_SECONDS + rng.uniform(1.0, 890.0)
        duration = rng.uniform(0.5, 120.0)
        # Per-group RTT stability (the paper's premise): a stable base per
        # (pop, prefix, rank) with small jitter, so dense groups produce
        # tight median CIs and CI-gated comparisons come out valid.
        rtt_base_ms = (
            20.0 + (zlib.crc32(f"{pop}|{prefix}".encode()) % 120) + 8.0 * rank
        )
        min_rtt_ms = max(rng.gauss(rtt_base_ms, 2.5), 1.0)
        _session_counter[0] += 1
        transactions = []
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            first_byte = end_time - duration + rng.uniform(0.0, duration / 2)
            response = rng.randrange(2_000, 600_000)
            transactions.append(
                TransactionRecord(
                    first_byte_time=first_byte,
                    ack_time=first_byte + rng.uniform(0.01, 2.0),
                    response_bytes=response,
                    last_packet_bytes=min(1500, response),
                    cwnd_bytes_at_first_byte=rng.randrange(4_000, 150_000),
                    bytes_in_flight_at_start=rng.choice((0, 0, 3_000)),
                    last_byte_write_time=first_byte + rng.uniform(0.0, 0.5),
                )
            )
        transactions.sort(key=lambda txn: txn.first_byte_time)
        samples.append(
            SessionSample(
                session_id=_session_counter[0],
                start_time=end_time - duration,
                end_time=end_time,
                http_version=rng.choice((HttpVersion.HTTP_1_1, HttpVersion.HTTP_2)),
                min_rtt_seconds=min_rtt_ms / 1000.0,
                bytes_sent=sum(t.response_bytes for t in transactions) or 10_000,
                busy_time_seconds=duration * rng.uniform(0.05, 0.9),
                transactions=transactions,
                route=RouteInfo(
                    prefix=prefix,
                    as_path=(64500, 64501 + rank),
                    relationship=rng.choice(tuple(Relationship)),
                    preference_rank=rank,
                    prepended=rng.random() < 0.1,
                ),
                pop=pop,
                client_country=country,
                client_continent=continents[country],
                client_ip_is_hosting=rng.random() < hosting_fraction,
                geo_tag=rng.choice(("", "amsterdam", "honolulu")),
                media_response_sizes=tuple(
                    t.response_bytes for t in transactions if t.response_bytes >= 12_000
                ),
            )
        )
    return samples


def jittered_order(samples, lateness: float, seed: int):
    """An arrival order guaranteed to respect the lateness bound.

    Sorting by ``end_time + jitter`` with ``jitter ∈ [0, lateness)`` keeps
    every earlier-keyed sample's end_time within ``lateness`` of any later
    one, so no admitted sample can find its window already sealed.
    """
    rng = random.Random(seed)
    return sorted(
        samples, key=lambda s: s.end_time + rng.uniform(0.0, lateness * 0.99)
    )


def fill_window(
    store: AggregationStore,
    window: int,
    rtt_ms: float,
    hdratio: float,
    count: int = 40,
    rank: int = 0,
    jitter_ms: float = 1.0,
    seed: int = 0,
    group: UserGroupKey = DEFAULT_GROUP,
    relationship: Relationship = Relationship.PRIVATE,
    bytes_per_session: int = 100_000,
) -> None:
    """Add ``count`` sessions with ~rtt_ms / ~hdratio to one window."""
    rng = random.Random((window, rank, seed).__hash__())
    base_time = window * AGGREGATION_WINDOW_SECONDS
    route = make_route(prefix=group.prefix, rank=rank, relationship=relationship)
    for i in range(count):
        end = base_time + (i + 0.5) * (AGGREGATION_WINDOW_SECONDS / (count + 1))
        sample = make_sample(
            end_time=end,
            min_rtt_ms=max(rng.gauss(rtt_ms, jitter_ms), 0.1),
            route=route,
            pop=group.pop,
            country=group.country,
            bytes_sent=bytes_per_session,
        )
        hd = min(max(rng.gauss(hdratio, 0.01), 0.0), 1.0)
        store.add(sample, hdratio=hd)


#: Counters describing the storage/transport, not the data: a live stream
#: reads no trace, a batch re-scan reads no stream and a JSONL read decodes
#: no partition, so these legitimately differ between two routes to the
#: same dataset while everything else must be byte-identical.
EXECUTION_PREFIXES = ("io.", "store.")


def data_counters(dataset: StudyDataset) -> dict:
    return {
        name: value
        for name, value in dataset.metrics.counters.items()
        if not name.startswith(EXECUTION_PREFIXES)
    }


def assert_same_analysis_state(
    a: StudyDataset, b: StudyDataset, *, multiset: bool = False
) -> None:
    """Bit-identical dataset state: rows, aggregation store, accounting.

    ``multiset`` compares each aggregation's value lists sorted: the
    contract of a dataset merged at a coarser window than its pieces were
    folded at (served ``/v1/routing``, DESIGN.md §12).
    """
    values = sorted if multiset else list
    assert a.rows == b.rows
    assert [k for k, _ in a.store.items()] == [k for k, _ in b.store.items()]
    for (_, agg_a), (_, agg_b) in zip(a.store.items(), b.store.items()):
        assert values(agg_a.min_rtts_ms) == values(agg_b.min_rtts_ms)
        assert values(agg_a.hdratios) == values(agg_b.hdratios)
        assert agg_a.traffic_bytes == agg_b.traffic_bytes
        assert agg_a.session_count == agg_b.session_count
        assert agg_a.route == agg_b.route
    assert a.filter_stats == b.filter_stats
    assert data_counters(a) == data_counters(b)


def merge_oracle(dataset: StudyDataset, results) -> StudyDataset:
    """The reference shard merge: ``parallel._merge_results`` as it was
    before it sorted once, with a per-key ``min()`` for the install order
    and a per-key ``sorted()`` for each key's pieces. Sessions are copied
    into one chunk of the dataset's own, row by row in order-key order.
    The property tests hold the one-sort merge to it."""
    keyed_rows = []
    parts = {}
    for result in results:
        keyed_rows.extend(result.sessions.keyed_rows())
        dataset.filter_stats.merge(result.filter_stats)
        dataset.metrics.merge(result.metrics)
        dataset.metrics.observe("pipeline.shard_wall_seconds", result.wall_seconds)
        dataset.shard_report.append(
            {
                "ordinal": result.ordinal,
                "samples": result.samples_ingested,
                "rows_kept": len(result.sessions),
                "wall_seconds": result.wall_seconds,
            }
        )
        for first_index, key, aggregation in result.aggregations:
            parts.setdefault(key, []).append((first_index, aggregation))
    keyed_rows.sort(key=lambda item: item[0])
    chunk = SessionChunk()
    for key, row in keyed_rows:
        chunk.add(key, *row)
    dataset.table.chunks.append(chunk)
    store = dataset.store
    for key in sorted(parts, key=lambda k: min(i for i, _ in parts[k])):
        pieces = [piece for _, piece in sorted(parts[key], key=lambda item: item[0])]
        installed = store.get(*key)
        if installed is not None:
            pieces.insert(0, installed)
        merged = pieces[0]
        if len(pieces) > 1:
            merged = dataclasses.replace(
                merged,
                min_rtts_ms=list(merged.min_rtts_ms),
                hdratios=list(merged.hdratios),
            )
            for piece in pieces[1:]:
                merged.merge(piece)
        if installed is None:
            store.put(key, merged)
        else:
            store.replace(key, merged)
    return dataset


def row_oracle(source, **dataset_kwargs):
    """The reference dataset: one serial per-sample row fold of ``source``.

    ``source`` is a trace path (JSONL or store) or a sample iterable. No
    runtime path selects this fold (``tests/test_batch_equivalence.py``
    walks ``src/`` to prove it); the differential tests hold
    ``build_dataset`` and everything built on it to this.
    """
    dataset = StudyDataset(**dataset_kwargs)
    if isinstance(source, (str, pathlib.Path)):
        source = read_samples(source, metrics=dataset.metrics)
    return dataset.ingest(source)


def shred_oracle(rows) -> dict:
    """The reference shred of ``(seq, sample)`` rows into the store
    schema's flat column lists: one ``columns[name].append`` per field per
    row. :func:`repro.store.schema.shred_rows` must agree with it."""
    columns = {name: [] for name, _ in COLUMNS}
    for seq, sample in rows:
        columns["seq"].append(seq)
        columns["session_id"].append(sample.session_id)
        columns["start_time"].append(sample.start_time)
        columns["end_time"].append(sample.end_time)
        columns["http_version"].append(sample.http_version.value)
        columns["min_rtt_seconds"].append(sample.min_rtt_seconds)
        columns["bytes_sent"].append(sample.bytes_sent)
        columns["busy_time_seconds"].append(sample.busy_time_seconds)
        columns["pop"].append(sample.pop)
        columns["client_country"].append(sample.client_country)
        columns["client_continent"].append(sample.client_continent)
        columns["client_ip_is_hosting"].append(sample.client_ip_is_hosting)
        columns["geo_tag"].append(sample.geo_tag)
        columns["media_lens"].append(len(sample.media_response_sizes))
        columns["media_values"].extend(sample.media_response_sizes)
        route = sample.route
        columns["route_present"].append(route is not None)
        if route is not None:
            columns["route_prefix"].append(route.prefix)
            columns["route_relationship"].append(route.relationship.value)
            columns["route_rank"].append(route.preference_rank)
            columns["route_prepended"].append(route.prepended)
            columns["route_aspath_lens"].append(len(route.as_path))
            columns["route_aspath_values"].extend(route.as_path)
        columns["txn_lens"].append(len(sample.transactions))
        for txn in sample.transactions:
            columns["txn_first_byte_time"].append(txn.first_byte_time)
            columns["txn_ack_time"].append(txn.ack_time)
            columns["txn_response_bytes"].append(txn.response_bytes)
            columns["txn_last_packet_bytes"].append(txn.last_packet_bytes)
            columns["txn_cwnd"].append(txn.cwnd_bytes_at_first_byte)
            columns["txn_inflight"].append(txn.bytes_in_flight_at_start)
            columns["txn_coalesced"].append(txn.coalesced_count)
            present = txn.last_byte_write_time is not None
            columns["txn_lbwt_present"].append(present)
            if present:
                columns["txn_lbwt_values"].append(txn.last_byte_write_time)
    return columns


def ecdf(values) -> Tuple[List[float], List[float]]:
    """The reference unweighted ECDF: ``(sorted_values, fractions)`` with
    the cumulative fraction ``(i + 1) / n`` stored beside every value.
    :class:`repro.pipeline.experiments.CdfSeries`, which derives each
    fraction when asked, must agree with it bit for bit."""
    if not values:
        raise ValueError("cannot build an ECDF from an empty sequence")
    ordered = sorted(map(float, values))
    n = len(ordered)
    return ordered, [(i + 1) / n for i in range(n)]
