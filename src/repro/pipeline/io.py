"""Trace serialization: JSONL and columnar-store import/export.

The paper's collection pipeline ships captured state off the load balancer
to an aggregation tier (§2.2.2); in this reproduction the equivalent
boundary is a saved trace, in one of two interchangeable formats:

- **JSONL** — one sample per line, versioned and intentionally flat:
  every field of :class:`~repro.core.records.SessionSample` and its
  transaction records, with enums as their string values. The validating,
  human-inspectable interchange format.
- **columnar store** (:mod:`repro.store`) — a partitioned binary layout
  with manifest-level partition pruning; the fast re-analysis format
  (DESIGN.md §8).

:func:`read_samples` and :func:`write_samples` auto-detect the format
from the path — a store is a directory with a ``manifest.json``
(conventionally ``*.store``) — so the one-pass dataset builders work over
either without caring which. :func:`convert` moves a trace between the
formats losslessly. A sharded plan reads a store only
(:func:`plan_chunks`): JSONL is an import/export format, folded in one
pass or converted first.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
from typing import IO, Iterable, Iterator, Optional, Union

from repro import faultinject
from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
)
from repro.fsutil import fsync_dir, fsync_file
from repro.store import (
    DEFAULT_BAND_WINDOWS,
    TraceStoreReader,
    is_store_path,
    write_store,
)

__all__ = [
    "convert",
    "detect_format",
    "plan_chunks",
    "read_samples",
    "read_samples_stream",
    "write_samples",
    "sample_to_dict",
    "sample_from_dict",
]

FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


def detect_format(path: PathLike) -> str:
    """``"store"`` for trace-store directories (or ``*.store`` targets),
    ``"jsonl"`` otherwise."""
    return "store" if is_store_path(path) else "jsonl"


def sample_to_dict(sample: SessionSample) -> dict:
    """Flatten one sample into a JSON-serializable dict."""
    route = None
    if sample.route is not None:
        route = {
            "prefix": sample.route.prefix,
            "as_path": list(sample.route.as_path),
            "relationship": sample.route.relationship.value,
            "preference_rank": sample.route.preference_rank,
            "prepended": sample.route.prepended,
        }
    return {
        "v": FORMAT_VERSION,
        "session_id": sample.session_id,
        "start_time": sample.start_time,
        "end_time": sample.end_time,
        "http_version": sample.http_version.value,
        "min_rtt_seconds": sample.min_rtt_seconds,
        "bytes_sent": sample.bytes_sent,
        "busy_time_seconds": sample.busy_time_seconds,
        "pop": sample.pop,
        "client_country": sample.client_country,
        "client_continent": sample.client_continent,
        "client_ip_is_hosting": sample.client_ip_is_hosting,
        "geo_tag": sample.geo_tag,
        "media_response_sizes": list(sample.media_response_sizes),
        "route": route,
        "transactions": [
            {
                "first_byte_time": txn.first_byte_time,
                "ack_time": txn.ack_time,
                "response_bytes": txn.response_bytes,
                "last_packet_bytes": txn.last_packet_bytes,
                "cwnd_bytes_at_first_byte": txn.cwnd_bytes_at_first_byte,
                "bytes_in_flight_at_start": txn.bytes_in_flight_at_start,
                "coalesced_count": txn.coalesced_count,
                "last_byte_write_time": txn.last_byte_write_time,
            }
            for txn in sample.transactions
        ],
    }


def sample_from_dict(payload: dict) -> SessionSample:
    """Inverse of :func:`sample_to_dict` (validates via the dataclasses)."""
    version = payload.get("v")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    route = None
    if payload.get("route") is not None:
        raw = payload["route"]
        route = RouteInfo(
            prefix=raw["prefix"],
            as_path=tuple(raw["as_path"]),
            relationship=Relationship(raw["relationship"]),
            preference_rank=raw["preference_rank"],
            prepended=raw["prepended"],
        )
    transactions = [
        TransactionRecord(
            first_byte_time=raw["first_byte_time"],
            ack_time=raw["ack_time"],
            response_bytes=raw["response_bytes"],
            last_packet_bytes=raw["last_packet_bytes"],
            cwnd_bytes_at_first_byte=raw["cwnd_bytes_at_first_byte"],
            bytes_in_flight_at_start=raw["bytes_in_flight_at_start"],
            coalesced_count=raw.get("coalesced_count", 1),
            last_byte_write_time=raw.get("last_byte_write_time"),
        )
        for raw in payload["transactions"]
    ]
    return SessionSample(
        session_id=payload["session_id"],
        start_time=payload["start_time"],
        end_time=payload["end_time"],
        http_version=HttpVersion(payload["http_version"]),
        min_rtt_seconds=payload["min_rtt_seconds"],
        bytes_sent=payload["bytes_sent"],
        busy_time_seconds=payload["busy_time_seconds"],
        transactions=transactions,
        route=route,
        pop=payload["pop"],
        client_country=payload["client_country"],
        client_continent=payload["client_continent"],
        client_ip_is_hosting=payload["client_ip_is_hosting"],
        geo_tag=payload.get("geo_tag", ""),
        media_response_sizes=tuple(payload.get("media_response_sizes", ())),
    )


def _open(path: PathLike, mode: str, compressed: Optional[bool] = None) -> IO:
    """Open a trace file for text I/O.

    ``compressed`` forces gzip on/off; the default infers it from the
    suffix. The explicit flag exists so atomic writes can open a temp file
    (whose name ends in ``.tmp.<pid>``) with the *target* path's
    compression.
    """
    path = pathlib.Path(path)
    if compressed is None:
        compressed = path.suffix == ".gz"
    if compressed:
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_samples(
    path: PathLike, samples: Iterable[SessionSample], metrics=None
) -> int:
    """Write samples as a trace; returns the count.

    The format follows the path: a ``*.store`` target becomes a columnar
    store (:mod:`repro.store`), anything else a (optionally gzipped) JSONL
    file. ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`
    that receives ``io.rows_written`` (and the ``store.*`` write counters
    for store targets).

    JSONL writes are atomic *and durable*: samples stream into a temp file
    beside the target, which is fsync'd after the last line, renamed into
    place, and then the parent directory entry is fsync'd
    (:mod:`repro.fsutil`). An interrupted export leaves the previous trace
    intact (or no trace), never a truncated file that parses as a
    short-but-valid trace — and a rename that returned cannot be undone by
    a crash. Store writes get the same guarantee from the writer's
    manifest-last protocol.
    """
    if detect_format(path) == "store":
        return write_store(path, samples, metrics=metrics)
    path = pathlib.Path(path)
    compressed = path.suffix == ".gz"
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    count = 0
    try:
        with _open(tmp, "w", compressed=compressed) as handle:
            for sample in samples:
                handle.write(json.dumps(sample_to_dict(sample)))
                handle.write("\n")
                count += 1
        # gzip/text wrappers flush their own buffers on close but never
        # fsync, so reopen the finished temp file to force it to disk
        # before the rename publishes it.
        fsync_file(tmp)
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if metrics is not None:
        metrics.inc("io.rows_written", count)
    return count


def read_samples(path: PathLike, metrics=None) -> Iterator[SessionSample]:
    """Stream samples back from a trace (JSONL or store, by path).

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry` that
    receives ``io.rows_read`` per decoded row and ``io.decode_errors``
    (counted before the error is raised, so a manifest written after a
    failure still shows how far the read got). Store reads add the
    ``store.*`` scan counters.
    """
    if detect_format(path) == "store":
        # Hand the reader's iterator straight out rather than re-yielding
        # row by row: the extra generator frame is measurable on long
        # scans. The manifest is read eagerly, the data lazily.
        return TraceStoreReader(path).scan(metrics=metrics)
    return _read_samples_jsonl(path, metrics)


def _read_samples_jsonl(
    path: PathLike, metrics=None
) -> Iterator[SessionSample]:
    faultinject.check_io(path)
    with _open(path, "r") as handle:
        yield from read_samples_stream(handle, metrics, str(path))


def read_samples_stream(
    handle: IO, metrics=None, name: str = "<stream>"
) -> Iterator[SessionSample]:
    """Stream JSONL samples from an open text handle (e.g. ``sys.stdin``).

    The unbounded-input path for ``repro ingest -``: unlike
    :func:`read_samples` there is no path to seek or re-open, so the
    samples arrive strictly once, in arrival order — exactly the contract
    :class:`repro.pipeline.ingest.StreamingIngestor` expects. Counts the
    same ``io.rows_read`` / ``io.decode_errors`` as a JSONL file read
    (which is this function over the opened file); a bad line is named
    ``{name}:{line number}``, and its ``io.decode_errors`` is counted
    before the error is raised. The one place a trace line meets
    ``json.loads``; blank lines are skipped.
    """
    for line_number, line in enumerate(handle, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            if metrics is not None:
                metrics.inc("io.decode_errors")
            raise ValueError(
                f"{name}:{line_number}: invalid JSON ({error})"
            ) from error
        if metrics is not None:
            metrics.inc("io.rows_read")
        yield sample_from_dict(payload)


def convert(
    src: PathLike,
    dst: PathLike,
    band_windows: int = DEFAULT_BAND_WINDOWS,
    metrics=None,
) -> int:
    """Convert a trace between formats; returns the row count.

    Directions follow the paths (see :func:`detect_format`): JSONL →
    ``*.store`` packs the trace into the columnar store; store → JSONL
    unpacks it. Round-tripping either way reproduces the sample stream
    exactly — same samples, same order (tested against the golden trace).
    """
    samples = read_samples(src, metrics=metrics)
    if detect_format(dst) == "store":
        return write_store(
            dst, samples, band_windows=band_windows, metrics=metrics
        )
    return write_samples(dst, samples, metrics=metrics)


def plan_chunks(path: PathLike, num_chunks: int) -> list:
    """Split a columnar store into up to ``num_chunks`` shard chunks.

    The store reader's partition-aligned plan
    (:meth:`repro.store.TraceStoreReader.plan_chunks`): every chunk is a
    :class:`~repro.store.StoreChunk` whose ``rows`` the manifest states.
    Anything that is not a store raises ``ValueError`` before a byte of it
    is read: a JSONL trace is folded in one pass, or ``repro convert``-ed
    first.

    Chunks carry the **resolved** path: a shard task may execute in a
    worker daemon whose working directory is not the caller's (DESIGN.md
    §13), so a relative path must be pinned here, client-side, before it
    ships. (Cross-host dispatch still requires the store to be reachable
    at the same absolute path on every worker — shared storage.)
    """
    if detect_format(path) != "store":
        raise ValueError(
            f"{path} is not a columnar store: a shard plan splits a store's "
            "partitions (`repro convert TRACE.jsonl TRACE.store` makes one)"
        )
    return TraceStoreReader(pathlib.Path(path).resolve()).plan_chunks(
        num_chunks
    )
