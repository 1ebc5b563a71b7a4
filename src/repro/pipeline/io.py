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

Every entry point here (:func:`read_samples`, :func:`write_samples`,
:func:`plan_chunks`) auto-detects the format from the
path — a store is a directory with a ``manifest.json`` (conventionally
``*.store``) — so the dataset builders and the sharded pipeline work over
either without caring which. :func:`convert` moves a trace between the
formats losslessly.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import pathlib
import warnings
from typing import IO, Iterable, Iterator, Optional, Union

from dataclasses import dataclass

from repro import faultinject
from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
)
from repro.fsutil import fsync_dir, fsync_file
from repro.obs import active_metrics
from repro.store import (
    DEFAULT_BAND_WINDOWS,
    StoreChunk,
    TraceStoreReader,
    is_store_path,
    write_store,
)

__all__ = [
    "StoreChunk",
    "TraceChunk",
    "convert",
    "detect_format",
    "plan_chunks",
    "read_chunk",
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


def _decode_line(
    text: str, prefix: str, position: int, metrics=None
) -> Optional[SessionSample]:
    """One JSONL line to a sample (``None`` for a blank line).

    The one place a trace line meets ``json.loads``. ``prefix`` +
    ``position`` locate the line in the error a bad one raises;
    ``metrics`` receives ``io.rows_read`` per decoded row and
    ``io.decode_errors`` before that error.
    """
    text = text.strip()
    if not text:
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        if metrics is not None:
            metrics.inc("io.decode_errors")
        raise ValueError(
            f"{prefix}{position}: invalid JSON ({error})"
        ) from error
    if metrics is not None:
        metrics.inc("io.rows_read")
    return sample_from_dict(payload)


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
    ``{name}:{line number}``.
    """
    prefix = f"{name}:"
    for line_number, line in enumerate(handle, start=1):
        sample = _decode_line(line, prefix, line_number, metrics)
        if sample is not None:
            yield sample


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


# --------------------------------------------------------------------- #
# Chunked reading (parallel ingestion)
# --------------------------------------------------------------------- #
def _is_gzip(path: PathLike) -> bool:
    return pathlib.Path(path).suffix == ".gz"


#: Paths (resolved) whose gzip chunk-fallback warning already fired in this
#: process. The ``io.gzip_chunk_fallback`` counter still increments on every
#: fallback plan — the counter is the record, the warning is the nudge, and
#: repeating the nudge per shard-plan of the same file is pure noise.
_GZIP_FALLBACK_WARNED: set = set()


@dataclass(frozen=True)
class TraceChunk:
    """One independently readable slice of a JSONL trace.

    Plain files are split by **byte range** (``start_byte``/``end_byte``,
    newline-aligned) so a worker can ``seek`` straight to its slice without
    touching the rest of the file. Gzip members are not seekable, so ``.gz``
    traces are split by **line block** (``start_line``/``end_line``,
    half-open) instead; every worker decompresses from the start but only
    parses its own block — JSON decoding, not decompression, dominates.

    ``ordinal`` is a key that orders this chunk's samples against every
    other chunk of the same file: the absolute byte offset of the chunk's
    first line (byte-range mode) or its first line index (line-block mode).
    :func:`read_chunk` yields ``(key, sample)`` pairs whose keys extend the
    same ordering within the chunk, so a merger can restore the exact
    serial stream order by sorting on the key.
    """

    path: str
    ordinal: int
    start_byte: int = 0
    end_byte: int = 0
    start_line: int = 0
    end_line: int = 0
    byte_range: bool = True


def _newline_aligned_boundary(handle: IO, target: int) -> int:
    """First byte position at/after ``target`` that starts a fresh line."""
    if target <= 0:
        return 0
    handle.seek(target - 1)
    handle.readline()  # finish the line straddling the target
    return handle.tell()


def plan_chunks(path: PathLike, num_chunks: int) -> list:
    """Split a trace into up to ``num_chunks`` independently readable chunks.

    Fewer chunks may be returned for small files (a chunk is never empty by
    construction; an empty file yields no chunks). Concatenating the chunks
    in order reproduces the whole file. Store traces split along partition
    boundaries (:meth:`repro.store.TraceStoreReader.plan_chunks`), so each
    worker gets contiguous reads instead of line blocks.

    Gzipped JSONL is not seekable, so its "chunks" are line blocks: every
    worker re-decompresses the file from the start and parses only its own
    block. That caps the parallel speedup well below the worker count (the
    decompression is repeated serially in each worker); when it happens
    with more than one chunk, a :class:`RuntimeWarning` is emitted (once
    per path per process) and the process-wide ``io.gzip_chunk_fallback``
    counter increments on *every* occurrence. The counter goes to
    :func:`repro.obs.active_metrics` — it is a fact about this
    *execution*, not about the data, so recording it in a dataset's
    registry would break the serial-vs-parallel counter-equality invariant
    (serial ingestion never plans chunks). Convert the trace with
    ``repro convert`` (plain JSONL or a columnar store) for seekable
    chunking.

    Chunks carry the **resolved** path: a shard task may execute in a
    worker daemon whose working directory is not the caller's (DESIGN.md
    §13), so a relative path must be pinned here, client-side, before it
    ships. (Cross-host dispatch still requires the trace to be reachable
    at the same absolute path on every worker — shared storage.)
    """
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    if detect_format(path) == "store":
        return TraceStoreReader(pathlib.Path(path).resolve()).plan_chunks(
            num_chunks
        )
    path = pathlib.Path(path).resolve()
    if _is_gzip(path):
        if num_chunks > 1:
            registry = active_metrics()
            if registry is not None:
                registry.inc("io.gzip_chunk_fallback")
            resolved = str(path.resolve())
            if resolved not in _GZIP_FALLBACK_WARNED:
                _GZIP_FALLBACK_WARNED.add(resolved)
                warnings.warn(
                    f"{path}: gzip traces are not seekable; falling back "
                    "to line-block chunks (each worker re-decompresses the "
                    "whole file). Convert to plain JSONL or a .store for "
                    "scalable parallel ingestion.",
                    RuntimeWarning,
                    stacklevel=2,
                )
        with _open(path, "r") as handle:
            total_lines = sum(1 for _ in handle)
        if total_lines == 0:
            return []
        bounds = sorted(
            {(total_lines * i) // num_chunks for i in range(num_chunks)}
            | {total_lines}
        )
        return [
            TraceChunk(
                path=str(path),
                ordinal=start,
                start_line=start,
                end_line=end,
                byte_range=False,
            )
            for start, end in zip(bounds, bounds[1:])
            if end > start
        ]
    size = path.stat().st_size
    if size == 0:
        return []
    with open(path, "rb") as handle:
        raw_bounds = {
            _newline_aligned_boundary(handle, (size * i) // num_chunks)
            for i in range(num_chunks)
        }
    bounds = sorted(bound for bound in raw_bounds if bound < size) + [size]
    return [
        TraceChunk(path=str(path), ordinal=start, start_byte=start, end_byte=end)
        for start, end in zip(bounds, bounds[1:])
        if end > start
    ]


def _read_byte_range_chunk(chunk: TraceChunk, metrics=None) -> Iterator[tuple]:
    faultinject.check_io(chunk.path)
    prefix = f"{chunk.path}@byte "
    with open(chunk.path, "rb") as handle:
        handle.seek(chunk.start_byte)
        offset = chunk.start_byte
        while offset < chunk.end_byte:
            raw = handle.readline()
            if not raw:
                break
            line_start = offset
            offset += len(raw)
            sample = _decode_line(
                raw.decode("utf-8"), prefix, line_start, metrics
            )
            if sample is not None:
                yield line_start, sample


def _read_line_block_chunk(chunk: TraceChunk, metrics=None) -> Iterator[tuple]:
    faultinject.check_io(chunk.path)
    prefix = f"{chunk.path}:"
    with _open(chunk.path, "r") as handle:
        for index, line in enumerate(handle):
            if index >= chunk.end_line:
                break
            if index < chunk.start_line:
                continue
            sample = _decode_line(line, prefix, index + 1, metrics)
            if sample is not None:
                yield index, sample


def read_chunk(chunk: TraceChunk, metrics=None) -> Iterator[tuple]:
    """Yield ``(order_key, sample)`` pairs for one JSONL chunk (see
    :class:`TraceChunk` for the key's ordering guarantee; a store chunk
    decodes straight to columns,
    :func:`repro.kernels.engine.iter_batches`). ``metrics`` receives
    the same counters as :func:`read_samples`, so the chunked counters sum
    to exactly the serial read's."""
    if chunk.byte_range:
        return _read_byte_range_chunk(chunk, metrics)
    return _read_line_block_chunk(chunk, metrics)
