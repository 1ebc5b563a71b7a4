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

JSONL decodes through one line loop (:func:`_decode_lines`) with two
assemblers, as a store partition's decoded columns feed both its row
decoder and :meth:`~repro.kernels.columns.ColumnBatch.from_store_columns`
(DESIGN.md §8, §10): :func:`sample_from_dict` builds the samples
:func:`read_samples` and :func:`read_samples_stream` hand out, and the
column assembler fills store-schema columns, building no record — one
bucket per :data:`BATCH_ROWS` rows for the batches
:func:`read_column_batches` hands the kernels, one per partition for
:func:`convert` to a store. Both apply the :mod:`repro.core.records`
check functions, so they accept and reject the same lines with the same
messages.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
from functools import partial
from itertools import repeat
from operator import is_not, itemgetter
from typing import (
    IO, TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional,
    Union,
)

from repro import faultinject
from repro.core.constants import AGGREGATION_WINDOW_SECONDS
from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
    check_session,
    check_transaction,
)
from repro.fsutil import fsync_dir, fsync_file
from repro.store import (
    DEFAULT_BAND_WINDOWS,
    TraceStoreReader,
    is_store_path,
    write_store,
)
from repro.store.schema import COLUMNS, ROUTE_TABLE_LIMIT, shred_routes
from repro.store.writer import (
    _check_banding,
    _publish_generation,
    partition_key,
)

if TYPE_CHECKING:
    from repro.kernels.columns import ColumnBatch

__all__ = [
    "convert",
    "detect_format",
    "plan_chunks",
    "read_column_batches",
    "read_samples",
    "read_samples_stream",
    "write_samples",
    "sample_to_dict",
    "sample_from_dict",
]

FORMAT_VERSION = 1

#: The C scanner behind ``json.loads``: one call parses a line's value.
_scan = json.JSONDecoder().scan_once

#: What a well-formed JSON object that is not a valid record raises in an
#: assembler: a missing field, a value of the wrong shape, a broken rule.
_RECORD_ERRORS = (KeyError, TypeError, ValueError)

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


def sample_from_dict(
    payload: dict, routes: Optional["_RouteTable"] = None
) -> SessionSample:
    """Inverse of :func:`sample_to_dict`: the object assembler.

    Validates via the dataclasses. ``routes`` is the reading stream's
    route table (identical routes share one :class:`RouteInfo`); a call
    without one interns into a table of its own.
    """
    version = payload.get("v")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    route = payload.get("route")
    if route is not None:
        route = (_RouteTable() if routes is None else routes).route(route)
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
        http_version=_http_version(payload["http_version"]),
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


_HTTP_VERSIONS = {member.value: member for member in HttpVersion}
_HTTP_VALUES = {member.value: member.value for member in HttpVersion}


def _http_version(value) -> HttpVersion:
    """``HttpVersion(value)`` at dict-lookup cost; a miss still raises the
    enum's own error."""
    return _HTTP_VERSIONS.get(value) or HttpVersion(value)


class _RouteTable(dict):
    """One stream's interned routes: route key -> :class:`RouteInfo`.

    ``RouteInfo`` is frozen, so samples may share one; routes repeat
    heavily, so a trace decodes to one ``RouteInfo`` (and one ``as_path``
    tuple) per distinct route, as the store decoder's
    :func:`~repro.store.schema.expand_routes` does. The key compares by
    value: a route spelled ``0`` on one line and ``0.0`` on another
    decodes (``==``-equal) to the first spelling.
    """

    def route(self, raw: dict) -> RouteInfo:
        prefix = raw["prefix"]
        as_path = tuple(raw["as_path"])
        key = (
            prefix,
            as_path,
            raw["relationship"],
            raw["preference_rank"],
            raw["prepended"],
        )
        route = self.get(key)
        if route is None:
            if len(self) >= ROUTE_TABLE_LIMIT:
                self.clear()
            route = self[key] = RouteInfo(
                prefix, as_path, Relationship(key[2]), key[3], key[4]
            )
        return route


class _Bucket:
    """One partition's (or batch's) store columns and its rows' routes,
    filled through ``add``: a bound append per :data:`_FILLED` column, then
    the routes'. Until :meth:`seal`, ``txn_lbwt_values`` holds every
    transaction's ``last_byte_write_time``, ``None`` included, and the
    route columns are empty."""

    __slots__ = ("columns", "routes", "add")

    def __init__(self) -> None:
        self.columns: Dict[str, list] = {name: [] for name, _ in COLUMNS}
        self.routes: List[Optional[RouteInfo]] = []
        self.add = tuple(
            getattr(self.columns[name], method) for name, method in _FILLED
        ) + (self.routes.append,)

    def seal(self, route_columns: bool = False) -> Dict[str, list]:
        """The columns, ``last_byte_write_time`` presence-compacted; with
        ``route_columns`` (a batch adopts ``routes`` instead), the route
        columns too: the :func:`~repro.store.schema.shred_rows` shape."""
        columns = self.columns
        lbwts = columns["txn_lbwt_values"]
        columns["txn_lbwt_present"] = list(map(is_not, lbwts, repeat(None)))
        columns["txn_lbwt_values"] = list(filter(partial(is_not, None), lbwts))
        if route_columns:
            columns.update(shred_routes(self.routes))
        return columns


#: The columns a record is appended to, in :attr:`_Bucket.add` order, and
#: how: a record's media sizes extend theirs.
_FILLED = tuple(
    (name, "extend" if name == "media_values" else "append")
    for name, _ in COLUMNS
    if not name.startswith("route_") and name != "txn_lbwt_present"
)
#: A record's required fields, and a transaction's, in one C call each.
_session_fields = itemgetter(
    "transactions", "session_id", "start_time", "end_time", "http_version",
    "min_rtt_seconds", "bytes_sent", "busy_time_seconds", "pop",
    "client_country", "client_continent", "client_ip_is_hosting",
)
_txn_fields = itemgetter(
    "first_byte_time", "ack_time", "response_bytes", "last_packet_bytes",
    "cwnd_bytes_at_first_byte", "bytes_in_flight_at_start",
)


def _column_assembler(
    place: Callable[[object, object], _Bucket], batch_rows: int = 0
):
    """The column assembler: parsed records straight into store columns.

    ``assemble(payload, routes)`` fills one record into the bucket
    ``place(end_time, pop)`` picks: exactly the columns
    :func:`~repro.store.schema.shred_rows` would shred from
    ``sample_from_dict(payload, routes)``, keyed by stream position as
    ``enumerate`` keys it, and the sample's interned route. It returns
    the bucket when that fills it to ``batch_rows`` rows, else ``None``.
    No record object is built. Repeated strings (PoP, country, continent,
    geo tag) are interned per stream, in a table bounded like the route
    table.

    It accepts what the object assembler accepts: the same fields, the
    same :func:`check_transaction` / :func:`check_session` rules. A record
    it rejects is handed to :func:`sample_from_dict` to be rejected again,
    so the error that escapes is the object assembler's, message included.
    """
    strings: Dict[str, str] = {}
    intern = strings.setdefault
    seq = 0

    def assemble(payload: dict, routes: _RouteTable) -> Optional[_Bucket]:
        nonlocal seq
        try:
            if payload.get("v") != FORMAT_VERSION:
                raise ValueError  # worded below, by the object assembler
            route = payload.get("route")
            if route is not None:
                route = routes.route(route)
            (
                transactions, session_id, start, end, version, min_rtt, sent,
                busy, pop, country, continent, hosting,
            ) = _session_fields(payload)
            version = _HTTP_VALUES.get(version) or HttpVersion(version).value
            geo_tag = payload.get("geo_tag", "")
            media = payload.get("media_response_sizes", ())
            check_session(
                session_id, start, end, min_rtt, sent, busy, pop, country,
                continent, geo_tag, media,
            )
            bucket = place(end, pop)
            (
                add_seq, add_session_id, add_start, add_end, add_version,
                add_min_rtt, add_sent, add_busy, add_pop, add_country,
                add_continent, add_hosting, add_geo_tag, add_media_len,
                add_media, add_txn_len, add_fbt, add_ack, add_response,
                add_last, add_cwnd, add_inflight, add_coalesced, add_lbwt,
                add_route,
            ) = bucket.add
            for raw in transactions:
                fbt, ack, response, last, cwnd, inflight = _txn_fields(raw)
                coalesced = raw.get("coalesced_count", 1)
                lbwt = raw.get("last_byte_write_time")
                check_transaction(
                    fbt, ack, response, last, cwnd, inflight, coalesced, lbwt
                )
                add_fbt(fbt)
                add_ack(ack)
                add_response(response)
                add_last(last)
                add_cwnd(cwnd)
                add_inflight(inflight)
                add_coalesced(coalesced)
                add_lbwt(lbwt)
            add_media(media)  # what tuple() accepts, extend() accepts
        except _RECORD_ERRORS:
            sample_from_dict(payload, routes)
            raise
        if len(strings) >= ROUTE_TABLE_LIMIT:
            strings.clear()
        add_seq(seq)
        add_session_id(session_id)
        add_start(start)
        add_end(end)
        add_version(version)
        add_min_rtt(min_rtt)
        add_sent(sent)
        add_busy(busy)
        add_pop(intern(pop, pop) if type(pop) is str else pop)
        add_country(
            intern(country, country) if type(country) is str else country
        )
        add_continent(
            intern(continent, continent)
            if type(continent) is str else continent
        )
        add_hosting(hosting)
        add_geo_tag(
            intern(geo_tag, geo_tag) if type(geo_tag) is str else geo_tag
        )
        add_media_len(len(media))
        add_txn_len(len(transactions))
        add_route(route)
        seq += 1
        return bucket if len(bucket.routes) == batch_rows else None

    return assemble


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
    receives ``io.rows_read`` (the rows decoded) and ``io.decode_errors``
    (counted before the error is raised, so a manifest written after a
    failure still shows how far the read got). Store reads add the
    ``store.*`` scan counters.
    """
    if detect_format(path) == "store":
        # Hand the reader's iterator straight out rather than re-yielding
        # row by row: the extra generator frame is measurable on long
        # scans. The manifest is read eagerly, the data lazily.
        return TraceStoreReader(path).scan(metrics=metrics)
    return _read_jsonl(path, metrics, sample_from_dict)


def read_column_batches(path: PathLike, metrics=None) -> Iterator[ColumnBatch]:
    """:func:`read_samples`, as :class:`ColumnBatch` runs: what the batch
    kernels fold.

    A store yields one batch per partition, keyed by ``seq``
    (:meth:`repro.store.TraceStoreReader.read_column_batches`). A JSONL
    trace goes through the column assembler: :data:`BATCH_ROWS`-row
    batches keyed by stream position, equal field by field to
    ``batches_from_pairs`` over :func:`read_samples`' samples, with no
    sample built. The same counters and the same errors as
    :func:`read_samples`.
    """
    if detect_format(path) == "store":
        return TraceStoreReader(path).read_column_batches(metrics=metrics)
    return _read_batches_jsonl(path, metrics)


def _read_batches_jsonl(path: PathLike, metrics) -> Iterator[ColumnBatch]:
    # Imported here, not at module top: a process that never folds a JSONL
    # trace (``repro serve`` starting up) should not load the kernels.
    from repro.kernels.columns import BATCH_ROWS, ColumnBatch

    bucket = _Bucket()
    assemble = _column_assembler(lambda end_time, pop: bucket, BATCH_ROWS)
    for _ in _read_jsonl(path, metrics, assemble):
        yield ColumnBatch.from_store_columns(bucket.seal(), bucket.routes)
        bucket = _Bucket()
    if bucket.routes:
        yield ColumnBatch.from_store_columns(bucket.seal(), bucket.routes)


def _read_jsonl(path: PathLike, metrics, assemble) -> Iterator:
    faultinject.check_io(path)
    with _open(path, "r") as handle:
        yield from _decode_lines(handle, metrics, str(path), assemble)


def read_samples_stream(
    handle: IO, metrics=None, name: str = "<stream>"
) -> Iterator[SessionSample]:
    """Stream JSONL samples from an open text handle (e.g. ``sys.stdin``).

    The unbounded-input path for ``repro ingest -``: unlike
    :func:`read_samples` there is no path to seek or re-open, so the
    samples arrive strictly once, in arrival order — exactly the contract
    :class:`repro.pipeline.ingest.StreamingIngestor` expects. The object
    assembler over the one line loop (see :func:`_decode_lines` for the
    counters and the errors), as a JSONL file read is.
    """
    return _decode_lines(handle, metrics, name, sample_from_dict)


def _decode_lines(handle: IO, metrics, name: str, assemble) -> Iterator:
    """The one JSONL line loop, under either assembler.

    Each stripped, non-blank line is scanned by one C call; a line that is
    not exactly one JSON value goes to ``json.loads``, the reference, only
    for its exact error. Each JSON object is handed with the stream's
    route table to ``assemble`` — :func:`sample_from_dict` (yields every
    sample) or :func:`_column_assembler`'s (yields each full bucket; a
    ``None`` result yields nothing).

    A bad line raises one ``ValueError`` naming ``{name}:{line number}``
    — ``invalid JSON (…)`` or ``invalid record (…)`` — counting one
    ``io.decode_errors`` first. ``io.rows_read`` (rows assembled) is
    counted once, when the read ends: exhausted, closed early or failed.
    """
    routes = _RouteTable()
    rows = 0
    try:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                payload, end = _scan(text, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(text):
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError as error:
                    raise _bad_line(
                        metrics, name, line_number, "invalid JSON", error
                    ) from error
            try:
                if type(payload) is not dict:
                    raise TypeError(
                        f"a record is a JSON object, not {type(payload).__name__}"
                    )
                out = assemble(payload, routes)
            except _RECORD_ERRORS as error:
                raise _bad_line(
                    metrics, name, line_number, "invalid record", error
                ) from error
            rows += 1
            if out is not None:
                yield out
    finally:
        if metrics is not None and rows:
            metrics.inc("io.rows_read", rows)


def _bad_line(metrics, name: str, line_number: int, what: str, error):
    """The one error a bad line raises, counted in ``io.decode_errors``."""
    if metrics is not None:
        metrics.inc("io.decode_errors")
    if type(error) is KeyError:
        error = f"missing field {error.args[0]!r}"
    return ValueError(f"{name}:{line_number}: {what} ({error})")


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

    A JSONL import builds no record: the column assembler fills one bucket
    per :func:`~repro.store.writer.partition_key` (a row that passes the
    record checks always has one), and the store's one publisher writes
    them in order of first appearance — the store, counters and errors of
    ``write_store(dst, read_samples(src))``.
    """
    if detect_format(dst) != "store":
        return write_samples(dst, read_samples(src, metrics), metrics=metrics)
    if detect_format(src) == "store":
        return write_store(
            dst, read_samples(src, metrics), band_windows, metrics=metrics
        )
    window_seconds = AGGREGATION_WINDOW_SECONDS
    _check_banding(band_windows, window_seconds)
    buckets: Dict[tuple, _Bucket] = {}

    def place(end_time, pop) -> _Bucket:
        key = partition_key(pop, end_time, window_seconds, band_windows)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = _Bucket()
        return bucket

    for _ in _read_jsonl(src, metrics, _column_assembler(place)):
        pass  # no bucket is ever full: nothing is yielded
    rows = sum(len(bucket.routes) for bucket in buckets.values())
    # Each bucket is let go once encoded: the payload grows as they go.
    partitions = ((key, buckets.pop(key).seal(True)) for key in list(buckets))
    _publish_generation(
        dst, partitions, rows, band_windows, window_seconds, metrics
    )
    return rows


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
