"""Partitioned writer for the binary trace store.

A store is a directory::

    trace.store/
        manifest.json    # schema + partition index (written last, atomically)
        data.bin         # concatenated partition payloads: the live data
                         # generation, data-gN.bin after a rewrite

Samples are bucketed into partitions keyed by ``(PoP, time-window band)``
— a band is ``band_windows`` consecutive aggregation windows — mirroring
how the paper's aggregation tier fans sessions out by PoP and 15-minute
window (§2.2.2, §3.3). Each partition carries min/max statistics
(timestamp range, sequence range, countries) in the manifest so readers
can prune it without touching the data file.

Publishing: :func:`write_store` and compaction
(:func:`repro.store.compact.compact_store`) publish a whole store one way,
:func:`_publish_generation`: the rows go to a fresh data *generation*
(``data.bin``, then ``data-g1.bin``, …), are CRC re-verified from disk,
and the manifest swap comes last. Each file is written to a temp file,
fsync'd and renamed into place, the directory fsync'd after each rename
(:mod:`repro.fsutil`). An interrupted publish leaves the previous store
intact (for a new store, a directory without a valid manifest) — never a
truncated store that parses as a short-but-valid trace.
:class:`StoreAppender` adds to the live generation in place, manifest
last too.

The manifest is one compact JSON object (no whitespace, ``"partitions"``
last) with one serialiser, :func:`dump_manifest`, beside its one parser,
:func:`parse_manifest` (:func:`load_manifest` reads the file and calls
it); ``python -m json.tool manifest.json`` renders it
for reading; an indented manifest loads unchanged.

Integrity: each partition is one frame — its variable-width columns, then
its fixed-width columns as 8 byte planes
(:func:`repro.store.schema.layout_frame`), deflated once at level 1 — and
its descriptor records the frame's ``codec``, a CRC32 of its on-disk
bytes and each column's encoded ``lengths`` (all from
:func:`repro.store.schema.encode_columns`); the reader verifies the CRC
before decoding. Format version 4 is the only one read or written:
:func:`parse_manifest` refuses any other, and a descriptor without a
checksum is damage (:func:`repro.store.reader.checksum_mismatch`).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.aggregation import window_index
from repro.core.records import SessionSample
from repro.fsutil import atomic_write_bytes, reap_dead_temp_files
from repro.store.errors import (
    CorruptManifestError,
    StoreError,
    TruncatedPartitionError,
)
from repro.store.schema import COLUMNS, SCHEMA_VERSION, encode_columns, shred_rows

__all__ = [
    "DEFAULT_BAND_WINDOWS",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "DATA_NAME",
    "StoreAppender",
    "append_to_store",
    "dump_manifest",
    "is_store_path",
    "load_manifest",
    "manifest_identity",
    "parse_manifest",
    "partition_key",
    "read_manifest_bytes",
    "shred_partitions",
    "write_store",
]

STORE_FORMAT = "repro-store"
#: One checksummed frame per partition, its fixed-width columns byte-planed;
#: the one version this build writes and the one it reads.
STORE_FORMAT_VERSION = 4
MANIFEST_NAME = "manifest.json"
DATA_NAME = "data.bin"

#: Four 15-minute windows = one-hour partitions by default: coarse enough
#: that partitions clear the per-partition encoding overhead, fine enough
#: that window-range scans prune most of a multi-day trace.
DEFAULT_BAND_WINDOWS = 4

PathLike = Union[str, pathlib.Path]

#: ``(test, what a value must be)`` for each kind of field below.
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_STRING = (lambda v: type(v) is str, "a string")
_OBJECT = (lambda v: type(v) is dict, "an object")
_LIST = (lambda v: type(v) is list, "a list")
#: The manifest fields readers index without checking. Every integer
#: among them is a count, an id or a byte range, so a negative one is
#: damage too.
_HEAD_FIELDS = (
    ("row_count", _COUNT),
    ("data_bytes", _COUNT),
    ("band_windows", (lambda v: type(v) is int and v > 0, "a positive integer")),
    ("window_seconds", (
        lambda v: type(v) in (int, float) and 0 < v < math.inf,
        "a positive finite number",
    )),
    ("partitions", _LIST),
)
_PARTITION_FIELDS = (
    ("id", _COUNT), ("pop", _STRING), ("band", _COUNT), ("rows", _COUNT),
    ("offset", _COUNT), ("length", _COUNT), ("stats", _OBJECT),
    ("lengths", (
        lambda v: type(v) is list and len(v) == len(COLUMNS)
        and all(type(n) is int and n >= 0 for n in v),
        f"a list of {len(COLUMNS)} non-negative integers",
    )),
)
_STATS_FIELDS = (
    ("min_seq", _COUNT), ("max_seq", _COUNT),
    ("min_end_time", _NUMBER), ("max_end_time", _NUMBER),
    ("countries", (
        lambda v: type(v) is list and all(type(c) is str for c in v),
        "a list of strings",
    )),
)


def _misshapen(entry, fields) -> Optional[str]:
    """What keeps ``entry`` from being an object with ``fields``, or None."""
    if type(entry) is not dict:
        return "not an object"
    for name, (test, kind) in fields:
        if not test(entry.get(name)):
            return f"{name!r} is not {kind}"
    return None


def _partition_problem(partition) -> Optional[str]:
    """What is wrong with one partition descriptor's shape, or None."""
    problem = _misshapen(partition, _PARTITION_FIELDS)
    if problem is not None:
        return problem
    problem = _misshapen(partition["stats"], _STATS_FIELDS)
    return None if problem is None else f"stats: {problem}"


def manifest_identity(path: PathLike) -> Optional[Tuple[int, int, int, int]]:
    """``<path>/manifest.json``'s ``(st_dev, st_ino, st_size, st_mtime_ns)``
    (None: no manifest). While it holds, a parse of the manifest is current:
    every publisher renames a fresh temp file over it."""
    try:
        stat = os.stat(os.path.join(path, MANIFEST_NAME))
    except (FileNotFoundError, NotADirectoryError):
        return None
    return (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)


def read_manifest_bytes(path: PathLike) -> bytes:
    """``<path>/manifest.json``'s bytes; :class:`StoreError` when ``path``
    holds no manifest."""
    path = pathlib.Path(path)
    try:
        return (path / MANIFEST_NAME).read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        # NotADirectoryError: ``path`` is a file, e.g. a JSONL trace.
        raise StoreError(
            f"{path}: not a trace store (missing {MANIFEST_NAME}; "
            "an interrupted write leaves no manifest on purpose)"
        ) from None


def load_manifest(path: PathLike) -> dict:
    """Read and vet ``<path>/manifest.json``; a fresh dict on every call."""
    return parse_manifest(
        pathlib.Path(path) / MANIFEST_NAME, read_manifest_bytes(path)
    )


def parse_manifest(manifest_path: pathlib.Path, raw: bytes) -> dict:
    """Parse and vet manifest bytes — the one place a manifest is parsed.

    Raises :class:`StoreError` for a manifest written by a format, store
    version or schema version this build does not read, and
    :class:`CorruptManifestError` when ``raw`` is not JSON or not the
    shape every reader relies on: :data:`_HEAD_FIELDS`, and per partition
    descriptor :data:`_PARTITION_FIELDS` and its :data:`_STATS_FIELDS` —
    the error names the partition and the field. The frame's ``codec`` and
    ``crc32`` are vetted where they are used, by the reader.
    """
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptManifestError(manifest_path, str(error)) from error
    if not isinstance(manifest, dict):
        raise CorruptManifestError(manifest_path, "not a JSON object")
    if manifest.get("format") != STORE_FORMAT:
        raise StoreError(
            f"{manifest_path}: unrecognized format {manifest.get('format')!r}"
        )
    if manifest.get("version") != STORE_FORMAT_VERSION:
        raise StoreError(
            f"{manifest_path}: unsupported store version "
            f"{manifest.get('version')!r} (supported: "
            f"{STORE_FORMAT_VERSION})"
        )
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise StoreError(
            f"{manifest_path}: unsupported schema version "
            f"{manifest.get('schema_version')!r} (supported: "
            f"{SCHEMA_VERSION})"
        )
    problem = _misshapen(manifest, _HEAD_FIELDS)
    if problem is not None:
        raise CorruptManifestError(manifest_path, problem)
    for index, partition in enumerate(manifest["partitions"]):
        problem = _partition_problem(partition)
        if problem is not None:
            raise CorruptManifestError(
                manifest_path, f"partition {index}: {problem}"
            )
    return manifest


def _fragment(value) -> bytes:
    """Compact JSON text of one manifest piece: the head or one partition.

    The only place a store manifest meets the JSON encoder. No ``indent``:
    that would select the pure-Python encoder, ~5x slower than the C one.
    """
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _splice_manifest(head: dict, fragments: Iterable[bytes]) -> bytes:
    """Manifest bytes from the non-partition fields and encoded partitions."""
    return b"".join(
        (_fragment(head)[:-1], b',"partitions":[', b",".join(fragments), b"]}")
    )


def dump_manifest(manifest: dict) -> bytes:
    """Serialise a store manifest — the one place it is written.

    The inverse of :func:`load_manifest`: one compact JSON object with
    ``"partitions"`` last, so that an appender can splice already-encoded
    partition descriptors after a re-encoded head and get these exact
    bytes (:class:`StoreAppender`).
    """
    head = {key: value for key, value in manifest.items() if key != "partitions"}
    return _splice_manifest(head, map(_fragment, manifest["partitions"]))


#: ``((pop, band), columns)``: one partition's key and its
#: :func:`~repro.store.schema.shred_rows` columns.
Partition = Tuple[Tuple[str, int], Dict[str, list]]


def partition_key(
    pop: str, end_time: float, window_seconds: float, band_windows: int
) -> Tuple[str, int]:
    """A row's ``(PoP, band)`` partition; the band is keyed by session end,
    like the row's window."""
    return pop, window_index(end_time, window_seconds) // band_windows


def shred_partitions(
    rows: Iterable[Tuple[int, SessionSample]],
    window_seconds: float,
    band_windows: int,
) -> Iterator[Partition]:
    """``(seq, sample)`` rows as one shredded column dict per (PoP, band)
    partition — the one step from samples to what a store holds.

    Rows are keyed by :func:`partition_key`. Partitions come in order of
    first appearance (smallest ``seq``), so a full scan's k-way merge
    starts near the front of every partition and the layout does not
    depend on dict iteration quirks. Each partition is shredded as it is
    taken, so a whole-store write holds one partition's columns at a time.
    """
    buckets: Dict[Tuple[str, int], List[Tuple[int, SessionSample]]] = {}
    for row in rows:
        sample = row[1]
        key = partition_key(
            sample.pop, sample.end_time, window_seconds, band_windows
        )
        buckets.setdefault(key, []).append(row)
    for key, bucket in sorted(buckets.items(), key=lambda item: item[1][0][0]):
        yield key, shred_rows(bucket)


def _encode_buckets(
    partitions: Iterable[Partition],
    first_part_id: int = 0,
    base_offset: int = 0,
) -> Tuple[bytes, List[dict]]:
    """Encode partitions into a payload + manifest partition list.

    Each partition's ``stats`` are read off its columns. ``first_part_id``
    and ``base_offset`` let an append continue an existing manifest's id
    and offset sequences.
    """
    payload = bytearray()
    descriptors: List[dict] = []
    for part_id, ((pop, band), columns) in enumerate(
        partitions, start=first_part_id
    ):
        encoded, frame = encode_columns(columns)
        seqs = columns["seq"]
        end_times = columns["end_time"]
        descriptors.append(
            {
                "id": part_id,
                "pop": pop,
                "band": band,
                "rows": len(seqs),
                "offset": base_offset + len(payload),
                "length": len(encoded),
                "stats": {
                    "min_seq": seqs[0],
                    "max_seq": seqs[-1],
                    "min_end_time": min(end_times),
                    "max_end_time": max(end_times),
                    "countries": sorted(set(columns["client_country"])),
                },
                **frame,
            }
        )
        payload += encoded
    return bytes(payload), descriptors


def _count_written(metrics, rows: int, partitions: int, data_bytes: int) -> None:
    """The write counters of :func:`write_store` and every append."""
    if metrics is not None:
        metrics.inc("store.rows.written", rows)
        metrics.inc("store.partitions.written", partitions)
        metrics.inc("store.bytes.written", data_bytes)
        metrics.inc("io.rows_written", rows)


_GENERATION_RE = re.compile(r"^data-g(\d+)\.bin$")


def _next_generation_name(current: str) -> str:
    """``data.bin`` → ``data-g1.bin`` → ``data-g2.bin`` …"""
    match = _GENERATION_RE.match(current)
    return f"data-g{int(match.group(1)) + 1 if match else 1}.bin"


def _publish_generation(
    path: PathLike,
    partitions: Iterable[Partition],
    row_count: int,
    band_windows: int,
    window_seconds: float,
    metrics=None,
) -> dict:
    """Publish ``partitions`` as the whole store at ``path``; returns its
    manifest. The one way a store is written whole; ``metrics`` receives
    the write counters (:func:`write_store`).

    The rows go to the next data generation: ``data.bin`` when ``path``
    holds no readable manifest, else the file after the one it names. Its
    frames are CRC re-verified from what the filesystem holds, then the
    manifest swap publishes them; until that rename lands readers see the
    previous store. Then every other ``data*.bin`` (the superseded
    generation, any orphan of a crashed publish) is unlinked and dead
    writers' temp files are reaped.
    """
    # Late import: the reader imports this module.
    from repro.store.reader import checksum_mismatch, corrupt_block

    path = pathlib.Path(path)
    payload, descriptors = _encode_buckets(partitions)
    try:
        current = load_manifest(path).get("data_file", DATA_NAME)
    except StoreError:
        data_name = DATA_NAME
    else:
        data_name = _next_generation_name(current)
    manifest = {
        "format": STORE_FORMAT,
        "version": STORE_FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "columns": [
            {"column": name, "encoding": encoding} for name, encoding in COLUMNS
        ],
        "row_count": row_count,
        "band_windows": band_windows,
        "window_seconds": window_seconds,
        "data_file": data_name,
        "data_bytes": len(payload),
        "partitions": descriptors,
    }

    path.mkdir(parents=True, exist_ok=True)
    data_path = path / data_name
    atomic_write_bytes(data_path, payload)
    written = memoryview(data_path.read_bytes())
    for partition in descriptors:
        start = partition["offset"]
        detail = checksum_mismatch(
            written[start : start + partition["length"]], partition
        )
        if detail is not None:
            raise corrupt_block(
                data_path, partition, None, f"re-verify failed: {detail}"
            )
    atomic_write_bytes(path / MANIFEST_NAME, dump_manifest(manifest))

    for stale in path.glob("data*.bin"):
        if stale.name != data_name:
            try:
                stale.unlink()
            except OSError:
                pass  # the swap stands; the next publish tries again
    reap_dead_temp_files(path)
    _count_written(metrics, row_count, len(descriptors), len(payload))
    return manifest


def _check_banding(band_windows: int, window_seconds: float) -> None:
    if band_windows < 1:
        raise ValueError("band_windows must be >= 1")
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")


def write_store(
    path: PathLike,
    samples: Iterable[SessionSample],
    band_windows: int = DEFAULT_BAND_WINDOWS,
    window_seconds: float = 900.0,
    metrics=None,
) -> int:
    """Write a whole sample stream as the store at ``path``, replacing any
    store there (:func:`_publish_generation`); returns the row count.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry` receiving
    ``store.rows.written``, ``store.partitions.written``,
    ``store.bytes.written``, and the shared ``io.rows_written`` ledger.
    """
    _check_banding(band_windows, window_seconds)
    rows = list(enumerate(samples))
    _publish_generation(
        path,
        shred_partitions(rows, window_seconds, band_windows),
        len(rows),
        band_windows,
        window_seconds,
        metrics,
    )
    return len(rows)


class StoreAppender:
    """An append session on one store: each append costs what it adds.

    The incremental-write path for streaming ingest
    (:mod:`repro.pipeline.ingest`): each :meth:`append` packs its samples
    (:meth:`append_partitions`: already shredded partitions) into fresh
    (PoP, band) partitions whose sequence numbers continue the store's
    ``row_count``, so a full :meth:`~repro.store.TraceStoreReader.scan`
    yields the concatenation of every append in order — byte-identical to
    having written the whole stream at once with :func:`write_store`
    **when sample (PoP, band) runs don't repeat**; in general each append
    seals its own partitions (the reader's seq-merge absorbs duplicates of
    a (PoP, band) key).

    The session parses and vets the manifest once (:func:`load_manifest`,
    plus the ``band_windows`` / ``window_seconds`` match — partitions
    banded inconsistently would break pruning) and keeps only its
    non-partition fields and one encoded fragment per partition. An append
    encodes the partitions it adds and splices them behind the cached
    fragments; the result is :func:`dump_manifest` of the whole manifest,
    byte for byte, without re-walking the descriptors of earlier appends.

    Another writer is noticed, not clobbered: every publisher replaces
    ``manifest.json`` by renaming a fresh temp file, so before each append
    the session compares :func:`manifest_identity` with what it saw after
    its own last publish and, when they differ — a second appender, a
    rewrite's or a compaction's generation swap — loads and vets the
    manifest again.

    Unlike :func:`_publish_generation`, an append writes the live data
    file in place, but also manifest last: new payload bytes
    are appended to the data file and fsync'd *before* the manifest is
    atomically replaced, and the session's own state advances only after
    that rename returns. A crash or error mid-append leaves the previous
    manifest pointing at the previous byte range — the trailing
    unreferenced bytes are invisible to readers and are truncated away by
    the next successful append, which also removes any temp file a dead
    writer left in the store (:func:`repro.fsutil.reap_dead_temp_files`).
    A data file *shorter* than the manifest says is damage, not a torn
    tail: the append is refused with a :class:`TruncatedPartitionError`
    before anything is written.

    A missing store is published whole by :func:`_publish_generation`
    (even for no rows, so a streaming run's output is always scannable).
    ``metrics`` receives the same counters as :func:`write_store`'s.
    """

    def __init__(
        self,
        path: PathLike,
        band_windows: int = DEFAULT_BAND_WINDOWS,
        window_seconds: float = 900.0,
        metrics=None,
    ) -> None:
        _check_banding(band_windows, window_seconds)
        self.path = pathlib.Path(path)
        self.band_windows = band_windows
        self.window_seconds = window_seconds
        self.metrics = metrics
        #: The manifest minus ``"partitions"``, and each partition's encoded
        #: descriptor, as of the manifest file ``_identity`` names.
        self._head: dict = {}
        self._fragments: List[bytes] = []
        self._identity: Optional[Tuple[int, int, int, int]] = None

    def _load(self) -> None:
        manifest = load_manifest(self.path)
        for name in ("band_windows", "window_seconds"):
            if manifest.get(name) != getattr(self, name):
                raise ValueError(
                    f"{name} {getattr(self, name)} does not match the "
                    f"store's {manifest.get(name)}"
                )
        self._fragments = [_fragment(p) for p in manifest.pop("partitions")]
        self._head = manifest

    def append(self, samples: Iterable[SessionSample]) -> int:
        """Append samples as new partitions; returns the row count."""
        rows = enumerate(samples)
        return self.append_partitions(
            list(shred_partitions(rows, self.window_seconds, self.band_windows))
        )

    def append_partitions(self, partitions: List[Partition]) -> int:
        """Append :func:`shred_partitions` output; returns the row count.

        ``seq`` counts from 0 across the partitions; the store's rows get
        ``row_count + seq``, in new lists: the caller's columns may back a
        :class:`~repro.kernels.columns.ColumnBatch` that adopted them.
        """
        count = sum(len(columns["seq"]) for _, columns in partitions)
        # Identity is read before the manifest it vouches for, so a writer
        # racing the load is caught by the next append's comparison.
        identity = manifest_identity(self.path)
        if identity is None:
            # Nothing cached: the next append loads what this one writes.
            _publish_generation(
                self.path,
                partitions,
                count,
                self.band_windows,
                self.window_seconds,
                self.metrics,
            )
            return count
        if identity != self._identity:
            self._load()
            self._identity = identity
        reap_dead_temp_files(self.path)
        if count == 0:
            return 0

        first_seq = self._head["row_count"]
        base_offset = self._head["data_bytes"]
        payload, descriptors = _encode_buckets(
            [
                (key, {**columns, "seq": [first_seq + s for s in columns["seq"]]})
                for key, columns in partitions
            ],
            first_part_id=len(self._fragments),
            base_offset=base_offset,
        )

        data_path = self.path / self._head.get("data_file", DATA_NAME)
        with open(data_path, "r+b") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < base_offset:
                # truncate() would zero-fill the hole and a new manifest
                # would bless it; name the last partition, whose end the
                # manifest puts at ``data_bytes``.
                raise TruncatedPartitionError(
                    data_path, len(self._fragments) - 1, base_offset, size
                )
            # Discard unreferenced tail bytes a crashed append may have left,
            # so the manifest's offsets stay the single source of truth.
            handle.truncate(base_offset)
            handle.seek(base_offset)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

        head = dict(
            self._head,
            row_count=first_seq + count,
            data_bytes=base_offset + len(payload),
        )
        fragments = self._fragments + [_fragment(p) for p in descriptors]
        atomic_write_bytes(
            self.path / MANIFEST_NAME, _splice_manifest(head, fragments)
        )
        self._head = head
        self._fragments = fragments
        self._identity = manifest_identity(self.path)
        _count_written(self.metrics, count, len(descriptors), len(payload))
        return count


def append_to_store(
    path: PathLike,
    samples: Iterable[SessionSample],
    band_windows: int = DEFAULT_BAND_WINDOWS,
    window_seconds: float = 900.0,
    metrics=None,
) -> int:
    """One-shot :meth:`StoreAppender.append`; returns the row count."""
    return StoreAppender(
        path,
        band_windows=band_windows,
        window_seconds=window_seconds,
        metrics=metrics,
    ).append(samples)


def is_store_path(path: PathLike) -> bool:
    """True when ``path`` is (or names) a trace-store directory."""
    path = pathlib.Path(path)
    if (path / MANIFEST_NAME).is_file():
        return True
    return path.suffix == ".store" and not path.is_file()
