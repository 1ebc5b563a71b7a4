"""Partitioned writer for the binary trace store.

A store is a directory::

    trace.store/
        manifest.json    # schema + partition index (written last, atomically)
        data.bin         # concatenated partition payloads

Samples are bucketed into partitions keyed by ``(PoP, time-window band)``
— a band is ``band_windows`` consecutive aggregation windows — mirroring
how the paper's aggregation tier fans sessions out by PoP and 15-minute
window (§2.2.2, §3.3). Each partition carries min/max statistics
(timestamp range, sequence range, countries) in the manifest so readers
can prune it without touching ``data.bin``.

Durability: ``data.bin`` and ``manifest.json`` are each written to a
temporary file, fsync'd, and renamed into place (manifest last), with the
directory entry fsync'd after each rename (:mod:`repro.fsutil`). An
interrupted write therefore leaves either the previous store intact or a
directory without a valid manifest — never a truncated store that parses
as a short-but-valid trace — and a rename that returned cannot be undone
by a crash.

Integrity: store format v2 records a CRC32 per column block (computed in
:func:`repro.store.schema.encode_rows` over the on-disk bytes), which the
reader verifies before decoding. v1 stores (no checksums) remain readable;
see ``SUPPORTED_STORE_VERSIONS``.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.aggregation import window_index
from repro.core.records import SessionSample
from repro.fsutil import atomic_write_bytes
from repro.store.errors import CorruptManifestError, StoreError
from repro.store.schema import COLUMNS, SCHEMA_VERSION, encode_rows

__all__ = [
    "DEFAULT_BAND_WINDOWS",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "SUPPORTED_STORE_VERSIONS",
    "MANIFEST_NAME",
    "DATA_NAME",
    "TraceStoreWriter",
    "append_to_store",
    "is_store_path",
    "load_manifest",
    "write_store",
]

STORE_FORMAT = "repro-store"
#: v1: original layout. v2: per-block ``crc32`` fields in the manifest.
#: The writer emits the newest version; the reader accepts all of
#: ``SUPPORTED_STORE_VERSIONS`` (a v1 block without a checksum simply
#: skips verification).
STORE_FORMAT_VERSION = 2
SUPPORTED_STORE_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
DATA_NAME = "data.bin"

#: Four 15-minute windows = one-hour partitions by default: coarse enough
#: that partitions clear the per-partition encoding overhead, fine enough
#: that window-range scans prune most of a multi-day trace.
DEFAULT_BAND_WINDOWS = 4

PathLike = Union[str, pathlib.Path]


def load_manifest(path: PathLike) -> dict:
    """Read and vet ``<path>/manifest.json`` — the one place it is parsed.

    Raises :class:`StoreError` when ``path`` holds no manifest or one
    written by a format, store version or schema version this build does
    not read, and :class:`CorruptManifestError` when the file is not
    JSON or not the shape every reader relies on (an object with integer
    ``row_count`` / ``data_bytes`` and a ``partitions`` list).
    """
    path = pathlib.Path(path)
    manifest_path = path / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError):
        # NotADirectoryError: ``path`` is a file, e.g. a JSONL trace.
        raise StoreError(
            f"{path}: not a trace store (missing {MANIFEST_NAME}; "
            "an interrupted write leaves no manifest on purpose)"
        ) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptManifestError(manifest_path, str(error)) from error
    if not isinstance(manifest, dict):
        raise CorruptManifestError(manifest_path, "not a JSON object")
    if manifest.get("format") != STORE_FORMAT:
        raise StoreError(
            f"{manifest_path}: unrecognized format {manifest.get('format')!r}"
        )
    if manifest.get("version") not in SUPPORTED_STORE_VERSIONS:
        raise StoreError(
            f"{manifest_path}: unsupported store version "
            f"{manifest.get('version')!r} (supported: "
            f"{SUPPORTED_STORE_VERSIONS})"
        )
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise StoreError(
            f"{manifest_path}: unsupported schema version "
            f"{manifest.get('schema_version')!r} (supported: "
            f"{SCHEMA_VERSION})"
        )
    for name in ("row_count", "data_bytes"):
        if type(manifest.get(name)) is not int:
            raise CorruptManifestError(
                manifest_path, f"{name!r} is not an integer"
            )
    if not isinstance(manifest.get("partitions"), list):
        raise CorruptManifestError(manifest_path, "'partitions' is not a list")
    return manifest


def _atomic_write(path: pathlib.Path, data: bytes) -> None:
    # Module-level indirection kept for tests that monkeypatch the write
    # path; the durable temp+fsync+rename protocol lives in fsutil.
    atomic_write_bytes(path, data)


class TraceStoreWriter:
    """Buffer samples into (PoP, band) partitions; flush on :meth:`close`.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry` receiving
    ``store.rows.written``, ``store.partitions.written``,
    ``store.bytes.written``, and the shared ``io.rows_written`` ledger.
    """

    def __init__(
        self,
        path: PathLike,
        band_windows: int = DEFAULT_BAND_WINDOWS,
        window_seconds: float = 900.0,
        compress: bool = True,
        metrics=None,
    ) -> None:
        if band_windows < 1:
            raise ValueError("band_windows must be >= 1")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.path = pathlib.Path(path)
        self.band_windows = band_windows
        self.window_seconds = window_seconds
        self.compress = compress
        self.metrics = metrics
        self._buckets: Dict[
            Tuple[str, int], List[Tuple[int, SessionSample]]
        ] = {}
        self._next_seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    def band_of(self, sample: SessionSample) -> int:
        """Window band of a sample (keyed by session end, like windows)."""
        return (
            window_index(sample.end_time, self.window_seconds)
            // self.band_windows
        )

    def add(self, sample: SessionSample) -> int:
        """Buffer one sample; returns its sequence number (stream order)."""
        if self._closed:
            raise ValueError("writer is closed")
        seq = self._next_seq
        self._next_seq += 1
        key = (sample.pop, self.band_of(sample))
        self._buckets.setdefault(key, []).append((seq, sample))
        return seq

    def add_all(self, samples: Iterable[SessionSample]) -> int:
        for sample in samples:
            self.add(sample)
        return self._next_seq

    def close(self) -> dict:
        """Encode partitions, write ``data.bin`` then the manifest.

        Returns the manifest dict. Idempotent guard: a closed writer
        rejects further use.
        """
        if self._closed:
            raise ValueError("writer is closed")
        self._closed = True

        payload, partitions = _encode_buckets(
            self._buckets, compress=self.compress
        )

        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "columns": [
                {"column": name, "encoding": encoding}
                for name, encoding in COLUMNS
            ],
            "row_count": self._next_seq,
            "band_windows": self.band_windows,
            "window_seconds": self.window_seconds,
            "data_file": DATA_NAME,
            "data_bytes": len(payload),
            "partitions": partitions,
        }

        self.path.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path / DATA_NAME, bytes(payload))
        _atomic_write(
            self.path / MANIFEST_NAME,
            json.dumps(manifest, indent=1).encode("utf-8"),
        )

        if self.metrics is not None:
            self.metrics.inc("store.rows.written", self._next_seq)
            self.metrics.inc("store.partitions.written", len(partitions))
            self.metrics.inc("store.bytes.written", len(payload))
            self.metrics.inc("io.rows_written", self._next_seq)
        self._buckets.clear()
        return manifest


def _encode_buckets(
    buckets: Dict[Tuple[str, int], List[Tuple[int, SessionSample]]],
    compress: bool,
    first_part_id: int = 0,
    base_offset: int = 0,
) -> Tuple[bytes, List[dict]]:
    """Encode (PoP, band) buckets into a payload + manifest partition list.

    Deterministic partition order: by first appearance in the stream, so a
    full scan's k-way merge starts near the front of every partition and
    the layout does not depend on dict iteration quirks. ``first_part_id``
    and ``base_offset`` let an append continue an existing manifest's id
    and offset sequences.
    """
    ordered = sorted(buckets.items(), key=lambda item: item[1][0][0])
    payload = bytearray()
    partitions: List[dict] = []
    for part_id, ((pop, band), rows) in enumerate(ordered, start=first_part_id):
        encoded, blocks = encode_rows(rows, compress=compress)
        partitions.append(
            {
                "id": part_id,
                "pop": pop,
                "band": band,
                "rows": len(rows),
                "offset": base_offset + len(payload),
                "length": len(encoded),
                "stats": {
                    "min_seq": rows[0][0],
                    "max_seq": rows[-1][0],
                    "min_end_time": min(s.end_time for _, s in rows),
                    "max_end_time": max(s.end_time for _, s in rows),
                    "countries": sorted(
                        {s.client_country for _, s in rows}
                    ),
                },
                "blocks": blocks,
            }
        )
        payload += encoded
    return bytes(payload), partitions


def write_store(
    path: PathLike,
    samples: Iterable[SessionSample],
    band_windows: int = DEFAULT_BAND_WINDOWS,
    window_seconds: float = 900.0,
    compress: bool = True,
    metrics=None,
) -> int:
    """Write a whole sample stream as a store; returns the row count."""
    writer = TraceStoreWriter(
        path,
        band_windows=band_windows,
        window_seconds=window_seconds,
        compress=compress,
        metrics=metrics,
    )
    count = writer.add_all(samples)
    writer.close()
    return count


def append_to_store(
    path: PathLike,
    samples: Iterable[SessionSample],
    band_windows: int = DEFAULT_BAND_WINDOWS,
    window_seconds: float = 900.0,
    compress: bool = True,
    metrics=None,
) -> int:
    """Append samples to a store as new partitions; returns the row count.

    The incremental-write path for streaming ingest
    (:mod:`repro.pipeline.ingest`): each call packs its samples into fresh
    (PoP, band) partitions whose sequence numbers continue the store's
    ``row_count``, so a full :meth:`~repro.store.TraceStoreReader.scan`
    yields the concatenation of every append in order — byte-identical to
    having written the whole stream at once through a
    :class:`TraceStoreWriter` **when sample (PoP, band) runs don't repeat**;
    in general each append seals its own partitions (the reader's seq-merge
    absorbs duplicates of a (PoP, band) key).

    Durability keeps the writer's manifest-last protocol: new payload bytes
    are appended to ``data.bin`` and fsync'd *before* the manifest is
    atomically replaced. A crash mid-append leaves the previous manifest
    pointing at the previous byte range — the trailing unreferenced bytes
    are invisible to readers and are truncated away by the next successful
    append. Appending to a version-1 store upgrades the manifest to the
    current format version (old blocks simply carry no checksum).

    A missing store is created (even for an empty sample stream, so a
    streaming run's output is always scannable). ``band_windows`` and
    ``window_seconds`` must match the existing manifest — partitions
    banded inconsistently would break pruning.
    """
    path = pathlib.Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        return write_store(
            path,
            samples,
            band_windows=band_windows,
            window_seconds=window_seconds,
            compress=compress,
            metrics=metrics,
        )

    manifest = load_manifest(path)
    if manifest.get("band_windows") != band_windows:
        raise ValueError(
            f"band_windows {band_windows} does not match the store's "
            f"{manifest.get('band_windows')}"
        )
    if manifest.get("window_seconds") != window_seconds:
        raise ValueError(
            f"window_seconds {window_seconds} does not match the store's "
            f"{manifest.get('window_seconds')}"
        )

    writer = TraceStoreWriter(
        path,
        band_windows=band_windows,
        window_seconds=window_seconds,
        compress=compress,
    )
    writer._next_seq = manifest["row_count"]
    first_seq = writer._next_seq
    count = writer.add_all(samples) - first_seq
    writer._closed = True  # bucketed by hand; never .close() this writer
    if count == 0:
        return 0

    base_offset = manifest["data_bytes"]
    payload, partitions = _encode_buckets(
        writer._buckets,
        compress=compress,
        first_part_id=len(manifest["partitions"]),
        base_offset=base_offset,
    )

    data_path = path / manifest.get("data_file", DATA_NAME)
    with open(data_path, "r+b") as handle:
        # Discard unreferenced tail bytes a crashed append may have left,
        # so the manifest's offsets stay the single source of truth.
        handle.truncate(base_offset)
        handle.seek(base_offset)
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())

    manifest["version"] = STORE_FORMAT_VERSION
    manifest["row_count"] = first_seq + count
    manifest["data_bytes"] = base_offset + len(payload)
    manifest["partitions"] = manifest["partitions"] + partitions
    # Crash safety requires rewriting the whole manifest atomically, so
    # each append costs O(total partitions) serialization. Fine-grained
    # appenders (one call per sealed window) should batch windows or
    # accept the cost for modest stores; see DESIGN.md on the streaming
    # seal path.
    _atomic_write(
        manifest_path, json.dumps(manifest, indent=1).encode("utf-8")
    )

    if metrics is not None:
        metrics.inc("store.rows.written", count)
        metrics.inc("store.partitions.written", len(partitions))
        metrics.inc("store.bytes.written", len(payload))
        metrics.inc("io.rows_written", count)
    return count


def is_store_path(path: PathLike) -> bool:
    """True when ``path`` is (or names) a trace-store directory."""
    path = pathlib.Path(path)
    if (path / MANIFEST_NAME).is_file():
        return True
    return path.suffix == ".store" and not path.is_file()
