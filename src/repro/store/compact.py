"""Store compaction: many small streamed partitions → few large ones.

Streaming ingest (:mod:`repro.pipeline.ingest`) seals each watermarked
window as its own store partitions, so a long-running stream accumulates
hundreds of tiny partitions per (PoP, band) key — manifest bloat, poor
pruning granularity, and per-partition decode overhead on every scan.
:func:`compact_store` rewrites the store so each (PoP, band) key holds
exactly one partition again, as if the whole stream had been written in
one :func:`~repro.store.writer.write_store` call, and publishes it the way
``write_store`` does (:func:`~repro.store.writer._publish_generation`).

What is preserved, exactly:

- **sequence numbers** — rows keep their original ``seq`` keys, so a
  full scan yields the identical ``(seq, sample)`` stream and every
  derived analysis is byte-identical before and after compaction
  (``tests/test_store_compact.py`` asserts this through the pipeline);
- **integrity** — the rewrite round-trips through the CRC-verified
  reader (every source frame is checksum-checked as it is decoded), and
  the publisher CRC re-verifies the freshly written frames *from disk*
  before the manifest swap publishes them;
- **crash safety** — the publisher writes a new *generation* data file
  (``data-g1.bin``, ``data-g2.bin``, …) and swaps the manifest last,
  atomically. A crash at any point leaves the previous manifest pointing
  at the previous generation, fully intact. Stale generation files are
  unlinked only after the swap; a crash between swap and cleanup leaves
  an orphan file the next publish removes, as it removes any temp file a
  dead writer left (:func:`~repro.fsutil.reap_dead_temp_files`).
- **appendability** — the manifest keeps the same format (``data_file``
  names the live generation), so :func:`~repro.store.writer.
  append_to_store` keeps working on a compacted store unchanged, and a
  live :class:`~repro.store.writer.StoreAppender` session sees the swap
  (a new manifest file) and reloads before its next append.

``band_windows`` may re-band the store while compacting (e.g. widen
1-window streaming bands to 4-window batch bands); by default the
store's existing banding is kept.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs import span
from repro.store.reader import TraceStoreReader
from repro.store.writer import (
    _check_banding,
    _publish_generation,
    shred_partitions,
)

__all__ = ["CompactionReport", "compact_store"]

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class CompactionReport:
    """What one :func:`compact_store` call did (or why it did nothing)."""

    path: str
    partitions_before: int
    partitions_after: int
    bytes_before: int
    bytes_after: int
    rows: int
    data_file: str
    #: True when the store was already compact and nothing was rewritten.
    skipped: bool = False


def compact_store(
    path: PathLike,
    band_windows: Optional[int] = None,
    metrics=None,
) -> CompactionReport:
    """Rewrite ``path`` so each (PoP, band) key holds one partition.

    Returns a :class:`CompactionReport`; ``report.skipped`` is True when
    the store is already compact under the requested banding — the
    manifest says so, no data is read and the store is untouched. See
    the module docstring for the exactness, integrity, and crash-safety
    contract.
    """
    store_path = pathlib.Path(path)
    reader = TraceStoreReader(store_path)
    manifest = reader.manifest
    old_band_windows = int(manifest["band_windows"])
    window_seconds = float(manifest["window_seconds"])
    new_band_windows = (
        old_band_windows if band_windows is None else int(band_windows)
    )
    _check_banding(new_band_windows, window_seconds)
    bytes_before = int(manifest["data_bytes"])
    partitions_before = len(reader.partitions)
    rows = int(manifest["row_count"])

    keys = {(p["pop"], p["band"]) for p in reader.partitions}
    if new_band_windows == old_band_windows and len(keys) == partitions_before:
        # Every (PoP, band) key already has exactly one partition —
        # rewriting would only churn bytes. The manifest alone says so.
        if metrics is not None:
            metrics.inc("store.compact.skipped")
        return CompactionReport(
            path=str(store_path),
            partitions_before=partitions_before,
            partitions_after=partitions_before,
            bytes_before=bytes_before,
            bytes_after=bytes_before,
            rows=rows,
            data_file=reader.data_path.name,
            skipped=True,
        )

    with span("store.compact"):
        # One CRC-verified pass in seq order, shredded one partition at a
        # time as it is published; partitioning by first appearance
        # reproduces write_store's layout, and keeping the original seq
        # keys preserves the scan stream bit-exactly.
        new_manifest = _publish_generation(
            store_path,
            shred_partitions(
                reader.scan_pairs(metrics=None),
                window_seconds,
                new_band_windows,
            ),
            rows,
            new_band_windows,
            manifest["window_seconds"],
        )
        partitions_after = len(new_manifest["partitions"])
        bytes_after = new_manifest["data_bytes"]

    if metrics is not None:
        metrics.inc("store.compact.runs")
        metrics.inc("store.compact.partitions_in", partitions_before)
        metrics.inc("store.compact.partitions_out", partitions_after)
        metrics.inc("store.compact.bytes_in", bytes_before)
        metrics.inc("store.compact.bytes_out", bytes_after)
        metrics.inc("store.compact.rows", rows)
    return CompactionReport(
        path=str(store_path),
        partitions_before=partitions_before,
        partitions_after=partitions_after,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
        rows=rows,
        data_file=new_manifest["data_file"],
    )
