"""Store compaction: many small streamed partitions → few large ones.

Streaming ingest (:mod:`repro.pipeline.ingest`) seals each watermarked
window as its own store partitions, so a long-running stream accumulates
hundreds of tiny partitions per (PoP, band) key — manifest bloat, poor
pruning granularity, and per-partition decode overhead on every scan.
:func:`compact_store` rewrites the store so each (PoP, band) key holds
exactly one partition again, as if the whole stream had been written in
one :class:`~repro.store.writer.TraceStoreWriter` pass.

What is preserved, exactly:

- **sequence numbers** — rows keep their original ``seq`` keys, so a
  full scan yields the identical ``(seq, sample)`` stream and every
  derived analysis is byte-identical before and after compaction
  (``tests/test_store_compact.py`` asserts this through the pipeline);
- **integrity** — the rewrite round-trips through the CRC-verified
  reader (every source frame is checksum-checked as it is decoded), and
  the freshly written frames are CRC re-verified *from disk* before the
  manifest swap publishes them;
- **crash safety** — the new payload goes to a new *generation* data
  file (``data-g1.bin``, ``data-g2.bin``, …) and the manifest is
  swapped last, atomically. A crash at any point leaves the previous
  manifest pointing at the previous generation, fully intact. Stale
  generation files are unlinked only after the swap; a crash between
  swap and cleanup leaves an orphan file the next compaction removes,
  as it removes any temp file a dead writer left
  (:func:`~repro.fsutil.reap_dead_temp_files`).
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
import re
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.fsutil import atomic_write_bytes, reap_dead_temp_files
from repro.obs import span
from repro.store.reader import TraceStoreReader, checksum_mismatch, corrupt_block
from repro.store.writer import (
    DATA_NAME,
    MANIFEST_NAME,
    Buckets,
    _bucket,
    _encode_buckets,
    dump_manifest,
)

__all__ = ["CompactionReport", "compact_store"]

PathLike = Union[str, pathlib.Path]

_GENERATION_RE = re.compile(r"^data-g(\d+)\.bin$")


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


def _next_generation_name(current: str) -> str:
    match = _GENERATION_RE.match(current)
    generation = int(match.group(1)) + 1 if match else 1
    return f"data-g{generation}.bin"


def _reverify_from_disk(data_path: pathlib.Path, partitions: List[dict]) -> None:
    """CRC-check every freshly written frame against the new manifest.

    Reads back what the filesystem actually holds — not the in-memory
    payload — so torn or bit-flipped writes are caught *before* the
    manifest swap makes them the store.
    """
    view = memoryview(data_path.read_bytes())
    for partition in partitions:
        start = partition["offset"]
        detail = checksum_mismatch(
            view[start : start + partition["length"]], partition
        )
        if detail is not None:
            raise corrupt_block(
                data_path, partition, None, f"compaction re-verify failed: {detail}"
            )


def compact_store(
    path: PathLike,
    band_windows: Optional[int] = None,
    metrics=None,
) -> CompactionReport:
    """Rewrite ``path`` so each (PoP, band) key holds one partition.

    Returns a :class:`CompactionReport`; ``report.skipped`` is True when
    the store is already compact under the requested banding (nothing is
    rewritten, the store is untouched). See the module docstring for the
    exactness, integrity, and crash-safety contract.
    """
    store_path = pathlib.Path(path)
    reader = TraceStoreReader(store_path)
    manifest = reader.manifest
    old_band_windows = int(manifest["band_windows"])
    window_seconds = float(manifest["window_seconds"])
    new_band_windows = (
        old_band_windows if band_windows is None else int(band_windows)
    )
    if new_band_windows < 1:
        raise ValueError("band_windows must be >= 1")
    bytes_before = int(manifest["data_bytes"])
    partitions_before = len(reader.partitions)
    reap_dead_temp_files(store_path)

    with span("store.compact"):
        # One CRC-verified pass in seq order; bucketing by first
        # appearance reproduces TraceStoreWriter's layout, and keeping
        # the original seq keys preserves the scan stream bit-exactly.
        buckets: Buckets = {}
        rows = 0
        for seq, sample in reader.scan_pairs(metrics=None):
            rows += 1
            _bucket(buckets, seq, sample, window_seconds, new_band_windows)

        if partitions_before <= len(buckets) and (
            new_band_windows == old_band_windows
        ):
            # Every (PoP, band) key already has exactly one partition —
            # rewriting would only churn bytes.
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

        payload, partitions = _encode_buckets(buckets)

        old_data_name = manifest.get("data_file", DATA_NAME)
        new_data_name = _next_generation_name(old_data_name)
        new_data_path = store_path / new_data_name
        atomic_write_bytes(new_data_path, payload)
        _reverify_from_disk(new_data_path, partitions)

        new_manifest = dict(manifest)
        new_manifest["band_windows"] = new_band_windows
        new_manifest["data_file"] = new_data_name
        new_manifest["data_bytes"] = len(payload)
        new_manifest["partitions"] = partitions
        # The swap: until this rename lands, readers see the old
        # generation; after it, only the new one. Never both.
        atomic_write_bytes(
            store_path / MANIFEST_NAME, dump_manifest(new_manifest)
        )

        # Best-effort cleanup of superseded generations (the old data
        # file, plus any orphan a crashed compaction left behind).
        for stale in store_path.glob("data*.bin"):
            if stale.name == new_data_name:
                continue
            try:
                stale.unlink()
            except OSError:
                pass

    if metrics is not None:
        metrics.inc("store.compact.runs")
        metrics.inc("store.compact.partitions_in", partitions_before)
        metrics.inc("store.compact.partitions_out", len(partitions))
        metrics.inc("store.compact.bytes_in", bytes_before)
        metrics.inc("store.compact.bytes_out", len(payload))
        metrics.inc("store.compact.rows", rows)
    return CompactionReport(
        path=str(store_path),
        partitions_before=partitions_before,
        partitions_after=len(partitions),
        bytes_before=bytes_before,
        bytes_after=len(payload),
        rows=rows,
        data_file=new_data_name,
    )
