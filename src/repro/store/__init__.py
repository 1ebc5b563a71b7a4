"""Columnar trace store: partitioned, pruned, shard-aligned (§2.2.2 scale).

The paper's pipeline ships per-transaction state off the load balancer to
an aggregation tier that digests millions of sessions per 15-minute
window; this package is the repo's equivalent of that tier's compact
on-disk state. Instead of re-parsing a JSONL text trace line by line on
every ``analyze``/``routing`` run, traces can be converted once into a
versioned binary **columnar** layout:

- :mod:`repro.store.encoding` — struct-packed, varint/delta, dictionary,
  and bitmap column codecs, the per-partition frame deflate and CRC32;
- :mod:`repro.store.schema` — the versioned column set for
  :class:`~repro.core.records.SessionSample` rows;
- :mod:`repro.store.writer` — :func:`write_store`: partitions keyed by
  (PoP, time-window band) plus a JSON manifest of offsets and min/max
  statistics, published as the store's next data generation by the one
  publisher, which swaps the manifest last (an interrupted write keeps the
  previous store); :class:`StoreAppender`: an append session whose every
  append costs what it adds (:func:`append_to_store` is its one-shot
  spelling); :func:`load_manifest` / :func:`dump_manifest`: the one parser
  and the one (compact) serialiser of ``manifest.json``;
- :mod:`repro.store.reader` — :class:`TraceStoreReader`:
  ``scan(filter)`` with manifest-level partition pruning, and
  partition-aligned :class:`StoreChunk` planning for the sharded pipeline;
  rows and column batches come off one read → CRC → decode path;
- :mod:`repro.store.compact` — :func:`compact_store`: merge the many
  small partitions a long-running stream seals into one partition per
  (PoP, band), published by the same publisher as :func:`write_store`,
  with scans (and thus analyses) byte-identical before and after.

Format and analysis-equivalence guarantees are specified in DESIGN.md §8,
the failure model (per-partition CRC32, typed errors, ``verify_store``) in
DESIGN.md §9; ``repro convert`` (CLI) and :func:`repro.pipeline.io.convert`
move traces between the two formats losslessly.
"""

from repro.store.compact import CompactionReport, compact_store
from repro.store.errors import (
    ColumnDecodeError,
    CorruptBlockError,
    CorruptManifestError,
    StoreError,
    TruncatedPartitionError,
)
from repro.store.reader import (
    ScanFilter,
    StoreChunk,
    StoreVerifyFinding,
    StoreVerifyReport,
    TraceStoreReader,
    verify_store,
)
from repro.store.schema import SCHEMA_VERSION
from repro.store.writer import (
    DEFAULT_BAND_WINDOWS,
    STORE_FORMAT,
    STORE_FORMAT_VERSION,
    StoreAppender,
    append_to_store,
    dump_manifest,
    is_store_path,
    load_manifest,
    write_store,
)

__all__ = [
    "DEFAULT_BAND_WINDOWS",
    "SCHEMA_VERSION",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "ColumnDecodeError",
    "CompactionReport",
    "CorruptBlockError",
    "CorruptManifestError",
    "ScanFilter",
    "StoreAppender",
    "StoreChunk",
    "StoreError",
    "StoreVerifyFinding",
    "StoreVerifyReport",
    "TraceStoreReader",
    "TruncatedPartitionError",
    "append_to_store",
    "compact_store",
    "dump_manifest",
    "is_store_path",
    "load_manifest",
    "verify_store",
    "write_store",
]
