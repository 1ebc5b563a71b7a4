"""Manifest-driven reader: partition pruning and shard-aligned scans.

:class:`TraceStoreReader` decides which partitions to decode from the JSON
manifest alone — a :class:`ScanFilter` on PoPs, countries, or a session
end-time range prunes whole partitions before a single data byte is read
(predicate pushdown). What does get decoded is merged back into exact
stream order by the samples' sequence column, so a full scan of a store
yields the *identical* sample sequence the original JSONL trace held.

For parallel ingestion, :meth:`TraceStoreReader.plan_chunks` groups
partitions into :class:`StoreChunk` units that plug into the sharded
pipeline's planner (:mod:`repro.pipeline.parallel`): every worker decodes
a disjoint set of partitions with one contiguous read each
(:meth:`TraceStoreReader.read_column_batches`), and the pipeline's
order-key merge restores global order. Sequence ranges may interleave
across partitions and chunks, which that sort-by-order-key merge absorbs —
all derived statistics are order statistics or integer sums, so results
stay byte-identical to the serial pass (asserted by
``tests/test_store_pipeline.py``).

Integrity: every partition frame read is CRC32-verified against its
descriptor before it is inflated, and a descriptor that records no
checksum is damage like any other mismatch — the data cannot switch the
check off. There is one path from a partition's bytes to anything decoded
from them (:meth:`TraceStoreReader._decode`) and one checksum comparison
(:func:`checksum_mismatch`). Damage raises a typed
:class:`~repro.store.errors.StoreError` subclass naming the partition and
its frame's absolute byte range (and the column, when one column fails to
decode after a clean checksum) — never a bare ``struct.error`` — and
:func:`verify_store` scans a whole store and *reports* findings instead of
raising, for ``repro verify-store``. A data file longer than the manifest's
``data_bytes`` is a torn tail a crashed append left, not damage: readers
never look past ``data_bytes`` and the next append truncates it.

Observability (all data-fact counters, subject to the serial-vs-parallel
counter-equality invariant):

- ``store.partitions.scanned`` / ``store.partitions.pruned``
- ``store.bytes.read`` / ``store.bytes.skipped``
- ``store.rows.decoded``
- ``store.blocks.verified`` (one per verified frame, i.e. per partition
  that passes whole)
- plus the shared ``io.rows_read`` ledger per yielded sample.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import faultinject
from repro.core.records import SessionSample
from repro.store.encoding import block_checksum
from repro.store.errors import (
    ColumnDecodeError,
    CorruptBlockError,
    StoreError,
    TruncatedPartitionError,
)
from repro.store.schema import decode_columns, decode_rows, expand_routes
from repro.store.writer import (
    DATA_NAME,
    MANIFEST_NAME,
    parse_manifest,
    read_manifest_bytes,
)

__all__ = [
    "ScanFilter",
    "StoreChunk",
    "StoreVerifyFinding",
    "StoreVerifyReport",
    "TraceStoreReader",
    "checksum_mismatch",
    "corrupt_block",
    "verify_store",
]

PathLike = Union[str, pathlib.Path]


def checksum_mismatch(frame: bytes, partition: dict) -> Optional[str]:
    """Why ``frame`` fails ``partition``'s ``crc32``, or None when it
    passes.

    The one comparison of frame bytes against the manifest. A descriptor
    whose ``crc32`` is not an integer fails too — no manifest this build
    reads omits it, so its absence is damage, not a version.
    """
    expected = partition.get("crc32")
    if type(expected) is not int:
        return "manifest records no crc32"
    actual = block_checksum(frame)
    if actual != expected:
        return f"crc32 mismatch (manifest {expected:#010x}, data {actual:#010x})"
    return None


def corrupt_block(
    data_path, partition: dict, column: Optional[str], detail: str
) -> CorruptBlockError:
    """A :class:`CorruptBlockError` naming ``partition``, its frame's byte
    range in the file, and ``column`` when one column is to blame."""
    return CorruptBlockError(
        data_path,
        partition["id"],
        column,
        partition["offset"],
        partition["length"],
        detail,
    )


def _decode_batch(payload: bytes, frame: dict, routes=None):
    # Late import: repro.kernels loads repro.pipeline, which loads this
    # package.
    from repro.kernels.columns import ColumnBatch

    decoded = decode_columns(payload, frame)
    return ColumnBatch.from_store_columns(decoded, expand_routes(decoded, routes))


def _as_frozenset(values) -> Optional[frozenset]:
    if values is None:
        return None
    if isinstance(values, str):
        return frozenset((values,))
    return frozenset(values)


@dataclass(frozen=True)
class ScanFilter:
    """Predicate pushed down to the partition manifest.

    ``None`` fields match everything. Time bounds are inclusive and apply
    to the session *end* time (the same timestamp that keys windows and
    partition bands).
    """

    pops: Optional[frozenset] = None
    countries: Optional[frozenset] = None
    min_end_time: Optional[float] = None
    max_end_time: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pops", _as_frozenset(self.pops))
        object.__setattr__(self, "countries", _as_frozenset(self.countries))

    def admits_partition(self, partition: dict) -> bool:
        """Can this partition contain a matching row? (Manifest-only.)"""
        if self.pops is not None and partition["pop"] not in self.pops:
            return False
        stats = partition["stats"]
        if self.countries is not None and not self.countries.intersection(
            stats["countries"]
        ):
            return False
        if (
            self.min_end_time is not None
            and stats["max_end_time"] < self.min_end_time
        ):
            return False
        if (
            self.max_end_time is not None
            and stats["min_end_time"] > self.max_end_time
        ):
            return False
        return True

    def admits_sample(self, sample: SessionSample) -> bool:
        """Row-level predicate (partition stats are necessarily coarse)."""
        if self.pops is not None and sample.pop not in self.pops:
            return False
        if (
            self.countries is not None
            and sample.client_country not in self.countries
        ):
            return False
        if self.min_end_time is not None and sample.end_time < self.min_end_time:
            return False
        if self.max_end_time is not None and sample.end_time > self.max_end_time:
            return False
        return True


@dataclass(frozen=True)
class StoreChunk:
    """A worker's unit of store input: a disjoint set of partitions.

    ``ordinal`` is the smallest sequence number in the chunk, which orders
    chunks against each other; ``read_column_batches(chunk=...)`` yields
    batches whose ``seq`` order keys extend that ordering, so a
    merger restores the exact serial stream order by sorting on the key.
    """

    path: str
    ordinal: int
    partition_ids: Tuple[int, ...]
    #: Total manifest row count of the chunk's partitions: exactly how many
    #: samples the pipeline's degraded ledger charges a quarantined shard.
    rows: int


#: ``((resolved manifest path, its bytes), their parse)`` of the last
#: manifest a reader parsed (DESIGN.md §8). Keyed by the bytes: a
#: same-size rewrite within one mtime tick keeps ``manifest_identity``.
_last_parse: Optional[Tuple[Tuple[pathlib.Path, bytes], dict]] = None


def _shared_manifest(path: pathlib.Path) -> dict:
    """``path``'s vetted manifest, parsed only when its bytes changed."""
    global _last_parse
    manifest_path = path / MANIFEST_NAME
    key = (manifest_path.resolve(), read_manifest_bytes(path))
    if _last_parse is None or _last_parse[0] != key:
        _last_parse = (key, parse_manifest(manifest_path, key[1]))
    return _last_parse[1]


class TraceStoreReader:
    """Read a partitioned columnar trace store written by
    :func:`repro.store.writer.write_store` (and appended to, compacted)."""

    def __init__(self, path: PathLike, manifest: Optional[dict] = None) -> None:
        """``manifest``: ``load_manifest(path)``'s result, so a caller that
        parsed it pays no second parse; without it the reader shares the
        last parse of the same bytes, so ``self.manifest`` is read-only."""
        self.path = pathlib.Path(path)
        self.manifest = _shared_manifest(self.path) if manifest is None else manifest
        self.data_path = self.path / self.manifest.get("data_file", DATA_NAME)

    # ------------------------------------------------------------------ #
    @property
    def row_count(self) -> int:
        return self.manifest["row_count"]

    @property
    def partitions(self) -> List[dict]:
        return self.manifest["partitions"]

    def _decode(self, partition: dict, assemble: Callable, metrics=None):
        """The one path from a partition's bytes to anything decoded.

        One contiguous read, the frame's CRC32 against the manifest, then
        ``assemble(payload, partition)`` under the one decode-error
        mapping. Raises :class:`TruncatedPartitionError` when the data file
        ends inside the partition, and :class:`CorruptBlockError` naming
        the partition and its absolute byte range when the frame fails its
        checksum or its decode — whatever a decoder trips over, including
        a row count (``seq``'s length) other than the manifest's ``rows``;
        the error also names the column when one column is to blame. The
        ``store.*`` scan counters are added only for a partition that
        passes whole.
        """
        payload = self._read_partition_payload(partition)
        detail = checksum_mismatch(payload, partition)
        if detail is not None:
            raise corrupt_block(self.data_path, partition, None, detail)
        try:
            decoded = assemble(payload, partition)
            if len(decoded) != partition["rows"]:
                raise ColumnDecodeError(
                    "seq",
                    f"{len(decoded)} rows; manifest expects {partition['rows']}",
                )
        except ColumnDecodeError as error:
            raise corrupt_block(
                self.data_path, partition, error.column, error.detail
            ) from error
        except (IndexError, KeyError, StopIteration) as error:
            # Failures past the column-length checks (a dictionary index
            # beyond its table, say): the payload is internally
            # inconsistent — attribute to the partition as a whole.
            raise corrupt_block(
                self.data_path, partition, None, f"row assembly failed ({error!r})"
            ) from error
        if metrics is not None:
            metrics.inc("store.blocks.verified")
            metrics.inc("store.partitions.scanned")
            metrics.inc("store.bytes.read", partition["length"])
            metrics.inc("store.rows.decoded", len(decoded))
        return decoded

    def decode_partition(
        self, partition: dict, metrics=None
    ) -> List[Tuple[int, SessionSample]]:
        """One partition as ``(seq, sample)`` rows, in stored order."""
        return self._decode(partition, decode_rows, metrics)

    def decode_partition_columns(self, partition: dict, metrics=None, routes=None):
        """Column fast path: one partition as a :class:`ColumnBatch`.

        The decoded columns are handed to the batch engine directly
        instead of being assembled into ``SessionSample`` rows.
        ``io.rows_read`` is counted here per decoded row, so a column
        scan's ledger matches a row scan's. ``routes``: a scan's route table.
        """
        batch = self._decode(
            partition, lambda data, frame: _decode_batch(data, frame, routes), metrics
        )
        if metrics is not None and len(batch):
            metrics.inc("io.rows_read", len(batch))
        return batch

    def read_column_batches(
        self, metrics=None, chunk: Optional[StoreChunk] = None
    ):
        """Yield one :class:`ColumnBatch` per partition, in manifest order.

        ``chunk`` restricts the scan to a planned chunk's partitions (the
        shard-aligned path); the counters sum across a shard plan's chunks
        to exactly a serial scan's. Batches carry the store's ``seq``
        column as their order keys, so a consumer that sorts on them
        reconstructs exact stream order — the same contract
        :meth:`scan_pairs` satisfies row by row; partitions share one route table.
        """
        candidates = (
            self.partitions if chunk is None else self._chunk_partitions(chunk)
        )
        routes = {}
        for partition in candidates:
            yield self.decode_partition_columns(partition, metrics, routes)

    def _chunk_partitions(self, chunk: StoreChunk) -> List[dict]:
        """``chunk``'s partitions, or a :class:`StoreError` when the plan is
        stale: this manifest lacks a planned partition, or its partitions
        hold other than the planned ``rows`` (the store was compacted or
        rewritten since the plan was made). Checked before a byte is
        decoded, so a stale shard is lost whole, never read in part."""
        wanted = set(chunk.partition_ids)
        selected = [p for p in self.partitions if p["id"] in wanted]
        rows = sum(p["rows"] for p in selected)
        if len(selected) != len(chunk.partition_ids) or rows != chunk.rows:
            raise StoreError(
                f"{self.path}: stale shard plan: chunk {chunk.ordinal} names "
                f"{len(chunk.partition_ids)} partition(s) holding "
                f"{chunk.rows} rows; the manifest has {len(selected)} of "
                f"them, holding {rows}"
            )
        return selected

    def _read_partition_payload(self, partition: dict) -> bytes:
        faultinject.check_io(self.data_path)
        try:
            with open(self.data_path, "rb") as handle:
                handle.seek(partition["offset"])
                payload = handle.read(partition["length"])
        except FileNotFoundError:
            raise StoreError(
                f"{self.path}: data file {self.data_path.name} is missing "
                f"but the manifest references partition {partition['id']}"
            ) from None
        if len(payload) != partition["length"]:
            raise TruncatedPartitionError(
                self.data_path,
                partition["id"],
                partition["length"],
                len(payload),
            )
        return faultinject.corrupt_block_payload(payload, partition)

    def _merged_pairs(
        self, partitions: Sequence[dict], metrics=None
    ) -> List[Tuple[int, SessionSample]]:
        """Merge partitions back into global sequence order.

        Each partition is internally seq-sorted, so this is a merge of
        sorted runs — which is exactly the case timsort detects, making a
        concatenate-and-sort both simpler and faster than a Python-level
        k-way heap merge.
        """
        rows: List[Tuple[int, SessionSample]] = []
        for partition in partitions:
            rows.extend(self.decode_partition(partition, metrics))
        if len(partitions) > 1:
            rows.sort(key=itemgetter(0))
        return rows

    def scan_pairs(
        self, scan_filter: Optional[ScanFilter] = None, metrics=None
    ) -> Iterator[Tuple[int, SessionSample]]:
        """Yield ``(seq, sample)`` in sequence order, pruning via the
        manifest."""
        if scan_filter is None:
            selected = self.partitions
        else:
            selected = []
            for partition in self.partitions:
                if scan_filter.admits_partition(partition):
                    selected.append(partition)
                elif metrics is not None:
                    metrics.inc("store.partitions.pruned")
                    metrics.inc("store.bytes.skipped", partition["length"])
        rows = self._merged_pairs(selected, metrics)
        if scan_filter is not None:
            admits = scan_filter.admits_sample
            rows = [pair for pair in rows if admits(pair[1])]
        if metrics is None:
            # Fast path: no per-row accounting, hand the rows straight out.
            yield from rows
            return
        inc = metrics.inc
        for pair in rows:
            inc("io.rows_read")
            yield pair

    def scan(
        self, scan_filter: Optional[ScanFilter] = None, metrics=None
    ) -> Iterator[SessionSample]:
        """Iterate matching samples in exact original stream order.

        Returns a lazy iterator (``scan_pairs`` is a generator, so nothing
        is read until the first item is pulled); the C-level ``map`` avoids
        a per-row generator frame of its own.
        """
        return map(itemgetter(1), self.scan_pairs(scan_filter, metrics))

    # ------------------------------------------------------------------ #
    def plan_chunks(self, num_chunks: int) -> List[StoreChunk]:
        """Group partitions into up to ``num_chunks`` disjoint chunks.

        Partitions are kept in manifest order (first-appearance order, so
        consecutive partitions cover nearby sequence ranges) and split into
        contiguous runs balanced by row count. Concatenating the chunks'
        partitions reproduces the whole store. ``num_chunks`` above the
        partition count collapses to one chunk per partition (a partition
        is the smallest contiguous-read unit), so no empty chunks are ever
        planned.
        """
        if num_chunks <= 0:
            raise ValueError("num_chunks must be positive")
        partitions = self.partitions
        if not partitions:
            return []
        # Collapse over-sharding: a partition is the smallest contiguous
        # read unit, so more chunks than partitions degenerates to exactly
        # one chunk per partition (never fewer — the balancer below could
        # otherwise merge small partitions and under-fill the plan).
        if num_chunks >= len(partitions):
            return [self._chunk_of([p]) for p in partitions]
        total_rows = sum(p["rows"] for p in partitions)
        chunks: List[StoreChunk] = []
        run: List[dict] = []
        run_rows = 0
        remaining_chunks = num_chunks
        remaining_rows = total_rows
        for partition in partitions:
            run.append(partition)
            run_rows += partition["rows"]
            target = remaining_rows / remaining_chunks
            if run_rows >= target and remaining_chunks > 1:
                chunks.append(self._chunk_of(run))
                remaining_rows -= run_rows
                remaining_chunks -= 1
                run, run_rows = [], 0
        if run:
            chunks.append(self._chunk_of(run))
        return chunks

    def _chunk_of(self, partitions: Sequence[dict]) -> StoreChunk:
        return StoreChunk(
            path=str(self.path),
            ordinal=min(p["stats"]["min_seq"] for p in partitions),
            partition_ids=tuple(p["id"] for p in partitions),
            rows=sum(p["rows"] for p in partitions),
        )


@dataclass(frozen=True)
class StoreVerifyFinding:
    """One corruption found by :func:`verify_store`.

    ``offset``/``length`` are the damaged partition's frame in the data
    file. All but ``error`` are ``None`` for store-level damage (a missing
    or short data file, an unreadable manifest).
    """

    partition_id: Optional[int]
    column: Optional[str]
    offset: Optional[int]
    length: Optional[int]
    error: str

    def describe(self) -> str:
        where = []
        if self.partition_id is not None:
            where.append(f"partition {self.partition_id}")
        if self.column is not None:
            where.append(f"column {self.column!r}")
        if self.offset is not None:
            where.append(f"bytes [{self.offset}, {self.offset + self.length})")
        prefix = ", ".join(where) if where else "store"
        return f"{prefix}: {self.error}"


@dataclass
class StoreVerifyReport:
    """Result of :func:`verify_store`: per-partition findings, never raises."""

    path: str
    partitions_total: int = 0
    findings: List[StoreVerifyFinding] = field(default_factory=list)
    #: Bytes past the manifest's ``data_bytes``: what a crashed append
    #: leaves. Readers never read them and the next append truncates them,
    #: so they are reclaimable, not damage.
    torn_tail_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def partitions_corrupt(self) -> int:
        return len(
            {
                finding.partition_id
                for finding in self.findings
                if finding.partition_id is not None
            }
        )


def verify_store(path: PathLike, metrics=None) -> StoreVerifyReport:
    """Scan a store for corruption; reports (never raises) integrity
    errors, including an unreadable manifest.

    Each partition goes through the read path itself
    (:meth:`TraceStoreReader._decode`): payload present and full-length,
    the frame's CRC32, a clean decode, and the decoded row count against
    the manifest. A data file shorter than the manifest's ``data_bytes``
    is a finding; bytes past it are a torn tail
    (:attr:`StoreVerifyReport.torn_tail_bytes`), not damage. No findings
    means the store is clean.
    """
    try:
        reader = TraceStoreReader(path)
    except StoreError as error:
        return StoreVerifyReport(
            path=str(path),
            findings=[StoreVerifyFinding(None, None, None, None, str(error))],
        )
    report = StoreVerifyReport(
        path=str(path), partitions_total=len(reader.partitions)
    )
    try:
        size = reader.data_path.stat().st_size
    except FileNotFoundError:
        report.findings.append(
            StoreVerifyFinding(
                None, None, None, None, f"data file {reader.data_path.name} is missing"
            )
        )
        return report
    shortfall = reader.manifest["data_bytes"] - size
    if shortfall > 0:
        report.findings.append(
            StoreVerifyFinding(
                None, None, None, None,
                f"data file is {size} bytes; manifest expects "
                f"{reader.manifest['data_bytes']}",
            )
        )
    report.torn_tail_bytes = max(-shortfall, 0)
    for partition in reader.partitions:
        try:
            reader._decode(partition, decode_rows)
        except StoreError as error:
            report.findings.append(
                StoreVerifyFinding(
                    partition["id"],
                    getattr(error, "column", None),
                    partition["offset"],
                    partition["length"],
                    getattr(error, "detail", str(error)),
                )
            )
            outcome = "store.partitions.corrupt"
        else:
            outcome = "store.partitions.verified"
        if metrics is not None:
            metrics.inc(outcome)
    return report
