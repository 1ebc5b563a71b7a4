"""Fault-injection matrix for the pipeline's failure model (DESIGN.md §9).

Three properties, proven with :mod:`repro.faultinject`:

1. **Detection with attribution** — corrupted store bytes surface as typed
   errors naming the exact partition and its frame's byte range (and the
   column, when one fails to decode after a clean checksum; never a bare
   ``struct.error``), and ``verify_store`` finds them without raising.
2. **Graceful degradation** — a shard that keeps failing is retried, then
   quarantined; the run completes and the dataset/manifest carry an exact
   degraded ledger. ``strict=True`` fails fast with a :class:`ShardError`
   naming the shard.
3. **No-fault transparency** — with no plan active, serial and sharded
   runs are byte-identical to each other and to the pre-fault-tolerance
   pipeline (the hooks are no-ops).
"""

from __future__ import annotations

import gc
import json
import logging
import re

import pytest

from repro import faultinject
from repro.faultinject import FaultPlan
from repro.obs import MetricsRegistry, RunManifest, activate_metrics
from repro.pipeline import (
    DegradedLedger,
    ParallelOptions,
    ShardError,
    StudyDataset,
    build_dataset,
)
from repro.pipeline import parallel
from repro.pipeline.io import plan_chunks, write_samples
from repro.store import (
    CorruptBlockError,
    CorruptManifestError,
    StoreError,
    TraceStoreReader,
    TruncatedPartitionError,
    compact_store,
    verify_store,
    write_store,
)
from repro.store import schema
from repro.store.encoding import (
    block_checksum,
    decompress_block,
    encode_i64,
    encode_string_dict,
)
from repro.store.schema import decode_columns
from tests.helpers import (  # noqa: F401 — fixtures are used by name
    in_process_pool,
    local_options,
    make_trace_samples,
    write_trace_paths,
)

pytestmark = pytest.mark.faults

STUDY_WINDOWS = 8


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    faultinject.reset()
    yield
    faultinject.reset()


@pytest.fixture(scope="module")
def samples():
    return make_trace_samples(400, seed=23, windows=STUDY_WINDOWS)


@pytest.fixture(scope="module")
def trace_store(samples, tmp_path_factory):
    """The stream saved as a store, for the tests that only read
    (``store_path`` below is a copy to damage)."""
    root = tmp_path_factory.mktemp("fault-traces")
    return write_trace_paths(root, samples)["store"]


@pytest.fixture()
def store_path(samples, tmp_path):
    path = tmp_path / "trace.store"
    write_store(path, samples, band_windows=2)
    return path


def _flip_frame_byte(store_path, partition_index=0, at=0, mask=0xFF):
    """Corrupt the byte ``at`` bytes into a partition's frame on disk
    (negative: from its end); returns the partition's manifest dict."""
    manifest = json.loads((store_path / "manifest.json").read_text())
    partition = manifest["partitions"][partition_index]
    data_path = store_path / "data.bin"
    data = bytearray(data_path.read_bytes())
    data[partition["offset"] + at % partition["length"]] ^= mask
    data_path.write_bytes(bytes(data))
    return partition


def _frame_range(partition):
    return (partition["offset"], partition["length"])


def _assert_names_frame(error, partition, detail):
    """``error`` names ``partition`` and its exact byte range, no column."""
    assert isinstance(error, CorruptBlockError)
    assert error.partition_id == partition["id"]
    assert error.column is None
    assert (error.offset, error.length) == _frame_range(partition)
    start, length = _frame_range(partition)
    assert f"bytes [{start}, {start + length})" in str(error)
    assert detail in str(error)


# --------------------------------------------------------------------- #
# 1. Corruption detection with exact attribution
# --------------------------------------------------------------------- #
class TestCorruptionDetection:
    @pytest.mark.parametrize("at", [0, 1, -1])
    def test_flipped_byte_names_partition_and_byte_range(self, store_path, at):
        partition = _flip_frame_byte(store_path, at=at)
        reader = TraceStoreReader(store_path)
        with pytest.raises(CorruptBlockError) as excinfo:
            list(reader.scan())
        _assert_names_frame(excinfo.value, partition, "crc32 mismatch")

    def test_harness_flip_byte_matches_disk_flip(self, store_path):
        # The injection harness must be indistinguishable from real disk
        # corruption: same typed error, same attribution, same message.
        reader = TraceStoreReader(store_path)
        partition = reader.partitions[0]
        plan = FaultPlan(flip_byte={"partition": partition["id"], "offset": 3})
        with faultinject.inject(plan):
            with pytest.raises(CorruptBlockError) as excinfo:
                list(reader.scan())
        _assert_names_frame(excinfo.value, partition, "crc32 mismatch")
        # Nothing lingers after the context exits.
        assert len(list(reader.scan())) == reader.row_count
        _flip_frame_byte(store_path, at=3)
        with pytest.raises(CorruptBlockError) as on_disk:
            list(TraceStoreReader(store_path).scan())
        assert str(on_disk.value) == str(excinfo.value)

    def test_truncated_data_file(self, store_path):
        data_path = store_path / "data.bin"
        data_path.write_bytes(data_path.read_bytes()[:-20])
        reader = TraceStoreReader(store_path)
        with pytest.raises(TruncatedPartitionError) as excinfo:
            list(reader.scan())
        assert excinfo.value.actual < excinfo.value.expected
        assert excinfo.value.partition_id is not None

    def test_corrupt_manifest(self, store_path):
        manifest_path = store_path / "manifest.json"
        manifest_path.write_bytes(manifest_path.read_bytes()[:-40])
        with pytest.raises(CorruptManifestError):
            TraceStoreReader(store_path)

    def test_missing_data_file(self, store_path):
        (store_path / "data.bin").unlink()
        reader = TraceStoreReader(store_path)
        with pytest.raises(StoreError, match="data file.*missing"):
            list(reader.scan())

    def test_typed_errors_are_valueerrors(self, store_path):
        # Compatibility: pre-existing callers catch ValueError.
        _flip_frame_byte(store_path)
        with pytest.raises(ValueError):
            list(TraceStoreReader(store_path).scan())

    def test_scan_counts_one_verified_frame_per_partition(self, store_path):
        registry = MetricsRegistry()
        reader = TraceStoreReader(store_path)
        list(reader.scan(metrics=registry))
        # One frame per partition, each added when its partition passed
        # whole.
        assert registry.counter("store.blocks.verified") == len(
            reader.partitions
        )


# --------------------------------------------------------------------- #
# 1b. One read path: rows and columns fail alike
# --------------------------------------------------------------------- #
def _rewrite_manifest(store_path, edit):
    manifest_path = store_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


def _flip_frame(at):
    def damage(store_path):
        _flip_frame_byte(store_path, partition_index=1, at=at)

    return damage


def _truncate_payload(store_path):
    data_path = store_path / "data.bin"
    data_path.write_bytes(data_path.read_bytes()[:-20])


def _edit_descriptor(edit):
    """Damage partition 1's descriptor in a way its shape check admits."""

    def damage(store_path):
        _rewrite_manifest(store_path, lambda m: edit(m["partitions"][1]))

    return damage


def _shift_lengths(partition):
    # One byte moves from start_time to session_id: the sum (and so the
    # inflated frame) is unchanged, the i64 column is 8n + 1 bytes.
    partition["lengths"][1] += 1
    partition["lengths"][2] -= 1


def _replace_column(column, make):
    """Re-frame the *last* partition with ``column``'s bytes replaced by
    ``make(decoded values)``: appended raw to the data file and correctly
    checksummed, so the frame verifies and its columns do not add up."""

    def damage(store_path):
        reader = TraceStoreReader(store_path)
        partition = max(reader.partitions, key=lambda p: p["offset"])
        payload = reader._read_partition_payload(partition)
        lengths = list(partition["lengths"])
        raw = decompress_block(payload, partition["codec"], sum(lengths))
        values = decode_columns(payload, partition)[column]
        assert len(values) > 1
        index = [name for name, _ in schema.COLUMNS].index(column)
        columns = schema.split_frame(raw, lengths)
        columns[index] = make(list(values))
        frame = schema.layout_frame(columns)
        lengths[index] = len(columns[index])
        with open(store_path / "data.bin", "ab") as handle:
            handle.write(frame)

        def edit(manifest):
            target = next(
                p for p in manifest["partitions"] if p["id"] == partition["id"]
            )
            target.update(
                offset=manifest["data_bytes"],
                length=len(frame),
                codec="raw",
                crc32=block_checksum(frame),
                lengths=lengths,
            )
            manifest["data_bytes"] += len(frame)

        _rewrite_manifest(store_path, edit)

    return damage


def _short_child(column):
    """``column`` one value short, encoded as the schema encodes it."""
    encode = schema._ENCODERS[dict(schema.COLUMNS)[column]]
    return _replace_column(column, lambda values: encode(values[:-1]))


def _dangling_dict_index(column):
    """A string-dictionary column whose indexes point past its table."""
    return _replace_column(
        column,
        lambda values: encode_string_dict(values[:1])[:-8]
        + encode_i64([1] * len(values)),
    )


DAMAGE_KINDS = {
    # On-disk flips: the frame's CRC catches each, wherever it lands.
    "flip-first-byte": _flip_frame(0),
    "flip-second-byte": _flip_frame(1),
    "flip-last-byte": _flip_frame(-1),
    "truncated-payload": _truncate_payload,
    # Descriptor damage the shape check admits: the frame is intact.
    "unknown-codec": _edit_descriptor(lambda p: p.update(codec="lz77")),
    "lengths-overrun": _edit_descriptor(
        lambda p: p["lengths"].__setitem__(-1, p["lengths"][-1] + 1)
    ),
    "lengths-shifted": _edit_descriptor(_shift_lengths),
    # A re-framed partition with a valid CRC whose columns disagree.
    "short-lbwt-values": _short_child("txn_lbwt_values"),
    "short-route-rank": _short_child("route_rank"),
    "dangling-pop-index": _dangling_dict_index("pop"),
    # Decodes and agrees in length, but names no HTTP version: the row
    # assembler used to fail on it while the column assembler read it.
    "unknown-http-version": _replace_column(
        "http_version", lambda values: encode_string_dict(["HTTP/9"] * len(values))
    ),
}


class TestRowAndColumnReadsFailAlike:
    """``decode_partition`` and ``decode_partition_columns`` are one read
    path under two assemblers: every damage kind raises the same typed
    error with the same attribution and leaves the same ``store.*``
    counters, whichever is asked."""

    @staticmethod
    def _outcome(store_path, method):
        registry = MetricsRegistry()
        reader = TraceStoreReader(store_path)
        with pytest.raises(StoreError) as excinfo:
            for partition in reader.partitions:
                getattr(reader, method)(partition, registry)
        error = excinfo.value
        counters = {
            name: value
            for name, value in registry.counters.items()
            if name.startswith("store.")
        }
        return error, counters

    @pytest.mark.parametrize("kind", sorted(DAMAGE_KINDS))
    def test_same_error_same_attribution_same_counters(self, store_path, kind):
        DAMAGE_KINDS[kind](store_path)
        row_error, row_counters = self._outcome(store_path, "decode_partition")
        col_error, col_counters = self._outcome(
            store_path, "decode_partition_columns"
        )
        assert type(row_error) is type(col_error)
        assert isinstance(
            row_error, (CorruptBlockError, TruncatedPartitionError)
        )
        for field in ("partition_id", "column", "offset", "length"):
            assert getattr(row_error, field, None) == getattr(
                col_error, field, None
            ), field
        assert str(row_error) == str(col_error)
        assert row_counters == col_counters
        # The damaged partition added nothing: the counters describe the
        # partitions that passed whole before it, one frame each.
        reader = TraceStoreReader(store_path)
        passed = reader.partitions[: row_counters.get("store.partitions.scanned", 0)]
        assert row_counters.get("store.blocks.verified", 0) == len(passed)
        assert row_counters.get("store.rows.decoded", 0) == sum(
            p["rows"] for p in passed
        )

    @pytest.mark.parametrize("kind", sorted(DAMAGE_KINDS))
    def test_verify_store_reports_what_a_read_raises(self, store_path, kind):
        """The audit runs the readers' own error mapping: it names the
        partition a read would raise on and never raises itself (a short
        child column used to escape it as a bare ``StopIteration``)."""
        DAMAGE_KINDS[kind](store_path)
        error, _ = self._outcome(store_path, "decode_partition")
        report = verify_store(store_path)
        assert not report.ok
        assert error.partition_id in {f.partition_id for f in report.findings}
        column = getattr(error, "column", None)
        if column is not None:
            assert column in {f.column for f in report.findings}

    def test_assembly_failures_name_the_partition(self, store_path):
        DAMAGE_KINDS["dangling-pop-index"](store_path)
        error, _ = self._outcome(store_path, "decode_partition_columns")
        partition = max(
            TraceStoreReader(store_path).partitions, key=lambda p: p["offset"]
        )
        _assert_names_frame(error, partition, "row assembly failed (IndexError")

    @pytest.mark.parametrize(
        "kind, column, detail",
        [
            ("unknown-codec", None, "unknown frame codec 'lz77'"),
            ("lengths-overrun", None, "lengths sum to"),
            ("lengths-shifted", "session_id", "unpack requires"),
        ],
    )
    def test_descriptor_damage_after_a_clean_checksum(
        self, store_path, kind, column, detail
    ):
        """The frame verifies; what the descriptor says about it does not
        hold. A frame that will not inflate to the summed lengths names
        no column, a column that will not decode names it."""
        DAMAGE_KINDS[kind](store_path)
        error, _ = self._outcome(store_path, "decode_partition")
        partition = TraceStoreReader(store_path).partitions[1]
        assert isinstance(error, CorruptBlockError)
        assert (error.partition_id, error.column) == (partition["id"], column)
        assert (error.offset, error.length) == _frame_range(partition)
        assert detail in error.detail


#: One short column of each kind ``decode_columns`` checks: per-session
#: (one entry per row), a child of a length column, a presence-compacted
#: column (one entry per set bit).
SHORT_COLUMNS = (
    "min_rtt_seconds",
    "txn_cwnd",
    "media_values",
    "route_aspath_values",
    "route_rank",
    "txn_lbwt_values",
)


class TestShortColumnIsDamage:
    """Regression: a column one value short with every CRC valid
    raised a bare ``IndexError`` from the kernel loop, and ``scan()``
    yielded one row fewer (a ``zip`` truncated). Every read path now
    raises a :class:`CorruptBlockError` naming the partition and column,
    and ``verify_store`` names the column."""

    @pytest.fixture(params=SHORT_COLUMNS)
    def short_store(self, store_path, request):
        column = request.param
        _short_child(column)(store_path)
        reader = TraceStoreReader(store_path)
        partition = max(reader.partitions, key=lambda p: p["offset"])
        return store_path, partition["id"], column

    @staticmethod
    def _assert_names(error, partition_id, column):
        assert isinstance(error, CorruptBlockError)
        assert (error.partition_id, error.column) == (partition_id, column)
        assert "expected" in error.detail

    def test_build_dataset(self, short_store):
        store, partition_id, column = short_store
        with pytest.raises(CorruptBlockError) as excinfo:
            build_dataset(store, study_windows=STUDY_WINDOWS)
        self._assert_names(excinfo.value, partition_id, column)

    def test_scan(self, short_store):
        store, partition_id, column = short_store
        with pytest.raises(CorruptBlockError) as excinfo:
            list(TraceStoreReader(store).scan())
        self._assert_names(excinfo.value, partition_id, column)

    def test_read_column_batches(self, short_store):
        store, partition_id, column = short_store
        with pytest.raises(CorruptBlockError) as excinfo:
            list(TraceStoreReader(store).read_column_batches())
        self._assert_names(excinfo.value, partition_id, column)

    def test_verify_store(self, short_store):
        store, partition_id, column = short_store
        report = verify_store(store)
        assert [(f.partition_id, f.column) for f in report.findings] == [
            (partition_id, column)
        ]

    def test_encoder_dropping_a_value_at_write(self, tmp_path, samples, monkeypatch):
        """The probe as first found: an ``f64`` encoder that drops one
        value while the store is written (every CRC then matches)."""
        encode = schema._ENCODERS["f64"]
        monkeypatch.setitem(
            schema._ENCODERS, "f64", lambda values: encode(list(values)[:-1])
        )
        path = tmp_path / "short.store"
        write_store(path, samples, band_windows=2)
        monkeypatch.undo()
        with pytest.raises(CorruptBlockError, match="column 'start_time'"):
            list(TraceStoreReader(path).scan())
        with pytest.raises(CorruptBlockError, match="column 'start_time'"):
            build_dataset(path, study_windows=STUDY_WINDOWS)
        assert {f.column for f in verify_store(path).findings} == {"start_time"}

    def test_rows_short_of_the_manifest(self, store_path):
        """Columns that agree with each other but not with the manifest's
        ``rows``: the reader's own count check names ``seq``."""
        reader = TraceStoreReader(store_path)
        partition = reader.partitions[0]

        def edit(manifest):
            manifest["partitions"][0]["rows"] += 1

        _rewrite_manifest(store_path, edit)
        with pytest.raises(CorruptBlockError) as excinfo:
            list(TraceStoreReader(store_path).read_column_batches())
        assert (excinfo.value.partition_id, excinfo.value.column) == (
            partition["id"],
            "seq",
        )
        assert "manifest expects" in str(excinfo.value)


# --------------------------------------------------------------------- #
# 1c. The checks cannot be switched off by the data
# --------------------------------------------------------------------- #
@pytest.fixture(params=["bit-flipped", "bytes-intact"])
def holed_store(store_path, request):
    """A store with partition 0's ``crc32`` key deleted from the manifest
    — and, in one arm, one bit flipped inside its frame. The other arm
    leaves the bytes alone: the check must not depend on the damage being
    visible."""
    manifest_path = store_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["version"] == 4
    partition = manifest["partitions"][0]
    del partition["crc32"]
    manifest_path.write_text(json.dumps(manifest))
    if request.param == "bit-flipped":
        _flip_frame_byte(store_path, at=-1, mask=0x01)
    return store_path, partition


class TestMissingChecksumIsDamage:
    """Regression: an entry without ``crc32`` used to skip the check
    whatever the manifest's version — 400 rows back, one with a different
    value, ``verify_store(...).ok is True``. Every surface now names it."""

    def test_scan(self, holed_store):
        store, partition = holed_store
        registry = MetricsRegistry()
        with pytest.raises(CorruptBlockError) as excinfo:
            list(TraceStoreReader(store).scan(metrics=registry))
        _assert_names_frame(excinfo.value, partition, "manifest records no crc32")

    def test_read_column_batches(self, holed_store):
        store, partition = holed_store
        with pytest.raises(CorruptBlockError) as excinfo:
            list(TraceStoreReader(store).read_column_batches())
        _assert_names_frame(excinfo.value, partition, "manifest records no crc32")

    def test_verify_store(self, holed_store):
        store, partition = holed_store
        report = verify_store(store)
        assert not report.ok
        assert report.partitions_corrupt == 1
        (finding,) = report.findings
        assert finding.partition_id == partition["id"]
        assert finding.column is None
        assert (finding.offset, finding.length) == _frame_range(partition)
        assert "manifest records no crc32" in finding.error

    def test_cli_verify_store(self, holed_store, capsys):
        from repro.cli import main

        store, partition = holed_store
        start, length = _frame_range(partition)
        assert main(["verify-store", str(store)]) == 1
        out = capsys.readouterr().out
        assert (
            f"CORRUPT: partition {partition['id']}, bytes [{start}, "
            f"{start + length}): manifest records no crc32"
        ) in out

    @pytest.mark.serve
    def test_served_query_then_health(self, holed_store):
        from repro.serve import QueryEngine

        store, partition = holed_store
        engine = QueryEngine(store)
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "CorruptBlockError"
        assert payload["partition"] == partition["id"]
        assert payload["column"] is None
        assert (payload["offset"], payload["length"]) == _frame_range(partition)
        assert "manifest records no crc32" in payload["detail"]
        assert "sessions" not in payload
        _, health = engine.handle("/v1/health", {})
        assert health["status"] == "degraded"
        assert health["quarantine"]["partitions"] == [partition["id"]]
        _, audited = engine.handle("/v1/health", {"verify": ["1"]})
        assert audited["verify"]["ok"] is False


@pytest.mark.parametrize("version", [1, 2, 3])
class TestOlderVersionsAreRefused:
    """No writer has emitted version 1 since checksums arrived, version 2
    (a block descriptor per column) since partitions became one frame, nor
    version 3 (a frame's columns in schema order, unplaned) since its
    fixed-width columns became byte planes; a manifest that claims any of
    them is refused, typed, before any data byte moves."""

    @staticmethod
    def _as_version(store_path, version):
        _rewrite_manifest(store_path, lambda m: m.update(version=version))

    @staticmethod
    def _files(store_path):
        return {
            path.name: path.read_bytes() for path in sorted(store_path.iterdir())
        }

    def test_load_manifest_names_the_version(self, store_path, version):
        from repro.store import load_manifest

        self._as_version(store_path, version)
        refused = f"unsupported store version {version} \\(supported: 4\\)"
        with pytest.raises(StoreError, match=refused):
            load_manifest(store_path)
        with pytest.raises(StoreError, match=refused):
            TraceStoreReader(store_path)
        report = verify_store(store_path)
        assert not report.ok
        assert f"unsupported store version {version}" in report.findings[0].error

    def test_append_refuses_before_writing(self, store_path, samples, version):
        from repro.store import StoreAppender

        self._as_version(store_path, version)
        before = self._files(store_path)
        with pytest.raises(StoreError, match=f"unsupported store version {version}"):
            StoreAppender(store_path, band_windows=2).append(samples[:20])
        assert self._files(store_path) == before

    def test_compact_refuses_before_writing(self, store_path, version):
        from repro.store import compact_store

        self._as_version(store_path, version)
        before = self._files(store_path)
        with pytest.raises(StoreError, match=f"unsupported store version {version}"):
            compact_store(store_path, band_windows=4)
        assert self._files(store_path) == before


_DELETE = object()

#: (where in partition 0, new value or _DELETE, what the error names).
DESCRIPTOR_DAMAGE = [
    (("lengths",), _DELETE, "'lengths'"),
    (("lengths", 0), 1.5, "'lengths'"),
    (("lengths", 0), -4, "'lengths'"),
    (("lengths", 0), "seq", "'lengths'"),
    (("id",), _DELETE, "'id'"),
    (("pop",), 3, "'pop'"),
    (("band",), "1", "'band'"),
    (("rows",), 4.0, "'rows'"),
    (("offset",), -1, "'offset'"),
    (("length",), True, "'length'"),
    (("stats",), [], "'stats'"),
    (("stats", "min_seq"), _DELETE, "stats: 'min_seq'"),
    (("stats", "max_end_time"), "9", "stats: 'max_end_time'"),
    (("stats", "countries"), ["NL", 3], "stats: 'countries'"),
    (("lengths",), {}, "'lengths'"),
]

#: What the vetting says of partition 0 without its ``lengths``.
_NO_LENGTHS = "partition 0: 'lengths' is not a list of 32 non-negative integers"

HEAD_DAMAGE = [
    ("row_count", -1),
    ("data_bytes", "11313"),
    ("band_windows", 0),
    ("window_seconds", -900.0),
    ("window_seconds", float("inf")),
]


def _damage_descriptor(store_path, where, value):
    def edit(manifest):
        *parents, last = where
        target = manifest["partitions"][0]
        for key in parents:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value

    _rewrite_manifest(store_path, edit)


class TestDamagedDescriptorIsTyped:
    """Regression: a partition descriptor missing a field (or holding the
    wrong type) escaped every surface as a bare ``KeyError`` /
    ``TypeError`` from the per-block checksum loop — ``verify_store`` raised,
    ``repro verify-store`` printed a traceback, and a served query dropped
    its connection. ``load_manifest`` now vets each descriptor and names
    the partition and the field."""

    @pytest.mark.parametrize(
        "where, value, named",
        DESCRIPTOR_DAMAGE,
        ids=[
            ".".join(map(str, where))
            + ("-deleted" if value is _DELETE else f"={value!r}")
            for where, value, _ in DESCRIPTOR_DAMAGE
        ],
    )
    def test_load_manifest_names_partition_and_field(
        self, store_path, where, value, named
    ):
        from repro.store import load_manifest

        _damage_descriptor(store_path, where, value)
        with pytest.raises(CorruptManifestError) as excinfo:
            load_manifest(store_path)
        assert f"partition 0: {named}" in str(excinfo.value)
        with pytest.raises(CorruptManifestError):
            TraceStoreReader(store_path)

    @pytest.mark.parametrize("name, value", HEAD_DAMAGE)
    def test_head_fields_are_vetted(self, store_path, name, value):
        from repro.store import load_manifest

        _rewrite_manifest(store_path, lambda manifest: manifest.update({name: value}))
        with pytest.raises(CorruptManifestError, match=repr(name)):
            load_manifest(store_path)

    @pytest.fixture()
    def lengthless(self, store_path):
        """The reproducer: partition 0 without its ``lengths``."""
        _damage_descriptor(store_path, ("lengths",), _DELETE)
        return store_path

    def test_verify_store_reports_it(self, lengthless):
        report = verify_store(lengthless)
        (finding,) = report.findings
        assert _NO_LENGTHS in finding.error

    def test_cli_verify_store(self, lengthless, capsys):
        from repro.cli import main

        assert main(["verify-store", str(lengthless)]) == 1
        out = capsys.readouterr().out
        assert (
            f"CORRUPT: store: {lengthless}/manifest.json: corrupt store "
            f"manifest ({_NO_LENGTHS})"
        ) in out

    @pytest.mark.serve
    def test_served_query_then_health(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        assert engine.handle("/v1/quantiles", {})[0] == 200
        _damage_descriptor(store_path, ("lengths",), _DELETE)
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "CorruptManifestError"
        assert _NO_LENGTHS in payload["detail"]
        _, health = engine.handle("/v1/health", {})
        assert health["status"] == "degraded"
        assert engine.metrics.counter("serve.requests") == sum(
            engine.metrics.counter(f"serve.responses.{outcome}")
            for outcome in ("ok", "client_error", "server_error")
        )


class TestVerifyStore:
    def test_clean_store(self, store_path):
        report = verify_store(store_path)
        assert report.ok
        assert report.partitions_total == len(
            TraceStoreReader(store_path).partitions
        )
        assert report.partitions_corrupt == 0

    def test_corrupt_store_reports_without_raising(self, store_path):
        partition = _flip_frame_byte(store_path)
        report = verify_store(store_path)
        assert not report.ok
        assert report.partitions_corrupt == 1
        (finding,) = report.findings
        assert finding.partition_id == partition["id"]
        assert finding.column is None
        assert (finding.offset, finding.length) == _frame_range(partition)
        start, length = _frame_range(partition)
        assert finding.describe().startswith(
            f"partition {partition['id']}, bytes [{start}, {start + length}): "
            "crc32 mismatch"
        )

    def test_missing_manifest_is_a_finding(self, tmp_path):
        report = verify_store(tmp_path / "nope.store")
        assert not report.ok
        assert "manifest" in report.findings[0].error

    def test_truncated_file_reports_size_and_partition(self, store_path, capsys):
        from repro.cli import main

        data_path = store_path / "data.bin"
        size = data_path.stat().st_size
        data_path.write_bytes(data_path.read_bytes()[:-20])
        report = verify_store(store_path)
        assert not report.ok
        assert report.torn_tail_bytes == 0
        shortfall = f"data file is {size - 20} bytes; manifest expects {size}"
        assert report.findings[0].describe() == f"store: {shortfall}"
        last = TraceStoreReader(store_path).partitions[-1]
        assert last["id"] in {f.partition_id for f in report.findings}
        assert main(["verify-store", str(store_path)]) == 1
        assert f"CORRUPT: store: {shortfall}" in capsys.readouterr().out

    def test_torn_tail_is_reclaimable_not_damage(self, store_path, samples, capsys):
        """Bytes past ``data_bytes`` are what a crashed append leaves:
        readers never look at them and the next append truncates them."""
        from repro.cli import main
        from repro.store import append_to_store

        data_path = store_path / "data.bin"
        size = data_path.stat().st_size
        tail = b"\x00torn append" * 3
        with open(data_path, "ab") as handle:
            handle.write(tail)
        report = verify_store(store_path)
        assert report.ok and report.findings == []
        assert report.torn_tail_bytes == len(tail) == 36
        assert main(["verify-store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "torn tail of 36 byte(s) past data_bytes" in out
        assert "OK" in out and "CORRUPT" not in out
        append_to_store(store_path, samples[:20], band_windows=2)
        report = verify_store(store_path)
        assert report.ok and report.torn_tail_bytes == 0
        assert tail not in data_path.read_bytes()[size:]

    def test_cli_exit_codes(self, store_path, capsys):
        from repro.cli import main

        assert main(["verify-store", str(store_path)]) == 0
        assert "OK" in capsys.readouterr().out
        _flip_frame_byte(store_path)
        assert main(["verify-store", str(store_path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT:" in out


# --------------------------------------------------------------------- #
# 2. Retry, quarantine, degraded ledger
# --------------------------------------------------------------------- #
def _options(**kwargs) -> ParallelOptions:
    """A 4-shard plan run inline unless ``workers`` asks for the pool."""
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("retry_backoff", 0.0)
    return ParallelOptions(**kwargs)


class TestRetryAndQuarantine:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_transient_failure_retries_to_identical_result(
        self, samples, trace_store, executor, local_options
    ):
        serial = StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": 2})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=local_options(
                    executor, shards=4, workers=2, retry_backoff=0.0
                ),
            )
        assert dataset.degraded is None
        assert dataset.rows == serial.rows
        assert registry.counter("fault.shard_retries") == 2
        assert registry.counter("fault.injected.shard_kills") == 2
        assert registry.counter("fault.shards_quarantined") == 0

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_permanent_failure_quarantines_with_exact_counts(
        self, trace_store, executor, local_options
    ):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": None})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=local_options(
                    executor, shards=4, workers=2, retry_backoff=0.0
                ),
            )
        ledger = dataset.degraded
        assert isinstance(ledger, DegradedLedger)
        assert ledger.shards_lost == 1
        entry = ledger.shards[0]
        assert entry["ordinal"] == 1
        assert entry["attempts"] == 3  # 1 try + 2 retries (default)
        assert "injected fault" in entry["error"]
        # The loss is exact: the chunk's manifest row count.
        planned = plan_chunks(trace_store, 4)[1].rows
        assert entry["samples_lost"] == planned
        assert ledger.samples_lost == planned
        assert f"); {planned} sample(s) lost, " in ledger.summary()
        assert registry.counter("fault.shards_quarantined") == 1
        assert registry.counter("fault.samples_lost") == planned
        # The surviving shards' samples are all present.
        assert dataset.session_count > 0

    def test_strict_raises_shard_error(self, trace_store):
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": None})
        with faultinject.inject(plan):
            with pytest.raises(ShardError) as excinfo:
                build_dataset(
                    trace_store,
                    study_windows=STUDY_WINDOWS,
                    options=_options(strict=True),
                )
        assert excinfo.value.shard_id == 1
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.cause, RuntimeError)

    def test_zero_retries_quarantines_immediately(self, trace_store):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 0, "times": None})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_options(max_retries=0),
            )
        assert dataset.degraded.shards[0]["attempts"] == 1
        assert registry.counter("fault.shard_retries") == 0

    def test_os_error_kind(self, trace_store):
        plan = FaultPlan(
            kill_shard={"ordinal": 0, "times": None, "error": "os"}
        )
        with faultinject.inject(plan):
            with pytest.raises(ShardError) as excinfo:
                build_dataset(
                    trace_store,
                    study_windows=STUDY_WINDOWS,
                    options=_options(strict=True, max_retries=0),
                )
        assert isinstance(excinfo.value.cause, OSError)

    def test_store_chunk_quarantine_counts_partitions(self, store_path):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 0, "times": None})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                store_path,
                study_windows=STUDY_WINDOWS,
                options=_options(),
            )
        chunk = TraceStoreReader(store_path).plan_chunks(4)[0]
        entry = dataset.degraded.shards[0]
        assert entry["partitions_skipped"] == len(chunk.partition_ids)
        assert entry["samples_lost"] == chunk.rows
        assert registry.counter("fault.partitions_skipped") == len(
            chunk.partition_ids
        )

    def test_corrupt_block_quarantined_not_fatal(self, store_path):
        partition = _flip_frame_byte(store_path)
        dataset = build_dataset(
            store_path,
            study_windows=STUDY_WINDOWS,
            options=_options(),
        )
        assert dataset.degraded is not None
        entry = dataset.degraded.shards[0]
        assert "CorruptBlockError" in entry["error"]
        assert f"partition {partition['id']}" in entry["error"]
        # The ledger charges exactly the chunk that held the bad block.
        (chunk,) = [
            chunk
            for chunk in TraceStoreReader(store_path).plan_chunks(4)
            if partition["id"] in chunk.partition_ids
        ]
        assert dataset.degraded.to_dict()["shards_lost"] == 1
        assert entry["samples_lost"] == chunk.rows
        assert entry["partitions_skipped"] == len(chunk.partition_ids)
        with pytest.raises(ShardError):
            build_dataset(
                store_path,
                study_windows=STUDY_WINDOWS,
                options=_options(strict=True),
            )

    def test_process_pool_kill_via_env(self, samples, tmp_path, monkeypatch):
        # ProcessPoolExecutor workers pick the plan up from REPRO_FAULTS.
        # A permanent kill exercises cross-process typed-error transport
        # (the exception pickles back to the parent) plus quarantine.
        trace = tmp_path / "trace.store"
        write_samples(trace, samples)
        plan = FaultPlan(kill_shard={"ordinal": 0, "times": None})
        monkeypatch.setenv(faultinject.ENV_VAR, plan.to_json())
        faultinject.reset()
        dataset = build_dataset(
            trace,
            study_windows=STUDY_WINDOWS,
            options=_options(workers=2, shards=2),
        )
        assert dataset.degraded is not None
        assert dataset.degraded.shards[0]["ordinal"] == 0

    def test_retry_log_names_shard(self, trace_store, caplog):
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": 1})
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.parallel"):
            with faultinject.inject(plan):
                build_dataset(
                    trace_store,
                    study_windows=STUDY_WINDOWS,
                    options=_options(),
                )
        assert any(
            "shard 1" in record.message and "retrying" in record.message
            for record in caplog.records
        )

    def test_io_error_is_transient_and_retried(self, samples, tmp_path):
        trace = tmp_path / "trace.store"
        write_samples(trace, samples)
        registry = MetricsRegistry()
        plan = FaultPlan(io_error={"times": 1, "path_substr": "trace.store"})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace,
                study_windows=STUDY_WINDOWS,
                options=_options(shards=2),
            )
        assert dataset.degraded is None
        assert registry.counter("fault.injected.io_errors") == 1
        assert registry.counter("fault.shard_retries") == 1

    def test_ledger_shape(self):
        ledger = DegradedLedger()
        assert not ledger
        assert ledger.to_dict()["shards_lost"] == 0
        assert "0 shard(s)" in ledger.summary()

    def test_quarantine_charges_the_chunk_exactly(self):
        """A quarantined shard's loss is its chunk's manifest row count and
        partition count, read straight off the ``StoreChunk``."""
        from repro.pipeline.parallel import _ShardTask
        from repro.store import StoreChunk

        ledger = DegradedLedger()
        chunk = StoreChunk("/t.store", ordinal=40, partition_ids=(2, 5), rows=7)
        ledger.quarantine(_ShardTask({}, chunk, ordinal=3), RuntimeError("x"), 3)
        assert ledger.shards == [
            {
                "ordinal": 3,
                "error": "RuntimeError: x",
                "attempts": 3,
                "samples_lost": 7,
                "partitions_skipped": 2,
            }
        ]
        assert ledger.summary() == (
            "1 shard(s) quarantined (ordinal(s) 3); 7 sample(s) lost, "
            "2 store partition(s) skipped, 0 retries"
        )


class TestStalePlanIsRefused:
    """A plan made before the store was compacted names partition ids the
    new manifest still has — with other rows in them. Read as planned, the
    four shards of this store (3,000 samples, seed 5, 32 windows)
    ingested 219 + 256 + 288 + 226 = 989 of its samples with no error and
    no ledger entry; a shard now checks its chunk against the manifest it
    decodes with and refuses it whole."""

    STALE = re.compile(
        r"stale shard plan: chunk (\d+) names \d+ partition\(s\) holding "
        r"(\d+) rows; the manifest has \d+ of them, holding (\d+)$"
    )

    @pytest.fixture()
    def stale_plan(self, tmp_path, monkeypatch):
        """The store, with ``build_dataset``'s plan compacted under it
        (24 partitions re-banded into 96) before a shard runs."""
        path = tmp_path / "stale.store"
        write_store(path, make_trace_samples(3000, seed=5, windows=32))

        def plan_then_compact(source, num_chunks):
            chunks = plan_chunks(source, num_chunks)
            compact_store(source, band_windows=1)
            return chunks

        monkeypatch.setattr(parallel, "plan_chunks", plan_then_compact)
        return path

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_strict_raises_naming_the_chunk(
        self, stale_plan, executor, local_options
    ):
        planned = {chunk.ordinal: chunk for chunk in plan_chunks(stale_plan, 4)}
        with pytest.raises(ShardError) as excinfo:
            build_dataset(
                stale_plan,
                study_windows=32,
                options=local_options(
                    executor, shards=4, workers=2, strict=True, max_retries=0
                ),
            )
        cause = excinfo.value.cause
        assert isinstance(cause, StoreError)
        # Whichever shard fails first: a pool may finish shard 1 before 0.
        stale = self.STALE.search(str(cause))
        assert stale and int(stale[2]) == planned[int(stale[1])].rows

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_quarantine_charges_every_planned_sample(
        self, stale_plan, executor, local_options
    ):
        planned = plan_chunks(stale_plan, 4)
        dataset = build_dataset(
            stale_plan,
            study_windows=32,
            options=local_options(
                executor, shards=4, workers=2, max_retries=0
            ),
        )
        ledger = dataset.degraded
        assert ledger is not None and ledger.shards_lost == len(planned)
        assert {e["ordinal"]: e["samples_lost"] for e in ledger.shards} == {
            ordinal: chunk.rows for ordinal, chunk in enumerate(planned)
        }
        assert ledger.samples_lost == 3000
        stale = [self.STALE.search(e["error"]) for e in ledger.shards]
        assert all(stale)
        # What the stale plan used to ingest silently.
        assert sorted(int(s[3]) for s in stale) == [219, 226, 256, 288]
        assert dataset.session_count == 0


class TestCollectorState:
    """A sharded build pauses the cyclic collector from plan to merge, and
    every way out of it — clean, quarantined, strict — turns it back on."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_collector_is_on_after_every_exit(
        self, trace_store, executor, local_options, monkeypatch
    ):
        merged_with = []
        merge = parallel._merge_results

        def observed_merge(dataset, results):
            merged_with.append(gc.isenabled())
            return merge(dataset, results)

        monkeypatch.setattr(parallel, "_merge_results", observed_merge)
        kill = FaultPlan(kill_shard={"ordinal": 1, "times": None})

        def build(**kwargs):
            return build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=local_options(
                    executor, shards=4, workers=2, max_retries=0, **kwargs
                ),
            )

        assert gc.isenabled()
        assert build().degraded is None
        assert merged_with == [False] and gc.isenabled()
        with faultinject.inject(kill):
            assert build().degraded.shards_lost == 1
        assert gc.isenabled()
        with faultinject.inject(kill), pytest.raises(ShardError):
            build(strict=True)
        assert gc.isenabled()


# --------------------------------------------------------------------- #
# 2b. The column read path inherits the whole failure model
# --------------------------------------------------------------------- #
class TestBatchEngineFaults:
    """The column fast path fails with the same typed errors and the same
    attribution as the row readers; retry/quarantine accounting over it is
    asserted absolutely by ``TestRetryAndQuarantine`` above."""

    def test_column_read_names_partition_and_byte_range(self, store_path):
        partition = _flip_frame_byte(store_path)
        reader = TraceStoreReader(store_path)
        with pytest.raises(CorruptBlockError) as excinfo:
            list(reader.read_column_batches())
        _assert_names_frame(excinfo.value, partition, "crc32 mismatch")

    def test_corrupt_block_strict_fails_fast(self, store_path):
        _flip_frame_byte(store_path)
        with pytest.raises(ShardError) as excinfo:
            build_dataset(
                store_path,
                study_windows=STUDY_WINDOWS,
                options=_options(strict=True),
            )
        assert isinstance(excinfo.value.cause, CorruptBlockError)

    def test_transient_failure_retries_to_row_identical_result(
        self, samples, trace_store
    ):
        serial = StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": 2})
        with faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_options(),
            )
        assert dataset.degraded is None
        assert dataset.rows == serial.rows


# --------------------------------------------------------------------- #
# 3. No-fault transparency + manifest integration
# --------------------------------------------------------------------- #
class TestNoFaultTransparency:
    def test_parallel_identical_without_faults(
        self, samples, store_path, local_options
    ):
        serial = StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))
        for options in (
            None,
            _options(),
            local_options("thread", shards=4),
        ):
            dataset = build_dataset(
                store_path, study_windows=STUDY_WINDOWS, options=options
            )
            assert dataset.rows == serial.rows
            assert dataset.degraded is None

    def test_no_fault_counters_on_clean_runs(self, trace_store):
        registry = MetricsRegistry()
        with activate_metrics(registry):
            build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_options(),
            )
        assert not [
            name
            for name in registry.to_dict()["counters"]
            if name.startswith("fault.")
        ]

    def test_manifest_degraded_section(self, trace_store):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": None})
        with activate_metrics(registry), faultinject.inject(plan):
            build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_options(),
            )
        manifest = RunManifest.collect(command="analyze", registry=registry)
        assert manifest.degraded["shards_lost"] == 1
        assert manifest.degraded["samples_lost"] > 0
        # fault.* counters are execution facts, not sample accounting.
        assert not [
            name
            for name in manifest.sample_accounting()
            if name.startswith("fault.")
        ]
        # Round-trips through JSON.
        loaded = RunManifest.from_dict(manifest.to_dict())
        assert loaded.degraded == manifest.degraded

    def test_clean_manifest_degraded_is_empty(self):
        manifest = RunManifest.collect(
            command="analyze", registry=MetricsRegistry()
        )
        assert manifest.degraded == {}

    def test_cli_degraded_run_end_to_end(
        self, samples, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        store = tmp_path / "t.store"
        write_store(store, samples, band_windows=2)
        _flip_frame_byte(store)
        manifest_path = tmp_path / "m.json"
        code = main(
            [
                "analyze",
                str(store),
                "--shards", "2",
                "--retry-backoff", "0",
                "--metrics-out", str(manifest_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "WARNING: degraded run" in out
        payload = json.loads(manifest_path.read_text())
        assert payload["degraded"]["shards_lost"] == 1
        assert payload["shard_plan"]["strict"] is False

    def test_cli_strict_flag_fails_fast(self, samples, tmp_path):
        from repro.cli import main

        store = tmp_path / "t.store"
        write_store(store, samples, band_windows=2)
        _flip_frame_byte(store)
        with pytest.raises(ShardError):
            main(
                [
                    "analyze",
                    str(store),
                    "--shards", "2",
                    "--retry-backoff", "0",
                    "--strict",
                ]
            )


# --------------------------------------------------------------------- #
# Satellite: durable atomic writes
# --------------------------------------------------------------------- #
class TestDurableWrites:
    def test_jsonl_write_fsyncs_file_and_dir(
        self, samples, tmp_path, monkeypatch
    ):
        import repro.fsutil as fsutil

        synced = {"file": 0, "dir": 0}
        real_file, real_dir = fsutil.fsync_file, fsutil.fsync_dir
        monkeypatch.setattr(
            "repro.pipeline.io.fsync_file",
            lambda p: (synced.__setitem__("file", synced["file"] + 1),
                       real_file(p))[1],
        )
        monkeypatch.setattr(
            "repro.pipeline.io.fsync_dir",
            lambda p: (synced.__setitem__("dir", synced["dir"] + 1),
                       real_dir(p))[1],
        )
        path = tmp_path / "t.jsonl"
        write_samples(path, samples[:5])
        assert synced == {"file": 1, "dir": 1}
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_store_write_fsyncs_through_fsutil(self, samples, tmp_path, monkeypatch):
        import os

        fsyncs: list = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )
        write_store(tmp_path / "t.store", samples[:5])
        # data.bin + manifest.json, each: temp-file fsync + dir fsync.
        assert len(fsyncs) >= 4


# --------------------------------------------------------------------- #
# 7. Served queries over a damaged store (DESIGN §12 failure semantics)
# --------------------------------------------------------------------- #
@pytest.mark.serve
class TestServeFaults:
    """A corrupt store under a served query: typed 503 with partition
    attribution, never a crash, never silent zeros — and /v1/health flips
    to degraded with the damage in its quarantine ledger."""

    def test_corrupt_block_returns_typed_503_with_attribution(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        partition = _flip_frame_byte(store_path)
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "CorruptBlockError"
        assert payload["partition"] == partition["id"]
        assert payload["column"] is None
        assert (payload["offset"], payload["length"]) == _frame_range(partition)
        assert "crc32 mismatch" in payload["detail"]
        assert engine.metrics.counter("serve.responses.server_error") == 1
        # Silent zeros are the failure mode this forbids: the error body
        # must not look like an empty-but-valid aggregate.
        assert "sessions" not in payload
        assert "minrtt_ms" not in payload

    def test_corruption_flips_health_to_degraded(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        _, healthy = engine.handle("/v1/health", {})
        assert healthy["status"] == "ok"
        partition = _flip_frame_byte(store_path)
        engine.handle("/v1/quantiles", {})  # quarantines the 503
        _, degraded = engine.handle("/v1/health", {})
        assert degraded["status"] == "degraded"
        assert degraded["quarantine"]["count"] == 1
        assert degraded["quarantine"]["partitions"] == [partition["id"]]

    def test_health_verify_audits_damage_without_a_query(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        partition = _flip_frame_byte(store_path)
        status, payload = engine.handle("/v1/health", {"verify": ["1"]})
        assert status == 200  # health itself must answer, degraded or not
        assert payload["verify"]["ok"] is False
        assert payload["verify"]["partitions_corrupt"] == 1
        assert payload["status"] == "degraded"
        assert partition["id"] in payload["quarantine"]["partitions"]

    def test_injected_fault_indistinguishable_from_disk_damage(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        partition = TraceStoreReader(store_path).partitions[0]
        plan = FaultPlan(flip_byte={"partition": partition["id"], "offset": 0})
        with faultinject.inject(plan):
            status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "CorruptBlockError"
        assert payload["partition"] == partition["id"]
        assert (payload["offset"], payload["length"]) == _frame_range(partition)
        # The fault context is gone; the same engine must recover without
        # a restart (the failed build was never cached).
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 200
        assert payload["sessions"] > 0

    def test_truncated_store_returns_typed_503(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        data_path = store_path / "data.bin"
        data_path.write_bytes(data_path.read_bytes()[:-20])
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "TruncatedPartitionError"
        assert payload["partition"] is not None

    def test_lost_manifest_degrades_health_and_queries(self, store_path):
        from repro.serve import QueryEngine

        engine = QueryEngine(store_path)
        engine.handle("/v1/quantiles", {})
        (store_path / "manifest.json").unlink()
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "StoreError"
        _, health = engine.handle("/v1/health", {})
        assert health["status"] == "degraded"
        assert health["generation"] is None
        assert "store_error" in health

    def test_http_layer_serves_the_503_body(self, store_path):
        import http.client
        import threading

        from repro.serve import make_server

        server = make_server(store_path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            partition = _flip_frame_byte(store_path)
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET", "/v1/degradation")
            response = conn.getresponse()
            body = json.loads(response.read())
            conn.close()
            assert response.status == 503
            assert body["error"] == "CorruptBlockError"
            assert body["partition"] == partition["id"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
