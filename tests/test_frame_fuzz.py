"""Fuzz of the partition frame decoder (DESIGN.md §9).

A partition is one frame on disk — its variable-width columns, then its
fixed-width ones as byte planes, deflated once — described by its
manifest descriptor's ``codec``, ``crc32``, ``lengths`` and ``rows``.
Hypothesis damages one partition of a small clean store at a time, in
one of three ways:

- the frame's bytes, CRC left as written (a flipped, inserted, deleted or
  truncated byte on disk) — every change must be caught by the CRC and
  named by partition and byte range;
- the frame's bytes with the CRC recomputed, either on disk or inside the
  inflated columns (re-framed raw), so the damage passes the checksum and
  reaches the inflater and the column decoders — ``plane-region`` damages
  only the byte-planed fixed-width columns, and a byte it inserts or
  deletes is charged to one of them, which must then be named;
- one descriptor field (``codec``, ``crc32``, ``lengths``, ``rows``).

Whatever the damage, a row scan and a column scan either both work or
both raise a :class:`~repro.store.errors.StoreError`, nothing else
escapes, ``verify_store`` reports instead of raising and agrees with the
scans, and every case finishes in bounded time: inflation never runs past
the summed ``lengths`` (``test_inflation_stops_at_the_declared_lengths``)
and a varint never past 16 bytes
(``test_overlong_varints_cost_linear_time``).
"""

from __future__ import annotations

import json
import time
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.store import (
    CorruptBlockError,
    StoreError,
    StoreVerifyReport,
    TraceStoreReader,
    verify_store,
    write_store,
)
from repro.store import schema
from repro.store.encoding import block_checksum, decompress_block
from tests.helpers import make_trace_samples

pytestmark = [pytest.mark.faults, pytest.mark.store]

KINDS = (
    "on-disk",
    "reframed",
    "column-bytes",
    "plane-region",
    "codec",
    "crc32",
    "lengths",
    "rows",
)
#: Indexes of the fixed-width columns, which a frame stores as byte planes.
FIXED = tuple(
    index
    for index, (_, encoding) in enumerate(schema.COLUMNS)
    if encoding in ("f64", "i64")
)
#: Seconds one case may take; a clean scan of the fixture takes ~20 ms.
CASE_SECONDS = 5.0


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A clean store's manifest and data bytes, and a store directory the
    fuzzer rewrites for each case."""
    root = tmp_path_factory.mktemp("frame-fuzz")
    clean = root / "clean.store"
    write_store(clean, make_trace_samples(120, seed=31, windows=4), band_windows=2)
    fuzzed = root / "fuzzed.store"
    fuzzed.mkdir()
    manifest = json.loads((clean / "manifest.json").read_text())
    return manifest, (clean / "data.bin").read_bytes(), fuzzed


def _mutate_bytes(draw, data: bytes) -> bytes:
    kind = draw(st.sampled_from(("flip", "insert", "delete", "truncate")))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    at = draw(st.integers(0, len(data) - 1))
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    value = draw(st.integers(0, 255))
    if kind == "insert":
        return data[:at] + bytes((value,)) + data[at:]
    return data[:at] + bytes((data[at] ^ (value or 0xFF),)) + data[at + 1 :]


def _damage_planes(draw, partition, frame):
    """Mutate the plane region of ``partition``'s inflated frame, re-framed
    raw with its CRC recomputed. A byte inserted or deleted is charged to
    one fixed-width column's length, which is returned; flips return None."""
    lengths = partition["lengths"]
    raw = decompress_block(frame, partition["codec"], sum(lengths))
    region_start = len(raw) - sum(lengths[index] for index in FIXED)
    at = draw(st.integers(region_start, len(raw) - 1))
    change = draw(st.sampled_from(("flip", "insert", "delete")))
    misaligned = None
    if change == "flip":
        raw = raw[:at] + bytes((raw[at] ^ draw(st.integers(1, 255)),)) + raw[at + 1 :]
    else:
        candidates = [index for index in FIXED if change == "insert" or lengths[index]]
        index = draw(st.sampled_from(candidates))
        if change == "insert":
            raw = raw[:at] + bytes((draw(st.integers(0, 255)),)) + raw[at:]
            lengths[index] += 1
        else:
            raw = raw[:at] + raw[at + 1 :]
            lengths[index] -= 1
        misaligned = schema.COLUMNS[index][0]
    partition.update(codec="raw", crc32=block_checksum(raw))
    return raw, misaligned


def _damage(draw, kind, partition, frame):
    """Damage ``partition`` (in place) and return its new frame bytes and
    the fixed-width column the damage left misaligned, if any."""
    if kind == "plane-region":
        return _damage_planes(draw, partition, frame)
    if kind in ("on-disk", "reframed"):
        frame = _mutate_bytes(draw, frame)
        if kind == "reframed":
            partition["crc32"] = block_checksum(frame)
    elif kind == "column-bytes":
        raw = decompress_block(frame, partition["codec"], sum(partition["lengths"]))
        frame = _mutate_bytes(draw, raw)
        partition.update(codec="raw", crc32=block_checksum(frame))
    elif kind == "lengths":
        lengths = partition["lengths"]
        at = draw(st.integers(0, len(lengths) - 1))
        change = draw(st.sampled_from(("set", "shift", "drop", "append")))
        if change == "set":
            lengths[at] = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**40)))
        elif change == "shift" and lengths[at]:
            lengths[at] -= 1
            lengths[(at + 1) % len(lengths)] += 1
        elif change == "drop":
            del lengths[at]
        else:
            lengths.append(draw(st.integers(0, 64)))
    else:
        value = draw(
            {
                "codec": st.one_of(
                    st.sampled_from(("zlib", "raw", "lz77", "", None)), st.integers()
                ),
                "crc32": st.one_of(
                    st.integers(-1, 2**33), st.text(max_size=4), st.none()
                ),
                "rows": st.integers(0, 10**6),
            }[kind]
        )
        partition[kind] = value
    return frame, None


def _typed(call):
    """``(result, None)``, or ``(None, error)`` for a StoreError; anything
    else escapes and fails the test."""
    try:
        return call(), None
    except StoreError as error:
        return None, error


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_only_typed_errors_escape(stores, data):
    clean_manifest, clean_data, store = stores
    manifest = json.loads(json.dumps(clean_manifest))
    index = data.draw(st.integers(0, len(manifest["partitions"]) - 1), label="partition")
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    partition = manifest["partitions"][index]
    frame = clean_data[partition["offset"] : partition["offset"] + partition["length"]]
    damaged, misaligned = _damage(data.draw, kind, partition, frame)
    payload = clean_data
    if damaged != frame:
        # The damaged frame goes behind the clean data, where the
        # descriptor now points.
        payload = clean_data + damaged
        partition.update(offset=len(clean_data), length=len(damaged))
        manifest["data_bytes"] = len(payload)
    (store / "data.bin").write_bytes(payload)
    (store / "manifest.json").write_text(json.dumps(manifest))

    started = time.perf_counter()
    reader, _ = _typed(lambda: TraceStoreReader(store))
    rows = row_error = None
    if reader is not None:
        rows, row_error = _typed(lambda: list(reader.scan()))
        batches, batch_error = _typed(lambda: list(reader.read_column_batches()))
        assert (rows is None) == (batches is None)
        if rows is None:
            assert str(row_error) == str(batch_error)
    report = verify_store(store)
    assert time.perf_counter() - started < CASE_SECONDS
    assert isinstance(report, StoreVerifyReport)
    assert report.ok == (rows is not None)
    if kind == "on-disk" and damaged != frame:
        # Every on-disk change is the CRC's to catch, and it names the
        # partition and its frame's exact byte range.
        assert isinstance(row_error, CorruptBlockError)
        assert (row_error.partition_id, row_error.column) == (partition["id"], None)
        assert (row_error.offset, row_error.length) == (len(clean_data), len(damaged))
        assert "crc32 mismatch" in row_error.detail
    if misaligned is not None:
        # One fixed-width column is no longer whole 8-byte values: the
        # plane region cannot be interleaved, and that column is named.
        assert isinstance(row_error, CorruptBlockError)
        assert (row_error.partition_id, row_error.column) == (
            partition["id"],
            misaligned,
        )
        assert "multiple of 8" in row_error.detail


def _publish_frame(store, manifest, clean_data, partition, frame):
    """Write a store whose ``partition`` is ``frame``, appended to the
    clean data and checksummed."""
    partition.update(
        offset=len(clean_data), length=len(frame), crc32=block_checksum(frame)
    )
    manifest["data_bytes"] = len(clean_data) + len(frame)
    store.mkdir()
    (store / "data.bin").write_bytes(clean_data + frame)
    (store / "manifest.json").write_text(json.dumps(manifest))


def test_overlong_varints_cost_linear_time(stores, tmp_path):
    """A varint column that is one 1 MiB varint — CRC recomputed, lengths
    consistent — is refused in bounded time, naming the column."""
    clean_manifest, clean_data, _ = stores
    manifest = json.loads(json.dumps(clean_manifest))
    partition = manifest["partitions"][0]
    lengths = partition["lengths"]
    frame = clean_data[partition["offset"] : partition["offset"] + partition["length"]]
    raw = decompress_block(frame, partition["codec"], sum(lengths))
    index = [name for name, _ in schema.COLUMNS].index("txn_lens")
    columns = schema.split_frame(raw, lengths)
    columns[index] = b"\xff" * (1 << 20) + b"\x01"
    raw = schema.layout_frame(columns)
    lengths[index] = len(columns[index])
    partition["codec"] = "zlib"
    frame = zlib.compress(raw)
    _publish_frame(tmp_path / "long.store", manifest, clean_data, partition, frame)
    started = time.perf_counter()
    with pytest.raises(CorruptBlockError) as excinfo:
        list(TraceStoreReader(tmp_path / "long.store").read_column_batches())
    assert time.perf_counter() - started < CASE_SECONDS
    assert excinfo.value.column == "txn_lens"
    assert "varint longer than 16 bytes" in excinfo.value.detail


def test_inflation_stops_at_the_declared_lengths(stores, tmp_path):
    """A frame that inflates to 64 MiB under a descriptor whose lengths
    sum to a few hundred bytes — CRC recomputed, so it reaches the
    inflater — is refused after at most the declared bytes."""
    clean_manifest, clean_data, _ = stores
    deflater = zlib.compressobj()
    bomb = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(64))
    bomb += deflater.flush()
    manifest = json.loads(json.dumps(clean_manifest))
    partition = manifest["partitions"][0]
    partition["codec"] = "zlib"
    _publish_frame(tmp_path / "bomb.store", manifest, clean_data, partition, bomb)
    reader = TraceStoreReader(tmp_path / "bomb.store")
    tracemalloc.start()
    try:
        with pytest.raises(CorruptBlockError) as excinfo:
            reader.decode_partition_columns(partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert excinfo.value.column is None
    assert "does not end at its declared" in excinfo.value.detail
    assert peak < 4 << 20
