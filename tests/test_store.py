"""Tests for the columnar trace store (encodings, writer, reader, pruning)."""

import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import zlib
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.reader as store_reader
from repro.core.aggregation import window_index
from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
)
from repro.kernels.columns import ColumnBatch
from repro.kernels.engine import iter_batches
from repro.obs import MetricsRegistry
from repro.pipeline import ParallelOptions, build_dataset
from repro.pipeline.io import read_column_batches, read_samples, write_samples
from repro.store import (
    DEFAULT_BAND_WINDOWS,
    STORE_FORMAT_VERSION,
    ScanFilter,
    StoreAppender,
    StoreError,
    TraceStoreReader,
    TruncatedPartitionError,
    append_to_store,
    compact_store,
    dump_manifest,
    is_store_path,
    load_manifest,
    verify_store,
    write_store,
)
from repro.store.encoding import (
    compress_block,
    decode_bitmap,
    decode_delta_varints,
    decode_f64,
    decode_i64,
    decode_string_dict,
    decode_varints,
    decompress_block,
    encode_bitmap,
    encode_delta_varints,
    encode_f64,
    encode_i64,
    encode_string_dict,
    encode_varints,
)
from repro.store.errors import ColumnDecodeError
from repro.store.schema import (
    _ENCODERS,
    COLUMNS,
    ROUTE_TABLE_LIMIT,
    decode_columns,
    decode_rows,
    encode_columns,
    expand_routes,
    layout_frame,
    shred_rows,
    split_frame,
)
from repro.store.writer import MANIFEST_NAME, manifest_identity

from tests.helpers import make_trace_samples, shred_oracle

pytestmark = pytest.mark.store


GOLDEN_TRACE = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"

INF = float("inf")
I64_MIN, I64_MAX = -(2**63), 2**63 - 1
SUBNORMAL = 5e-324


def _f64_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: A signalling NaN with a payload and its sign bit set.
NAN_PAYLOAD = _f64_from_bits(0xFFF0_0000_DEAD_BEEF)

#: Any double by its bits — NaNs with payloads, ±0.0, ±inf, subnormals.
F64 = st.one_of(
    st.integers(0, 2**64 - 1).map(_f64_from_bits),
    st.integers(1, 2**52 - 1).flatmap(
        lambda mantissa: st.sampled_from((0x7FF, 0xFFF)).map(
            lambda top: _f64_from_bits(top << 52 | mantissa)
        )
    ),
    st.sampled_from((0.0, -0.0, INF, -INF, SUBNORMAL, -SUBNORMAL, 2.225e-308)),
)
I64 = st.one_of(
    st.integers(I64_MIN, I64_MAX), st.sampled_from((I64_MIN, I64_MAX, 0, -1))
)


def _odd_sample(floats, ints, count=2):
    """A sample with ``count`` transactions whose f64 / i64 fields hold
    ``floats`` / ``ints`` (cycled), built the way the decoder builds one:
    no ``__post_init__`` checks, which would refuse a NaN start time or a
    negative byte count. One transaction means no route."""

    def f(index):
        return floats[index % len(floats)]

    def n(index):
        return ints[index % len(ints)]

    transactions = []
    for index in range(count):
        txn = TransactionRecord.__new__(TransactionRecord)
        txn.__dict__.update(
            first_byte_time=f(index),
            ack_time=f(index + 1),
            response_bytes=n(index),
            last_packet_bytes=n(index + 1),
            cwnd_bytes_at_first_byte=n(index),
            bytes_in_flight_at_start=n(index + 1),
            coalesced_count=index,
            last_byte_write_time=f(index + 2) if index % 2 else None,
        )
        transactions.append(txn)
    route = RouteInfo.__new__(RouteInfo)
    route.__dict__.update(
        prefix="198.51.100.0/24",
        as_path=(n(0), n(1)),
        relationship=Relationship.TRANSIT,
        preference_rank=1,
        prepended=True,
    )
    sample = SessionSample.__new__(SessionSample)
    sample.__dict__.update(
        session_id=n(0),
        start_time=f(0),
        end_time=f(1),
        http_version=HttpVersion.HTTP_1_1,
        min_rtt_seconds=f(2),
        bytes_sent=n(1),
        busy_time_seconds=f(3),
        transactions=transactions,
        route=None if count == 1 else route,
        pop="ams1",
        client_country="NL",
        client_continent="EU",
        client_ip_is_hosting=bool(count % 2),
        geo_tag="",
        media_response_sizes=tuple(ints[:count]),
    )
    return sample


def _assert_bit_exact(rows, compress):
    """``decode_columns`` returns every column of ``rows`` exactly: floats
    compared by their bits, so NaN payloads and -0.0 count."""
    payload, frame = encode_columns(shred_rows(rows), compress=compress)
    decoded = decode_columns(payload, frame)
    expected = shred_rows(rows)
    for name, encoding in COLUMNS:
        if encoding == "f64":
            n = len(expected[name])
            assert len(decoded[name]) == n, name
            assert struct.pack(f"<{n}d", *decoded[name]) == struct.pack(
                f"<{n}d", *expected[name]
            ), name
        else:
            assert list(decoded[name]) == expected[name], name


# --------------------------------------------------------------------- #
# Column codecs
# --------------------------------------------------------------------- #
class TestEncodings:
    def test_f64_round_trip(self):
        values = [0.0, -1.5, 3.14159, 1e300, -1e-300, 42.0]
        assert list(decode_f64(encode_f64(values))) == values

    def test_i64_round_trip(self):
        values = [0, 1, -1, 2**62, -(2**62), 1234567]
        assert list(decode_i64(encode_i64(values))) == values

    def test_varint_round_trip(self):
        values = [0, 1, 127, 128, 300, 2**40, 16383, 16384]
        assert decode_varints(encode_varints(values)) == values

    def test_varint_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_varints([-1])

    def test_varint_rejects_truncated(self):
        payload = encode_varints([2**40])
        with pytest.raises(ValueError):
            decode_varints(payload[:-1])

    def test_varints_run_to_sixteen_bytes(self):
        values = [2**112 - 1, 2**70, 0]
        assert decode_varints(encode_varints(values)) == values
        assert len(encode_varints([2**112 - 1])) == 16

    @pytest.mark.parametrize(
        "decode", [decode_varints, decode_bitmap, decode_string_dict]
    )
    def test_overlong_varint_rejected(self, decode):
        # A 17-byte varint is damage, refused before its cost (quadratic
        # in its length) adds up.
        with pytest.raises(ValueError, match="varint longer than 16 bytes"):
            decode(encode_varints([2**112]))
        with pytest.raises(ValueError, match="varint longer than 16 bytes"):
            decode(b"\xff" * (1 << 20) + b"\x01")

    def test_delta_varint_round_trip(self):
        values = [5, 3, 3, 100, -7, 0, 2**64, -(2**64)]
        assert decode_delta_varints(encode_delta_varints(values)) == values

    def test_bitmap_round_trip(self):
        for values in ([], [True], [False], [True, False] * 9 + [True]):
            assert decode_bitmap(encode_bitmap(values)) == values

    def test_string_dict_round_trip(self):
        values = ["ams1", "sjc1", "ams1", "", "gru1", "ams1", "héllo"]
        assert decode_string_dict(encode_string_dict(values)) == values

    def test_compress_block_raw_for_small_payloads(self):
        data, codec = compress_block(b"tiny", True)
        assert codec == "raw" and data == b"tiny"

    def test_compress_block_zlib_when_it_shrinks(self):
        payload = b"abcd" * 100
        data, codec = compress_block(payload, True)
        assert codec == "zlib" and len(data) < len(payload)
        assert decompress_block(data, codec, len(payload)) == payload

    @pytest.mark.parametrize("size", [0, 399, 401])
    def test_decompress_holds_exactly_the_declared_size(self, size):
        """Inflation stops at the declared size: a frame that inflates to
        more (or less) than its lengths sum to is refused, and never
        inflated past them."""
        data, codec = compress_block(b"abcd" * 100, True)
        with pytest.raises(ValueError):
            decompress_block(data, codec, size)
        with pytest.raises(ValueError):
            decompress_block(b"abcd", "raw", size)

    def test_compress_disabled(self):
        payload = b"abcd" * 100
        data, codec = compress_block(payload, False)
        assert codec == "raw" and data == payload

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            decompress_block(b"", "lz77", 0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**70)))
    def test_varint_property(self, values):
        assert decode_varints(encode_varints(values)) == values

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**70), max_value=2**70)))
    def test_delta_varint_property(self, values):
        assert decode_delta_varints(encode_delta_varints(values)) == values

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=6)))
    def test_string_dict_property(self, values):
        assert decode_string_dict(encode_string_dict(values)) == values

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans()))
    def test_bitmap_property(self, values):
        assert decode_bitmap(encode_bitmap(values)) == values


_ROUTES = st.builds(
    RouteInfo,
    prefix=st.sampled_from(("203.0.112.0/20", "198.51.1.0/24")),
    as_path=st.lists(st.integers(1, 2**32 - 1), max_size=4).map(tuple),
    relationship=st.sampled_from(Relationship),
    preference_rank=st.integers(0, 3),
    prepended=st.booleans(),
)
_SECONDS = st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False)
_SPAN = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def _transactions(draw):
    first_byte = draw(_SECONDS)
    response = draw(st.integers(1, 10**7))
    written = draw(st.none() | _SPAN)
    return TransactionRecord(
        first_byte_time=first_byte,
        ack_time=first_byte + draw(_SPAN),
        response_bytes=response,
        last_packet_bytes=draw(st.integers(0, response)),
        cwnd_bytes_at_first_byte=draw(st.integers(1, 10**6)),
        bytes_in_flight_at_start=draw(st.integers(0, 10**6)),
        coalesced_count=draw(st.integers(1, 4)),
        last_byte_write_time=None if written is None else first_byte + written,
    )


@st.composite
def _samples(draw):
    """A valid sample of any edge shape: a hosting sample with or without
    a route, no transactions, no media sizes, every HTTP version."""
    start = draw(_SECONDS)
    hosting = draw(st.booleans())
    return SessionSample(
        session_id=draw(st.integers(0, 2**40)),
        start_time=start,
        end_time=start + draw(_SPAN),
        http_version=draw(st.sampled_from(HttpVersion)),
        min_rtt_seconds=draw(st.floats(1e-4, 2.0)),
        bytes_sent=draw(st.integers(0, 10**9)),
        busy_time_seconds=draw(_SPAN),
        transactions=draw(st.lists(_transactions(), max_size=3)),
        route=draw(st.none() | _ROUTES) if hosting else draw(_ROUTES),
        pop=draw(st.sampled_from(("ams1", "sjc1"))),
        client_country=draw(st.sampled_from(("NL", "US"))),
        client_continent=draw(st.sampled_from(("EU", "NA"))),
        client_ip_is_hosting=hosting,
        geo_tag=draw(st.sampled_from(("", "metro"))),
        media_response_sizes=tuple(
            draw(st.lists(st.integers(0, 10**7), max_size=3))
        ),
    )


class TestSchema:
    def test_rows_round_trip_losslessly(self):
        rows = list(enumerate(make_trace_samples(120, seed=3)))
        for compress in (True, False):
            payload, frame = encode_columns(shred_rows(rows), compress=compress)
            assert frame["codec"] == ("zlib" if compress else "raw")
            assert decode_rows(payload, frame) == rows

    def test_one_frame_holds_every_column(self):
        """One frame per partition: one length per schema column, summing
        to the inflated frame, and one CRC over the on-disk bytes."""
        rows = list(enumerate(make_trace_samples(10, seed=4)))
        payload, frame = encode_columns(shred_rows(rows))
        assert sorted(frame) == ["codec", "crc32", "lengths"]
        assert len(frame["lengths"]) == len(COLUMNS)
        raw = decompress_block(payload, frame["codec"], sum(frame["lengths"]))
        assert len(raw) == sum(frame["lengths"])
        assert frame["crc32"] == zlib.crc32(payload)

    def test_empty_rows(self):
        payload, frame = encode_columns(shred_rows([]))
        assert decode_rows(payload, frame) == []

    def test_shred_matches_the_oracle_on_the_golden_trace(self):
        rows = list(enumerate(read_samples(GOLDEN_TRACE)))
        assert shred_rows(rows) == shred_oracle(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_samples(), max_size=6))
    def test_one_shred_feeds_the_store_and_the_kernels(self, samples):
        """``shred_rows`` is the oracle's shred; its columns encode and
        decode back to the rows, and as a kernel batch they equal the JSONL
        column assembler's batch over the same samples."""
        rows = list(enumerate(samples))
        columns = shred_rows(rows)
        assert columns == shred_oracle(rows)
        assert decode_rows(*encode_columns(columns)) == rows
        with tempfile.TemporaryDirectory() as workdir:
            path = pathlib.Path(workdir) / "trace.jsonl"
            write_samples(path, samples)
            assembled = [
                row for batch in read_column_batches(path)
                for row in batch_rows(batch)
            ]
        assert batch_rows(ColumnBatch.from_store_columns(columns)) == assembled

    def test_fixed_width_columns_are_byte_planes_after_the_head(self):
        """The variable-width columns in schema order, then every f64 /
        i64 column's bytes in schema order as one region, written plane
        by plane; :func:`split_frame` undoes it."""
        rows = list(enumerate(make_trace_samples(40, seed=6)))
        payload, frame = encode_columns(shred_rows(rows), compress=False)
        columns = shred_rows(rows)
        encoded = [_ENCODERS[kind](columns[name]) for name, kind in COLUMNS]
        fixed = [kind in ("f64", "i64") for _, kind in COLUMNS]
        head = b"".join(c for c, f in zip(encoded, fixed) if not f)
        region = b"".join(c for c, f in zip(encoded, fixed) if f)
        assert len(region) % 8 == 0
        planes = b"".join(region[k::8] for k in range(8))
        assert payload == layout_frame(encoded) == head + planes
        assert frame["lengths"] == [len(column) for column in encoded]
        assert [bytes(c) for c in split_frame(payload, frame["lengths"])] == encoded

    def test_misaligned_fixed_column_is_named(self):
        rows = list(enumerate(make_trace_samples(10, seed=7)))
        payload, frame = encode_columns(shred_rows(rows), compress=False)
        lengths = frame["lengths"]
        names = [name for name, _ in COLUMNS]
        lengths[names.index("bytes_sent")] -= 3
        lengths[names.index("txn_cwnd")] += 3
        with pytest.raises(ColumnDecodeError) as excinfo:
            decode_columns(payload, frame)
        assert excinfo.value.column == "bytes_sent"
        assert "multiple of 8" in excinfo.value.detail

    @pytest.mark.parametrize("compress", [True, False])
    def test_zero_and_one_row_partitions_are_bit_exact(self, compress):
        odd = _odd_sample(
            (-0.0, NAN_PAYLOAD, INF, -INF, SUBNORMAL), (I64_MIN, I64_MAX)
        )
        _assert_bit_exact([], compress)
        _assert_bit_exact([(7, odd)], compress)

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.builds(
                _odd_sample,
                st.lists(F64, min_size=5, max_size=5),
                st.lists(I64, min_size=2, max_size=2),
                st.integers(0, 3),
            ),
            max_size=6,
        ),
        compress=st.booleans(),
    )
    def test_plane_region_round_trip_is_bit_exact(self, samples, compress):
        _assert_bit_exact(list(enumerate(samples)), compress)


# --------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------- #
class TestWriter:
    def test_write_creates_manifest_and_data(self, tmp_path):
        samples = make_trace_samples(200, seed=5)
        store = tmp_path / "t.store"
        assert write_store(store, samples) == 200
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        assert manifest["row_count"] == 200
        assert manifest["format"] == "repro-store"
        assert (store / manifest["data_file"]).stat().st_size == manifest[
            "data_bytes"
        ]
        # Partitions tile data.bin exactly, in offset order.
        offset = 0
        for partition in manifest["partitions"]:
            assert partition["offset"] == offset
            offset += partition["length"]
        assert offset == manifest["data_bytes"]
        assert sum(p["rows"] for p in manifest["partitions"]) == 200

    def test_partitions_keyed_by_pop_and_band(self, tmp_path):
        samples = make_trace_samples(300, seed=6)
        store = tmp_path / "t.store"
        write_store(store, samples)
        reader = TraceStoreReader(store)
        for partition in reader.partitions:
            for _, sample in reader.decode_partition(partition):
                assert sample.pop == partition["pop"]
                # A band is DEFAULT_BAND_WINDOWS windows, keyed by session
                # end like the windows themselves.
                band = window_index(sample.end_time, 900.0) // DEFAULT_BAND_WINDOWS
                assert band == partition["band"]

    def test_partition_stats_are_exact(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(150, seed=7))
        reader = TraceStoreReader(store)
        for partition in reader.partitions:
            rows = reader.decode_partition(partition)
            stats = partition["stats"]
            assert stats["min_seq"] == min(seq for seq, _ in rows)
            assert stats["max_seq"] == max(seq for seq, _ in rows)
            assert stats["min_end_time"] == min(s.end_time for _, s in rows)
            assert stats["max_end_time"] == max(s.end_time for _, s in rows)
            assert stats["countries"] == sorted(
                {s.client_country for _, s in rows}
            )

    def test_layout_is_deterministic(self, tmp_path):
        samples = make_trace_samples(100, seed=8)
        a, b = tmp_path / "a.store", tmp_path / "b.store"
        write_store(a, samples)
        write_store(b, samples)
        assert (a / "data.bin").read_bytes() == (b / "data.bin").read_bytes()
        assert (a / MANIFEST_NAME).read_bytes() == (
            b / MANIFEST_NAME
        ).read_bytes()

    def test_writer_counters(self, tmp_path):
        metrics = MetricsRegistry()
        write_store(
            tmp_path / "t.store", make_trace_samples(80, seed=9), metrics=metrics
        )
        counters = metrics.counters
        assert counters["store.rows.written"] == 80
        assert counters["io.rows_written"] == 80
        assert counters["store.partitions.written"] > 1
        assert counters["store.bytes.written"] > 0

    def test_invalid_parameters(self, tmp_path):
        samples = make_trace_samples(5, seed=10)
        with pytest.raises(ValueError):
            write_store(tmp_path / "t.store", samples, band_windows=0)
        with pytest.raises(ValueError):
            write_store(tmp_path / "t.store", samples, window_seconds=0.0)
        assert not (tmp_path / "t.store").exists()

    def test_is_store_path(self, tmp_path):
        store = tmp_path / "t.store"
        assert is_store_path(store)  # .store suffix, even before it exists
        assert not is_store_path(tmp_path / "t.jsonl")
        write_store(tmp_path / "noext", make_trace_samples(3, seed=12))
        assert is_store_path(tmp_path / "noext")  # manifest detection


class TestAppend:
    def test_append_creates_missing_store(self, tmp_path):
        samples = make_trace_samples(60, seed=40)
        store = tmp_path / "t.store"
        assert append_to_store(store, samples) == 60
        assert list(TraceStoreReader(store).scan()) == samples

    def test_append_to_empty_sample_stream_creates_valid_store(self, tmp_path):
        store = tmp_path / "t.store"
        assert append_to_store(store, []) == 0
        assert list(TraceStoreReader(store).scan()) == []

    def test_appends_concatenate_in_scan_order(self, tmp_path):
        samples = make_trace_samples(150, seed=41)
        store = tmp_path / "t.store"
        append_to_store(store, samples[:50])
        append_to_store(store, samples[50:90])
        append_to_store(store, samples[90:])
        assert list(TraceStoreReader(store).scan()) == samples

    def test_append_matches_one_shot_write(self, tmp_path):
        samples = make_trace_samples(120, seed=42)
        oneshot = tmp_path / "oneshot.store"
        appended = tmp_path / "appended.store"
        write_store(oneshot, samples)
        for start in range(0, 120, 30):
            append_to_store(appended, samples[start : start + 30])
        assert list(TraceStoreReader(appended).scan()) == list(
            TraceStoreReader(oneshot).scan()
        )

    def test_partitions_tile_data_after_append(self, tmp_path):
        samples = make_trace_samples(100, seed=43)
        store = tmp_path / "t.store"
        append_to_store(store, samples[:70])
        append_to_store(store, samples[70:])
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        assert manifest["row_count"] == 100
        offset = 0
        for partition in manifest["partitions"]:
            assert partition["offset"] == offset
            offset += partition["length"]
        assert offset == manifest["data_bytes"]
        assert (store / manifest["data_file"]).stat().st_size == manifest[
            "data_bytes"
        ]

    def test_empty_append_to_existing_store_is_noop(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(20, seed=44))
        before = (store / MANIFEST_NAME).read_bytes()
        assert append_to_store(store, []) == 0
        assert (store / MANIFEST_NAME).read_bytes() == before

    def test_crashed_append_tail_is_invisible_and_reclaimed(self, tmp_path):
        samples = make_trace_samples(80, seed=45)
        store = tmp_path / "t.store"
        append_to_store(store, samples[:40])
        # Simulate a crash mid-append: payload bytes hit data.bin but the
        # manifest was never replaced.
        with open(store / "data.bin", "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 64)
        assert list(TraceStoreReader(store).scan()) == samples[:40]
        append_to_store(store, samples[40:])
        assert list(TraceStoreReader(store).scan()) == samples
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        assert (store / "data.bin").stat().st_size == manifest["data_bytes"]

    def test_append_refuses_data_file_shorter_than_manifest(self, tmp_path):
        """Regression: ``truncate(data_bytes)`` also *extends* — appending
        to a cut data file zero-filled the hole and published a manifest
        over it, turning a located truncation into anonymous CRC noise."""
        samples = make_trace_samples(80, seed=45)
        store = tmp_path / "t.store"
        write_store(store, samples[:40])
        data = (store / "data.bin").read_bytes()
        (store / "data.bin").write_bytes(data[:-500])
        manifest_before = (store / MANIFEST_NAME).read_bytes()
        with pytest.raises(TruncatedPartitionError) as excinfo:
            append_to_store(store, samples[40:])
        assert excinfo.value.expected == len(data)
        assert excinfo.value.actual == len(data) - 500
        # Nothing was written: the damage is still what the verifier names.
        assert (store / "data.bin").read_bytes() == data[:-500]
        assert (store / MANIFEST_NAME).read_bytes() == manifest_before
        errors = [f.error for f in verify_store(store).findings]
        assert f"data file is {len(data) - 500} bytes" in errors[0]

    def test_append_rejects_mismatched_layout(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(10, seed=47))
        with pytest.raises(ValueError, match="band_windows"):
            append_to_store(
                store, make_trace_samples(5, seed=48), band_windows=2
            )
        with pytest.raises(ValueError, match="window_seconds"):
            append_to_store(
                store, make_trace_samples(5, seed=48), window_seconds=60.0
            )

    def test_append_rejects_foreign_manifest(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(10, seed=49))
        manifest_path = store / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "other"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            append_to_store(store, make_trace_samples(5, seed=50))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: "[]",
            lambda text: text[: len(text) // 2],
            lambda text: json.dumps({**json.loads(text), "partitions": None}),
            lambda text: json.dumps({**json.loads(text), "row_count": "10"}),
        ],
        ids=["not-an-object", "truncated", "partitions-null", "row-count-str"],
    )
    def test_malformed_manifest_is_a_typed_error_everywhere(
        self, tmp_path, damage
    ):
        """Regression: append_to_store parsed the manifest on its own and
        let AttributeError / TypeError / JSONDecodeError escape; it now
        shares the reader's loader."""
        from repro.store import CorruptManifestError

        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(10, seed=49))
        manifest_path = store / MANIFEST_NAME
        manifest_path.write_text(damage(manifest_path.read_text()))
        data_before = (store / "data.bin").read_bytes()
        with pytest.raises(CorruptManifestError):
            append_to_store(store, make_trace_samples(5, seed=50))
        with pytest.raises(CorruptManifestError):
            TraceStoreReader(store)
        assert (store / "data.bin").read_bytes() == data_before

    def test_append_counters(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(30, seed=51))
        metrics = MetricsRegistry()
        append_to_store(store, make_trace_samples(25, seed=52), metrics=metrics)
        assert metrics.counter("store.rows.written") == 25
        assert metrics.counter("io.rows_written") == 25
        assert metrics.counter("store.partitions.written") > 0
        assert metrics.counter("store.bytes.written") > 0


def _as_indented(store):
    """Rewrite a store's manifest indented, as builds before the compact
    serialiser wrote it (same fields, same version)."""
    manifest = json.loads((store / MANIFEST_NAME).read_text())
    (store / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1))


class TestAppendSession:
    """One StoreAppender ≡ the same appends one-shot, at a cost per append
    that does not grow with the store."""

    def test_a_session_refuses_a_bad_banding_up_front(self, tmp_path):
        """Before any store exists to compare them with, as write_store
        refuses them."""
        store = tmp_path / "t.store"
        with pytest.raises(ValueError, match="band_windows"):
            StoreAppender(store, band_windows=0)
        with pytest.raises(ValueError, match="window_seconds"):
            StoreAppender(store, window_seconds=0.0)
        assert not store.exists()

    def test_manifest_is_compact_json_with_partitions_last(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(40, seed=60))
        raw = (store / MANIFEST_NAME).read_bytes()
        manifest = load_manifest(store)
        assert list(manifest)[-1] == "partitions"
        # One format, not a fragment dialect: the splice is json.dumps.
        assert raw == json.dumps(manifest, separators=(",", ":")).encode()
        assert raw == dump_manifest(manifest)
        moved = {"partitions": manifest["partitions"], **manifest}
        assert dump_manifest(moved) == raw

    @settings(max_examples=25, deadline=None)
    @given(
        cuts=st.lists(st.integers(min_value=0, max_value=90), max_size=6),
        indented=st.booleans(),
    )
    def test_session_equals_one_shot_appends(
        self, tmp_path_factory, cuts, indented
    ):
        samples = make_trace_samples(90, seed=61, windows=12)
        bounds = [0, *sorted(cuts), len(samples)]
        splits = [samples[a:b] for a, b in zip(bounds, bounds[1:])]
        root = tmp_path_factory.mktemp("session")
        session_store, oneshot_store = root / "session.store", root / "oneshot.store"
        if indented:
            for store in (session_store, oneshot_store):
                write_store(store, samples[:10])
                _as_indented(store)
        session = StoreAppender(session_store)
        for split in splits:
            assert session.append(split) == len(split)
            assert append_to_store(oneshot_store, split) == len(split)
            for name in ("data.bin", MANIFEST_NAME):
                assert (session_store / name).read_bytes() == (
                    oneshot_store / name
                ).read_bytes()
            # Spliced fragments are the whole-dict dump, byte for byte —
            # unless nothing has been published over the indented one yet.
            raw = (session_store / MANIFEST_NAME).read_bytes()
            if not raw.startswith(b"{\n"):
                assert dump_manifest(load_manifest(session_store)) == raw
        expected = (samples[:10] if indented else []) + samples
        assert list(TraceStoreReader(session_store).scan()) == expected
        assert verify_store(session_store).ok
        if any(splits):
            assert load_manifest(session_store)["version"] == STORE_FORMAT_VERSION

    def test_each_partition_is_encoded_once(self, tmp_path, monkeypatch):
        """The guard for the quadratic, as a count: an append encodes the
        partitions it adds, a (re)load each existing one once — never the
        whole index again."""
        import repro.store.writer as writer_mod

        encoded = []
        real = writer_mod._fragment

        def counting(value):
            if "lengths" in value:
                encoded.append(value["id"])
            return real(value)

        monkeypatch.setattr(writer_mod, "_fragment", counting)

        def partitions():
            return len(load_manifest(store)["partitions"])

        samples = make_trace_samples(200, seed=62, windows=10)
        store = tmp_path / "t.store"
        session = StoreAppender(store)
        session.append(samples[:40])  # creates the store
        created = partitions()
        assert encoded == list(range(created))
        del encoded[:]
        session.append(samples[40:80])  # first look at the manifest: a load
        after_load = partitions()
        assert encoded == list(range(after_load))
        for start in range(80, 200, 40):
            del encoded[:]
            before = partitions()
            session.append(samples[start : start + 40])
            assert encoded == list(range(before, partitions()))
        # A foreign publish changes the manifest's identity: one reload.
        append_to_store(store, make_trace_samples(30, seed=63))
        del encoded[:]
        before = partitions()
        session.append(make_trace_samples(30, seed=64))
        assert encoded == list(range(partitions()))
        assert partitions() > before
        assert verify_store(store).ok

    def test_fsyncs_per_append_are_pinned(self, tmp_path, monkeypatch):
        """Durability is pinned, not assumed: data, manifest temp file and
        directory are each fsync'd once per append, session or one-shot."""
        import os

        samples = make_trace_samples(120, seed=65)
        store = tmp_path / "t.store"
        write_store(store, samples[:30])
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1]
        )
        session = StoreAppender(store)
        for start in (30, 60):
            del fsyncs[:]
            session.append(samples[start : start + 30])
            assert len(fsyncs) == 3
        del fsyncs[:]
        append_to_store(store, samples[90:])
        assert len(fsyncs) == 3

    def test_session_reloads_after_foreign_writers(self, tmp_path):
        from repro.store import compact_store

        samples = make_trace_samples(160, seed=66)
        store = tmp_path / "t.store"
        session = StoreAppender(store)
        session.append(samples[:40])
        session.append(samples[40:80])
        append_to_store(store, samples[80:100])  # a second appender
        session.append(samples[100:120])
        report = compact_store(store)  # generation swap to data-g1.bin
        assert not report.skipped
        session.append(samples[120:])
        assert load_manifest(store)["data_file"] == "data-g1.bin"
        assert list(TraceStoreReader(store).scan()) == samples
        assert verify_store(store).ok
        # A rewrite publishes the next generation and unlinks the rest.
        write_store(store, samples)
        assert [p.name for p in store.glob("data*.bin")] == ["data-g2.bin"]
        assert load_manifest(store)["data_file"] == "data-g2.bin"

    def test_failed_publish_leaves_session_retryable(
        self, tmp_path, monkeypatch
    ):
        import repro.store.writer as writer_mod

        samples = make_trace_samples(90, seed=67)
        store, clean = tmp_path / "t.store", tmp_path / "clean.store"
        for target in (store, clean):
            write_store(target, samples[:30])
        session = StoreAppender(store)
        session.append(samples[30:60])
        real = writer_mod.atomic_write_bytes
        monkeypatch.setattr(
            writer_mod,
            "atomic_write_bytes",
            lambda path, data: (_ for _ in ()).throw(OSError(28, "full")),
        )
        with pytest.raises(OSError):
            session.append(samples[60:])
        monkeypatch.setattr(writer_mod, "atomic_write_bytes", real)
        # The torn tail is invisible, and the retry reclaims it.
        assert list(TraceStoreReader(store).scan()) == samples[:60]
        session.append(samples[60:])
        clean_session = StoreAppender(clean)
        clean_session.append(samples[30:60])
        clean_session.append(samples[60:])
        for name in ("data.bin", MANIFEST_NAME):
            assert (store / name).read_bytes() == (clean / name).read_bytes()


class TestManifestSize:
    """One descriptor per partition, one length per column: the manifest
    indexes the data, it does not rival it. Under the block-per-column
    layout (store version 2) the golden trace streamed window by window
    had a manifest 51% the size of its data (92% on ``stream_ingest``'s
    smaller partitions); one frame per partition brings it to ~10%."""

    #: The most manifest a store may carry per byte of data.
    BOUND = 0.2

    @pytest.fixture(scope="class")
    def golden_stores(self, tmp_path_factory):
        from repro.pipeline.ingest import StreamingIngestor

        samples = list(
            read_samples(pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz")
        )
        windows = max(window_index(s.end_time, 900.0) for s in samples) + 1
        root = tmp_path_factory.mktemp("manifest-size")
        written, streamed = root / "written.store", root / "streamed.store"
        write_store(written, samples)
        StreamingIngestor(study_windows=windows, out_store=streamed).offer_all(
            samples
        ).finish()
        return {"written": written, "streamed": streamed}

    @pytest.mark.parametrize("kind", ["written", "streamed"])
    def test_one_length_per_column_and_a_bounded_manifest(self, golden_stores, kind):
        store = golden_stores[kind]
        manifest = load_manifest(store)
        assert len(manifest["partitions"]) > 1
        for partition in manifest["partitions"]:
            assert len(partition["lengths"]) == len(COLUMNS)
            assert "blocks" not in partition
        manifest_bytes = (store / MANIFEST_NAME).stat().st_size
        data_bytes = (store / manifest["data_file"]).stat().st_size
        assert manifest_bytes < self.BOUND * data_bytes


def _reaped_pid() -> int:
    """The pid of a child process that has exited and been waited for."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestAtomicity:
    def test_interrupted_manifest_write_leaves_store_unreadable(
        self, tmp_path, monkeypatch
    ):
        """A crash between data.bin and manifest.json must not leave a
        store that reads back as a short-but-valid trace."""
        import repro.store.writer as writer_mod

        real = writer_mod.atomic_write_bytes

        def fail_on_manifest(path, data):
            if path.name == MANIFEST_NAME:
                raise OSError("disk full")
            real(path, data)

        monkeypatch.setattr(writer_mod, "atomic_write_bytes", fail_on_manifest)
        store = tmp_path / "t.store"
        with pytest.raises(OSError):
            write_store(store, make_trace_samples(20, seed=13))
        assert (store / "data.bin").exists()
        with pytest.raises(ValueError, match="missing manifest"):
            TraceStoreReader(store)

    @pytest.mark.faults
    @pytest.mark.parametrize("fails", ["data", "manifest"])
    @pytest.mark.parametrize("publish", ["write", "compact"])
    def test_interrupted_rewrite_keeps_previous_store(
        self, tmp_path, monkeypatch, publish, fails
    ):
        """A publish over an existing store that dies writing the new data
        generation, or at the manifest swap after it, leaves the previous
        store: same manifest bytes, verifying, scanning the same rows."""
        import repro.store.writer as writer_mod

        store = tmp_path / "t.store"
        samples = make_trace_samples(60, seed=14)
        write_store(store, samples[:30], band_windows=1)
        append_to_store(store, samples[30:], band_windows=1)
        before = (store / MANIFEST_NAME).read_bytes()
        real = writer_mod.atomic_write_bytes

        def interrupted(path, data):
            if (path.name == MANIFEST_NAME) == (fails == "manifest"):
                raise OSError("boom")
            real(path, data)

        monkeypatch.setattr(writer_mod, "atomic_write_bytes", interrupted)
        with pytest.raises(OSError, match="boom"):
            if publish == "write":
                write_store(
                    store, make_trace_samples(5, seed=15), band_windows=1
                )
            else:
                compact_store(store, band_windows=2)
        monkeypatch.undo()
        assert (store / MANIFEST_NAME).read_bytes() == before
        assert verify_store(store).ok
        assert list(TraceStoreReader(store).scan()) == samples

    def test_no_temp_files_survive(self, tmp_path):
        store = tmp_path / "t.store"
        write_store(store, make_trace_samples(10, seed=16))
        assert not list(store.glob("*.tmp.*"))

    @pytest.mark.parametrize("writer", ["append", "compact", "write"])
    def test_dead_writers_temp_files_are_reaped(self, tmp_path, writer):
        """A writer killed mid-publish leaves ``<name>.tmp.<pid>``; the next
        append, compaction or rewrite removes it once that pid is provably
        dead, and leaves a live process's temp file alone."""
        store = tmp_path / "t.store"
        samples = make_trace_samples(60, seed=17)
        write_store(store, samples[:30], band_windows=1)
        append_to_store(store, samples[30:], band_windows=1)
        dead_pid = _reaped_pid()
        dead = store / f"{MANIFEST_NAME}.tmp.{dead_pid}"
        live = store / f"data-g9.bin.tmp.{os.getpid()}"
        dead.write_bytes(b"left by a crashed writer")
        live.write_bytes(b"still being written")
        if writer == "append":
            append_to_store(store, make_trace_samples(5, seed=18), band_windows=1)
        elif writer == "compact":
            assert not compact_store(store, band_windows=2).skipped
        else:
            write_store(store, make_trace_samples(5, seed=18), band_windows=1)
        assert not dead.exists()
        assert live.read_bytes() == b"still being written"


# --------------------------------------------------------------------- #
# Reader: order, validation, pruning
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trace_samples():
    return make_trace_samples(600, seed=21)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, trace_samples):
    path = tmp_path_factory.mktemp("store") / "trace.store"
    write_store(path, trace_samples)
    return path


class TestReader:
    def test_full_scan_restores_exact_stream_order(
        self, store_path, trace_samples
    ):
        assert list(TraceStoreReader(store_path).scan()) == trace_samples

    def test_scan_matches_read_samples_dispatch(
        self, store_path, trace_samples
    ):
        assert list(read_samples(store_path)) == trace_samples

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty.store"
        empty.mkdir()
        with pytest.raises(ValueError, match="missing manifest"):
            TraceStoreReader(empty)

    @pytest.mark.parametrize(
        "field, bad",
        [("format", "other"), ("version", 99), ("schema_version", 99)],
    )
    def test_version_mismatch_rejected(self, tmp_path, store_path, field, bad):
        import shutil

        copy = tmp_path / "copy.store"
        shutil.copytree(store_path, copy)
        manifest = json.loads((copy / MANIFEST_NAME).read_text())
        manifest[field] = bad
        (copy / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            TraceStoreReader(copy)

    def test_scan_counters(self, store_path):
        metrics = MetricsRegistry()
        reader = TraceStoreReader(store_path)
        rows = list(reader.scan(metrics=metrics))
        counters = metrics.counters
        assert counters["store.partitions.scanned"] == len(reader.partitions)
        assert counters["store.rows.decoded"] == len(rows)
        assert counters["io.rows_read"] == len(rows)
        assert counters["store.bytes.read"] == reader.manifest["data_bytes"]
        assert "store.partitions.pruned" not in counters

    def test_a_column_scan_builds_each_route_once(self, store_path):
        # Shard results pickle every RouteInfo their aggregations hold: a
        # route shared across a scan's partitions is one object, while a
        # partition decoded on its own (a served partial) interns its own.
        reader = TraceStoreReader(store_path)
        batches = list(reader.read_column_batches())
        assert len(batches) > 1
        routes = [route for batch in batches for route in batch.routes if route]
        by_value = {}
        for route in routes:
            assert by_value.setdefault(route, route) is route
        assert len({id(route) for route in routes}) == len(by_value)
        alone = [reader.decode_partition_columns(p) for p in reader.partitions[:2]]
        ours = {id(route) for batch in alone for route in batch.routes}
        assert ours.isdisjoint(id(route) for route in batches[0].routes)

    def test_a_scan_route_table_stays_bounded(self):
        table = {}
        for index in range(ROUTE_TABLE_LIMIT + 500):
            columns = {
                "route_present": [True, True],
                "route_prefix": [f"10.{index // 256}.{index % 256}.0/24"] * 2,
                "route_relationship": ["transit"] * 2,
                "route_rank": [0, 0],
                "route_prepended": [False, False],
                "route_aspath_lens": [2, 2],
                "route_aspath_values": [64500, index, 64500, index],
            }
            first, second = expand_routes(columns, table)
            assert first is second and first.as_path == (64500, index)
            assert len(table) <= ROUTE_TABLE_LIMIT
        assert len(table) == 500


class TestPruning:
    @pytest.mark.parametrize(
        "scan_filter",
        [
            ScanFilter(pops="ams1"),
            ScanFilter(pops={"sjc1", "gru1"}),
            ScanFilter(countries="BR"),
            ScanFilter(min_end_time=2000.0, max_end_time=4000.0),
            ScanFilter(pops="ams1", countries="NL", min_end_time=1500.0),
            ScanFilter(pops="nowhere"),
        ],
    )
    def test_filtered_scan_equals_brute_force(
        self, store_path, trace_samples, scan_filter
    ):
        got = list(TraceStoreReader(store_path).scan(scan_filter))
        expected = [s for s in trace_samples if scan_filter.admits_sample(s)]
        assert got == expected

    def test_pruning_skips_bytes_without_decoding(self, store_path):
        metrics = MetricsRegistry()
        reader = TraceStoreReader(store_path)
        list(reader.scan(ScanFilter(pops="ams1"), metrics=metrics))
        counters = metrics.counters
        assert counters["store.partitions.pruned"] > 0
        assert counters["store.bytes.skipped"] > 0
        # Strictly fewer bytes decoded than a full scan would read.
        assert counters["store.bytes.read"] < reader.manifest["data_bytes"]
        # Every partition is either scanned or pruned, and their bytes
        # tile the data file exactly.
        assert counters["store.partitions.scanned"] + counters[
            "store.partitions.pruned"
        ] == len(reader.partitions)
        assert (
            counters["store.bytes.read"] + counters["store.bytes.skipped"]
            == reader.manifest["data_bytes"]
        )

    def test_time_pruning_is_inclusive_at_bounds(self, store_path):
        reader = TraceStoreReader(store_path)
        partition = reader.partitions[0]
        stats = partition["stats"]
        at_max = ScanFilter(min_end_time=stats["max_end_time"])
        at_min = ScanFilter(max_end_time=stats["min_end_time"])
        assert at_max.admits_partition(partition)
        assert at_min.admits_partition(partition)
        past_max = ScanFilter(min_end_time=stats["max_end_time"] + 1e-9)
        assert not past_max.admits_partition(partition)

    def test_scan_filter_normalizes_string_to_set(self):
        assert ScanFilter(pops="ams1").pops == frozenset({"ams1"})
        assert ScanFilter(countries=["NL", "DE"]).countries == frozenset(
            {"NL", "DE"}
        )


def batch_rows(batch: ColumnBatch):
    """``(order key, every other column value)`` per row of a batch."""
    media = iter(batch.media_values)
    txns = zip(
        batch.txn_fbt, batch.txn_ack, batch.txn_resp, batch.txn_last,
        batch.txn_cwnd, batch.txn_inflight, batch.txn_lbwt,
    )
    flat = zip(
        batch.order_keys, batch.start_times, batch.end_times, batch.is_http2,
        batch.min_rtts, batch.bytes_sents, batch.busy_times, batch.pops,
        batch.countries, batch.continents, batch.hostings, batch.geo_tags,
        batch.routes, batch.media_lens, batch.txn_lens,
    )
    return [
        (key, *rest, tuple(islice(media, rest[-2])), tuple(islice(txns, rest[-1])))
        for key, *rest in flat
    ]


class TestColumnBatchTake:
    def test_take_equals_shredding_the_chosen_samples(self, trace_samples):
        """A served partial splits a partition's batch by cell with
        ``take``; each slice must be the batch its samples would shred to,
        transactions and media sizes included."""
        pairs = list(enumerate(trace_samples))
        batch = ColumnBatch.from_store_columns(shred_rows(pairs))
        for rows in ([i for i in range(len(pairs)) if i % 3 != 1], [5], []):
            assert batch_rows(batch.take(rows)) == batch_rows(
                ColumnBatch.from_store_columns(
                    shred_rows([pairs[i] for i in rows])
                )
            )


def chunk_batches(chunk, metrics=None):
    """What a shard decodes for ``chunk`` (``parallel._run_shard``'s call)."""
    return iter_batches(chunk, metrics=metrics)


class TestChunkPlanning:
    def test_chunks_cover_store_disjointly(self, store_path):
        reader = TraceStoreReader(store_path)
        chunks = reader.plan_chunks(3)
        assert 1 <= len(chunks) <= 3
        seen = [pid for chunk in chunks for pid in chunk.partition_ids]
        assert sorted(seen) == sorted(p["id"] for p in reader.partitions)
        assert len(seen) == len(set(seen))

    def test_chunk_ordinal_is_min_seq(self, store_path):
        reader = TraceStoreReader(store_path)
        for chunk in reader.plan_chunks(4):
            assert chunk.ordinal == min(
                seq for batch in chunk_batches(chunk) for seq in batch.order_keys
            )

    def test_more_chunks_than_partitions(self, store_path):
        reader = TraceStoreReader(store_path)
        chunks = reader.plan_chunks(1000)
        assert len(chunks) == len(reader.partitions)

    def test_zero_chunks_rejected(self, store_path):
        with pytest.raises(ValueError):
            TraceStoreReader(store_path).plan_chunks(0)

    def test_chunked_counters_sum_to_serial(self, store_path):
        serial = MetricsRegistry()
        list(TraceStoreReader(store_path).read_column_batches(metrics=serial))
        merged = MetricsRegistry()
        for chunk in TraceStoreReader(store_path).plan_chunks(4):
            part = MetricsRegistry()
            list(chunk_batches(chunk, metrics=part))
            merged.merge(part)
        assert merged.counters == serial.counters
        # ... and a column scan's ledger is a row scan's.
        rows = MetricsRegistry()
        list(TraceStoreReader(store_path).scan(metrics=rows))
        assert serial.counters == rows.counters

    def test_chunks_reassemble_exact_stream(self, store_path, trace_samples):
        rows = []
        for chunk in TraceStoreReader(store_path).plan_chunks(5):
            for batch in chunk_batches(chunk):
                rows.extend(batch_rows(batch))
        rows.sort(key=lambda row: row[0])
        assert len(rows) == len(trace_samples)
        stream = batch_rows(
            ColumnBatch.from_store_columns(
                shred_rows(list(enumerate(trace_samples)))
            )
        )
        assert [row[1:] for row in rows] == [row[1:] for row in stream]

    def test_iter_batches_over_a_store_chunk_is_its_partitions(self, store_path):
        """The one dispatch, store-chunk arm: the chunk's partitions through
        the column reader — same batches, same counters."""
        for chunk in TraceStoreReader(store_path).plan_chunks(3):
            direct, dispatched = MetricsRegistry(), MetricsRegistry()
            expected = TraceStoreReader(chunk.path).read_column_batches(
                metrics=direct, chunk=chunk
            )
            got = iter_batches(chunk, metrics=dispatched)
            assert [batch_rows(b) for b in got] == [batch_rows(b) for b in expected]
            assert dispatched.counters == direct.counters

    def test_store_chunk_is_picklable(self, store_path):
        import pickle

        chunk = TraceStoreReader(store_path).plan_chunks(2)[0]
        assert pickle.loads(pickle.dumps(chunk)) == chunk

    def test_store_chunk_rows_are_required(self, store_path):
        """A chunk always states its manifest row count: there is no
        "unknown" for a quarantined shard's loss to fall back on."""
        from repro.store import StoreChunk

        with pytest.raises(TypeError, match="rows"):
            StoreChunk(path=str(store_path), ordinal=0, partition_ids=(0,))
        chunks = TraceStoreReader(store_path).plan_chunks(3)
        assert sum(chunk.rows for chunk in chunks) == TraceStoreReader(
            store_path
        ).row_count


class TestManifestParsedOncePerContent:
    """A reader reuses the last parse of identical manifest bytes: a
    sharded build parses its store's manifest once, in the coordinator,
    and forked pool workers inherit that parse."""

    @pytest.fixture()
    def parses(self, tmp_path, monkeypatch):
        """The pids of every reader parse, read back from a file, so parses
        in forked pool workers (which inherit the patch) count too."""
        log = tmp_path / "parses.log"
        parse = store_reader.parse_manifest

        def logged(manifest_path, raw):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return parse(manifest_path, raw)

        monkeypatch.setattr(store_reader, "parse_manifest", logged)
        monkeypatch.setattr(store_reader, "_last_parse", None)
        return lambda: log.read_text().split() if log.exists() else []

    def test_a_pool_build_parses_once(self, store_path, parses):
        if not sys.platform.startswith("linux"):
            pytest.skip("the pool forks, and its workers inherit the parse, on Linux")
        options = ParallelOptions(workers=2, shards=4)
        for _ in range(2):
            dataset = build_dataset(store_path, study_windows=8, options=options)
            assert dataset.degraded is None and len(dataset.shard_report) == 4
            assert parses() == [str(os.getpid())]

    def test_a_same_size_rewrite_in_place_is_reparsed_and_refused(
        self, tmp_path, trace_samples, parses
    ):
        """Same inode, size and mtime — a rewrite inside one coarse mtime
        tick — but other bytes: a memo keyed by the stat identity would
        hand back the old parse."""
        store = tmp_path / "flipped.store"
        write_store(store, trace_samples)
        TraceStoreReader(store)
        manifest_path = store / MANIFEST_NAME
        raw = manifest_path.read_bytes()
        flipped = raw.replace(b'"version":4,', b'"version":5,', 1)
        assert flipped != raw and len(flipped) == len(raw)
        before = os.stat(manifest_path)
        identity = manifest_identity(store)
        with open(manifest_path, "r+b") as handle:
            handle.write(flipped)
        os.utime(manifest_path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert manifest_identity(store) == identity
        with pytest.raises(StoreError, match="unsupported store version 5"):
            TraceStoreReader(store)
        assert len(parses()) == 2

    def test_no_caller_mutates_the_shared_parse(self, tmp_path, trace_samples):
        store = tmp_path / "shared.store"
        write_store(store, trace_samples[:300])
        append_to_store(store, trace_samples[300:])
        outcomes = []
        for step in (
            lambda: build_dataset(
                store, study_windows=8, options=ParallelOptions(shards=4)
            ).degraded,
            lambda: verify_store(store).ok,
            lambda: compact_store(store).skipped,
        ):
            outcomes.append(step())
            (_, raw), manifest = store_reader._last_parse
            assert manifest == json.loads(raw)
        assert outcomes == [None, True, False]


class TestStoreJsonlEquivalence:
    def test_jsonl_and_store_round_trip_identically(
        self, tmp_path, trace_samples
    ):
        jsonl = tmp_path / "t.jsonl"
        store = tmp_path / "t.store"
        write_samples(jsonl, trace_samples)
        write_store(store, trace_samples)
        assert list(read_samples(jsonl)) == list(read_samples(store))

    def test_store_is_smaller_than_jsonl(self, tmp_path, trace_samples):
        jsonl = tmp_path / "t.jsonl"
        store = tmp_path / "t.store"
        write_samples(jsonl, trace_samples)
        write_store(store, trace_samples)
        store_bytes = sum(f.stat().st_size for f in store.iterdir())
        assert store_bytes < jsonl.stat().st_size / 2
