"""Tests for JSONL trace serialization and the store-only shard planner."""

import pathlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faultinject
from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
)
from repro.kernels.engine import iter_batches
from repro.pipeline.io import (
    convert,
    detect_format,
    plan_chunks,
    read_column_batches,
    read_samples,
    read_samples_stream,
    sample_from_dict,
    sample_to_dict,
    write_samples,
)

from repro.faultinject import FaultPlan
from repro.obs import MetricsRegistry, activate_metrics
from repro.pipeline import ParallelOptions, build_dataset
from repro.store import TraceStoreReader

from tests.helpers import make_route, make_sample, make_trace_samples

pytestmark = pytest.mark.io


def sample_with_txns():
    sample = make_sample(25.0, 55.0, route=make_route(rank=1))
    sample.geo_tag = "amsterdam"
    sample.transactions = [
        TransactionRecord(
            first_byte_time=1.0,
            ack_time=1.2,
            response_bytes=30_000,
            last_packet_bytes=1500,
            cwnd_bytes_at_first_byte=15_000,
            bytes_in_flight_at_start=0,
            last_byte_write_time=1.1,
        )
    ]
    return sample


class TestRoundTrip:
    def test_dict_round_trip(self):
        original = sample_with_txns()
        restored = sample_from_dict(sample_to_dict(original))
        assert restored.session_id == original.session_id
        assert restored.min_rtt_seconds == original.min_rtt_seconds
        assert restored.route == original.route
        assert restored.geo_tag == "amsterdam"
        assert restored.transactions == original.transactions
        assert restored.http_version is original.http_version

    def test_file_round_trip(self, tmp_path):
        samples = [sample_with_txns() for _ in range(5)]
        path = tmp_path / "trace.jsonl"
        assert write_samples(path, samples) == 5
        restored = list(read_samples(path))
        assert len(restored) == 5
        assert restored[0].transactions == samples[0].transactions

    def test_gzip_round_trip(self, tmp_path):
        samples = [sample_with_txns() for _ in range(3)]
        path = tmp_path / "trace.jsonl.gz"
        write_samples(path, samples)
        assert len(list(read_samples(path))) == 3

    def test_sample_without_route(self, tmp_path):
        sample = sample_with_txns()
        sample.route = None
        restored = sample_from_dict(sample_to_dict(sample))
        assert restored.route is None


class TestErrors:
    def test_version_check(self):
        payload = sample_to_dict(sample_with_txns())
        payload["v"] = 99
        with pytest.raises(ValueError):
            sample_from_dict(payload)

    def test_corrupt_line_reported_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_samples(path, [sample_with_txns()])
        with open(path, "a") as handle:
            handle.write("{not json}\n")
        with pytest.raises(ValueError, match=":2"):
            list(read_samples(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_samples(path, [sample_with_txns()])
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(list(read_samples(path))) == 1


# --------------------------------------------------------------------- #
# Property-based round trips (Hypothesis)
# --------------------------------------------------------------------- #
finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def transactions_strategy(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    records = []
    clock = 0.0
    for _ in range(count):
        first_byte = clock + draw(st.floats(min_value=0.0, max_value=5.0, **finite))
        response = draw(st.integers(min_value=1, max_value=1_000_000))
        records.append(
            TransactionRecord(
                first_byte_time=first_byte,
                ack_time=first_byte
                + draw(st.floats(min_value=0.0, max_value=10.0, **finite)),
                response_bytes=response,
                last_packet_bytes=draw(st.integers(min_value=0, max_value=response)),
                cwnd_bytes_at_first_byte=draw(
                    st.integers(min_value=1, max_value=500_000)
                ),
                bytes_in_flight_at_start=draw(
                    st.integers(min_value=0, max_value=100_000)
                ),
                coalesced_count=draw(st.integers(min_value=1, max_value=5)),
                last_byte_write_time=draw(
                    st.one_of(
                        st.none(),
                        st.floats(min_value=first_byte, max_value=first_byte + 20.0, **finite),
                    )
                ),
            )
        )
        clock = first_byte
    return records


name_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)


@st.composite
def samples_strategy(draw):
    start = draw(st.floats(min_value=0.0, max_value=1e6, **finite))
    route = draw(
        st.one_of(
            st.none(),
            st.builds(
                RouteInfo,
                prefix=name_text,
                as_path=st.tuples(st.integers(min_value=1, max_value=2**31)),
                relationship=st.sampled_from(Relationship),
                preference_rank=st.integers(min_value=0, max_value=3),
                prepended=st.booleans(),
            ),
        )
    )
    return SessionSample(
        session_id=draw(st.integers(min_value=0, max_value=2**62)),
        start_time=start,
        end_time=start + draw(st.floats(min_value=0.0, max_value=1e4, **finite)),
        http_version=draw(st.sampled_from(HttpVersion)),
        min_rtt_seconds=draw(st.floats(min_value=1e-6, max_value=10.0, **finite)),
        bytes_sent=draw(st.integers(min_value=0, max_value=2**40)),
        busy_time_seconds=draw(st.floats(min_value=0.0, max_value=1e4, **finite)),
        transactions=draw(transactions_strategy()),
        route=route,
        pop=draw(name_text),
        client_country=draw(name_text),
        client_continent=draw(name_text),
        client_ip_is_hosting=draw(st.booleans()),
        geo_tag=draw(name_text),
        media_response_sizes=draw(
            st.tuples(st.integers(min_value=0, max_value=2**31))
        ),
    )


class TestPropertyRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(sample=samples_strategy())
    def test_dict_round_trip_is_lossless(self, sample):
        payload = json.loads(json.dumps(sample_to_dict(sample)))
        assert sample_from_dict(payload) == sample

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        samples=st.lists(samples_strategy(), max_size=12),
        num_chunks=st.integers(min_value=1, max_value=6),
    )
    def test_chunked_reads_equal_whole_file(
        self, samples, num_chunks, tmp_path_factory
    ):
        """A store read chunk by chunk and merged on ``seq`` is the store
        read in one pass, which is the stream that was written."""
        path = tmp_path_factory.mktemp("chunked") / "trace.store"
        write_samples(path, samples)
        reader = TraceStoreReader(path)
        partitions = {partition["id"]: partition for partition in reader.partitions}
        pairs = [
            pair
            for chunk in plan_chunks(path, num_chunks)
            for partition_id in chunk.partition_ids
            for pair in reader.decode_partition(partitions[partition_id])
        ]
        pairs.sort(key=lambda pair: pair[0])
        assert [sample for _, sample in pairs] == list(read_samples(path)) == samples

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        samples=st.lists(samples_strategy(), min_size=1, max_size=10),
        num_chunks=st.integers(min_value=1, max_value=5),
    )
    def test_chunk_order_keys_are_global_and_monotone(
        self, samples, num_chunks, tmp_path_factory
    ):
        """What a shard decodes (``iter_batches``) is keyed by store
        sequence numbers: ascending within a partition, a chunk's smallest
        is its ``ordinal``, its count is its ``rows``, and the chunks
        together hold every stream position exactly once."""
        path = tmp_path_factory.mktemp("keys") / "trace.store"
        write_samples(path, samples)
        chunks = plan_chunks(path, num_chunks)
        assert 1 <= len(chunks) <= num_chunks
        keys = []
        for chunk in chunks:
            chunk_keys = []
            for batch in iter_batches(chunk):
                batch_keys = list(batch.order_keys)
                assert batch_keys == sorted(batch_keys)
                chunk_keys.extend(batch_keys)
            assert chunk.ordinal == min(chunk_keys)
            assert chunk.rows == len(chunk_keys)
            keys.extend(chunk_keys)
        assert sorted(keys) == list(range(len(samples)))


class TestChunkPlanning:
    """A shard plan splits a columnar store's partitions, and nothing else."""

    def test_empty_file_has_no_chunks(self, tmp_path):
        path = tmp_path / "empty.store"
        write_samples(path, [])
        assert plan_chunks(path, 4) == []

    def test_zero_chunks_rejected(self, tmp_path):
        path = tmp_path / "trace.store"
        write_samples(path, [sample_with_txns()])
        with pytest.raises(ValueError):
            plan_chunks(path, 0)

    def test_store_chunk_paths_are_resolved(self, tmp_path, monkeypatch):
        # Chunks ship to worker daemons whose CWD is not the planner's
        # (DESIGN.md §13): a relative path must be pinned at plan time.
        write_samples(tmp_path / "t.jsonl", [sample_with_txns()])
        convert(tmp_path / "t.jsonl", tmp_path / "t.store")
        monkeypatch.chdir(tmp_path)
        for chunk in plan_chunks("t.store", 2):
            assert pathlib.Path(chunk.path).is_absolute()

    def test_chunks_cover_file_without_overlap(self, tmp_path):
        """``plan_chunks`` is the store reader's plan: contiguous runs of
        the manifest's partitions, each planned once, whose rows add up to
        the store's."""
        path = tmp_path / "trace.store"
        write_samples(path, make_trace_samples(200, seed=3, windows=8))
        reader = TraceStoreReader(path)
        chunks = plan_chunks(path, 4)
        assert chunks == reader.plan_chunks(4)
        assert 1 < len(chunks) <= 4
        planned = [pid for chunk in chunks for pid in chunk.partition_ids]
        assert planned == [partition["id"] for partition in reader.partitions]
        assert sum(chunk.rows for chunk in chunks) == reader.row_count == 200

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
    def test_jsonl_is_refused_before_a_byte_is_read(self, tmp_path, name):
        """``plan_chunks`` and every sharded ``build_dataset`` refuse JSONL
        naming ``repro convert``, and open nothing: a one-shot I/O fault
        armed on the path is still armed afterwards."""
        path = tmp_path / name
        write_samples(path, [sample_with_txns() for _ in range(4)])
        registry = MetricsRegistry()
        plan = FaultPlan(io_error={"times": 1, "path_substr": name})
        sharded = (
            ParallelOptions(shards=2),
            ParallelOptions(workers=2),
            ParallelOptions(worker_addrs=("127.0.0.1:1",)),
        )
        with activate_metrics(registry), faultinject.inject(plan):
            with pytest.raises(ValueError, match="repro convert"):
                plan_chunks(path, 2)
            for options in sharded:
                with pytest.raises(ValueError, match="repro convert"):
                    build_dataset(path, study_windows=4, options=options)
            assert registry.counter("fault.injected.io_errors") == 0
            with pytest.raises(OSError, match="injected fault"):
                list(read_samples(path))
        assert registry.counter("fault.injected.io_errors") == 1


class TestBadLineIsNamedExactly:
    """One line loop, four ways to reach it — ``read_samples`` (plain and
    gzip), ``read_samples_stream`` and ``build_dataset`` (the column
    assembler): each names a bad third line by its own location label and
    leaves the same ledger — the two good rows read, one decode error."""

    @staticmethod
    def _lines():
        good = json.dumps(sample_to_dict(sample_with_txns()))
        return [good, good, "{not json}", good]

    def _write(self, path, gzip_file=False):
        import gzip as gzip_module

        text = "\n".join(self._lines()) + "\n"
        if gzip_file:
            with gzip_module.open(path, "wt", encoding="utf-8") as handle:
                handle.write(text)
        else:
            path.write_text(text, encoding="utf-8")
        return path

    @staticmethod
    def _assert_bad_line(rows, where, registry):
        import re

        with pytest.raises(ValueError, match=re.escape(f"{where}: invalid JSON")):
            list(rows)
        assert registry.counter("io.decode_errors") == 1
        assert registry.counter("io.rows_read") == 2

    @pytest.mark.parametrize("name", ["trace.jsonl", "trace.jsonl.gz"])
    def test_read_samples(self, tmp_path, name):
        path = self._write(tmp_path / name, gzip_file=name.endswith(".gz"))
        registry = MetricsRegistry()
        self._assert_bad_line(
            read_samples(path, metrics=registry), f"{path}:3", registry
        )

    def test_read_samples_stream(self, tmp_path):
        import io

        registry = MetricsRegistry()
        handle = io.StringIO("\n".join(self._lines()) + "\n")
        self._assert_bad_line(
            read_samples_stream(handle, metrics=registry),
            "<stream>:3",
            registry,
        )

    def test_build_dataset(self, tmp_path, monkeypatch):
        path = self._write(tmp_path / "trace.jsonl")
        registries = _capture_build_registries(monkeypatch)
        with pytest.raises(ValueError, match=f"{path}:3: invalid JSON"):
            build_dataset(path, study_windows=4)
        (registry,) = registries
        assert registry.counter("io.decode_errors") == 1
        assert registry.counter("io.rows_read") == 2


def _capture_build_registries(monkeypatch) -> list:
    """The registries ``build_dataset`` hands ``iter_batches`` (its
    ingestor's, which a failed build never merges anywhere)."""
    from repro.kernels import engine

    registries = []
    iter_batches_of = engine.iter_batches

    def recording(source, metrics=None):
        registries.append(metrics)
        return iter_batches_of(source, metrics=metrics)

    monkeypatch.setattr(engine, "iter_batches", recording)
    return registries


def _good_record() -> dict:
    return sample_to_dict(sample_with_txns())


def _without(payload: dict, key: str) -> dict:
    del payload[key]
    return payload


def _with(payload: dict, **fields) -> dict:
    payload.update(fields)
    return payload


def _with_txn(payload: dict, **fields) -> dict:
    payload["transactions"][0].update(fields)
    return payload


def _without_txn(payload: dict, key: str) -> dict:
    del payload["transactions"][0][key]
    return payload


#: One bad third line per way a well-formed JSON value can fail to be a
#: record, and the detail its error names.
BAD_RECORDS = {
    "missing-field": (
        lambda: _without(_good_record(), "start_time"),
        "missing field 'start_time'",
    ),
    "transactions-not-a-list": (
        lambda: _with(_good_record(), transactions=5),
        "'int' object is not iterable",
    ),
    "json-array": (lambda: [1, 2], "a record is a JSON object, not list"),
    "session-rule": (
        lambda: _with(_good_record(), end_time=1.0, start_time=2.0),
        "session ends before it starts",
    ),
    "transaction-rule": (
        lambda: _with_txn(_good_record(), ack_time=0.5),
        "ack_time precedes first_byte_time",
    ),
    "missing-session-id": (  # no batch column holds it, yet it is required
        lambda: _without(_good_record(), "session_id"),
        "missing field 'session_id'",
    ),
    "missing-transaction-field": (
        lambda: _without_txn(_good_record(), "ack_time"),
        "missing field 'ack_time'",
    ),
    "version": (
        lambda: _with(_good_record(), v=99),
        "unsupported trace format version 99",
    ),
    "bad-enum": (
        lambda: _with(_good_record(), http_version="HTTP/9"),
        "'HTTP/9' is not a valid HttpVersion",
    ),
    "bad-relationship": (
        lambda: _with(
            _good_record(),
            route={**_good_record()["route"], "relationship": "cousin"},
        ),
        "'cousin' is not a valid Relationship",
    ),
    # What a typed column or the store cannot hold is refused at its line,
    # not by an encoder or a kernel far from it.
    "end-time-infinite": (
        lambda: _with(_good_record(), end_time=float("inf")),
        "end_time must be a finite number",
    ),
    "start-time-nan": (
        lambda: _with(_good_record(), start_time=float("nan")),
        "start_time must be a finite number",
    ),
    "busy-time-too-large-for-a-float": (
        lambda: _with(_good_record(), busy_time_seconds=10**400),
        "busy_time_seconds must be a finite number",
    ),
    "transaction-time-nan": (
        lambda: _with_txn(_good_record(), last_byte_write_time=float("nan")),
        "last_byte_write_time must be a finite number",
    ),
    "session-id-not-an-integer": (
        lambda: _with(_good_record(), session_id=1.5),
        "session_id must be an integer in the int64 range",
    ),
    "bytes-sent-a-float": (
        lambda: _with(_good_record(), bytes_sent=1000.0),
        "bytes_sent must be an integer in the int64 range",
    ),
    "bytes-sent-past-int64": (
        lambda: _with(_good_record(), bytes_sent=2**63),
        "bytes_sent must be an integer in the int64 range",
    ),
    "response-size-a-float": (
        lambda: _with_txn(_good_record(), response_bytes=1.5),
        "response_bytes must be an integer in the int64 range",
    ),
    "cwnd-past-int64": (
        lambda: _with_txn(_good_record(), cwnd_bytes_at_first_byte=2**64),
        "cwnd_bytes_at_first_byte must be an integer in the int64 range",
    ),
    "in-flight-a-bool": (
        lambda: _with_txn(_good_record(), bytes_in_flight_at_start=True),
        "bytes_in_flight_at_start must be an integer in the int64 range",
    ),
    "coalesced-negative": (
        lambda: _with_txn(_good_record(), coalesced_count=-1),
        "coalesced_count must be non-negative",
    ),
    "media-size-a-string": (
        lambda: _with(_good_record(), media_response_sizes=[20_000, "big"]),
        "media_response_sizes must be integers in the int64 range",
    ),
    "pop-not-a-string": (
        lambda: _with(_good_record(), pop=7),
        "pop must be a string",
    ),
    "country-not-a-string": (
        lambda: _with(_good_record(), client_country=None),
        "client_country must be a string",
    ),
    "continent-not-a-string": (
        lambda: _with(_good_record(), client_continent=["EU"]),
        "client_continent must be a string",
    ),
    "geo-tag-not-a-string": (
        lambda: _with(_good_record(), geo_tag=0),
        "geo_tag must be a string",
    ),
}


class TestBadRecordIsNamedExactly:
    """A line that parses but is no record raises the same one
    ``ValueError`` as a line that does not parse — named ``{where}:3``,
    one ``io.decode_errors``, the two good rows read — through the object
    assembler and the column assembler alike (a ``KeyError``, a
    ``TypeError`` or an ``AttributeError`` used to escape unnamed)."""

    @staticmethod
    def _write(path, bad) -> pathlib.Path:
        good = json.dumps(_good_record())
        path.write_text(
            "\n".join([good, good, json.dumps(bad), good]) + "\n",
            encoding="utf-8",
        )
        return path

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    @pytest.mark.parametrize(
        "way", ["read_samples", "read_samples_stream", "read_column_batches",
                "build_dataset", "convert"],
    )
    def test_named_and_counted_once(self, tmp_path, monkeypatch, case, way):
        import re

        make_bad, detail = BAD_RECORDS[case]
        path = self._write(tmp_path / "trace.jsonl", make_bad())
        registry = MetricsRegistry()
        expected = f"{path}:3: invalid record ({detail})"
        with pytest.raises(ValueError) as raised:
            if way == "read_samples":
                list(read_samples(path, metrics=registry))
            elif way == "read_samples_stream":
                expected = f"<stream>:3: invalid record ({detail})"
                with open(path, encoding="utf-8") as handle:
                    list(read_samples_stream(handle, metrics=registry))
            elif way == "read_column_batches":
                list(read_column_batches(path, metrics=registry))
            elif way == "convert":
                convert(path, tmp_path / "trace.store", metrics=registry)
            else:
                registries = _capture_build_registries(monkeypatch)
                build_dataset(path, study_windows=4)
        assert re.fullmatch(re.escape(expected), str(raised.value))
        if way == "build_dataset":
            (registry,) = registries
        assert registry.counter("io.decode_errors") == 1
        assert registry.counter("io.rows_read") == 2


#: Golden-trace line 1 edited by hand, one way per kind of value a typed
#: column or the store cannot hold: (old text, new text, detail).
GOLDEN_EDITS = {
    "1e999": (
        '"end_time": 1823.274', '"end_time": 1e999',
        "end_time must be a finite number",
    ),
    "NaN": (
        '"start_time": 1737.5227219221333', '"start_time": NaN',
        "start_time must be a finite number",
    ),
    "fractional-id": (
        '"session_id": 1,', '"session_id": 1.5,',
        "session_id must be an integer in the int64 range",
    ),
    "past-int64": (
        '"bytes_sent": 211907', '"bytes_sent": 9223372036854775808',
        "bytes_sent must be an integer in the int64 range",
    ),
    "numeric-pop": ('"pop": "ams1"', '"pop": 7', "pop must be a string"),
}


@pytest.mark.parametrize("edit", sorted(GOLDEN_EDITS))
def test_an_unholdable_value_is_refused_at_its_line(tmp_path, edit):
    """Each way in: the same ``invalid record`` naming line 2, counted
    once. (These once passed the record checks and failed in ``convert``
    as a bare ``OverflowError``, ``struct.error`` or ``AttributeError``.)"""
    import gzip

    golden = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"
    with gzip.open(golden, "rt", encoding="utf-8") as handle:
        line = handle.readline()
    old, new, detail = GOLDEN_EDITS[edit]
    assert old in line
    path = tmp_path / "trace.jsonl"
    path.write_text(line + line.replace(old, new, 1), encoding="utf-8")
    for read in (
        lambda metrics: list(read_samples(path, metrics=metrics)),
        lambda metrics: list(read_column_batches(path, metrics=metrics)),
        lambda metrics: convert(path, tmp_path / "t.store", metrics=metrics),
    ):
        registry = MetricsRegistry()
        with pytest.raises(ValueError) as raised:
            read(registry)
        assert str(raised.value) == f"{path}:2: invalid record ({detail})"
        assert registry.counter("io.decode_errors") == 1


class TestRowsReadLedger:
    """``io.rows_read`` is counted once per read, when it ends, and equals
    the rows the read handed out: on a full read, on a generator closed
    early, and on a read that fails mid-stream — for samples and for
    column batches alike."""

    ROWS = 7

    @pytest.fixture
    def trace(self, tmp_path, monkeypatch):
        from repro.kernels import columns

        # Three rows a batch, so a closed batch read stops mid-trace.
        monkeypatch.setattr(columns, "BATCH_ROWS", 3)
        path = tmp_path / "trace.jsonl"
        write_samples(path, make_trace_samples(self.ROWS, seed=11))
        return path

    @staticmethod
    def _rows(item) -> int:
        return 1 if isinstance(item, SessionSample) else len(item)

    @pytest.mark.parametrize("reader", [read_samples, read_column_batches])
    def test_full_read(self, trace, reader):
        registry = MetricsRegistry()
        rows = sum(self._rows(item) for item in reader(trace, metrics=registry))
        assert registry.counter("io.rows_read") == rows == self.ROWS

    @pytest.mark.parametrize("reader", [read_samples, read_column_batches])
    def test_closed_early(self, trace, reader):
        registry = MetricsRegistry()
        items = reader(trace, metrics=registry)
        taken = self._rows(next(items)) + self._rows(next(items))
        assert registry.counter("io.rows_read") == 0  # counted at the end
        items.close()
        assert registry.counter("io.rows_read") == taken < self.ROWS

    @pytest.mark.parametrize("reader", [read_samples, read_column_batches])
    def test_failed_mid_stream(self, trace, reader):
        lines = trace.read_text(encoding="utf-8").splitlines()
        lines.insert(5, "{not json}")
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        registry = MetricsRegistry()
        handed_out = 0
        with pytest.raises(ValueError, match=f"{trace}:6: invalid JSON"):
            for item in reader(trace, metrics=registry):
                handed_out += self._rows(item)
        assert registry.counter("io.rows_read") == 5
        assert registry.counter("io.decode_errors") == 1
        # Batches hand out whole batches only: the two rows assembled
        # after the last full batch were read, never folded.
        assert handed_out == (5 if reader is read_samples else 3)


class TestFormatDetection:
    def test_detect_format_by_suffix_and_manifest(self, tmp_path):
        assert detect_format(tmp_path / "t.jsonl") == "jsonl"
        assert detect_format(tmp_path / "t.jsonl.gz") == "jsonl"
        assert detect_format(tmp_path / "t.store") == "store"
        store = tmp_path / "unsuffixed"
        convert_target = tmp_path / "src.jsonl"
        write_samples(convert_target, [sample_with_txns()])
        convert(convert_target, store / "x.store")
        assert detect_format(store / "x.store") == "store"

    def test_convert_round_trips_through_store(self, tmp_path):
        samples = make_trace_samples(60, seed=31)
        jsonl = tmp_path / "t.jsonl"
        store = tmp_path / "t.store"
        back = tmp_path / "back.jsonl"
        write_samples(jsonl, samples)
        assert convert(jsonl, store) == 60
        assert convert(store, back) == 60
        assert back.read_bytes() == jsonl.read_bytes()


class TestAtomicWrites:
    def test_interrupted_write_keeps_previous_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = [sample_with_txns() for _ in range(4)]
        write_samples(path, good)
        before = path.read_bytes()

        def interrupted():
            yield sample_with_txns()
            raise RuntimeError("export died mid-stream")

        with pytest.raises(RuntimeError):
            write_samples(path, interrupted())
        # The half-written export must not have replaced (or truncated)
        # the existing trace, and must not leave temp litter behind.
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_interrupted_write_leaves_no_new_file(self, tmp_path):
        path = tmp_path / "fresh.jsonl"

        def interrupted():
            yield sample_with_txns()
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_samples(path, interrupted())
        assert not path.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_gzip_target_writes_gzip_despite_temp_name(self, tmp_path):
        import gzip as gzip_module

        path = tmp_path / "t.jsonl.gz"
        write_samples(path, [sample_with_txns()])
        with gzip_module.open(path, "rt", encoding="utf-8") as handle:
            assert json.loads(handle.readline())["v"] == 1


class TestAnalysisOverRestoredTrace:
    def test_restored_trace_feeds_pipeline(self, tmp_path):
        from repro.pipeline import StudyDataset

        samples = [sample_with_txns() for _ in range(10)]
        path = tmp_path / "trace.jsonl"
        write_samples(path, samples)
        dataset = StudyDataset(study_windows=96)
        dataset.ingest(read_samples(path))
        assert dataset.session_count == 10
        assert len(dataset.store) == 1


class TestDecodedMemory:
    """Decoded samples hold no more memory than records built field by
    field through their constructors, one ``RouteInfo`` per sample (the
    decoder before routes were interned), and no record carries a
    materialized instance ``__dict__`` — the compact attribute layout that
    building records by ``__new__`` plus a dict update would lose."""

    GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"

    @staticmethod
    def _constructed(payload: dict) -> SessionSample:
        route = payload["route"]
        if route is not None:
            route = RouteInfo(
                prefix=route["prefix"],
                as_path=tuple(route["as_path"]),
                relationship=Relationship(route["relationship"]),
                preference_rank=route["preference_rank"],
                prepended=route["prepended"],
            )
        return SessionSample(
            session_id=payload["session_id"],
            start_time=payload["start_time"],
            end_time=payload["end_time"],
            http_version=HttpVersion(payload["http_version"]),
            min_rtt_seconds=payload["min_rtt_seconds"],
            bytes_sent=payload["bytes_sent"],
            busy_time_seconds=payload["busy_time_seconds"],
            transactions=[
                TransactionRecord(**raw) for raw in payload["transactions"]
            ],
            route=route,
            pop=payload["pop"],
            client_country=payload["client_country"],
            client_continent=payload["client_continent"],
            client_ip_is_hosting=payload["client_ip_is_hosting"],
            geo_tag=payload["geo_tag"],
            media_response_sizes=tuple(payload["media_response_sizes"]),
        )

    @staticmethod
    def _retained(decode):
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            kept = decode()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept, retained

    def test_decoded_samples_hold_no_more_than_constructed_ones(self):
        import gc
        import gzip as gzip_module

        def constructed():
            with gzip_module.open(self.GOLDEN, "rt", encoding="utf-8") as handle:
                return [self._constructed(json.loads(line)) for line in handle]

        reference, reference_bytes = self._retained(constructed)
        decoded, decoded_bytes = self._retained(
            lambda: list(read_samples(self.GOLDEN))
        )
        assert decoded == reference
        assert decoded_bytes <= reference_bytes
        records = [
            record
            for sample in decoded
            for record in (sample, sample.route, *sample.transactions)
            if record is not None
        ]
        assert not [
            record
            for record in records
            if any(type(ref) is dict for ref in gc.get_referents(record))
        ]
