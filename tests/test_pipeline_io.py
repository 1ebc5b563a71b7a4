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
    """One line decoder (``read_samples_stream``), three ways to reach it:
    each names a bad third line by its own location label and leaves the
    same ledger — the two good rows read, one decode error."""

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
