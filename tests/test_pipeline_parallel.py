"""Equivalence tests: the sharded parallel pipeline vs the serial pass.

The contract under test (see ``repro/pipeline/parallel.py``): for any shard
count and any backend, ``build_dataset`` over a columnar store produces a
``StudyDataset`` whose state — rows in stream order, aggregation-store
insertion order, raw per-aggregation value lists, filter counters — is
**exactly** equal to the serial pass (as is the one-pass fold of the same
stream saved as plain or gzip JSONL), and therefore every derived
statistic (per-group medians, McKean–Schrader CIs, window tables, figure
results) is exactly equal too.
"""

import math
import pickle
import pickletools

import pytest

from repro.pipeline import (
    ParallelOptions,
    SessionRow,
    ShardError,
    StudyDataset,
    build_dataset,
    fig6_global_performance,
    fig8_degradation,
    fig9_opportunity,
)
from repro.pipeline.io import plan_chunks, write_samples
from repro.pipeline.parallel import RemoteCause, ShardResult, _run_shard, _ShardTask
from repro.pipeline.table import SessionChunk, SessionRows, SessionTable

from tests.helpers import (  # noqa: F401 — fixtures are used by name
    LOCAL_BACKENDS,
    in_process_pool,
    local_options,
    make_trace_samples,
    write_trace_paths,
)

STUDY_WINDOWS = 8

@pytest.fixture(scope="module")
def samples():
    return make_trace_samples(600, seed=11, windows=STUDY_WINDOWS)


@pytest.fixture(scope="module")
def serial_dataset(samples):
    return StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))


@pytest.fixture(scope="module")
def trace_paths(samples, tmp_path_factory):
    return write_trace_paths(tmp_path_factory.mktemp("traces"), samples)


def assert_datasets_equal(parallel: StudyDataset, serial: StudyDataset) -> None:
    """Exact-state equality, then derived-result equality."""
    # Session rows: same rows, same stream order — and every one a
    # SessionRow: a plain tuple compares equal to a NamedTuple, so ``==``
    # alone cannot catch a row a shard result left unwrapped.
    assert parallel.rows == serial.rows
    assert all(type(row) is SessionRow for row in parallel.rows)
    assert all(type(row) is SessionRow for row in serial.rows)
    assert parallel.filter_stats == serial.filter_stats
    # Aggregation store: same keys in the same insertion order, with
    # identical raw value lists (-> identical medians and CIs).
    parallel_items = parallel.store.items()
    serial_items = serial.store.items()
    assert [key for key, _ in parallel_items] == [key for key, _ in serial_items]
    for (_, ours), (_, theirs) in zip(parallel_items, serial_items):
        assert ours.min_rtts_ms == theirs.min_rtts_ms
        assert ours.hdratios == theirs.hdratios
        assert ours.traffic_bytes == theirs.traffic_bytes
        assert ours.session_count == theirs.session_count
        assert ours.route == theirs.route
    # Window tables.
    assert parallel.store.windows() == serial.store.windows()
    for group in serial.store.groups():
        assert parallel.store.group_windows(group) == serial.store.group_windows(group)
    # Figure-level results (medians, CI-gated weighted CDFs).
    fig6_p = fig6_global_performance(parallel)
    fig6_s = fig6_global_performance(serial)
    assert fig6_p.minrtt_all.xs == fig6_s.minrtt_all.xs
    assert fig6_p.hdratio_all.xs == fig6_s.hdratio_all.xs
    assert fig6_p.median_minrtt == fig6_s.median_minrtt
    for fig in (fig8_degradation, fig9_opportunity):
        result_p, result_s = fig(parallel), fig(serial)
        for metric in ("minrtt", "hdratio"):
            cdf_p, cdf_s = getattr(result_p, metric), getattr(result_s, metric)
            assert cdf_p.differences == cdf_s.differences
            assert cdf_p.ci_lows == cdf_s.ci_lows
            assert cdf_p.ci_highs == cdf_s.ci_highs
            assert cdf_p.weights == cdf_s.weights
            assert cdf_p.valid_traffic == cdf_s.valid_traffic
            assert cdf_p.total_traffic == cdf_s.total_traffic


# --------------------------------------------------------------------- #
# File-backed (chunk-sharded) equivalence
# --------------------------------------------------------------------- #
class TestFileEquivalence:
    @pytest.mark.parametrize("kind,shards", [("plain", 1), ("gz", 1), ("store", 3)])
    def test_chunked_serial(self, trace_paths, serial_dataset, kind, shards):
        dataset = build_dataset(
            trace_paths[kind],
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=1, shards=shards),
        )
        assert_datasets_equal(dataset, serial_dataset)

    @pytest.mark.parametrize("backend", LOCAL_BACKENDS)
    def test_store_chunks(
        self, trace_paths, serial_dataset, backend, local_options
    ):
        dataset = build_dataset(
            trace_paths["store"],
            study_windows=STUDY_WINDOWS,
            options=local_options(backend, shards=4, workers=2),
        )
        assert_datasets_equal(dataset, serial_dataset)

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", LOCAL_BACKENDS)
    @pytest.mark.parametrize("shards", [1, 2, 5, 8])
    def test_full_matrix(
        self, trace_paths, serial_dataset, backend, shards, local_options
    ):
        dataset = build_dataset(
            trace_paths["store"],
            study_windows=STUDY_WINDOWS,
            options=local_options(backend, shards),
        )
        assert_datasets_equal(dataset, serial_dataset)

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", LOCAL_BACKENDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_traces(self, seed, backend, local_options, tmp_path):
        randomized = make_trace_samples(400, seed=seed, windows=STUDY_WINDOWS)
        serial = StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(randomized))
        paths = write_trace_paths(tmp_path, randomized)
        for shards in (1, 2, 4, 8):
            dataset = build_dataset(
                paths["store"],
                study_windows=STUDY_WINDOWS,
                options=local_options(backend, shards, workers=2),
            )
            assert_datasets_equal(dataset, serial)


# --------------------------------------------------------------------- #
# Mechanics
# --------------------------------------------------------------------- #
class TestSharding:
    def test_options_validation(self):
        with pytest.raises(ValueError):
            ParallelOptions(workers=0)
        with pytest.raises(ValueError):
            ParallelOptions(workers=1, shards=0)
        with pytest.raises(ValueError, match="not host:port"):
            ParallelOptions(worker_addrs=("nonsense",))
        for backoff in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="retry_backoff must be >= 0 and finite"):
                ParallelOptions(retry_backoff=backoff)
        assert ParallelOptions(workers=3).effective_shards == 3
        assert ParallelOptions(workers=3, shards=5).effective_shards == 5

    def test_backend_is_derived_never_chosen(self):
        with pytest.raises(TypeError):
            ParallelOptions(executor="process")
        assert ParallelOptions() == ParallelOptions(workers=1)
        assert ParallelOptions(workers=1).backend == "serial"
        assert ParallelOptions(workers=1, shards=8).backend == "serial"
        assert ParallelOptions(workers=4).backend == "process"
        dispatch = ParallelOptions(workers=1, worker_addrs=("h:1", "h:2", "h:3"))
        assert dispatch.backend == "dispatch"
        assert dispatch.effective_shards == 3  # max(workers, len(addrs))
        assert ParallelOptions(
            workers=4, worker_addrs=("h:1",)
        ).effective_shards == 4
        with pytest.raises(AttributeError):
            dispatch.backend = "process"

    @pytest.mark.parametrize(
        "sharded",
        [
            ParallelOptions(shards=2),
            ParallelOptions(workers=2),
            ParallelOptions(worker_addrs=("127.0.0.1:1",)),
        ],
        ids=["shards", "workers", "worker_addrs"],
    )
    def test_sharded_plan_over_a_stream_is_refused_unread(self, samples, sharded):
        # A shard task names a store on disk; a stream has none. Refused
        # before the first sample is drawn, and the message says what to
        # do instead.
        stream = iter(samples)
        with pytest.raises(ValueError, match="reads a columnar store") as excinfo:
            build_dataset(stream, study_windows=STUDY_WINDOWS, options=sharded)
        assert "write_samples" in str(excinfo.value)
        assert "repro convert" in str(excinfo.value)
        assert next(stream) is samples[0]

    def test_stream_with_default_options_folds_in_one_pass(
        self, samples, serial_dataset
    ):
        for options in (None, ParallelOptions()):
            dataset = build_dataset(
                iter(samples), study_windows=STUDY_WINDOWS, options=options
            )
            assert_datasets_equal(dataset, serial_dataset)
            assert dataset.shard_report == []

    def test_empty_source(self, tmp_path):
        for name, options in (
            ("empty.jsonl", None),
            ("empty.store", ParallelOptions(workers=1, shards=4)),
        ):
            write_samples(tmp_path / name, [])
            dataset = build_dataset(
                tmp_path / name, study_windows=4, options=options
            )
            assert dataset.session_count == 0
            assert len(dataset.store) == 0

    def test_missing_route_fails_fast_under_strict(self, samples, tmp_path):
        # Under strict mode a broken sample still fails the build, wrapped
        # in a ShardError naming the shard (the default policy quarantines
        # the shard instead; see tests/test_fault_tolerance.py).
        broken = [samples[0]]
        broken[0] = type(broken[0])(
            **{
                **broken[0].__dict__,
                "route": None,
                "transactions": [],
                "client_ip_is_hosting": False,
            }
        )
        write_samples(tmp_path / "broken.store", broken)
        with pytest.raises(ShardError, match="route") as excinfo:
            build_dataset(
                tmp_path / "broken.store",
                study_windows=STUDY_WINDOWS,
                options=ParallelOptions(workers=1, shards=2, strict=True),
            )
        assert excinfo.value.shard_id == 0
        assert isinstance(excinfo.value.cause, ValueError)

    def test_dataset_kwargs_forwarded(self, samples, tmp_path):
        write_samples(tmp_path / "head.store", samples[:50])
        dataset = build_dataset(
            tmp_path / "head.store",
            study_windows=STUDY_WINDOWS,
            keep_response_sizes=False,
            compute_naive=True,
            window_seconds=3600.0,
            options=ParallelOptions(workers=1, shards=2),
        )
        serial = StudyDataset(
            study_windows=STUDY_WINDOWS,
            keep_response_sizes=False,
            compute_naive=True,
            window_seconds=3600.0,
        ).ingest(iter(samples[:50]))
        assert dataset.rows == serial.rows
        assert [k for k, _ in dataset.store.items()] == [
            k for k, _ in serial.store.items()
        ]
        assert dataset.window_seconds == 3600.0


# --------------------------------------------------------------------- #
# ShardError transport: the error must survive any pickle boundary
# --------------------------------------------------------------------- #
class TestShardResultWireForm:
    """What a shard result costs on the wire: its session chunk crosses as
    raw column bytes and is rebuilt as typed arrays on arrival (DESIGN.md
    §6)."""

    def test_session_row_fields_are_unchanged(self):
        assert SessionRow._fields == (
            "min_rtt_ms",
            "hdratio",
            "naive_hdratio",
            "bytes_sent",
            "duration",
            "busy_fraction",
            "transaction_count",
            "is_http2",
            "continent",
            "geo_tag",
            "response_sizes",
            "media_bytes",
        )

    def test_pickle_carries_column_bytes_and_round_trips(self, trace_paths):
        (chunk, *_) = plan_chunks(trace_paths["store"], 2)
        result = _run_shard(
            _ShardTask(
                dataset_kwargs=dict(study_windows=STUDY_WINDOWS), chunk=chunk
            )
        )
        assert type(result.sessions) is SessionChunk and result.sessions
        payload = pickle.dumps(result, protocol=4)
        strings = {
            arg for _, arg, _ in pickletools.genops(payload) if isinstance(arg, str)
        }
        assert not {"SessionRow", "SessionChunk", "array"} & strings
        assert "ShardResult" in strings  # the scan sees the globals it should
        # One bytes object per column: the per-session minimum RTTs cross as
        # 8 bytes each, not as pickled floats.
        blobs = [
            arg for _, arg, _ in pickletools.genops(payload) if isinstance(arg, bytes)
        ]
        assert result.sessions.min_rtt_ms.tobytes() in blobs
        loaded = pickle.loads(payload)
        assert type(loaded) is ShardResult
        assert type(loaded.sessions) is SessionChunk
        for name in (
            "ordinal", "sessions", "aggregations", "filter_stats",
            "wall_seconds", "samples_ingested",
        ):
            assert getattr(loaded, name) == getattr(result, name), name
        assert loaded.metrics.to_dict() == result.metrics.to_dict()
        assert list(SessionRows(_table(loaded.sessions))) == list(
            SessionRows(_table(result.sessions))
        )


def _table(chunk: SessionChunk) -> SessionTable:
    table = SessionTable()
    table.chunks.append(chunk)
    return table


class _ArityBomb(Exception):
    """Pickles fine, explodes on load: default exception reduction calls
    ``cls(formatted_message)``, the wrong arity for this constructor —
    the classic third-party-exception transport failure."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")
        self.code = code


class TestShardErrorTransport:
    def test_picklable_cause_rides_along_unchanged(self):
        error = ShardError(3, ValueError("bad route"), attempts=2)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard_id == 3
        assert clone.attempts == 2
        assert isinstance(clone.cause, ValueError)
        assert str(clone.cause) == "bad route"
        assert "shard 3 failed after 2 attempt(s)" in str(clone)

    def test_load_poisoning_cause_is_stringified(self):
        # The regression: ShardError wrapping an exception that pickles
        # but cannot un-pickle used to poison the whole error in transit
        # (a process-pool future would raise on result pickup). The cause
        # must travel as a stringified RemoteCause instead.
        error = ShardError(1, _ArityBomb("E42", "detail text"), attempts=3)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard_id == 1
        assert clone.attempts == 3
        assert isinstance(clone.cause, RemoteCause)
        assert clone.cause.type_name == "_ArityBomb"
        assert "E42: detail text" in clone.cause.message
        # The original type stays visible in the rendered error text.
        assert "_ArityBomb" in str(clone)

    def test_dump_failing_cause_is_stringified(self):
        class Local(Exception):  # unpicklable: not importable by qualname
            pass

        error = ShardError(0, Local("nested"), attempts=1)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone.cause, RemoteCause)
        assert clone.cause.type_name == "Local"
        assert clone.cause.message == "nested"

    def test_remote_cause_round_trips_exactly(self):
        cause = RemoteCause("TimeoutError", "socket timed out")
        clone = pickle.loads(pickle.dumps(cause))
        assert clone.type_name == "TimeoutError"
        assert clone.message == "socket timed out"
        assert str(clone) == "TimeoutError: socket timed out"

    def test_double_pickle_is_stable(self):
        # Ledger entries can cross more than one boundary (worker ->
        # client -> manifest collector); a second trip must not re-wrap.
        error = ShardError(2, _ArityBomb("E1", "x"), attempts=1)
        once = pickle.loads(pickle.dumps(error))
        twice = pickle.loads(pickle.dumps(once))
        assert isinstance(twice.cause, RemoteCause)
        assert twice.cause.type_name == once.cause.type_name
        assert twice.cause.message == once.cause.message


def test_a_one_task_plan_runs_inline_and_two_on_the_pool():
    from concurrent.futures import ProcessPoolExecutor

    from repro.pipeline import parallel

    options = ParallelOptions(workers=2)
    assert type(parallel._executor_for(options, 1)) is parallel._InlineExecutor
    pool = parallel._executor_for(options, 2)  # starts no process until used
    assert type(pool) is ProcessPoolExecutor
    pool.shutdown()
