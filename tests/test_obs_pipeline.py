"""Observability through the pipeline: the counter-equality invariant.

Counters and gauges are *data facts*: running the same store through any
shard plan (any backend, any shard count) must produce byte-identical
counters and gauges to the one-pass fold, and the one-pass fold of the
stream saved as JSONL differs from it only in the ``io.*`` / ``store.*``
read counters. This
mirrors the state-equality matrix in ``tests/test_pipeline_parallel.py``
at the metrics layer. Timings (``timers``, ``shard_report``) are execution
facts and are only checked for shape.
"""

import json

import pytest

from repro.core.hdratio import session_goodput
from repro.obs import MetricsRegistry, activate_metrics, active_metrics
from repro.pipeline import ParallelOptions, StudyDataset, build_dataset
from repro.pipeline.io import read_samples

from tests.helpers import (  # noqa: F401 — fixtures are used by name
    LOCAL_BACKENDS,
    in_process_pool,
    local_options,
    make_trace_samples,
    write_trace_paths,
)

pytestmark = pytest.mark.obs

STUDY_WINDOWS = 8


@pytest.fixture(scope="module")
def samples():
    return make_trace_samples(600, seed=11, windows=STUDY_WINDOWS)


@pytest.fixture(scope="module")
def serial_dataset(samples):
    return build_dataset(iter(samples), study_windows=STUDY_WINDOWS)


@pytest.fixture(scope="module")
def trace_paths(samples, tmp_path_factory):
    return write_trace_paths(tmp_path_factory.mktemp("obs-traces"), samples)


def canonical_counters(dataset: StudyDataset) -> str:
    """Byte-comparable serialization of the dataset's data facts."""
    return json.dumps(
        {"counters": dataset.metrics.counters, "gauges": dataset.metrics.gauges},
        sort_keys=True,
    )


def assert_counters_equal(parallel: StudyDataset, serial: StudyDataset) -> None:
    assert canonical_counters(parallel) == canonical_counters(serial)


# --------------------------------------------------------------------- #
# Counter equality across shard plans
# --------------------------------------------------------------------- #
class TestInMemoryCounterEquality:
    """The store half of the matrix. The class keeps the name it had when
    it sharded this stream in memory by user group (deleted: a sharded plan
    reads a trace on disk), so its test ids stay put; the stream is saved
    as a store first and each plan is held to the one-pass fold of it."""

    @pytest.fixture(scope="class")
    def store(self, trace_paths):
        return trace_paths["store"]

    @pytest.fixture(scope="class")
    def one_pass(self, store):
        return build_dataset(store, study_windows=STUDY_WINDOWS)

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_serial_executor(self, store, one_pass, shards):
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=1, shards=shards),
        )
        assert_counters_equal(dataset, one_pass)

    @pytest.mark.usefixtures("in_process_pool")
    @pytest.mark.parametrize("shards", [2, 4])
    def test_thread_executor(self, store, one_pass, shards):
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=4, shards=shards),
        )
        assert_counters_equal(dataset, one_pass)

    def test_process_executor(self, store, one_pass):
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=2, shards=4),
        )
        assert_counters_equal(dataset, one_pass)


class TestFileCounterEquality:
    @pytest.mark.parametrize("kind,shards", [("plain", 1), ("gz", 1), ("store", 3)])
    def test_chunked_serial(self, trace_paths, serial_dataset, kind, shards):
        dataset = build_dataset(
            trace_paths[kind],
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=1, shards=shards),
        )
        # File-backed runs additionally count io.rows_read (and a store
        # its store.* decode counters), which an in-memory baseline cannot
        # have; compare against the one-pass fold of the same file.
        baseline = build_dataset(trace_paths[kind], study_windows=STUDY_WINDOWS)
        assert_counters_equal(dataset, baseline)
        assert dataset.metrics.counter("io.rows_read") == len(
            make_trace_samples(600, seed=11, windows=STUDY_WINDOWS)
        )

    def test_chunked_process(self, trace_paths):
        """The process pool over the store leaves the one-pass store fold's
        counters byte for byte, and the one-pass JSONL fold's everywhere
        but the ``store.*`` decode counters only a store read has."""
        dataset = build_dataset(
            trace_paths["store"],
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=2, shards=3),
        )
        baseline = build_dataset(trace_paths["store"], study_windows=STUDY_WINDOWS)
        assert_counters_equal(dataset, baseline)
        jsonl = build_dataset(trace_paths["gz"], study_windows=STUDY_WINDOWS)
        assert {
            name: value
            for name, value in dataset.metrics.counters.items()
            if not name.startswith("store.")
        } == jsonl.metrics.counters
        assert dataset.metrics.gauges == jsonl.metrics.gauges

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", LOCAL_BACKENDS)
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_full_matrix(self, trace_paths, backend, shards, local_options):
        store = trace_paths["store"]
        dataset = build_dataset(
            store,
            study_windows=STUDY_WINDOWS,
            options=local_options(backend, shards),
        )
        baseline = build_dataset(store, study_windows=STUDY_WINDOWS)
        assert_counters_equal(dataset, baseline)

    def test_file_and_memory_agree_on_everything_but_io(
        self, trace_paths, serial_dataset
    ):
        file_dataset = build_dataset(trace_paths["plain"], study_windows=STUDY_WINDOWS)
        file_counters = dict(file_dataset.metrics.counters)
        io_counters = {
            name: file_counters.pop(name)
            for name in list(file_counters)
            if name.startswith("io.")
        }
        assert io_counters == {"io.rows_read": 600}
        assert file_counters == serial_dataset.metrics.counters


# --------------------------------------------------------------------- #
# The counters mean what they claim
# --------------------------------------------------------------------- #
class TestCounterSemantics:
    def test_sample_funnel_adds_up(self, samples, serial_dataset):
        counters = serial_dataset.metrics.counters
        assert counters["pipeline.samples.read"] == len(samples)
        assert (
            counters["pipeline.samples.read"]
            == counters["pipeline.samples.kept"]
            + counters["pipeline.samples.dropped_hosting"]
        )
        assert counters["pipeline.samples.kept"] == len(serial_dataset.rows)

    def test_methodology_funnel_matches_independent_recompute(
        self, samples, serial_dataset
    ):
        """§3.2 classifier counts: recompute the raw → coalesced →
        eligible → tested → achieved funnel per session and compare."""
        expected = {
            "raw": 0, "coalesced": 0, "inflight_dropped": 0,
            "gtestable": 0, "achieved": 0, "hd_testable": 0,
        }
        kept = {id(row) for row in serial_dataset.rows}
        filter_probe = StudyDataset(study_windows=STUDY_WINDOWS)
        for sample in samples:
            if not filter_probe.ingest_one(sample):
                continue
            if not sample.transactions:
                continue
            summary = session_goodput(sample.transactions, sample.min_rtt_seconds)
            expected["raw"] += summary.raw_count
            expected["coalesced"] += summary.merged_away
            expected["inflight_dropped"] += summary.inflight_dropped
            expected["gtestable"] += summary.tested
            expected["achieved"] += summary.achieved
            expected["hd_testable"] += 1 if summary.tested else 0
        counters = serial_dataset.metrics.counters
        assert counters["methodology.transactions.raw"] == expected["raw"]
        assert counters["methodology.transactions.coalesced"] == expected["coalesced"]
        assert (
            counters["methodology.transactions.inflight_dropped"]
            == expected["inflight_dropped"]
        )
        assert counters["methodology.transactions.gtestable"] == expected["gtestable"]
        assert counters["methodology.transactions.achieved"] == expected["achieved"]
        assert counters["methodology.sessions.hd_testable"] == expected["hd_testable"]
        # The funnel is monotone.
        assert (
            counters["methodology.transactions.raw"]
            >= counters["methodology.transactions.gtestable"]
            >= counters["methodology.transactions.achieved"]
        )

    def test_aggregation_counters(self, serial_dataset):
        counters = serial_dataset.metrics.counters
        assert counters["core.aggregation.samples"] == len(serial_dataset.rows)
        assert (
            counters["core.aggregation.hd_samples"]
            == counters["methodology.sessions.hd_testable"]
        )

    def test_shape_gauges(self, serial_dataset):
        gauges = serial_dataset.metrics.gauges
        assert gauges["pipeline.rows"] == len(serial_dataset.rows)
        assert gauges["pipeline.aggregations"] == len(serial_dataset.store)
        assert gauges["pipeline.groups"] == len(serial_dataset.store.groups())

    def test_io_rows_read_counts_gz_identically(self, trace_paths):
        for kind in ("plain", "gz"):
            registry = MetricsRegistry()
            rows = list(read_samples(trace_paths[kind], metrics=registry))
            assert registry.counter("io.rows_read") == len(rows) == 600

    def test_io_decode_error_counted_before_raise(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{this is not json\n")
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid JSON"):
            list(read_samples(bad, metrics=registry))
        assert registry.counter("io.decode_errors") == 1
        assert registry.counter("io.rows_read") == 0


# --------------------------------------------------------------------- #
# Execution facts & plumbing
# --------------------------------------------------------------------- #
class TestExecutionFacts:
    def test_shard_report_shape(self, samples, trace_paths):
        dataset = build_dataset(
            trace_paths["store"],
            study_windows=STUDY_WINDOWS,
            options=ParallelOptions(workers=1, shards=4),
        )
        assert len(dataset.shard_report) == 4
        assert sum(entry["samples"] for entry in dataset.shard_report) == len(samples)
        for entry in dataset.shard_report:
            assert set(entry) == {"ordinal", "samples", "rows_kept", "wall_seconds"}
            assert entry["wall_seconds"] >= 0.0
        stat = dataset.metrics.timer_stat("pipeline.shard_wall_seconds")
        assert stat.count == 4

    def test_serial_run_has_no_shard_report(self, serial_dataset):
        assert serial_dataset.shard_report == []

    def test_build_dataset_merges_into_active_registry(self, samples):
        cli_registry = MetricsRegistry()
        with activate_metrics(cli_registry):
            dataset = build_dataset(iter(samples), study_windows=STUDY_WINDOWS)
        assert cli_registry.counters == dataset.metrics.counters
        assert cli_registry.gauges == dataset.metrics.gauges

    def test_dataset_registry_is_fresh_not_the_active_one(self):
        cli_registry = MetricsRegistry()
        with activate_metrics(cli_registry):
            dataset = StudyDataset(study_windows=4)
            assert dataset.metrics is not cli_registry
            assert active_metrics() is cli_registry


# --------------------------------------------------------------------- #
# Netsim event-loop stats
# --------------------------------------------------------------------- #
class TestNetsimMetrics:
    def test_simulator_publishes_into_active_registry(self):
        from repro.netsim.engine import Simulator

        registry = MetricsRegistry()
        with activate_metrics(registry):
            sim = Simulator()
            handle = sim.schedule(0.5, lambda: None)
            handle.cancel()
            sim.schedule(1.0, lambda: None)
            sim.run()
        assert registry.counter("netsim.events_processed") == 1
        assert registry.counter("netsim.events_cancelled") == 1
        assert registry.counter("netsim.runs") == 1
        assert registry.gauge("netsim.sim_time_seconds") == 1.0

    def test_simulator_is_silent_without_activation(self):
        from repro.netsim.engine import Simulator

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()  # must not raise
        assert sim.events_processed == 1
        assert sim.events_cancelled == 0
