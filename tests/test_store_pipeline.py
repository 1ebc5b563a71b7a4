"""Store-backed analysis must be byte-identical to JSONL-backed analysis.

The acceptance bar for the columnar store: converting the golden trace and
re-running the pipeline over the store — serially or sharded — changes no
analysis output and no data-fact counter. Plus the pushdown guarantee: a
filtered scan decodes strictly fewer bytes than a full one.
"""

import json
import pathlib

import pytest

from repro.obs import MetricsRegistry
from repro.pipeline import (
    ParallelOptions,
    StudyDataset,
    build_dataset,
    convert,
    detect_format,
)
from repro.store import ScanFilter, TraceStoreReader

from tests.helpers import (  # noqa: F401
    assert_same_analysis_state,
    in_process_pool,
    local_options,
)

pytestmark = pytest.mark.store

DATA = pathlib.Path(__file__).parent / "data"
TRACE = DATA / "golden_trace.jsonl.gz"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads((DATA / "golden_report.json").read_text())


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.store"
    convert(TRACE, path)
    return path


@pytest.fixture(scope="module")
def jsonl_dataset(snapshot):
    return build_dataset(TRACE, study_windows=snapshot["study_windows"])


@pytest.fixture(scope="module")
def store_dataset(golden_store, snapshot):
    return build_dataset(golden_store, study_windows=snapshot["study_windows"])


class TestGoldenEquivalence:
    def test_conversion_preserves_stream_exactly(self, golden_store):
        from repro.pipeline import read_samples

        assert detect_format(golden_store) == "store"
        assert list(read_samples(golden_store)) == list(read_samples(TRACE))

    def test_store_backed_serial_equals_jsonl_serial(
        self, jsonl_dataset, store_dataset
    ):
        assert_same_analysis_state(store_dataset, jsonl_dataset)

    def test_shared_counters_agree_across_formats(
        self, jsonl_dataset, store_dataset
    ):
        """Counters that describe the *data* (not the storage) must not
        depend on which format fed the pipeline."""
        a = jsonl_dataset.metrics.counters
        b = store_dataset.metrics.counters
        shared = {
            name
            for name in a.keys() & b.keys()
            if not name.startswith("store.")
        }
        assert {n for n in a if not n.startswith("store.")} == shared
        for name in shared:
            assert a[name] == b[name], name

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_store_backed_parallel_equals_serial(
        self, golden_store, store_dataset, snapshot, executor, local_options
    ):
        # The same 4-shard plan: inline, pooled on threads, pooled for real.
        parallel = build_dataset(
            golden_store,
            study_windows=snapshot["study_windows"],
            options=local_options(executor, shards=4),
        )
        assert_same_analysis_state(parallel, store_dataset)
        # The full counter-equality invariant extends to store.* counters:
        # each partition is decoded exactly once whatever the shard plan.
        assert parallel.metrics.counters == store_dataset.metrics.counters
        assert parallel.metrics.gauges == store_dataset.metrics.gauges

    def test_figure_results_identical(
        self, jsonl_dataset, store_dataset
    ):
        from repro.pipeline import fig6_global_performance, fig9_opportunity

        fig6_a = fig6_global_performance(jsonl_dataset)
        fig6_b = fig6_global_performance(store_dataset)
        assert fig6_a.median_minrtt == fig6_b.median_minrtt
        assert fig6_a.p80_minrtt == fig6_b.p80_minrtt
        assert (
            fig6_a.hdratio_positive_fraction
            == fig6_b.hdratio_positive_fraction
        )
        fig9_a = fig9_opportunity(jsonl_dataset)
        fig9_b = fig9_opportunity(store_dataset)
        assert fig9_a.minrtt.differences == fig9_b.minrtt.differences
        assert (
            fig9_a.minrtt.valid_traffic_fraction
            == fig9_b.minrtt.valid_traffic_fraction
        )

    def test_build_dataset_accepts_str_store_paths(
        self, golden_store, store_dataset, snapshot
    ):
        via_str = build_dataset(
            str(golden_store), study_windows=snapshot["study_windows"]
        )
        assert_same_analysis_state(via_str, store_dataset)


class TestPredicatePushdown:
    def test_filtered_build_decodes_strictly_fewer_bytes(self, golden_store):
        reader = TraceStoreReader(golden_store)
        # Pick the PoP of the first partition so the filter matches some
        # but (given >1 PoP in the golden trace) not all partitions.
        pop = reader.partitions[0]["pop"]
        pops = {p["pop"] for p in reader.partitions}
        assert len(pops) > 1, "golden trace must span multiple PoPs"

        full = MetricsRegistry()
        list(reader.scan(metrics=full))
        filtered = MetricsRegistry()
        list(reader.scan(ScanFilter(pops=pop), metrics=filtered))

        assert filtered.counter("store.partitions.pruned") > 0
        assert filtered.counter("store.bytes.skipped") > 0
        assert filtered.counter("store.bytes.read") < full.counter(
            "store.bytes.read"
        )
        assert filtered.counter("store.rows.decoded") < full.counter(
            "store.rows.decoded"
        )

    def test_filtered_dataset_equals_filtering_after_read(
        self, golden_store, snapshot
    ):
        from repro.pipeline import read_samples

        reader = TraceStoreReader(golden_store)
        scan_filter = ScanFilter(pops=reader.partitions[0]["pop"])
        pushed = StudyDataset(study_windows=snapshot["study_windows"])
        pushed.ingest(reader.scan(scan_filter))
        plain = StudyDataset(study_windows=snapshot["study_windows"])
        plain.ingest(
            s for s in read_samples(TRACE) if scan_filter.admits_sample(s)
        )
        assert pushed.rows == plain.rows
        assert [k for k, _ in pushed.store.items()] == [
            k for k, _ in plain.store.items()
        ]

    def test_scan_filter_on_jsonl_is_rejected(self):
        # JSONL has no pushdown to give: a filtered scan needs a store.
        with pytest.raises(ValueError, match="not a trace store"):
            TraceStoreReader(TRACE).scan(ScanFilter(pops="ams1"))
