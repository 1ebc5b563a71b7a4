"""Differential oracle: ``build_dataset`` must equal the row fold exactly.

The row path (the serial per-sample ``StudyDataset.ingest`` over
:mod:`repro.core`) is the reference implementation of the §3.2
methodology; the column-batch kernels in :mod:`repro.kernels` — the only
path ``build_dataset`` runs — are a from-scratch reimplementation of the
same math over decoded column arrays. No option selects the row fold; it
is called from here. This harness asserts the two produce **identical**
output — rows, filter accounting, observability counters, gauges,
aggregation contents, figure/report numbers, and run-manifest accounting —
across the full execution matrix:

    {serial, workers=4} x {columnar store} + {serial} x {jsonl trace}

on the committed golden trace (a workers=4 plan over JSONL is refused: a
sharded plan reads a store), plus in-memory sources and the
``compute_naive`` ablation. Everything here is exact equality (``==`` on
floats): the kernels are required to perform the same float operations in
the same order as the row path, not merely approximate it. When one of
these tests fails, ``tests/test_kernels_property.py`` names the kernel.
"""

import pathlib

import pytest

from tests.helpers import (  # noqa: F401 — fixtures are used by name
    in_process_pool,
    make_trace_samples,
    row_oracle,
    write_trace_paths,
)
from repro.obs import RunManifest
from repro.pipeline import (
    ParallelOptions,
    StudyDataset,
    ablation_naive_goodput,
    build_dataset,
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
    fig8_degradation,
    fig9_opportunity,
    fig10_relationship_comparison,
    read_samples,
    table1_temporal_classes,
    table2_opportunity_relationships,
)
from repro.store import write_store

# The workers=4 plans run the pool's shards on threads of this process.
pytestmark = [pytest.mark.kernels, pytest.mark.usefixtures("in_process_pool")]

DATA = pathlib.Path(__file__).parent / "data"
TRACE = DATA / "golden_trace.jsonl.gz"
STUDY_WINDOWS = 4

SERIAL = None
WORKERS4 = {"workers": 4, "shards": 4}


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """The golden trace converted once into a columnar store."""
    store = tmp_path_factory.mktemp("equivalence") / "golden.store"
    write_store(store, read_samples(TRACE))
    return store


def build(source, options=None, **kwargs):
    parallel = ParallelOptions(**options) if options else None
    return build_dataset(
        source, study_windows=STUDY_WINDOWS, options=parallel, **kwargs
    )


def oracle(source, **kwargs):
    """The reference: one serial per-sample row fold, whatever the plan."""
    return row_oracle(source, study_windows=STUDY_WINDOWS, **kwargs)


def dataset_facts(dataset: StudyDataset, store_source: bool):
    """Everything deterministic a dataset exposes, as one comparable value.

    For store sources the *within*-aggregation raw sample order is not
    pinned (partitions interleave sequence ranges, and the parallel row
    merge folds them piece-wise), so per-aggregation lists are
    compared as sorted multisets there; jsonl and in-memory sources are
    compared with raw order intact. Every derived statistic is an order
    statistic or a sum, so the figure-level comparisons below stay exact
    either way.
    """
    normalize = sorted if store_source else list
    return (
        dataset.rows,
        dataset.filter_stats,
        dataset.metrics.counters,
        [key for key, _ in dataset.store.items()],
        dataset.store.windows(),
        sorted(dataset.store.groups(), key=str),
        [
            (
                aggregation.group,
                aggregation.window,
                aggregation.route,
                normalize(aggregation.min_rtts_ms),
                normalize(aggregation.hdratios),
                aggregation.traffic_bytes,
                aggregation.session_count,
            )
            for aggregation in dataset.store.all_aggregations()
        ],
    )


def figure_facts(dataset: StudyDataset):
    """All figure/table driver outputs (dataclasses with exact equality)."""
    return (
        fig1_session_behaviour(dataset),
        fig2_transfer_sizes(dataset),
        fig3_transaction_counts(dataset),
        fig6_global_performance(dataset),
        fig7_rtt_vs_hdratio(dataset),
        fig8_degradation(dataset),
        fig9_opportunity(dataset),
        fig10_relationship_comparison(dataset),
        table1_temporal_classes(dataset),
        table2_opportunity_relationships(dataset),
    )


def manifest_facts(dataset: StudyDataset):
    """The run-manifest view of a dataset: accounting + degradation."""
    manifest = RunManifest.collect("analyze", registry=dataset.metrics)
    return manifest.sample_accounting(), manifest.degraded


def assert_shape_gauges(built: StudyDataset, row: StudyDataset):
    """``build_dataset``'s dataset-shape gauges, against the oracle's shape."""
    assert built.metrics.gauges == {
        "pipeline.rows": len(row.rows),
        "pipeline.aggregations": len(row.store),
        "pipeline.groups": len(row.store.groups()),
    }


def assert_equals_oracle(source, options, store_source=False, **kwargs):
    row = oracle(source, **kwargs)
    built = build(source, options, **kwargs)
    assert dataset_facts(built, store_source) == dataset_facts(row, store_source)
    assert_shape_gauges(built, row)
    assert figure_facts(built) == figure_facts(row)
    assert manifest_facts(built) == manifest_facts(row)


class TestGoldenTraceMatrix:
    """The golden-trace matrix: {serial, workers=4} x {jsonl, store}."""

    def test_jsonl_serial(self):
        assert_equals_oracle(TRACE, SERIAL)

    def test_jsonl_workers4(self):
        # JSONL folds in one pass; a sharded plan over it is refused unread.
        with pytest.raises(ValueError, match="repro convert"):
            build(TRACE, WORKERS4)

    def test_store_serial(self, golden_store):
        assert_equals_oracle(golden_store, SERIAL, store_source=True)

    def test_store_workers4(self, golden_store):
        assert_equals_oracle(golden_store, WORKERS4, store_source=True)


class TestCrossSourceConsistency:
    """A build over a store must also equal the row fold over the original
    jsonl, modulo the store.* read counters that only a store source emits."""

    def test_batch_store_equals_row_jsonl(self, golden_store):
        row = oracle(TRACE)
        batch = build(golden_store)
        assert batch.rows == row.rows
        assert batch.filter_stats == row.filter_stats
        row_counters = {
            name: value
            for name, value in row.metrics.counters.items()
            if not name.startswith("store.")
        }
        batch_counters = {
            name: value
            for name, value in batch.metrics.counters.items()
            if not name.startswith("store.")
        }
        assert batch_counters == row_counters
        assert figure_facts(batch) == figure_facts(row)


class TestInMemoryAndModes:
    """In-memory sources, the naive ablation, and dataset-shape knobs."""

    def test_in_memory_serial(self):
        samples = make_trace_samples(400)
        assert_equals_oracle(samples, SERIAL)

    def test_in_memory_sharded(self, tmp_path):
        # A sharded plan reads a store: the synthetic stream is saved as
        # one first, then held to the same oracle.
        paths = write_trace_paths(tmp_path, make_trace_samples(400))
        assert_equals_oracle(paths["store"], WORKERS4, store_source=True)

    def test_compute_naive_ablation(self):
        samples = make_trace_samples(300)
        row = oracle(samples, compute_naive=True)
        batch = build(samples, compute_naive=True)
        assert dataset_facts(batch, False) == dataset_facts(row, False)
        assert_shape_gauges(batch, row)
        assert ablation_naive_goodput(batch) == ablation_naive_goodput(row)

    def test_without_response_sizes(self):
        samples = make_trace_samples(300)
        assert_equals_oracle(samples, SERIAL, keep_response_sizes=False)

    def test_empty_source(self):
        row = oracle([])
        batch = build([])
        assert dataset_facts(batch, False) == dataset_facts(row, False)
        assert_shape_gauges(batch, row)
        assert manifest_facts(batch) == manifest_facts(row)


class TestEngineSelection:
    """There is none: every engine name is unknown to ``build_dataset``, and
    the row fold is reachable from tests only."""

    def test_unknown_engine_rejected(self):
        for engine in ("row", "batch", "vector"):
            with pytest.raises(TypeError, match="engine"):
                build_dataset([], study_windows=1, engine=engine)

    def test_row_fold_has_no_caller_under_src(self):
        """The oracle is only an oracle: nothing under ``src/repro`` calls
        ``.ingest(...)`` / ``.ingest_one(...)`` except ``ingest`` itself, so
        no production path can drift onto the fold it is refereed by."""
        import ast

        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        callers = [
            f"{path.relative_to(src)}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            if path.relative_to(src) != pathlib.Path("pipeline/dataset.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("ingest", "ingest_one")
        ]
        assert callers == []
