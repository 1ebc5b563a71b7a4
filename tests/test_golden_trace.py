"""Golden-trace regression: the committed fixture must keep its numbers.

``tests/data/golden_trace.jsonl.gz`` is a small deterministic session trace
and ``golden_report.json`` the fig6/fig8/fig9 numbers it produced when
committed. Any refactor of the ingestion, aggregation, or comparison layers
that shifts these numbers — even in the last float bit — fails here and has
to either be fixed or regenerate the fixture *deliberately* (see
``tests/data/make_golden.py``). The sharded runs read the trace
converted to a columnar store, the only source a sharded plan reads.
"""

import json
import pathlib

import pytest

from repro.pipeline import (
    ParallelOptions,
    StudyDataset,
    build_dataset,
    fig6_global_performance,
    fig8_degradation,
    fig9_opportunity,
    read_samples,
)

from repro.pipeline.io import convert

from tests.helpers import data_counters, in_process_pool  # noqa: F401

DATA = pathlib.Path(__file__).parent / "data"
TRACE = DATA / "golden_trace.jsonl.gz"

exact = pytest.approx  # readability: approx with tight rel below means "exact"


@pytest.fixture(scope="module")
def snapshot():
    return json.loads((DATA / "golden_report.json").read_text())


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("golden") / "golden.store"
    convert(TRACE, store)
    return store


@pytest.fixture(scope="module")
def dataset(snapshot):
    dataset = StudyDataset(study_windows=snapshot["study_windows"])
    return dataset.ingest(read_samples(TRACE))


def assert_matches_snapshot(dataset: StudyDataset, snapshot: dict) -> None:
    assert dataset.session_count == snapshot["session_count"]
    assert dataset.filter_stats.dropped_sessions == snapshot["dropped_sessions"]
    assert dataset.filter_stats.kept_bytes == snapshot["kept_bytes"]
    assert len(dataset.store) == snapshot["aggregation_count"]
    assert len(dataset.store.groups()) == snapshot["group_count"]
    assert dataset.store.windows() == snapshot["windows"]

    fig6 = fig6_global_performance(dataset)
    expected6 = snapshot["fig6"]
    assert fig6.median_minrtt == exact(expected6["median_minrtt"], rel=1e-12)
    assert fig6.p80_minrtt == exact(expected6["p80_minrtt"], rel=1e-12)
    assert fig6.hdratio_positive_fraction == exact(
        expected6["hdratio_positive_fraction"], rel=1e-12
    )
    for code, value in expected6["continent_median_minrtt"].items():
        assert fig6.continent_median_minrtt(code) == exact(value, rel=1e-12)

    fig8 = fig8_degradation(dataset)
    expected8 = snapshot["fig8"]
    assert fig8.minrtt.valid_traffic_fraction == exact(
        expected8["minrtt_valid_traffic_fraction"], rel=1e-12
    )
    assert fig8.minrtt.differences == exact(
        expected8["minrtt_differences"], rel=1e-12
    )
    assert fig8.hdratio.total_traffic == exact(
        expected8["hdratio_total_traffic"], rel=1e-12
    )

    fig9 = fig9_opportunity(dataset)
    expected9 = snapshot["fig9"]
    assert fig9.minrtt.valid_traffic_fraction == exact(
        expected9["minrtt_valid_traffic_fraction"], rel=1e-12
    )
    assert fig9.minrtt.differences == exact(
        expected9["minrtt_differences"], rel=1e-12
    )


class TestGoldenTrace:
    def test_fixture_is_present_and_nontrivial(self, snapshot):
        assert TRACE.exists()
        assert snapshot["session_count"] > 500
        # The fixture must carry actual CI-gated comparison signal, or the
        # regression test would not notice a broken comparison layer.
        assert snapshot["fig8"]["minrtt_differences"]
        assert snapshot["fig9"]["minrtt_differences"]

    def test_serial_pipeline_matches_snapshot(self, dataset, snapshot):
        assert_matches_snapshot(dataset, snapshot)

    def test_parallel_pipeline_matches_snapshot(self, golden_store, snapshot):
        parallel = build_dataset(
            golden_store,
            study_windows=snapshot["study_windows"],
            options=ParallelOptions(workers=1, shards=3),
        )
        assert_matches_snapshot(parallel, snapshot)

    @pytest.mark.usefixtures("in_process_pool")
    def test_parallel_equals_serial_exactly(
        self, dataset, golden_store, snapshot
    ):
        parallel = build_dataset(
            golden_store,
            study_windows=snapshot["study_windows"],
            options=ParallelOptions(workers=2, shards=4),
        )
        assert parallel.rows == dataset.rows
        assert [k for k, _ in parallel.store.items()] == [
            k for k, _ in dataset.store.items()
        ]


class TestGoldenMethodologyCounters:
    """The observability counters must agree with the §3.2 classifier.

    ``methodology.*`` counters are incremented as a side effect of
    ingestion; here they are checked against an independent per-session
    recompute straight through :func:`repro.core.hdratio.session_goodput`
    over the same golden trace.
    """

    @pytest.fixture(scope="class")
    def counted(self, snapshot):
        return build_dataset(TRACE, study_windows=snapshot["study_windows"])

    @pytest.fixture(scope="class")
    def expected_funnel(self, snapshot):
        from repro.core.hdratio import session_goodput

        probe = StudyDataset(study_windows=snapshot["study_windows"])
        funnel = {
            "raw": 0, "coalesced": 0, "inflight_dropped": 0,
            "gtestable": 0, "achieved": 0, "hd_testable": 0,
        }
        for sample in read_samples(TRACE):
            if not probe.ingest_one(sample) or not sample.transactions:
                continue
            summary = session_goodput(sample.transactions, sample.min_rtt_seconds)
            funnel["raw"] += summary.raw_count
            funnel["coalesced"] += summary.merged_away
            funnel["inflight_dropped"] += summary.inflight_dropped
            funnel["gtestable"] += summary.tested
            funnel["achieved"] += summary.achieved
            funnel["hd_testable"] += 1 if summary.tested else 0
        return funnel

    def test_gtestable_achieved_coalesced_match_classifier(
        self, counted, expected_funnel
    ):
        counters = counted.metrics.counters
        assert (
            counters["methodology.transactions.gtestable"]
            == expected_funnel["gtestable"]
        )
        assert (
            counters["methodology.transactions.achieved"]
            == expected_funnel["achieved"]
        )
        assert (
            counters["methodology.transactions.coalesced"]
            == expected_funnel["coalesced"]
        )
        assert (
            counters["methodology.transactions.inflight_dropped"]
            == expected_funnel["inflight_dropped"]
        )
        assert counters["methodology.transactions.raw"] == expected_funnel["raw"]
        assert (
            counters["methodology.sessions.hd_testable"]
            == expected_funnel["hd_testable"]
        )

    def test_funnel_is_nontrivial_and_monotone(self, counted):
        counters = counted.metrics.counters
        # The golden fixture must exercise every classifier stage, or this
        # test could not catch a broken one.
        assert counters["methodology.transactions.gtestable"] > 0
        assert counters["methodology.sessions.hd_testable"] > 0
        assert (
            counters["methodology.transactions.raw"]
            >= counters["methodology.transactions.gtestable"]
            >= counters["methodology.transactions.achieved"]
        )

    @pytest.mark.usefixtures("in_process_pool")
    def test_parallel_counters_match_serial_on_golden_trace(
        self, counted, golden_store, snapshot
    ):
        windows = snapshot["study_windows"]
        serial = build_dataset(golden_store, study_windows=windows)
        parallel = build_dataset(
            golden_store,
            study_windows=windows,
            options=ParallelOptions(workers=2, shards=3),
        )
        assert parallel.metrics.counters == serial.metrics.counters
        assert parallel.metrics.gauges == counted.metrics.gauges
        # Only the read counters tell the store from the JSONL it came from.
        assert data_counters(parallel) == data_counters(counted)
