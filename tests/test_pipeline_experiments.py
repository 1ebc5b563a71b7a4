"""Tests for the figure drivers (1–7) on a small synthetic dataset."""

import bisect
import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import build_dataset
from repro.pipeline.dataset import SessionRow, StudyDataset
from repro.pipeline.table import SessionChunk
from repro.pipeline.experiments import (
    CONTINENT_CODES,
    CdfSeries,
    Fig1Result,
    Fig2Result,
    Fig6Result,
    ablation_naive_goodput,
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig5_population_mix,
    fig6_global,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
)
from repro.stats.weighted import percentile
from repro.workload.scenario import EdgeScenario, ScenarioConfig
from tests.helpers import ecdf, make_route, make_sample, make_trace_samples

# Three networks per metro: per-continent statistics need a few networks to
# average over their (random) dominant access classes.
SMALL = ScenarioConfig(
    seed=13,
    days=1,
    networks_per_metro=3,
    base_sessions_per_window=3.0,
    include_figure5_network=True,
)


@pytest.fixture(scope="module")
def dataset():
    scenario = EdgeScenario(SMALL)
    ds = StudyDataset(study_windows=SMALL.total_windows, compute_naive=True)
    ds.ingest(scenario.generate())
    return ds


@pytest.fixture(scope="module")
def fig5_samples():
    # Dense sampling of just the dual-metro network: the per-window median
    # split needs tens of sessions per window.
    config = dataclasses.replace(
        SMALL, networks_per_metro=1, base_sessions_per_window=30.0
    )
    scenario = EdgeScenario(config)
    fig5_state = next(
        s for s in scenario.networks if s.network.secondary_metro is not None
    )
    scenario.networks = [fig5_state]
    return list(scenario.generate())


class TestCdfSeries:
    def test_of_and_queries(self):
        series = CdfSeries.of("x", [1.0, 2.0, 3.0, 4.0])
        assert series.fraction_at_most(2.0) == pytest.approx(0.5)
        assert series.fraction_at_most(0.5) == 0.0
        assert series.quantile(0.5) == pytest.approx(2.5)

    def test_empty_series_has_no_quantile(self):
        empty = CdfSeries.of("x", [])
        assert empty.quantile(0.5) is None
        assert empty.fraction_at_most(1.0) == 0.0

    @pytest.mark.parametrize("q", [-0.01, 1.01, float("nan")])
    def test_out_of_range_quantile_rejected(self, q):
        with pytest.raises(ValueError):
            CdfSeries.of("x", [1.0, 2.0]).quantile(q)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-10**6, 10**6),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_is_percentile_bit_for_bit(self, values, q):
        # quantile interpolates over the series' own sorted xs; percentile
        # sorts first — same arithmetic, so the same bits, not approx.
        assert CdfSeries.of("x", values).quantile(q) == percentile(values, 100 * q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
            st.lists(st.integers(-(2**53), 2**53), max_size=40),
            # Few distinct values: duplicates in nearly every example.
            st.lists(st.sampled_from((0, 1, 4, 0.0, 0.5, 1.0, 1e6)), max_size=40),
        ),
        st.lists(st.floats(allow_nan=False), max_size=4),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_the_stored_fraction_oracle(self, values, others, q):
        """Fractions derived from positions equal the ECDF's stored ones,
        ``==`` not approx, at every value (ties included) and between."""
        series = CdfSeries.of("x", values)
        thresholds = [*values, *map(float, values), *others]
        if not values:
            assert list(series.xs) == [] and series.quantile(q) is None
            assert all(series.fraction_at_most(t) == 0.0 for t in thresholds)
            assert series.fraction_above(0.0) is None
            return
        xs, fractions = ecdf(values)
        assert list(series.xs) == xs
        for threshold in thresholds:
            index = bisect.bisect_right(xs, threshold)
            expected = fractions[index - 1] if index else 0.0
            assert series.fraction_at_most(threshold) == expected
            assert series.fraction_above(threshold) == 1.0 - expected
        assert type(series.quantile(q)) is float

    def test_integer_series_keep_their_ints(self):
        series = CdfSeries.of("bytes", [10_000, 3, 10_000])
        assert list(series.xs) == [3, 10_000, 10_000]
        assert all(type(x) is int for x in series.xs)
        assert series.quantile(0.0) == 3.0 and type(series.quantile(0.0)) is float
        assert type(CdfSeries.of("one", [7]).quantile(0.5)) is float


def _rows(**columns):
    """SessionRows with the given columns and neutral values elsewhere."""
    count = len(next(iter(columns.values())))
    base = dict(
        min_rtt_ms=[20.0] * count, hdratio=[None] * count,
        naive_hdratio=[None] * count, bytes_sent=[1] * count,
        duration=[1.0] * count, busy_fraction=[1.0] * count,
        transaction_count=[1] * count, is_http2=[False] * count,
        continent=["EU"] * count, geo_tag=[""] * count,
        response_sizes=[()] * count, media_bytes=[()] * count,
    )
    base.update(columns)
    return [SessionRow(*values) for values in zip(*base.values())]


def _dataset(rows):
    """A dataset whose table holds ``rows``, one chunk filled as the row
    oracle fills it."""
    dataset = StudyDataset(study_windows=1)
    chunk = SessionChunk()
    for key, row in enumerate(rows):
        chunk.add(key, *row)
    dataset.table.chunks.append(chunk)
    assert list(dataset.rows) == rows
    return dataset


class TestExactThresholds:
    """Each headline share at a value exactly on its threshold: ``at most``
    counts the value, ``over`` / ``under`` the rest."""

    def test_fig1_durations_on_1_60_and_180_seconds(self):
        durations = [0.5, 1.0, 1.5, 59.0, 60.0, 61.0, 180.0, 181.0]
        busy = [0.05, 0.10, 0.10, 0.2, 0.5, 0.9, 1.0, 1.0]
        result = fig1_session_behaviour(
            _dataset(_rows(duration=durations, busy_fraction=busy))
        )
        assert result.under_one_second == 2 / 8
        assert result.under_one_minute == 5 / 8
        assert result.over_three_minutes == 1.0 - 7 / 8
        assert result.mostly_idle_fraction == 3 / 8

    def test_fig2_bytes_on_10kb_and_1mb(self):
        sent = [0, 5_000, 10_000, 10_001, 999_999, 1_000_000, 1_000_001]
        result = fig2_transfer_sizes(_dataset(_rows(bytes_sent=sent)))
        # A session that sent nothing is not on the curve.
        assert len(result.session_bytes) == 6
        assert result.sessions_under_10kb == 2 / 6
        assert result.sessions_over_1mb == 1.0 - 5 / 6

    def test_fig2_untagged_media_threshold_is_inclusive(self):
        rows = _rows(response_sizes=[(11_999, 12_000), (12_001,)])
        result = fig2_transfer_sizes(_dataset(rows))
        assert list(result.media_response_bytes.xs) == [12_000, 12_001]
        assert result.median_response == 12_000.0

    def test_fig3_on_4_and_50_transactions(self):
        counts = [4, 5, 49, 50]
        sent = [1, 1, 1, 7]
        result = fig3_transaction_counts(
            _dataset(_rows(transaction_count=counts, bytes_sent=sent))
        )
        assert result.h1_under_5 == 1 / 4
        assert result.heavy_session_byte_share == 7 / 10

    def test_fig6_hdratio_on_0_and_1(self):
        hd = [0.0, 0.0, 0.5, 0.999, 1.0, 1.0]
        result = fig6_global_performance(_dataset(_rows(hdratio=hd)))
        assert result.hdratio_positive_fraction == 1.0 - 2 / 6
        assert result.hdratio_full_fraction == 2 / 6
        assert result.continent_zero_hd_fraction("EU") == 2 / 6

    def test_fig7_bucket_edges_belong_below(self):
        rtts = [30.0, 30.5, 50.0, 80.0, 80.5]
        result = fig7_rtt_vs_hdratio(
            _dataset(_rows(min_rtt_ms=rtts, hdratio=[1.0] * 5))
        )
        sizes = {k: len(v) for k, v in result.hdratio_by_bucket.items()}
        assert sizes == {"0-30": 1, "31-50": 2, "51-80": 1, "81+": 1}

    def test_empty_buckets_stay_empty(self):
        # Over no sessions, and over a study with no session in 31-50 ms:
        # an empty bucket or media list is an empty series (rendered n/a),
        # never the one-value series [0.0].
        fig7 = fig7_rtt_vs_hdratio(build_dataset([], study_windows=96))
        assert {k: len(v) for k, v in fig7.hdratio_by_bucket.items()} == {
            "0-30": 0, "31-50": 0, "51-80": 0, "81+": 0,
        }
        assert fig7.hdratio_by_bucket["0-30"].quantile(0.5) is None
        fig2 = fig2_transfer_sizes(build_dataset([], study_windows=96))
        assert list(fig2.media_response_bytes.xs) == []
        result = fig7_rtt_vs_hdratio(
            _dataset(_rows(min_rtt_ms=[10.0, 60.0, 90.0], hdratio=[0.5] * 3))
        )
        gap = result.hdratio_by_bucket["31-50"]
        assert list(gap.xs) == [] and gap.fraction_above(0.0) is None
        assert list(result.hdratio_by_bucket["51-80"].xs) == [0.5]

    def test_fig5_takes_preferred_routes_in_windows_of_five(self):
        def sessions(window, rtt_ms, rank, count):
            route = make_route("198.51.0.0/16", rank=rank)
            return [
                dataclasses.replace(
                    make_sample(window * 900.0 + 10.0, rtt_ms, route=route),
                    geo_tag="sanfrancisco",
                )
                for _ in range(count)
            ]

        result = fig5_population_mix(
            sessions(0, 20.0, 0, 5) + sessions(0, 90.0, 1, 5)
            + sessions(1, 20.0, 0, 4)
        )
        assert result.windows == [0, 1]
        assert result.all_clients == [20.0, None]
        assert result.primary_clients == [20.0, None]
        assert result.secondary_clients == [None, None]

    def test_empty_study_has_no_share_over_a_threshold(self):
        empty = CdfSeries.of("all", [])
        fig1 = Fig1Result(*[empty] * 6)
        assert fig1.over_three_minutes is None
        assert fig1.under_one_second == 0.0
        assert Fig2Result(empty, empty, empty).sessions_over_1mb is None
        fig6 = Fig6Result(empty, empty, {}, {})
        assert fig6.hdratio_positive_fraction is None
        assert fig6.hdratio_full_fraction == 0.0


def test_figure_results_hold_little_per_session():
    """The CDF drivers' results retain each distribution once: sorted
    values only, ints kept as ints. Storing a fraction beside every value
    and a float copy of every byte count held ~720 B per session here."""
    dataset = build_dataset(make_trace_samples(3000, seed=3), study_windows=8)
    drivers = (
        fig1_session_behaviour, fig2_transfer_sizes, fig3_transaction_counts,
        fig6_global_performance, fig7_rtt_vs_hdratio,
    )
    for driver in drivers:
        driver(dataset)  # first-call imports and caches stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [driver(dataset) for driver in drivers]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == len(drivers)
    assert retained / len(dataset.rows) < 250


class TestFig1(object):
    def test_checkpoints_near_paper(self, dataset):
        result = fig1_session_behaviour(dataset)
        assert 0.03 < result.under_one_second < 0.13
        assert 0.25 < result.under_one_minute < 0.50
        assert 0.12 < result.over_three_minutes < 0.40

    def test_sessions_mostly_idle(self, dataset):
        result = fig1_session_behaviour(dataset)
        assert result.mostly_idle_fraction > 0.6

    def test_h1_sessions_shorter(self, dataset):
        result = fig1_session_behaviour(dataset)
        assert result.duration_h1.fraction_at_most(60.0) > (
            result.duration_h2.fraction_at_most(60.0)
        )


class TestFig2:
    def test_size_checkpoints(self, dataset):
        result = fig2_transfer_sizes(dataset)
        assert result.sessions_under_10kb > 0.35
        assert 0.0 < result.sessions_over_1mb < 0.15
        assert result.median_response < 6000

    def test_media_responses_larger(self, dataset):
        result = fig2_transfer_sizes(dataset)
        assert result.media_response_bytes.quantile(0.5) > (
            result.response_bytes.quantile(0.5)
        )


class TestFig3:
    def test_transaction_checkpoints(self, dataset):
        result = fig3_transaction_counts(dataset)
        assert result.h1_under_5 == pytest.approx(0.87, abs=0.08)
        assert result.h2_under_5 == pytest.approx(0.75, abs=0.08)
        assert result.h1_under_5 > result.h2_under_5

    def test_heavy_sessions_carry_bulk(self, dataset):
        result = fig3_transaction_counts(dataset)
        assert result.heavy_session_byte_share > 0.35


class TestFig5:
    def test_split_series_present(self, fig5_samples):
        result = fig5_population_mix(fig5_samples)
        assert result.windows
        assert any(v is not None for v in result.all_clients)

    def test_regions_have_distinct_latency(self, fig5_samples):
        # Hawaii clients are ~4000 km from sjc1; California ~0 km.
        primary = [
            s.min_rtt_ms for s in fig5_samples if s.geo_tag == "sanfrancisco"
        ]
        secondary = [
            s.min_rtt_ms for s in fig5_samples if s.geo_tag == "honolulu"
        ]
        assert primary and secondary
        from repro.stats.weighted import percentile

        assert percentile(secondary, 50.0) > percentile(primary, 50.0) + 20.0

    def test_combined_median_moves(self, fig5_samples):
        result = fig5_population_mix(fig5_samples)
        assert result.spread() > 5.0


class TestFig6:
    def test_global_medians(self, dataset):
        result = fig6_global_performance(dataset)
        assert 25.0 < result.median_minrtt < 55.0   # paper: 39 ms
        assert result.p80_minrtt < 110.0            # paper: 78 ms
        assert result.hdratio_positive_fraction > 0.75  # paper: 82%

    def test_continent_ordering(self, dataset):
        result = fig6_global_performance(dataset)
        af = result.continent_median_minrtt("AF")
        eu = result.continent_median_minrtt("EU")
        assert af > eu + 15.0

    def test_zero_hd_concentration(self, dataset):
        result = fig6_global_performance(dataset)
        assert result.continent_zero_hd_fraction("AF") > (
            result.continent_zero_hd_fraction("EU") + 0.1
        )

    def test_one_pass_equals_a_filter_per_continent(self, dataset):
        """The grouping pass builds the lists a filter per continent and
        view builds, in the same order — an unknown continent and an empty
        one included."""
        rows = list(dataset.rows)
        rows.append(rows[0]._replace(continent="??"))
        rows = [row for row in rows if row.continent != "OC"]
        result = fig6_global_performance(_dataset(rows))
        hd_rows = [row for row in rows if row.hdratio is not None]
        expected_minrtt, expected_hd = {}, {}
        for code in CONTINENT_CODES:
            minrtts = [row.min_rtt_ms for row in rows if row.continent == code]
            hdratios = [row.hdratio for row in hd_rows if row.continent == code]
            if minrtts:
                expected_minrtt[code] = CdfSeries.of(code, minrtts)
            if hdratios:
                expected_hd[code] = CdfSeries.of(code, hdratios)
        assert "OC" not in expected_minrtt and len(expected_minrtt) >= 4
        assert result.minrtt_all == CdfSeries.of("all", [r.min_rtt_ms for r in rows])
        assert result.hdratio_all == CdfSeries.of("all", [r.hdratio for r in hd_rows])
        assert list(result.minrtt_by_continent.items()) == list(
            expected_minrtt.items()
        )
        assert list(result.hdratio_by_continent.items()) == list(expected_hd.items())

    def test_the_global_series_alone_equal_the_full_figures(self, dataset):
        # /v1/quantiles serves fig6_global; its numbers are fig6's own.
        for study in (dataset, build_dataset([], study_windows=96)):
            full, alone = fig6_global_performance(study), fig6_global(study)
            assert (alone.minrtt_all, alone.hdratio_all) == (
                full.minrtt_all, full.hdratio_all
            )
            assert alone.minrtt_by_continent == alone.hdratio_by_continent == {}


class TestFig7:
    def test_hdratio_degrades_with_latency(self, dataset):
        result = fig7_rtt_vs_hdratio(dataset)
        low = result.hdratio_by_bucket["0-30"]
        high = result.hdratio_by_bucket["81+"]
        # Low-latency sessions reach HDratio=1 far more often.
        assert (1 - low.fraction_at_most(0.999)) > (1 - high.fraction_at_most(0.999))

    def test_all_buckets_present(self, dataset):
        result = fig7_rtt_vs_hdratio(dataset)
        assert set(result.hdratio_by_bucket) == {"0-30", "31-50", "51-80", "81+"}


class TestAblation:
    def test_naive_underestimates(self, dataset):
        result = ablation_naive_goodput(dataset)
        assert result.naive_median_hdratio <= result.model_median_hdratio
        assert result.sessions > 100

    def test_requires_naive_values(self):
        empty = StudyDataset(study_windows=10)
        with pytest.raises(ValueError):
            ablation_naive_goodput(empty)
