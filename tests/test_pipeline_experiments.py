"""Tests for the figure drivers (1–7) on a small synthetic dataset."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.dataset import StudyDataset
from repro.pipeline.experiments import (
    CONTINENT_CODES,
    CdfSeries,
    ablation_naive_goodput,
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig5_population_mix,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
)
from repro.stats.weighted import percentile
from repro.workload.scenario import EdgeScenario, ScenarioConfig

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
        copy = StudyDataset(study_windows=1)
        copy.rows = rows
        result = fig6_global_performance(copy)
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
