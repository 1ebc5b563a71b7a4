"""Tests for dataset building and filtering."""

import pytest

from repro.core.records import HttpVersion, SessionSample, TransactionRecord
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.filters import FilterStats, record_sample

from tests.helpers import make_route, make_sample


def hosting_sample(end_time=10.0):
    sample = make_sample(end_time, 40.0)
    sample.client_ip_is_hosting = True
    return sample


class TestFilter:
    def test_drops_hosting(self):
        stats = FilterStats()
        samples = [make_sample(1.0, 40.0), hosting_sample(), make_sample(2.0, 40.0)]
        kept = [sample for sample in samples if record_sample(sample, stats)]
        assert len(kept) == 2
        assert stats.dropped_sessions == 1
        assert stats.kept_sessions == 2

    def test_traffic_fraction(self):
        stats = FilterStats()
        keep = make_sample(1.0, 40.0, bytes_sent=980_000)
        drop = hosting_sample()
        drop.bytes_sent = 20_000
        assert [record_sample(sample, stats) for sample in (keep, drop)] == [True, False]
        assert stats.dropped_traffic_fraction == pytest.approx(0.02)

    def test_empty_stream(self):
        assert FilterStats().dropped_traffic_fraction == 0.0


class TestStudyDataset:
    def _sample_with_txns(self, end_time=10.0):
        sample = make_sample(end_time, 60.0)
        sample.transactions = [
            TransactionRecord(
                first_byte_time=0.0,
                ack_time=0.12,
                response_bytes=150_000,
                last_packet_bytes=1500,
                cwnd_bytes_at_first_byte=15_000,
            )
        ]
        return sample

    def test_ingest_counts(self):
        ds = StudyDataset(study_windows=96)
        ds.ingest([make_sample(1.0, 40.0), self._sample_with_txns(2.0)])
        assert ds.session_count == 2
        assert len(ds.store) == 1  # same group/window/rank

    def test_hosting_filtered_out(self):
        ds = StudyDataset(study_windows=96)
        ds.ingest([hosting_sample(), make_sample(1.0, 40.0)])
        assert ds.session_count == 1
        assert ds.filter_stats.dropped_sessions == 1

    def test_hdratio_computed_once_and_stored(self):
        ds = StudyDataset(study_windows=96)
        ds.ingest([self._sample_with_txns()])
        row = ds.rows[0]
        assert row.hdratio == 1.0
        agg = ds.store.all_aggregations()[0]
        assert agg.hdratios == [1.0]

    def test_sessions_without_transactions_have_no_hdratio(self):
        ds = StudyDataset(study_windows=96)
        ds.ingest([make_sample(1.0, 40.0)])
        assert ds.rows[0].hdratio is None
        assert [row for row in ds.rows if row.hdratio is not None] == []

    def test_naive_hdratio_optional(self):
        ds = StudyDataset(study_windows=96, compute_naive=True)
        ds.ingest([self._sample_with_txns()])
        assert ds.rows[0].naive_hdratio is not None

        ds_off = StudyDataset(study_windows=96)
        ds_off.ingest([self._sample_with_txns()])
        assert ds_off.rows[0].naive_hdratio is None

    def test_response_sizes_toggle(self):
        with_sizes = StudyDataset(study_windows=96)
        with_sizes.ingest([self._sample_with_txns()])
        assert with_sizes.rows[0].response_sizes == (150_000,)

        without = StudyDataset(study_windows=96, keep_response_sizes=False)
        without.ingest([self._sample_with_txns()])
        assert without.rows[0].response_sizes == ()

    def test_rows_for_continent(self):
        ds = StudyDataset(study_windows=96)
        eu = make_sample(1.0, 40.0)
        eu.client_continent = "EU"
        af = make_sample(2.0, 80.0)
        af.client_continent = "AF"
        ds.ingest([eu, af])
        assert sorted(row.continent for row in ds.rows) == ["AF", "EU"]

    def test_invalid_study_windows(self):
        with pytest.raises(ValueError):
            StudyDataset(study_windows=0)
