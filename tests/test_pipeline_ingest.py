"""Streaming ingest must replay byte-identical to the batch engine.

The standing invariant (DESIGN.md §11): a live stream pushed through
:class:`StreamingIngestor` — in order or shuffled within the lateness
bound — produces the same dataset, the same data-fact counters, and the
same figures as a batch re-scan of the sealed output store; the store
itself is byte-identical across admissible arrival orders. Plus the
watermark mechanics: gapless monotone sealing, late samples ledgered and
never aggregated, idempotent finish.
"""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import window_index
from repro.core.constants import AGGREGATION_WINDOW_SECONDS
from repro.core.records import UserGroupKey
from repro.obs import MetricsRegistry
from repro.pipeline import (
    StreamingIngestor,
    build_dataset,
    fig6_global_performance,
)
from repro.pipeline.ingest import (
    DEFAULT_ALLOWED_LATENESS_SECONDS,
    LateSampleLedger,
    OnlineTemporalAnalyzer,
)
from repro.pipeline.routing_analysis import (
    fig8_degradation,
    fig9_opportunity,
    fig10_relationship_comparison,
    table1_temporal_classes,
    table2_opportunity_relationships,
)
from tests.helpers import (
    DEFAULT_GROUP,
    assert_same_analysis_state,
    data_counters,
    jittered_order,
    make_route,
    make_sample,
    make_trace_samples,
    row_oracle,
)

pytestmark = pytest.mark.streaming

WINDOW = AGGREGATION_WINDOW_SECONDS


def in_window(window: int, offset: float, rtt_ms: float = 40.0, rank: int = 0):
    return make_sample(
        end_time=window * WINDOW + offset,
        min_rtt_ms=rtt_ms,
        route=make_route(rank=rank),
    )


# --------------------------------------------------------------------- #
class TestWatermarkSealing:
    def test_watermark_tracks_max_end_time(self):
        ingestor = StreamingIngestor(study_windows=8)
        ingestor.offer(in_window(0, 100.0))
        assert ingestor.watermark == 100.0 - DEFAULT_ALLOWED_LATENESS_SECONDS
        ingestor.offer(in_window(3, 10.0))
        assert (
            ingestor.watermark
            == 3 * WINDOW + 10.0 - DEFAULT_ALLOWED_LATENESS_SECONDS
        )

    def test_windows_seal_in_order_and_gapless(self):
        ingestor = StreamingIngestor(
            study_windows=16, allowed_lateness_seconds=0.0
        )
        ingestor.offer(in_window(0, 100.0))
        assert ingestor.windows_sealed == 0
        # A jump to window 5 seals 0 and the empty 1–4 behind the watermark.
        ingestor.offer(in_window(5, 100.0))
        assert ingestor.windows_sealed == 5
        result = ingestor.finish()
        assert result.windows_sealed == 6
        assert result.windows_empty == 4

    def test_empty_window_counters(self):
        metrics = MetricsRegistry()
        ingestor = StreamingIngestor(
            study_windows=8, allowed_lateness_seconds=0.0, metrics=metrics
        )
        ingestor.offer(in_window(0, 10.0))
        ingestor.offer(in_window(3, 10.0))
        ingestor.finish()
        assert metrics.counter("stream.windows.sealed") == 4
        assert metrics.counter("stream.windows.empty") == 2
        assert metrics.counter("stream.samples.sealed") == 2

    def test_late_sample_is_ledgered_not_aggregated(self):
        metrics = MetricsRegistry()
        ingestor = StreamingIngestor(
            study_windows=8, allowed_lateness_seconds=0.0, metrics=metrics
        )
        ingestor.offer(in_window(0, 100.0))
        ingestor.offer(in_window(2, 100.0))  # seals windows 0 and 1
        rows_before = len(ingestor.dataset.rows)
        late = in_window(0, 200.0, rtt_ms=999.0)
        assert ingestor.offer(late) is False
        assert len(ingestor.dataset.rows) == rows_before
        assert metrics.counter("stream.late_samples") == 1
        result = ingestor.finish()
        assert result.late.count == 1
        assert result.late.per_window == {0: 1}
        assert result.late.retained == [late]
        # The polluted-window regression: the late 999ms RTT must appear in
        # no aggregation of any window.
        for _, aggregation in result.dataset.store.items():
            assert 999.0 not in aggregation.min_rtts_ms

    def test_sample_within_lateness_bound_is_accepted(self):
        ingestor = StreamingIngestor(
            study_windows=8,
            allowed_lateness_seconds=2 * WINDOW,
        )
        ingestor.offer(in_window(2, 100.0))
        # Window 1 is out of order but within two windows of lateness.
        assert ingestor.offer(in_window(1, 50.0)) is True
        result = ingestor.finish()
        assert result.late.count == 0
        assert result.samples_sealed == 2

    def test_late_ledger_bounds_retention(self):
        ledger = LateSampleLedger(max_retained=2)
        for i in range(5):
            ledger.record(in_window(0, float(i)), 0)
        assert ledger.count == 5
        assert len(ledger.retained) == 2
        assert ledger.to_dict() == {
            "count": 5,
            "retained": 2,
            "per_window": {"0": 5},
        }

    def test_finish_is_idempotent(self):
        ingestor = StreamingIngestor(study_windows=8)
        ingestor.offer_all(in_window(w, 100.0) for w in range(3))
        first = ingestor.finish()
        second = ingestor.finish()
        assert second.windows_sealed == first.windows_sealed == 3
        assert second.dataset is first.dataset
        assert second.decisions is first.decisions and len(first.decisions) == 3
        assert second.samples_sealed == first.samples_sealed
        with pytest.raises(ValueError, match="finished"):
            ingestor.offer(in_window(9, 1.0))

    def test_finish_on_empty_stream(self):
        result = StreamingIngestor(study_windows=4).finish()
        assert result.windows_sealed == 0
        assert result.samples_offered == 0
        assert result.dataset.session_count == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamingIngestor(study_windows=4, window_seconds=0.0)
        with pytest.raises(ValueError):
            StreamingIngestor(study_windows=4, allowed_lateness_seconds=-1.0)
        with pytest.raises(ValueError, match="band_windows"):
            StreamingIngestor(study_windows=4, band_windows=0)

    def test_gauges_match_batch_convention(self):
        samples = make_trace_samples(120, seed=21, windows=4)
        ingestor = StreamingIngestor(study_windows=4)
        ingestor.offer_all(sorted(samples, key=lambda s: s.end_time))
        result = ingestor.finish()
        gauges = result.dataset.metrics.gauges
        assert gauges["pipeline.rows"] == len(result.dataset.rows)
        assert gauges["pipeline.aggregations"] == len(result.dataset.store)
        assert gauges["pipeline.groups"] == len(result.dataset.store.groups())


# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trace_samples():
    return make_trace_samples(600, seed=23, windows=8)


@pytest.fixture(scope="module")
def streamed(tmp_path_factory, trace_samples):
    """One in-order streaming run with a sealed output store."""
    store = tmp_path_factory.mktemp("ingest") / "sealed.store"
    ingestor = StreamingIngestor(study_windows=8, out_store=store)
    ingestor.offer_all(sorted(trace_samples, key=lambda s: s.end_time))
    return ingestor.finish(), store


class TestReplayEquivalence:
    def test_streamed_equals_batch_over_sealed_store(self, streamed):
        result, store = streamed
        batch = build_dataset(store, study_windows=8)
        assert_same_analysis_state(result.dataset, batch)
        assert data_counters(result.dataset) == data_counters(batch)
        assert result.dataset.metrics.gauges == batch.metrics.gauges

    def test_sealed_store_contains_unfiltered_stream(
        self, streamed, trace_samples
    ):
        # Hosting-filtered samples must reach the store too: the batch
        # replay re-decides filtering itself, so dropping them before the
        # store would silently change its counters.
        result, store = streamed
        from repro.store import TraceStoreReader

        sealed = list(TraceStoreReader(store).scan())
        assert len(sealed) == len(trace_samples)
        assert sealed == sorted(
            trace_samples, key=lambda s: (s.end_time, s.session_id)
        )

    def test_figures_identical_to_batch(self, streamed):
        result, store = streamed
        batch = build_dataset(store, study_windows=8)
        ours = fig6_global_performance(result.dataset)
        theirs = fig6_global_performance(batch)
        assert ours.median_minrtt == theirs.median_minrtt
        assert ours.hdratio_positive_fraction == theirs.hdratio_positive_fraction
        assert set(ours.minrtt_by_continent) == set(theirs.minrtt_by_continent)
        for code in ours.minrtt_by_continent:
            assert ours.continent_median_minrtt(
                code
            ) == theirs.continent_median_minrtt(code)

    def test_shuffled_arrival_is_byte_identical(
        self, streamed, trace_samples, tmp_path
    ):
        result, store = streamed
        lateness = DEFAULT_ALLOWED_LATENESS_SECONDS
        shuffled_store = tmp_path / "shuffled.store"
        ingestor = StreamingIngestor(
            study_windows=8,
            out_store=shuffled_store,
            allowed_lateness_seconds=lateness,
        )
        ingestor.offer_all(jittered_order(trace_samples, lateness, seed=5))
        shuffled = ingestor.finish()
        assert shuffled.late.count == 0
        assert_same_analysis_state(shuffled.dataset, result.dataset)
        assert data_counters(shuffled.dataset) == data_counters(result.dataset)
        assert (shuffled_store / "data.bin").read_bytes() == (
            store / "data.bin"
        ).read_bytes()
        assert (shuffled_store / "manifest.json").read_bytes() == (
            store / "manifest.json"
        ).read_bytes()

    def test_golden_trace_streams_identical_to_batch(self, tmp_path):
        golden = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"
        from repro.pipeline import read_samples

        samples = list(read_samples(golden))
        span = max(s.end_time for s in samples) + WINDOW
        store = tmp_path / "golden_sealed.store"
        ingestor = StreamingIngestor(
            study_windows=8, out_store=store, allowed_lateness_seconds=span
        )
        # Arrival in file order: with lateness covering the whole span,
        # nothing is late and nothing seals before finish.
        ingestor.offer_all(samples)
        result = ingestor.finish()
        assert result.late.count == 0
        batch = build_dataset(store, study_windows=8)
        assert_same_analysis_state(result.dataset, batch)
        assert data_counters(result.dataset) == data_counters(batch)


class TestLiveDatasetStaysCurrent:
    """``StreamingIngestor.dataset`` is live: whoever reads a routing
    driver off it between seals must not pin that answer. The verdict
    series behind fig8/fig9/table1/table2 are cached on the dataset, and
    the cache used to outlive the data it was computed from."""

    DRIVERS = (
        fig8_degradation,
        fig9_opportunity,
        fig10_relationship_comparison,
        table1_temporal_classes,
        table2_opportunity_relationships,
    )

    def test_mid_stream_peek_does_not_pin_the_answer(self, trace_samples):
        ordered = sorted(trace_samples, key=lambda s: s.end_time)
        half = len(ordered) // 2
        ingestor = StreamingIngestor(study_windows=8)
        ingestor.offer_all(ordered[:half])
        assert ingestor.windows_sealed > 0
        peeked = [driver(ingestor.dataset) for driver in self.DRIVERS]
        ingestor.offer_all(ordered[half:])
        result = ingestor.finish()
        assert result.dataset is ingestor.dataset

        batch = build_dataset(ordered, study_windows=8)
        assert_same_analysis_state(result.dataset, batch)
        finished = [driver(result.dataset) for driver in self.DRIVERS]
        assert finished == [driver(batch) for driver in self.DRIVERS]
        # The peek saw less data, so this test can tell stale from current.
        assert finished[0] != peeked[0]


# --------------------------------------------------------------------- #
def _scan(store):
    from repro.store import TraceStoreReader

    return list(TraceStoreReader(store).scan())


class TestSealIsAllOrNothing:
    def test_failed_append_is_retried_not_sealed_empty(
        self, trace_samples, tmp_path, monkeypatch
    ):
        """Regression: a seal popped, counted and folded its window before
        appending it, so an append that raised left the store a window
        short while ``sealed + late == offered`` still held, and the next
        watermark advance re-sealed the same index as an empty window."""
        import errno

        import repro.store.writer as writer_mod

        ordered = sorted(trace_samples, key=lambda s: s.end_time)
        clean_store = tmp_path / "clean.store"
        clean = StreamingIngestor(
            study_windows=8, out_store=clean_store, allowed_lateness_seconds=0.0
        )
        clean.offer_all(ordered)
        expected = clean.finish()

        real = writer_mod.atomic_write_bytes
        publishes = []

        def flaky(path, data):
            publishes.append(path.name)
            if len(publishes) == 4:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(path, data)

        monkeypatch.setattr(writer_mod, "atomic_write_bytes", flaky)
        store = tmp_path / "flaky.store"
        metrics = MetricsRegistry()
        ingestor = StreamingIngestor(
            study_windows=8,
            out_store=store,
            allowed_lateness_seconds=0.0,
            metrics=metrics,
        )
        failures = 0
        for sample in ordered:
            sealed_before = ingestor.windows_sealed
            try:
                ingestor.offer(sample)  # accepted even when its seal raises
            except OSError:
                failures += 1
                assert ingestor.windows_sealed == sealed_before
        result = ingestor.finish()

        assert failures == 1
        assert result.samples_offered == len(ordered)
        assert result.late.count == 0
        assert result.windows_sealed == expected.windows_sealed == 8
        assert result.windows_empty == 0
        assert metrics.counter("stream.windows.sealed") == 8
        assert metrics.counter("stream.windows.empty") == 0
        read = result.dataset.metrics.counter("pipeline.samples.read")
        assert len(_scan(store)) == result.samples_sealed == read == len(ordered)
        assert metrics.counter("store.rows.written") == len(ordered)
        assert_same_analysis_state(result.dataset, expected.dataset)
        for name in ("data.bin", "manifest.json"):
            assert (store / name).read_bytes() == (
                clean_store / name
            ).read_bytes()

    def test_failed_append_is_retried_by_finish(self, tmp_path, monkeypatch):
        import repro.store.writer as writer_mod

        store = tmp_path / "sealed.store"
        ingestor = StreamingIngestor(
            study_windows=4, out_store=store, allowed_lateness_seconds=0.0
        )
        ingestor.offer(in_window(0, 10.0))
        real = writer_mod.atomic_write_bytes
        monkeypatch.setattr(
            writer_mod,
            "atomic_write_bytes",
            lambda path, data: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            ingestor.offer(in_window(1, 10.0))
        assert ingestor.windows_sealed == 0
        monkeypatch.setattr(writer_mod, "atomic_write_bytes", real)
        result = ingestor.finish()
        assert result.windows_sealed == 2
        assert result.samples_sealed == len(_scan(store)) == 2


    def test_refused_fold_leaves_window_pending_and_unappended(
        self, tmp_path, monkeypatch
    ):
        """A seal stages before it appends: a fold that raises — here after
        it has absorbed the whole window — moves no counter, appends
        nothing and installs nothing, and the retry seals the window whole."""
        from repro.kernels.engine import BatchIngestor

        store = tmp_path / "sealed.store"
        metrics = MetricsRegistry()
        ingestor = StreamingIngestor(
            study_windows=4,
            out_store=store,
            allowed_lateness_seconds=0.0,
            metrics=metrics,
        )
        ingestor.offer(in_window(0, 10.0))
        ingestor.offer(in_window(0, 20.0))
        real = BatchIngestor.ingest_batch

        def refuse(self, batch):
            real(self, batch)
            raise ValueError("refused")

        monkeypatch.setattr(BatchIngestor, "ingest_batch", refuse)
        with pytest.raises(ValueError, match="refused"):
            ingestor.offer(in_window(1, 10.0))  # accepted; its seal raises
        assert ingestor.windows_sealed == 0
        assert not store.exists()
        assert metrics.counters == {}
        assert ingestor.dataset.rows == [] and len(ingestor.dataset.store) == 0
        assert ingestor.dataset.metrics.counters == {}
        monkeypatch.setattr(BatchIngestor, "ingest_batch", real)
        result = ingestor.finish()
        assert result.windows_sealed == 2
        assert result.windows_empty == 0
        assert result.samples_sealed == len(_scan(store)) == 3
        assert_same_analysis_state(
            result.dataset, build_dataset(store, study_windows=4)
        )

    def test_routeless_sample_is_refused_at_offer(self, tmp_path):
        """Regression: a kept sample with ``route=None`` (reachable: ``repro
        ingest -`` accepts ``"route": null``) was buffered; the seal that met
        it appended the window, popped and counted it, raised half-way
        through the fold, and the next advance re-sealed the same index as a
        phantom empty window — store 2,000 rows, dataset 1,900 sessions,
        9 windows sealed for 8, while ``sealed + late == offered`` held."""
        import dataclasses

        samples = sorted(
            make_trace_samples(2000, seed=41, windows=8),
            key=lambda s: s.end_time,
        )
        # A hosting-flagged sample may lack a route: the filter drops it
        # before the route is read, so it is offered, sealed and stored.
        hosted = next(
            i for i, s in enumerate(samples) if s.client_ip_is_hosting
        )
        samples[hosted] = dataclasses.replace(samples[hosted], route=None)
        middle = len(samples) // 2
        victim = next(
            s for s in samples[middle:] if not s.client_ip_is_hosting
        )
        poison = dataclasses.replace(victim, session_id=-1, route=None)

        def run(stream, store):
            ingestor = StreamingIngestor(
                study_windows=8, out_store=store, allowed_lateness_seconds=0.0
            )
            refused = 0
            for sample in stream:
                try:
                    ingestor.offer(sample)
                except ValueError as error:
                    assert "route" in str(error)
                    refused += 1
            return ingestor.finish(), refused

        clean_store = tmp_path / "clean.store"
        expected, refused = run(samples, clean_store)
        assert refused == 0
        store = tmp_path / "poisoned.store"
        result, refused = run(
            samples[:middle] + [poison] + samples[middle:], store
        )

        assert refused == 1
        assert result.samples_offered == len(samples)  # refused uncounted
        assert result.late.count == 0
        batch = build_dataset(store, study_windows=8)
        read = batch.metrics.counter("pipeline.samples.read")
        assert len(_scan(store)) == result.samples_sealed == read == len(samples)
        assert result.windows_sealed == expected.windows_sealed == 8
        assert result.windows_empty == 0
        assert_same_analysis_state(result.dataset, batch)
        assert_same_analysis_state(result.dataset, expected.dataset)
        for name in ("data.bin", "manifest.json"):
            assert (store / name).read_bytes() == (
                clean_store / name
            ).read_bytes()


class TestLiveStoreHasOtherWriters:
    """The ingestor's append session notices a manifest it did not publish
    (DESIGN §8's stat-identity rule) and reloads instead of clobbering it."""

    def _stream_with_interruption(self, samples, store, interrupt):
        ordered = sorted(samples, key=lambda s: s.end_time)
        ingestor = StreamingIngestor(
            study_windows=8, out_store=store, allowed_lateness_seconds=0.0
        )
        interrupted = False
        for sample in ordered:
            ingestor.offer(sample)
            if not interrupted and ingestor.windows_sealed == 5:
                interrupt()
                interrupted = True
        assert interrupted
        return ingestor.finish()

    def test_compaction_between_seals(self, trace_samples, tmp_path):
        from repro.store import compact_store, load_manifest, verify_store

        store = tmp_path / "sealed.store"
        reports = []
        result = self._stream_with_interruption(
            trace_samples, store, lambda: reports.append(compact_store(store))
        )
        assert not reports[0].skipped
        assert load_manifest(store)["data_file"] == "data-g1.bin"
        assert verify_store(store).ok
        assert _scan(store) == sorted(
            trace_samples, key=lambda s: (s.end_time, s.session_id)
        )
        batch = build_dataset(store, study_windows=8)
        assert_same_analysis_state(result.dataset, batch)
        assert data_counters(result.dataset) == data_counters(batch)

    def test_foreign_append_between_seals(self, trace_samples, tmp_path):
        from repro.store import append_to_store, verify_store

        store = tmp_path / "sealed.store"
        foreign = make_trace_samples(40, seed=77, windows=8)
        result = self._stream_with_interruption(
            trace_samples, store, lambda: append_to_store(store, foreign)
        )
        assert verify_store(store).ok
        assert result.samples_sealed == len(trace_samples)
        key = lambda s: s.session_id  # noqa: E731 - unique per sample
        assert sorted(_scan(store), key=key) == sorted(
            trace_samples + foreign, key=key
        )
        batch = build_dataset(store, study_windows=8)
        assert batch.metrics.counter("pipeline.samples.read") == (
            result.samples_sealed + len(foreign)
        )


# --------------------------------------------------------------------- #
class TestShuffleProperty:
    """Hypothesis: ANY admissible arrival order replays byte-identically."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_order_within_lateness_bound_is_identical(self, seed):
        samples = make_trace_samples(150, seed=29, windows=4)
        lateness = 2 * WINDOW

        baseline = StreamingIngestor(
            study_windows=4, allowed_lateness_seconds=lateness
        )
        baseline.offer_all(sorted(samples, key=lambda s: s.end_time))
        expected = baseline.finish()

        ingestor = StreamingIngestor(
            study_windows=4, allowed_lateness_seconds=lateness
        )
        ingestor.offer_all(jittered_order(samples, lateness, seed=seed))
        result = ingestor.finish()

        assert result.late.count == 0
        assert result.decisions == expected.decisions
        assert_same_analysis_state(result.dataset, expected.dataset)
        assert data_counters(result.dataset) == data_counters(expected.dataset)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_unbounded_lateness_admits_any_permutation(self, seed):
        samples = make_trace_samples(120, seed=31, windows=4)
        span = max(s.end_time for s in samples) + WINDOW

        baseline = StreamingIngestor(
            study_windows=4, allowed_lateness_seconds=span
        )
        baseline.offer_all(sorted(samples, key=lambda s: s.end_time))
        expected = baseline.finish()

        shuffled = list(samples)
        random.Random(seed).shuffle(shuffled)
        ingestor = StreamingIngestor(
            study_windows=4, allowed_lateness_seconds=span
        )
        ingestor.offer_all(shuffled)
        result = ingestor.finish()

        assert result.late.count == 0
        assert_same_analysis_state(result.dataset, expected.dataset)
        assert data_counters(result.dataset) == data_counters(expected.dataset)


# --------------------------------------------------------------------- #
def _stable_window(window: int, rtt_ms: float, count: int = 40):
    rng = random.Random(window)
    return [
        in_window(
            window,
            offset=(i + 1) * WINDOW / (count + 2),
            rtt_ms=max(rng.gauss(rtt_ms, 1.0), 1.0),
        )
        for i in range(count)
    ]


class TestOnlineAnalyzer:
    def test_degradation_alert_fires_online(self):
        metrics = MetricsRegistry()
        ingestor = StreamingIngestor(
            study_windows=8,
            allowed_lateness_seconds=0.0,
            metrics=metrics,
        )
        for window in range(6):
            ingestor.offer_all(_stable_window(window, rtt_ms=30.0))
        ingestor.offer_all(_stable_window(6, rtt_ms=60.0))
        result = ingestor.finish()
        assert [a.window for a in result.alerts] == [6]
        alert = result.alerts[0]
        assert alert.metric == "minrtt"
        assert alert.group == DEFAULT_GROUP
        assert alert.difference == pytest.approx(30.0, abs=5.0)
        assert metrics.counter("stream.alerts") == 1

    def test_uneventful_group_raises_no_alert(self):
        ingestor = StreamingIngestor(
            study_windows=8, allowed_lateness_seconds=0.0
        )
        for window in range(8):
            ingestor.offer_all(_stable_window(window, rtt_ms=30.0))
        result = ingestor.finish()
        assert result.alerts == []
        assert result.class_counts() == {"uneventful": 1}

    def test_episodic_classification_online(self):
        ingestor = StreamingIngestor(
            study_windows=8, allowed_lateness_seconds=0.0
        )
        for window in range(6):
            ingestor.offer_all(_stable_window(window, rtt_ms=30.0))
        ingestor.offer_all(_stable_window(6, rtt_ms=60.0))
        ingestor.offer_all(_stable_window(7, rtt_ms=30.0))
        result = ingestor.finish()
        assert result.class_counts() == {"episodic": 1}

    def test_no_alerts_before_min_baseline_history(self):
        analyzer = OnlineTemporalAnalyzer(min_baseline_windows=4)
        ingestor = StreamingIngestor(
            study_windows=8, allowed_lateness_seconds=0.0, analyzer=analyzer
        )
        # An immediate degradation with no history must not alert: the
        # trailing baseline needs min_baseline_windows sealed windows first.
        for window in range(3):
            ingestor.offer_all(_stable_window(window, rtt_ms=60.0))
        result = ingestor.finish()
        assert result.alerts == []

    def test_trailing_baseline_window_is_bounded(self):
        analyzer = OnlineTemporalAnalyzer(
            baseline_windows=3, min_baseline_windows=3
        )
        ingestor = StreamingIngestor(
            study_windows=16, allowed_lateness_seconds=0.0, analyzer=analyzer
        )
        # Windows 0–2 fast, 3–8 slow: with a 3-window trailing baseline the
        # slow level becomes the new normal, so later slow windows stop
        # alerting — the hallmark of a *trailing* (not global) baseline.
        for window in range(3):
            ingestor.offer_all(_stable_window(window, rtt_ms=30.0))
        for window in range(3, 9):
            ingestor.offer_all(_stable_window(window, rtt_ms=60.0))
        result = ingestor.finish()
        alert_windows = [a.window for a in result.alerts]
        assert 3 in alert_windows
        assert 8 not in alert_windows

    @pytest.mark.parametrize("stream", ["golden", "degrading"])
    def test_analyzer_is_handed_what_the_per_sample_probe_found(self, stream):
        """Per sealed window the analyzer receives exactly the groups the
        old per-sample probe collected — each kept rank-0 sample's group —
        mapped to the aggregation objects the seal installed; alerts and
        classifications equal an analyzer driven by that probe over the
        row oracle's store."""
        import dataclasses

        from repro.pipeline import read_samples

        if stream == "golden":
            samples = list(
                read_samples(
                    pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"
                )
            )
        else:  # one PoP 40 ms slower in window 6: one alert, one episodic group
            samples = [
                dataclasses.replace(s, min_rtt_seconds=s.min_rtt_seconds + 0.040)
                if s.pop == "ams1" and window_index(s.end_time) == 6
                else s
                for s in make_trace_samples(1200, seed=23, windows=8)
            ]
        samples.sort(key=lambda s: (s.end_time, s.session_id))

        class Recording(OnlineTemporalAnalyzer):
            def on_window_sealed(self, window, aggregations):
                seen.append((window, dict(aggregations)))
                return super().on_window_sealed(window, aggregations)

        seen = []
        ingestor = StreamingIngestor(
            study_windows=8,
            allowed_lateness_seconds=0.0,
            analyzer=Recording(min_baseline_windows=1),
        )
        result = ingestor.offer_all(samples).finish()

        oracle = row_oracle(samples, study_windows=8)
        reference = OnlineTemporalAnalyzer(min_baseline_windows=1)
        by_window = {}
        for sample in samples:
            by_window.setdefault(window_index(sample.end_time), []).append(sample)
        windows = list(range(min(by_window), max(by_window) + 1))
        assert [window for window, _ in seen] == windows
        handed = 0
        for window, received in seen:
            probe = {}
            for sample in by_window.get(window, []):
                if sample.client_ip_is_hosting:
                    continue
                if sample.route.preference_rank == 0:
                    group = UserGroupKey(
                        pop=sample.pop,
                        prefix=sample.route.prefix,
                        country=sample.client_country,
                    )
                    probe.setdefault(group, oracle.store.get(group, 0, window))
            assert set(received) == set(probe)
            for group, aggregation in received.items():
                assert aggregation is result.dataset.store.get(group, 0, window)
                assert aggregation.min_rtts_ms == probe[group].min_rtts_ms
                assert aggregation.hdratios == probe[group].hdratios
                assert aggregation.traffic_bytes == probe[group].traffic_bytes
                handed += 1
            reference.on_window_sealed(window, probe)
        assert handed > len(windows)
        assert result.alerts == reference.alerts
        assert len(result.alerts) == (1 if stream == "degrading" else 0)
        assert result.classifications == reference.classifications()
        assert result.classifications

    def test_analyzer_rejects_bad_args(self):
        with pytest.raises(ValueError):
            OnlineTemporalAnalyzer(baseline_windows=0)
        with pytest.raises(ValueError):
            OnlineTemporalAnalyzer().classifications("neither")
