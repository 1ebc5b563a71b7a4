"""Tests for the single-pass streaming route monitor."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.aggregation import window_index
from repro.core.constants import AGGREGATION_WINDOW_SECONDS
from repro.core.records import UserGroupKey
from repro.pipeline.streaming import StreamingRouteMonitor

from tests.helpers import DEFAULT_GROUP, make_route, make_sample, make_trace_samples

pytestmark = pytest.mark.streaming


def feed_capable_window(monitor, window, rtt_ms, hdratio, rank=0, count=40):
    """Feed a window of sessions whose transactions are HD-capable.

    ``hdratio`` sets the per-session achieved fraction: 1.0 means every
    transaction achieves HD, 0.0 means none does.
    """
    from repro.core.records import TransactionRecord

    base = window * AGGREGATION_WINDOW_SECONDS
    route = make_route(rank=rank)
    for index in range(count):
        end = base + (index + 0.5) * AGGREGATION_WINDOW_SECONDS / (count + 1)
        sample = make_sample(
            end_time=end, min_rtt_ms=rtt_ms + (index % 5) * 0.2, route=route
        )
        rtt = sample.min_rtt_seconds
        achieved = index / max(count - 1, 1) < hdratio
        # One clean, testable transaction: cwnd covers the response (so the
        # goodput test can run) and the pacing encodes achieved/not.
        response = 80_000
        transfer = 2.0 * rtt if achieved else 8.0 * rtt
        sample.transactions = [
            TransactionRecord(
                first_byte_time=end - 1.0,
                ack_time=end - 1.0 + transfer,
                response_bytes=response,
                last_packet_bytes=1500,
                cwnd_bytes_at_first_byte=response * 2,
                bytes_in_flight_at_start=0,
            )
        ]
        monitor.observe(sample)


def feed_window(monitor, window, rtt_ms, rank=0, count=40, hd_good=True):
    base = window * AGGREGATION_WINDOW_SECONDS
    route = make_route(rank=rank)
    for index in range(count):
        end = base + (index + 0.5) * AGGREGATION_WINDOW_SECONDS / (count + 1)
        sample = make_sample(
            end_time=end, min_rtt_ms=rtt_ms + (index % 5) * 0.2, route=route
        )
        monitor.observe(sample)


class TestMonitor:
    def test_hold_when_preferred_is_best(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=40.0, rank=0)
        feed_window(monitor, 0, rtt_ms=47.0, rank=1)
        decisions = monitor.finish()
        assert len(decisions) == 1
        assert decisions[0].action == "hold"
        assert not decisions[0].is_shift_candidate

    def test_shift_candidate_on_confident_win(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=52.0, rank=0)
        feed_window(monitor, 0, rtt_ms=38.0, rank=1)
        decisions = monitor.finish()
        assert decisions[0].is_shift_candidate
        assert decisions[0].alternate_rank == 1
        assert decisions[0].minrtt_improvement_ms > 10.0

    def test_windows_close_in_order(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=40.0, rank=0)
        feed_window(monitor, 1, rtt_ms=40.0, rank=0)
        feed_window(monitor, 2, rtt_ms=40.0, rank=0)
        decisions = monitor.finish()
        assert [d.window for d in decisions] == [0, 1, 2]

    def test_thin_windows_hold(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=52.0, rank=0, count=10)
        feed_window(monitor, 0, rtt_ms=38.0, rank=1, count=10)
        decisions = monitor.finish()
        assert decisions[0].action == "hold"

    def test_missing_route_rejected(self):
        monitor = StreamingRouteMonitor()
        sample = make_sample(1.0, 40.0)
        sample.route = None
        with pytest.raises(ValueError):
            monitor.observe(sample)

    def test_state_cleared_between_windows(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=52.0, rank=0)
        feed_window(monitor, 0, rtt_ms=38.0, rank=1)
        # Next window: no alternate data; monitor must not reuse stale state.
        feed_window(monitor, 1, rtt_ms=52.0, rank=0)
        decisions = monitor.finish()
        assert decisions[0].is_shift_candidate
        assert decisions[1].action == "hold"

    def test_no_hd_capable_transactions_still_allows_rtt_shift(self):
        """Zero capable transactions in the window: both routes' HD digests
        are empty, the HD guard is vacuous, and a confident RTT win alone
        must still produce a shift candidate (with no claimed HD gain)."""
        monitor = StreamingRouteMonitor()
        # make_sample emits transaction-less sessions: nothing can test HD.
        feed_window(monitor, 0, rtt_ms=52.0, rank=0)
        feed_window(monitor, 0, rtt_ms=38.0, rank=1)
        decisions = monitor.finish()
        assert decisions[0].is_shift_candidate
        assert decisions[0].hdratio_improvement == 0.0

    def test_no_hd_capable_transactions_and_no_rtt_win_holds(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=40.0, rank=0)
        feed_window(monitor, 0, rtt_ms=39.5, rank=1)
        decisions = monitor.finish()
        assert decisions[0].action == "hold"
        assert decisions[0].alternate_rank is None

    def test_missing_alternate_rank_falls_through_to_next(self):
        """Rank 1 went unmeasured mid-window; the decision must come from
        the rank that actually has data, not assume contiguous ranks."""
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=52.0, rank=0)
        feed_window(monitor, 0, rtt_ms=38.0, rank=2)  # only rank 2 measured
        decisions = monitor.finish()
        assert decisions[0].is_shift_candidate
        assert decisions[0].alternate_rank == 2

    def test_alternate_vanishing_between_windows_does_not_leak(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=52.0, rank=0)
        feed_window(monitor, 0, rtt_ms=38.0, rank=2)
        feed_window(monitor, 1, rtt_ms=52.0, rank=0)  # rank 2 disappears
        decisions = monitor.finish()
        assert decisions[0].alternate_rank == 2
        assert decisions[1].action == "hold"
        assert decisions[1].alternate_rank is None

    def test_hd_win_stands_alone_without_rtt_win(self):
        """An HDratio win is a shift candidate even when MinRTT is a wash
        (the paper's two-metric decision rule, HD side)."""
        monitor = StreamingRouteMonitor()
        feed_capable_window(monitor, 0, rtt_ms=40.0, hdratio=0.2, rank=0)
        feed_capable_window(monitor, 0, rtt_ms=40.0, hdratio=0.9, rank=1)
        decisions = monitor.finish()
        assert decisions[0].is_shift_candidate
        assert decisions[0].hdratio_improvement > 0.0

    def test_agrees_with_batch_analysis(self):
        """The streaming monitor and the batch opportunity analysis must
        reach the same conclusion on the same stream."""
        from repro.core.aggregation import AggregationStore
        from repro.core.comparison import opportunity_series

        monitor = StreamingRouteMonitor()
        store = AggregationStore()

        from tests.helpers import fill_window

        samples = []
        base_route, alt_route = make_route(rank=0), make_route(rank=1)
        for window in range(2):
            base = window * AGGREGATION_WINDOW_SECONDS
            for index in range(45):
                end = base + index * 15.0
                preferred = make_sample(end, 50.0 + (index % 7) * 0.3, route=base_route)
                alternate = make_sample(end, 39.0 + (index % 7) * 0.3, route=alt_route)
                samples.extend([preferred, alternate])
        for sample in samples:
            store.add(sample, hdratio=None)
            monitor.observe(sample)
        decisions = monitor.finish()

        batch = opportunity_series(store, DEFAULT_GROUP, "minrtt")
        batch_events = [v for v in batch if v.event_at(5.0)]
        streaming_events = [d for d in decisions if d.is_shift_candidate]
        assert bool(batch_events) == bool(streaming_events)
        assert len(streaming_events) == 2


class TestLateSamples:
    """Regression: ``observe()`` used to fold samples from an *earlier*
    window into the current window's aggregates, corrupting its digests."""

    def test_late_samples_do_not_pollute_current_window(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 1, rtt_ms=52.0, rank=0)
        # Late fast alternate: window 0 closed the moment window 1 opened.
        # Before the fix these 40 samples landed in window 1's rank-1
        # aggregate and produced a bogus shift candidate.
        feed_window(monitor, 0, rtt_ms=38.0, rank=1)
        decisions = monitor.finish()
        assert monitor.late_samples == 40
        assert [d.window for d in decisions] == [1]
        assert decisions[0].action == "hold"
        assert decisions[0].alternate_rank is None

    def test_late_samples_counted_in_metrics(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        monitor = StreamingRouteMonitor(metrics=registry)
        feed_window(monitor, 2, rtt_ms=40.0, rank=0, count=5)
        feed_window(monitor, 1, rtt_ms=40.0, rank=0, count=3)
        assert registry.counter("stream.late_samples") == 3
        assert monitor.late_samples == 3

    def test_observe_reports_late_verdict(self):
        monitor = StreamingRouteMonitor()
        on_time = make_sample(
            AGGREGATION_WINDOW_SECONDS * 1.5, 40.0, route=make_route()
        )
        late = make_sample(
            AGGREGATION_WINDOW_SECONDS * 0.5, 40.0, route=make_route()
        )
        assert monitor.observe(on_time) is not False
        assert monitor.observe(late) is False

    def test_on_time_samples_within_window_still_aggregate(self):
        """Out-of-order arrivals *within* one window are not late."""
        monitor = StreamingRouteMonitor()
        base = 1 * AGGREGATION_WINDOW_SECONDS
        monitor.observe(make_sample(base + 500.0, 40.0, route=make_route()))
        monitor.observe(make_sample(base + 100.0, 41.0, route=make_route()))
        assert monitor.late_samples == 0
        decisions = monitor.finish()
        assert decisions[0].preferred_sessions == 2


class TestFinishIdempotent:
    """Regression: a second ``finish()`` re-closed the trailing window and
    duplicated its decisions."""

    def test_second_finish_does_not_duplicate_decisions(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=40.0, rank=0)
        first = monitor.finish()
        assert len(first) == 1
        second = monitor.finish()
        assert second is first
        assert len(second) == 1
        assert monitor.closed_windows == [0]

    def test_observe_after_finish_rejected(self):
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=40.0, rank=0)
        monitor.finish()
        with pytest.raises(ValueError):
            monitor.observe(make_sample(10.0, 40.0, route=make_route()))

    def test_multi_window_jump_closes_intervening_windows(self):
        """A sample jumping >1 window forward closes the skipped empty
        windows too: the closed-window record is gapless and monotone and
        decision windows stay monotone."""
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 3, rtt_ms=40.0, rank=0)
        feed_window(monitor, 7, rtt_ms=40.0, rank=0)
        decisions = monitor.finish()
        assert monitor.closed_windows == [3, 4, 5, 6, 7]
        assert [d.window for d in decisions] == [3, 7]

    def test_finish_on_empty_monitor_is_clean(self):
        monitor = StreamingRouteMonitor()
        assert monitor.finish() == []
        assert monitor.closed_windows == []
        assert monitor.finish() == []


class TestCloseWindowLabel:
    """Regression: ``_close_window()`` fell back to labeling decisions with
    window 0 when ``_current_window`` was ``None`` but state existed."""

    def test_state_without_window_raises(self):
        from repro.stats.streaming import StreamingAggregate

        monitor = StreamingRouteMonitor()
        aggregate = StreamingAggregate.empty()
        for rtt in (40.0, 41.0, 42.0, 43.0, 44.0):
            aggregate.add(rtt, None, 1000)
        monitor._state[DEFAULT_GROUP] = {0: aggregate}
        assert monitor._current_window is None
        with pytest.raises(RuntimeError, match="without a current window"):
            monitor._close_window()
        # No decision was minted with a fabricated window label.
        assert monitor.decisions == []

    def test_close_without_state_or_window_is_noop(self):
        monitor = StreamingRouteMonitor()
        monitor._close_window()
        assert monitor.closed_windows == []
        assert monitor.decisions == []


class TestCiWidthBoundary:
    """The CI-width validity gate is inclusive: a comparison whose CI is
    exactly ``MAX_CI_WIDTH_*`` wide is still valid (§5's "sufficiently
    narrow" is ``<=``, not ``<``)."""

    @staticmethod
    def _digest_pair():
        from repro.stats.tdigest import TDigest

        a, b = TDigest(), TDigest()
        for index in range(60):
            a.add(50.0 + (index % 9) * 0.4)
            b.add(40.0 + (index % 9) * 0.4)
        return a, b

    def test_width_exactly_at_limit_is_valid(self):
        from repro.stats.streaming import streaming_compare

        a, b = self._digest_pair()
        unbounded = streaming_compare(a, b)
        width = unbounded.ci_high - unbounded.ci_low
        assert width > 0.0
        at_limit = streaming_compare(a, b, max_ci_width=width)
        assert at_limit.valid

    def test_width_just_over_limit_is_invalid(self):
        import math

        from repro.stats.streaming import streaming_compare

        a, b = self._digest_pair()
        unbounded = streaming_compare(a, b)
        width = unbounded.ci_high - unbounded.ci_low
        over = streaming_compare(
            a, b, max_ci_width=math.nextafter(width, 0.0)
        )
        assert not over.valid

    def test_monitor_shift_survives_ci_exactly_at_max_width(self, monkeypatch):
        """End to end: pin MAX_CI_WIDTH_MINRTT_MS to the observed CI width
        and the decision must still be a shift candidate."""
        from repro.stats.streaming import streaming_compare
        import repro.pipeline.streaming as streaming_mod

        probe = StreamingRouteMonitor()
        feed_window(probe, 0, rtt_ms=52.0, rank=0)
        feed_window(probe, 0, rtt_ms=38.0, rank=1)
        (ranks,) = probe._state.values()
        preferred, alternate = ranks[0], ranks[1]
        cmp = streaming_compare(preferred.rtt_digest, alternate.rtt_digest)
        width = cmp.ci_high - cmp.ci_low

        monkeypatch.setattr(
            streaming_mod, "MAX_CI_WIDTH_MINRTT_MS", width
        )
        monitor = StreamingRouteMonitor()
        feed_window(monitor, 0, rtt_ms=52.0, rank=0)
        feed_window(monitor, 0, rtt_ms=38.0, rank=1)
        assert monitor.finish()[0].is_shift_candidate


def _multi_group_trace():
    samples = make_trace_samples(1200, seed=3, hosting_fraction=0.0, windows=4)
    return sorted(samples, key=lambda s: s.end_time)


_DECISIONS_SCRIPT = """
import dataclasses, json
from repro.pipeline.streaming import StreamingRouteMonitor
from tests.test_pipeline_streaming import _multi_group_trace

monitor = StreamingRouteMonitor()
monitor.observe_all(_multi_group_trace())
print(json.dumps([dataclasses.asdict(d) for d in monitor.finish()]))
"""


class TestDecisionOrder:
    """Regression: a window's decisions came out in the iteration order of
    a *set* of string-hashed group keys, so the same trace gave a
    different ``decisions`` list under every ``PYTHONHASHSEED``."""

    @staticmethod
    def _decisions_under(hash_seed: int) -> str:
        """The whole decision list, as JSON text, from a fresh interpreter."""
        root = pathlib.Path(__file__).parent.parent
        completed = subprocess.run(
            [sys.executable, "-c", _DECISIONS_SCRIPT],
            cwd=str(root),
            env={
                "PYTHONPATH": os.pathsep.join(("src", ".")),
                "PYTHONHASHSEED": str(hash_seed),
                "PATH": "/usr/bin:/bin",
            },
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return completed.stdout

    def test_decisions_do_not_depend_on_the_hash_seed(self):
        first = self._decisions_under(1)
        assert first == self._decisions_under(2)

        # ... and the order they share is the one the trace dictates:
        # windows in order, and within a window the groups in the order
        # their first sample arrived (those with preferred-route data).
        first_seen = {}
        for sample in _multi_group_trace():
            window = window_index(sample.end_time)
            group = UserGroupKey(
                pop=sample.pop,
                prefix=sample.route.prefix,
                country=sample.client_country,
            )
            ranks = first_seen.setdefault(window, {}).setdefault(group, set())
            ranks.add(sample.route.preference_rank)
        expected = [
            (window, dataclasses.asdict(group))
            for window in sorted(first_seen)
            for group, ranks in first_seen[window].items()
            if 0 in ranks
        ]
        decided = [(row["window"], row["group"]) for row in json.loads(first)]
        assert decided == expected
        assert len({tuple(group.values()) for _, group in decided}) > 10
