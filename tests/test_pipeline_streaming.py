"""Seal-time route decisions: the monitor as a sink of the ingestor.

:class:`StreamingRouteMonitor` keeps no windows and no statistics of its
own, so what is under test is (1) the two-metric decision rule over sealed
aggregations, (2) that lateness and ordering are the ingestor's — on-time
but out-of-order samples count, samples beyond the bound are ledgered —
and (3) the invariant that replaces the old "both found something"
cross-check: **streamed decisions equal the batch §6 analysis of the
sealed store, exactly**, for any arrival order within the lateness bound
and under any ``PYTHONHASHSEED``.
"""

import ast
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.aggregation import window_index
from repro.core.comparison import opportunity_series
from repro.core.constants import (
    AGGREGATION_WINDOW_SECONDS,
    DEFAULT_HDRATIO_THRESHOLD,
    DEFAULT_MINRTT_THRESHOLD_MS,
)
from repro.core.records import TransactionRecord, UserGroupKey
from repro.pipeline import StreamingIngestor, build_dataset
from repro.pipeline.streaming import RouteDecision, StreamingRouteMonitor
from repro.stats.median_ci import compare_medians

from tests.helpers import (
    DEFAULT_GROUP,
    jittered_order,
    make_route,
    make_sample,
    make_trace_samples,
)

pytestmark = pytest.mark.streaming

LATENESS = 2 * AGGREGATION_WINDOW_SECONDS


def window_samples(
    window, rtt_ms, rank=0, count=40, hdratio=None, prefix=DEFAULT_GROUP.prefix
):
    """One route's sessions in one window, spread evenly across it.

    ``hdratio=None`` gives transaction-less sessions (nothing can test HD);
    a number gives every session one clean, testable transaction and makes
    that fraction of the sessions achieve HD goodput.
    """
    base = window * AGGREGATION_WINDOW_SECONDS
    route = make_route(prefix=prefix, rank=rank)
    samples = []
    for index in range(count):
        end = base + (index + 0.5) * AGGREGATION_WINDOW_SECONDS / (count + 1)
        sample = make_sample(
            end_time=end, min_rtt_ms=rtt_ms + (index % 5) * 0.2, route=route
        )
        if hdratio is not None:
            rtt = sample.min_rtt_seconds
            achieved = index / max(count - 1, 1) < hdratio
            # cwnd covers the response (so the goodput test can run) and the
            # pacing encodes achieved/not.
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
        samples.append(sample)
    return samples


def ingest(*streams, **ingestor_kwargs):
    """Offer the streams one after another; the finished run's result."""
    ingestor = StreamingIngestor(study_windows=8, **ingestor_kwargs)
    for stream in streams:
        ingestor.offer_all(stream)
    return ingestor.finish()


class TestMonitor:
    def test_hold_when_preferred_is_best(self):
        decisions = ingest(
            window_samples(0, rtt_ms=40.0, rank=0),
            window_samples(0, rtt_ms=47.0, rank=1),
        ).decisions
        assert len(decisions) == 1
        assert decisions[0].action == "hold"
        assert not decisions[0].is_shift_candidate

    def test_shift_candidate_on_confident_win(self):
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(0, rtt_ms=38.0, rank=1),
        ).decisions
        assert decisions[0].is_shift_candidate
        assert decisions[0].alternate_rank == 1
        assert decisions[0].minrtt_improvement_ms > 10.0

    def test_windows_close_in_order(self):
        decisions = ingest(
            *(window_samples(window, rtt_ms=40.0) for window in range(3))
        ).decisions
        assert [d.window for d in decisions] == [0, 1, 2]

    def test_thin_windows_hold(self):
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0, count=10),
            window_samples(0, rtt_ms=38.0, rank=1, count=10),
        ).decisions
        assert decisions[0].action == "hold"

    def test_state_cleared_between_windows(self):
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(0, rtt_ms=38.0, rank=1),
            # Next window: no alternate data; nothing carries over.
            window_samples(1, rtt_ms=52.0, rank=0),
        ).decisions
        assert decisions[0].is_shift_candidate
        assert decisions[1].action == "hold"

    def test_no_hd_capable_transactions_still_allows_rtt_shift(self):
        """Zero capable transactions in the window: neither route has an
        HDratio, the HD guard is vacuous, and a confident RTT win alone
        must still produce a shift candidate (with no claimed HD gain)."""
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(0, rtt_ms=38.0, rank=1),
        ).decisions
        assert decisions[0].is_shift_candidate
        assert decisions[0].hdratio_improvement == 0.0

    def test_no_hd_capable_transactions_and_no_rtt_win_holds(self):
        decisions = ingest(
            window_samples(0, rtt_ms=40.0, rank=0),
            window_samples(0, rtt_ms=39.5, rank=1),
        ).decisions
        assert decisions[0].action == "hold"
        assert decisions[0].alternate_rank is None

    def test_missing_alternate_rank_falls_through_to_next(self):
        """Rank 1 went unmeasured mid-window; the decision must come from
        the rank that actually has data, not assume contiguous ranks."""
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(0, rtt_ms=38.0, rank=2),  # only rank 2 measured
        ).decisions
        assert decisions[0].is_shift_candidate
        assert decisions[0].alternate_rank == 2

    def test_alternate_vanishing_between_windows_does_not_leak(self):
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(0, rtt_ms=38.0, rank=2),
            window_samples(1, rtt_ms=52.0, rank=0),  # rank 2 disappears
        ).decisions
        assert decisions[0].alternate_rank == 2
        assert decisions[1].action == "hold"
        assert decisions[1].alternate_rank is None

    def test_hd_win_stands_alone_without_rtt_win(self):
        """An HDratio win is a shift candidate even when MinRTT is a wash
        (the paper's two-metric decision rule, HD side)."""
        decisions = ingest(
            window_samples(0, rtt_ms=40.0, rank=0, hdratio=0.2),
            window_samples(0, rtt_ms=40.0, rank=1, hdratio=0.9),
        ).decisions
        assert decisions[0].is_shift_candidate
        assert decisions[0].hdratio_improvement > 0.0

    def test_rtt_win_that_costs_hdratio_holds(self):
        """The HD guard: a faster alternate with worse goodput is no
        opportunity (§6 never trades goodput for latency)."""
        decisions = ingest(
            window_samples(0, rtt_ms=52.0, rank=0, hdratio=0.9),
            window_samples(0, rtt_ms=38.0, rank=1, hdratio=0.2),
        ).decisions
        assert decisions[0].action == "hold"

    def test_thresholds_are_the_monitors_own(self):
        """The ingestor's monitor runs the paper's defaults; a monitor with
        other thresholds is built by hand and fed the same aggregations."""
        result = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(0, rtt_ms=38.0, rank=1),
        )
        assert result.decisions[0].is_shift_candidate
        ranks = result.dataset.store.window_ranks(DEFAULT_GROUP)[0]
        strict = StreamingRouteMonitor(minrtt_threshold_ms=20.0)
        (decision,) = strict.on_window_sealed(0, {DEFAULT_GROUP: ranks})
        assert decision.action == "hold"
        assert decision.preferred_sessions == 40
        assert strict.decisions == [decision]

    def test_agrees_with_batch_analysis(self, tmp_path):
        """Streamed decisions ≡ the batch §6 analysis of the replayed
        store, with ``==`` on every field, and shuffled arrival within the
        lateness bound changes nothing."""
        samples = _candidate_trace()
        store = tmp_path / "sealed.store"
        result = StreamingIngestor(
            study_windows=4, out_store=store
        ).offer_all(samples).finish()
        assert result.late.count == 0

        batch = build_dataset(store, study_windows=4)
        assert_decisions_equal_batch(result.decisions, batch.store)

        kinds = _decisions_by_prefix(result.decisions)
        assert all(d.minrtt_improvement_ms > 5.0 for d in kinds[RTT_WIN_PREFIX])
        assert all(
            d.is_shift_candidate and d.hdratio_improvement > 0.05
            for d in kinds[HD_WIN_PREFIX]
        )
        for prefix in (THIN_PREFIX, GUARDED_PREFIX):
            assert [d.action for d in kinds[prefix]] == ["hold", "hold"]

        shuffled = StreamingIngestor(study_windows=4).offer_all(
            jittered_order(samples, LATENESS, seed=11)
        ).finish()
        assert shuffled.late.count == 0
        assert shuffled.decisions == result.decisions


# --------------------------------------------------------------------- #
RTT_WIN_PREFIX = "192.0.2.0/24"
HD_WIN_PREFIX = "192.0.3.0/24"
THIN_PREFIX = "192.0.4.0/24"
GUARDED_PREFIX = "192.0.5.0/24"


def _candidate_trace():
    """A diverse four-window stream (hosting-flagged sessions included)
    plus, in windows 0 and 1, one group of each decision kind: mis-preferred
    on MinRTT, an HDratio-only win, too thin to decide, and an RTT win the
    HD guard suppresses."""
    samples = make_trace_samples(1200, seed=3, windows=4)
    for window in range(2):
        for prefix, preferred, alternate in (
            (RTT_WIN_PREFIX, dict(rtt_ms=52.0), dict(rtt_ms=38.0)),
            (
                HD_WIN_PREFIX,
                dict(rtt_ms=40.0, hdratio=0.2),
                dict(rtt_ms=40.0, hdratio=0.9),
            ),
            (THIN_PREFIX, dict(rtt_ms=52.0, count=10), dict(rtt_ms=38.0, count=10)),
            (
                GUARDED_PREFIX,
                dict(rtt_ms=52.0, hdratio=0.9),
                dict(rtt_ms=38.0, hdratio=0.2),
            ),
        ):
            samples += window_samples(window, rank=0, prefix=prefix, **preferred)
            samples += window_samples(window, rank=1, prefix=prefix, **alternate)
    return sorted(samples, key=lambda s: (s.end_time, s.session_id))


def _decisions_by_prefix(decisions):
    kinds = {}
    for decision in decisions:
        kinds.setdefault(decision.group.prefix, []).append(decision)
    return kinds


def assert_decisions_equal_batch(decisions, store):
    """Every decision is what ``opportunity_series`` over ``store`` says:
    one per (group, window) with preferred-route data, candidate iff the
    HDratio verdict or else the MinRTT verdict fires at the paper's
    thresholds, improvements the verdicts' own differences."""
    assert sorted((d.window, str(d.group)) for d in decisions) == sorted(
        (window, str(group)) for (group, rank, window), _ in store.items() if rank == 0
    )
    verdicts = {
        (group, metric): {
            v.window: v for v in opportunity_series(store, group, metric)
        }
        for group in store.groups()
        for metric in ("hdratio", "minrtt")
    }
    for decision in decisions:
        hd = verdicts[decision.group, "hdratio"].get(decision.window)
        rtt = verdicts[decision.group, "minrtt"].get(decision.window)
        hd_fires = hd is not None and hd.event_at(DEFAULT_HDRATIO_THRESHOLD)
        rtt_fires = rtt is not None and rtt.event_at(DEFAULT_MINRTT_THRESHOLD_MS)
        sessions = store.get(decision.group, 0, decision.window).session_count
        assert decision.is_shift_candidate == (hd_fires or rtt_fires)
        if not decision.is_shift_candidate:
            assert decision == RouteDecision(
                decision.group, decision.window, "hold", preferred_sessions=sessions
            )
            continue
        winner = hd if hd_fires else rtt

        def gain(verdict):
            same = (
                verdict is not None
                and verdict.valid
                and verdict.alternate_rank == winner.alternate_rank
            )
            return verdict.difference if same else 0.0

        assert decision == RouteDecision(
            decision.group,
            decision.window,
            "consider_alternate",
            alternate_rank=winner.alternate_rank,
            minrtt_improvement_ms=gain(rtt),
            hdratio_improvement=gain(hd),
            preferred_sessions=sessions,
        )


# --------------------------------------------------------------------- #
class TestLateSamples:
    """Lateness is the ingestor's: inside the bound a sample counts, beyond
    it the sample is ledgered and no decision sees it."""

    def test_out_of_order_within_the_bound_decides_like_in_order(self):
        """Regression: the monitor used to close window *w* on the first
        sample of *w*+1, so an alternate's samples arriving just after —
        on time by the ingestor's bound — were dropped (40 counted late)
        and the window decided ``hold``."""
        preferred = window_samples(0, rtt_ms=52.0, rank=0)
        alternate = window_samples(0, rtt_ms=38.0, rank=1)
        following = window_samples(1, rtt_ms=52.0, rank=0)

        in_order = ingest(preferred, alternate, following)
        out_of_order = ingest(preferred, following[:1], alternate, following[1:])

        assert out_of_order.late.count == 0
        assert out_of_order.decisions == in_order.decisions
        assert [d.action for d in in_order.decisions] == [
            "consider_alternate",
            "hold",
        ]

    def test_late_samples_do_not_pollute_current_window(self):
        """Beyond the bound: a fast alternate from a long-sealed window
        must not turn up in the window that is open when it arrives."""
        result = ingest(
            window_samples(0, rtt_ms=52.0, rank=0),
            window_samples(5, rtt_ms=52.0, rank=0),  # seals windows 0-4
            window_samples(0, rtt_ms=38.0, rank=1),
            allowed_lateness_seconds=0.0,
        )
        assert result.late.count == 40
        assert [d.window for d in result.decisions] == [0, 5]
        for decision in result.decisions:
            assert decision.action == "hold"
            assert decision.alternate_rank is None

    def test_on_time_samples_within_window_still_aggregate(self):
        """Out-of-order arrivals *within* one window are not late."""
        base = 1 * AGGREGATION_WINDOW_SECONDS
        result = ingest(
            [
                make_sample(base + 500.0, 40.0, route=make_route()),
                make_sample(base + 100.0, 41.0, route=make_route()),
            ],
            allowed_lateness_seconds=0.0,
        )
        assert result.late.count == 0
        assert result.decisions[0].preferred_sessions == 2


class TestFinishIdempotent:
    def test_second_finish_does_not_duplicate_decisions(self):
        ingestor = StreamingIngestor(study_windows=8)
        ingestor.offer_all(window_samples(0, rtt_ms=40.0))
        first = ingestor.finish().decisions
        assert len(first) == 1
        second = ingestor.finish().decisions
        assert second is first
        assert len(second) == 1

    def test_multi_window_jump_closes_intervening_windows(self):
        """A sample jumping >1 window forward seals the skipped empty
        windows too; they yield no decision and decision windows stay
        monotone."""
        result = ingest(
            window_samples(3, rtt_ms=40.0), window_samples(7, rtt_ms=40.0)
        )
        assert (result.windows_sealed, result.windows_empty) == (5, 3)
        assert [d.window for d in result.decisions] == [3, 7]

    def test_finish_on_empty_monitor_is_clean(self):
        ingestor = StreamingIngestor(study_windows=8)
        assert ingestor.finish().decisions == []
        assert ingestor.finish().decisions == []
        assert StreamingRouteMonitor().on_window_sealed(0, {}) == []


class TestCiWidthBoundary:
    """The CI-width validity gate is inclusive: a comparison whose CI is
    exactly ``MAX_CI_WIDTH_*`` wide is still valid (§5's "sufficiently
    narrow" is ``<=``, not ``<``) for the exact estimator the decisions
    use."""

    @staticmethod
    def _pair():
        a = [50.0 + (index % 9) * 0.4 for index in range(60)]
        b = [40.0 + (index % 9) * 0.4 for index in range(60)]
        return a, b

    def test_width_exactly_at_limit_is_valid(self):
        a, b = self._pair()
        unbounded = compare_medians(a, b)
        width = unbounded.ci_high - unbounded.ci_low
        assert width > 0.0
        at_limit = compare_medians(a, b, max_ci_width=width)
        assert at_limit.valid

    def test_width_just_over_limit_is_invalid(self):
        a, b = self._pair()
        unbounded = compare_medians(a, b)
        width = unbounded.ci_high - unbounded.ci_low
        over = compare_medians(a, b, max_ci_width=math.nextafter(width, 0.0))
        assert not over.valid

    def test_monitor_shift_survives_ci_exactly_at_max_width(self, monkeypatch):
        """End to end: pin MAX_CI_WIDTH_MINRTT_MS to the observed CI width
        and the decision is still a shift candidate; one ulp below, hold."""
        import repro.core.comparison as comparison_mod

        def decide():
            return ingest(
                window_samples(0, rtt_ms=52.0, rank=0),
                window_samples(0, rtt_ms=38.0, rank=1),
            )

        ranks = decide().dataset.store.window_ranks(DEFAULT_GROUP)[0]
        cmp = compare_medians(ranks[0].min_rtts_ms, ranks[1].min_rtts_ms)
        width = cmp.ci_high - cmp.ci_low
        assert width > 0.0

        monkeypatch.setattr(comparison_mod, "MAX_CI_WIDTH_MINRTT_MS", width)
        assert decide().decisions[0].is_shift_candidate
        monkeypatch.setattr(
            comparison_mod, "MAX_CI_WIDTH_MINRTT_MS", math.nextafter(width, 0.0)
        )
        assert decide().decisions[0].action == "hold"


# --------------------------------------------------------------------- #
_DECISIONS_SCRIPT = """
import dataclasses, json, pathlib, tempfile
from repro.pipeline import StreamingIngestor, build_dataset
from tests.test_pipeline_streaming import (
    _candidate_trace,
    assert_decisions_equal_batch,
)

with tempfile.TemporaryDirectory() as scratch:
    store = pathlib.Path(scratch) / "sealed.store"
    ingestor = StreamingIngestor(study_windows=4, out_store=store)
    decisions = ingestor.offer_all(_candidate_trace()).finish().decisions
    assert_decisions_equal_batch(
        decisions, build_dataset(store, study_windows=4).store
    )
print(json.dumps([dataclasses.asdict(d) for d in decisions]))
"""


class TestDecisionOrder:
    """Decisions come out in the seal's canonical install order — windows
    ascending, and within a window the groups in the order their first
    kept sample sorts — so the list is the same under every
    ``PYTHONHASHSEED`` (it once followed a set of string-hashed keys), and
    so is its equality with the batch analysis."""

    @staticmethod
    def _decisions_under(hash_seed: int) -> str:
        """The whole decision list, as JSON text, from a fresh interpreter
        (which also checks it against the batch analysis)."""
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

        first_seen = {}
        for sample in _candidate_trace():
            if sample.client_ip_is_hosting:
                continue
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
        rows = json.loads(first)
        assert [(row["window"], row["group"]) for row in rows] == expected
        assert len({tuple(row["group"].values()) for row in rows}) > 10
        assert sum(row["action"] == "consider_alternate" for row in rows) >= 4


# --------------------------------------------------------------------- #
class TestOneStatementOfEachRule:
    """The §5/§6 per-window rules live in ``core/comparison.py``; the
    windowing lives in ``pipeline/ingest.py``. Nothing else may grow a
    copy."""

    SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

    @staticmethod
    def _names(path):
        """Every identifier a module mentions, imports or defines."""
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        return names

    def test_private_rule_helpers_stay_in_comparison(self):
        private = {"_one_sample_verdict", "_two_sample_comparison", "_best_alternate"}
        users = [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            if private & self._names(path)
        ]
        assert users == ["core/comparison.py"]

    def test_monitor_has_no_windowing_and_no_digest_statistics(self):
        names = self._names(self.SRC / "pipeline" / "streaming.py")
        assert not names & {
            "window_index",
            "streaming_compare",
            "observe",
            "finish",
            "late_samples",
            "closed_windows",
            "_current_window",
        }
        pipeline_users = [
            path.name
            for path in sorted((self.SRC / "pipeline").glob("*.py"))
            if "window_index" in self._names(path)
        ]
        assert pipeline_users == ["experiments.py", "ingest.py"]
        assert not any(
            "streaming_compare" in self._names(path)
            for path in (self.SRC / "pipeline").glob("*.py")
        )
