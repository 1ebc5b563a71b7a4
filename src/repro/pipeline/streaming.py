"""Real-time route monitoring over the sample stream.

A bounded-memory, single-pass monitor of the kind the paper's footnote 11
sketches for production traffic engineering: per (user group, route rank)
state for the *current* window only, kept as t-digests, emitting a
:class:`RouteDecision` per group when a window closes. This is the
near-real-time counterpart of the batch analysis in
:mod:`repro.pipeline.routing_analysis` — same statistics, O(groups) memory,
no sample retention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.aggregation import window_index
from repro.core.constants import (
    AGGREGATION_WINDOW_SECONDS,
    DEFAULT_HDRATIO_THRESHOLD,
    DEFAULT_MINRTT_THRESHOLD_MS,
    MAX_CI_WIDTH_HDRATIO,
    MAX_CI_WIDTH_MINRTT_MS,
)
from repro.core.hdratio import compute_hdratio
from repro.core.records import SessionSample, UserGroupKey
from repro.stats.streaming import StreamingAggregate, streaming_compare

__all__ = ["RouteDecision", "StreamingRouteMonitor"]


@dataclass(frozen=True)
class RouteDecision:
    """What the monitor concluded for one group at window close.

    ``action`` is ``"hold"`` (preferred route fine, or not enough signal)
    or ``"consider_alternate"`` (a CI-confirmed, HD-guarded win exists on
    ``alternate_rank``). Decisions are advisory: acting on them safely is
    the job of :class:`repro.edge.detour.GradualController`.
    """

    group: UserGroupKey
    window: int
    action: str
    alternate_rank: Optional[int] = None
    minrtt_improvement_ms: float = 0.0
    hdratio_improvement: float = 0.0
    preferred_sessions: int = 0

    @property
    def is_shift_candidate(self) -> bool:
        return self.action == "consider_alternate"


class StreamingRouteMonitor:
    """Single-pass monitor: feed samples, collect per-window decisions.

    Samples must arrive roughly in event-time order: the monitor keeps
    state for the *current* window only, so a sample whose window already
    closed cannot be aggregated any more. Such **late** samples are
    excluded from window state (folding them into the current window would
    corrupt its t-digests), counted on :attr:`late_samples`, and — when a
    ``metrics`` registry is supplied — under the ``stream.late_samples``
    counter. Pipelines that must *keep* late samples buffer them upstream
    with a watermark instead (:class:`repro.pipeline.ingest.StreamingIngestor`,
    which feeds this monitor only sealed, in-order windows).

    :attr:`closed_windows` records every window the monitor closed, in
    order, **including empty ones** skipped when a sample jumps more than
    one window forward — so the record is gapless and monotone, and the
    windows appearing in :attr:`decisions` are a subset of it in the same
    order.
    """

    def __init__(
        self,
        window_seconds: float = AGGREGATION_WINDOW_SECONDS,
        minrtt_threshold_ms: float = DEFAULT_MINRTT_THRESHOLD_MS,
        hdratio_threshold: float = DEFAULT_HDRATIO_THRESHOLD,
        compression: float = 100.0,
        metrics=None,
    ) -> None:
        self.window_seconds = window_seconds
        self.minrtt_threshold_ms = minrtt_threshold_ms
        self.hdratio_threshold = hdratio_threshold
        self.compression = compression
        #: Optional :class:`repro.obs.MetricsRegistry` receiving the
        #: ``stream.late_samples`` execution counter.
        self.metrics = metrics
        self._current_window: Optional[int] = None
        #: Current-window state, ``group -> rank -> aggregate`` in first-seen
        #: order — the order a window's decisions come out in.
        self._state: Dict[UserGroupKey, Dict[int, StreamingAggregate]] = {}
        self._finished = False
        self.decisions: List[RouteDecision] = []
        #: Late samples seen (window earlier than the current one); they
        #: are counted, never aggregated.
        self.late_samples = 0
        #: Every window closed so far, gapless and monotone (empty skipped
        #: windows included).
        self.closed_windows: List[int] = []

    # ------------------------------------------------------------------ #
    def observe(self, sample: SessionSample) -> bool:
        """Feed one sample; returns False when it was late (and dropped).

        Samples must arrive roughly in time order; a sample whose window
        precedes the current one arrived after its window closed and is
        excluded from aggregation (see the class docstring).
        """
        if self._finished:
            raise ValueError("monitor is finished; create a new one")
        if sample.route is None:
            raise ValueError("sample is missing its route annotation")
        window = window_index(sample.end_time, self.window_seconds)
        if self._current_window is None:
            self._current_window = window
        elif window > self._current_window:
            self._close_window()
            # A jump of more than one window closes the skipped, empty
            # windows too, keeping closed_windows gapless and monotone.
            for skipped in range(self._current_window + 1, window):
                self.closed_windows.append(skipped)
            self._current_window = window
        elif window < self._current_window:
            self.late_samples += 1
            if self.metrics is not None:
                self.metrics.inc("stream.late_samples")
            return False
        group = UserGroupKey(
            pop=sample.pop,
            prefix=sample.route.prefix,
            country=sample.client_country,
        )
        ranks = self._state.setdefault(group, {})
        aggregate = ranks.get(sample.route.preference_rank)
        if aggregate is None:
            aggregate = StreamingAggregate.empty(self.compression)
            ranks[sample.route.preference_rank] = aggregate
        aggregate.add(
            sample.min_rtt_ms, compute_hdratio(sample), sample.bytes_sent
        )

    def observe_all(self, samples: Iterable[SessionSample]) -> None:
        for sample in samples:
            self.observe(sample)

    def finish(self) -> List[RouteDecision]:
        """Close the trailing window and return every decision made.

        Idempotent: calling it again returns the same decision list
        without re-closing state or duplicating decisions.
        """
        if self._finished:
            return self.decisions
        if self._current_window is not None:
            self._close_window()
        self._current_window = None
        self._finished = True
        return self.decisions

    # ------------------------------------------------------------------ #
    def _close_window(self) -> None:
        if self._current_window is None:
            # State without a window has no honest label; the old fallback
            # (window 0) silently mislabeled every decision it produced.
            if self._state:
                raise RuntimeError(
                    "cannot close window state without a current window"
                )
            return
        window = self._current_window
        self.closed_windows.append(window)
        for group in self._state:
            decision = self._decide(group, window)
            if decision is not None:
                self.decisions.append(decision)
        self._state.clear()

    def _decide(self, group: UserGroupKey, window: int) -> Optional[RouteDecision]:
        ranks = self._state[group]
        preferred = ranks.get(0)
        if preferred is None:
            return None
        alternates = [
            (rank, aggregate) for rank, aggregate in ranks.items() if rank > 0
        ]
        best: Optional[Tuple[int, float, float]] = None  # rank, rtt gain, hd gain
        for rank, aggregate in alternates:
            rtt_cmp = streaming_compare(
                preferred.rtt_digest,
                aggregate.rtt_digest,
                max_ci_width=MAX_CI_WIDTH_MINRTT_MS,
            )
            hd_cmp = streaming_compare(
                aggregate.hd_digest,
                preferred.hd_digest,
                max_ci_width=MAX_CI_WIDTH_HDRATIO,
            )
            hd_gain = hd_cmp.difference if hd_cmp.valid else 0.0
            # HDratio win stands alone; a MinRTT win needs the HD guard.
            if hd_cmp.valid and hd_cmp.exceeds(self.hdratio_threshold):
                candidate = (rank, max(rtt_cmp.difference, 0.0), hd_gain)
            elif (
                rtt_cmp.valid
                and rtt_cmp.exceeds(self.minrtt_threshold_ms)
                and (not hd_cmp.valid or hd_cmp.statistically_equal_or_greater())
            ):
                candidate = (rank, rtt_cmp.difference, max(hd_gain, 0.0))
            else:
                continue
            if best is None or candidate[1] + candidate[2] * 100 > (
                best[1] + best[2] * 100
            ):
                best = candidate

        if best is None:
            return RouteDecision(
                group=group,
                window=window,
                action="hold",
                preferred_sessions=preferred.session_count,
            )
        rank, rtt_gain, hd_gain = best
        return RouteDecision(
            group=group,
            window=window,
            action="consider_alternate",
            alternate_rank=rank,
            minrtt_improvement_ms=rtt_gain if not math.isnan(rtt_gain) else 0.0,
            hdratio_improvement=hd_gain,
            preferred_sessions=preferred.session_count,
        )
