"""Always-on streaming ingest: watermarked windows over an unbounded stream.

The paper's production pipeline is continuous — per-(PoP, prefix, country)
aggregations over 15-minute windows, degradation baselines maintained over
the trailing 14 days (§4–§5) — while the rest of this reproduction
re-scans saved batches. :class:`StreamingIngestor` is the continuous mode:
sessions are offered one at a time in roughly event-time order, buffered
per window, and **sealed** by an event-time watermark:

- The watermark is ``max(end_time seen) − allowed_lateness``. Window ``w``
  (covering ``[w·W, (w+1)·W)`` seconds) seals once the watermark passes its
  end; windows seal in ascending order, and empty windows in between are
  sealed too, so the sealed-window record is gapless and monotone.
- A sample whose window already sealed is **late beyond the lateness
  bound**: it is counted (``stream.late_samples``), routed to the
  :class:`LateSampleLedger`, and never touches sealed state.
- At seal, the window's samples are sorted into **canonical order**
  ``(end_time, session_id)`` before ingestion. Window membership depends
  only on ``end_time``, so any arrival order that respects the lateness
  bound yields byte-identical output — the replay-equivalence invariant.

Sealed windows feed four sinks, in canonical order:

1. the :class:`~repro.pipeline.dataset.StudyDataset` (sessions, aggregations,
   filter accounting — each window folds through the column kernels
   ``build_dataset`` runs, :mod:`repro.kernels.engine`);
2. the output store, appended as new CRC'd, prunable partitions through
   one :class:`repro.store.StoreAppender` session — *unfiltered*, so a
   batch re-scan of the store reproduces the exact filtering decisions;
3. the :class:`OnlineTemporalAnalyzer` — §5 degradation verdicts against a
   trailing baseline and the uneventful/diurnal/episodic classifier,
   re-evaluated incrementally as each window seals;
4. the :class:`~repro.pipeline.streaming.StreamingRouteMonitor` — one §6
   route decision per group with preferred-route traffic in the window.

This module is the only windowing implementation: both analysis sinks are
handed the aggregations a seal installed and keep no window state.

A seal **stages, appends, installs**: the window is folded into a fresh
:class:`~repro.kernels.engine.BatchIngestor` (no shared state touched),
then appended to the store, and only then popped, counted, installed into
the dataset and handed to the analyzer and the monitor. A fold that refuses
a sample or an append that fails therefore leaves the window pending,
nothing counted and nothing appended — never a phantom empty window.

**Standing invariant** (enforced by ``tests/test_pipeline_ingest.py``):
replaying the sealed output store batch-style produces a byte-identical
dataset — same rows, same aggregation store, same filter stats, same
data-fact counters, same figures — including when the live stream arrived
shuffled within the lateness bound. Store scan order is sequence order,
sequences are assigned at seal in canonical order, so the batch re-scan
*is* the canonical replay.

Counter discipline: everything the ingestor learns about the *data* lands
in the dataset's own registry (the serial-vs-parallel equality machinery
covers it); everything about this *execution* — ``stream.*`` — goes to the
ingestor's registry only, like the ``fault.*`` counters of a degraded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.aggregation import Aggregation, window_index
from repro.core.classification import GroupClassification, classify_group
from repro.core.comparison import (
    WindowVerdict,
    compute_baseline,
    degradation_verdict,
)
from repro.core.constants import (
    AGGREGATION_WINDOW_SECONDS,
    DEFAULT_HDRATIO_THRESHOLD,
    DEFAULT_MINRTT_THRESHOLD_MS,
)
from repro.core.records import SessionSample, UserGroupKey
from repro.obs import MetricsRegistry
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.streaming import RouteDecision, StreamingRouteMonitor
from repro.store import DEFAULT_BAND_WINDOWS, StoreAppender
from repro.store.writer import _check_banding, shred_partitions

__all__ = [
    "DEFAULT_ALLOWED_LATENESS_SECONDS",
    "DEFAULT_BASELINE_WINDOWS",
    "DegradationAlert",
    "IngestResult",
    "LateSampleLedger",
    "OnlineTemporalAnalyzer",
    "StreamingIngestor",
]

#: Two aggregation windows of allowed lateness — generous for a pipeline
#: whose collection tier ships state off the load balancer within seconds,
#: tight enough that sealed windows lag real time by half an hour at most.
DEFAULT_ALLOWED_LATENESS_SECONDS = 2 * AGGREGATION_WINDOW_SECONDS

#: The paper's 14-day degradation baseline, in 15-minute windows.
DEFAULT_BASELINE_WINDOWS = 14 * 96


class LateSampleLedger:
    """Side ledger for samples that arrived after their window sealed.

    Late samples never enter sealed state, but they are not silently
    dropped either: the ledger keeps a full per-window count and retains
    up to ``max_retained`` of the samples themselves (bounded memory) for
    offline backfill or debugging.
    """

    def __init__(self, max_retained: int = 1000) -> None:
        self.max_retained = max_retained
        self.count = 0
        self.per_window: Dict[int, int] = {}
        self.retained: List[SessionSample] = []

    def record(self, sample: SessionSample, window: int) -> None:
        self.count += 1
        self.per_window[window] = self.per_window.get(window, 0) + 1
        if len(self.retained) < self.max_retained:
            self.retained.append(sample)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "retained": len(self.retained),
            "per_window": {
                str(window): count
                for window, count in sorted(self.per_window.items())
            },
        }


@dataclass(frozen=True)
class DegradationAlert:
    """One online §5 degradation event: a sealed window whose metric sits
    above the group's trailing baseline with CI-lower-bound confidence."""

    group: UserGroupKey
    window: int
    metric: str  # "minrtt" | "hdratio"
    difference: float
    ci_low: float
    traffic_bytes: int


class OnlineTemporalAnalyzer:
    """Incremental §5 temporal analysis over sealed windows.

    The batch pipeline computes each group's baseline over its whole
    series, then judges every window against it. Online, the baseline is
    *trailing*: each sealed window is judged against the baseline of the
    previous ``baseline_windows`` sealed windows (the paper's 14 days),
    after at least ``min_baseline_windows`` windows of history exist —
    exactly the alerting loop a production deployment runs.

    Per group and metric the analyzer keeps the full verdict series, so
    :meth:`classifications` can re-run the uneventful / continuous /
    diurnal / episodic classifier at any point in the stream using the
    windows sealed *so far* as the study period.
    """

    def __init__(
        self,
        baseline_windows: int = DEFAULT_BASELINE_WINDOWS,
        min_baseline_windows: int = 4,
        minrtt_threshold_ms: float = DEFAULT_MINRTT_THRESHOLD_MS,
        hdratio_threshold: float = DEFAULT_HDRATIO_THRESHOLD,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if baseline_windows < 1:
            raise ValueError("baseline_windows must be >= 1")
        self.baseline_windows = baseline_windows
        self.min_baseline_windows = min_baseline_windows
        self.minrtt_threshold_ms = minrtt_threshold_ms
        self.hdratio_threshold = hdratio_threshold
        self.metrics = metrics
        self.alerts: List[DegradationAlert] = []
        self._series: Dict[UserGroupKey, List[Aggregation]] = {}
        self._verdicts: Dict[Tuple[UserGroupKey, str], List[WindowVerdict]] = {}
        self._windows_sealed = 0

    def on_window_sealed(
        self, window: int, aggregations: Dict[UserGroupKey, Aggregation]
    ) -> List[DegradationAlert]:
        """Judge one sealed window's preferred-route aggregations.

        ``aggregations`` maps each group to its rank-0 aggregation for
        this window (groups without preferred-route traffic are simply
        absent, matching ``degradation_series`` skipping them). Returns
        the alerts this window raised (also accumulated on ``alerts``).
        """
        self._windows_sealed += 1
        raised: List[DegradationAlert] = []
        for group in sorted(
            aggregations, key=lambda g: (g.pop, g.prefix, g.country)
        ):
            aggregation = aggregations[group]
            history = self._series.setdefault(group, [])
            if len(history) >= self.min_baseline_windows:
                baseline = compute_baseline(history[-self.baseline_windows :])
                raised.extend(
                    self._judge(group, window, aggregation, baseline)
                )
            history.append(aggregation)
        self.alerts.extend(raised)
        if self.metrics is not None and raised:
            self.metrics.inc("stream.alerts", len(raised))
        return raised

    def _judge(self, group, window, aggregation, baseline):
        raised = []
        for metric, threshold in (
            ("minrtt", self.minrtt_threshold_ms),
            ("hdratio", self.hdratio_threshold),
        ):
            verdict = degradation_verdict(aggregation, baseline, metric)
            if verdict is None:
                continue
            self._verdicts.setdefault((group, metric), []).append(verdict)
            if verdict.event_at(threshold):
                raised.append(
                    DegradationAlert(
                        group=group,
                        window=window,
                        metric=metric,
                        difference=verdict.difference,
                        ci_low=verdict.ci_low,
                        traffic_bytes=verdict.traffic_bytes,
                    )
                )
        return raised

    def classifications(
        self, metric: str = "minrtt"
    ) -> Dict[UserGroupKey, GroupClassification]:
        """Current §5 temporal class per group, over the stream so far."""
        if metric not in ("minrtt", "hdratio"):
            raise ValueError("metric must be 'minrtt' or 'hdratio'")
        threshold = (
            self.minrtt_threshold_ms
            if metric == "minrtt"
            else self.hdratio_threshold
        )
        # Coverage is judged over the windows that *could* carry a verdict:
        # the warm-up windows spent building the first baseline can't, and
        # counting them would leave every group unclassified early on.
        study_windows = max(self._windows_sealed - self.min_baseline_windows, 1)
        return {
            group: classify_group(verdicts, threshold, study_windows)
            for (group, verdict_metric), verdicts in self._verdicts.items()
            if verdict_metric == metric
        }


@dataclass
class IngestResult:
    """Everything a finished (or snapshotted) streaming run produced."""

    dataset: StudyDataset
    alerts: List[DegradationAlert]
    decisions: List[RouteDecision]
    classifications: Dict[UserGroupKey, GroupClassification]
    late: LateSampleLedger
    windows_sealed: int
    windows_empty: int
    samples_offered: int
    samples_sealed: int

    def class_counts(self) -> Dict[str, int]:
        """Histogram of temporal classes over classified groups."""
        counts: Dict[str, int] = {}
        for classification in self.classifications.values():
            label = (
                classification.temporal_class.value
                if classification.temporal_class is not None
                else "unclassified"
            )
            counts[label] = counts.get(label, 0) + 1
        return counts


class StreamingIngestor:
    """Long-running ingest: offer samples, seal windows, analyze online.

    See the module docstring for the watermark/lateness/replay semantics.
    ``out_store`` is the optional sealed-window store (a ``*.store``
    directory, created on first seal); ``metrics`` is the *execution*
    registry receiving the ``stream.*`` counters (defaults to a fresh
    registry; pass :func:`repro.obs.active_metrics` output to surface them
    in a run manifest). Data-fact counters accumulate in
    ``self.dataset.metrics`` exactly as a batch build's would.
    """

    def __init__(
        self,
        study_windows: int,
        window_seconds: float = AGGREGATION_WINDOW_SECONDS,
        allowed_lateness_seconds: float = DEFAULT_ALLOWED_LATENESS_SECONDS,
        out_store=None,
        band_windows: Optional[int] = None,
        keep_response_sizes: bool = True,
        compute_naive: bool = False,
        analyzer: Optional[OnlineTemporalAnalyzer] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_retained_late: int = 1000,
    ) -> None:
        if band_windows is None:
            band_windows = DEFAULT_BAND_WINDOWS
        _check_banding(band_windows, window_seconds)
        if allowed_lateness_seconds < 0:
            raise ValueError("allowed_lateness_seconds must be >= 0")
        self.window_seconds = window_seconds
        self.allowed_lateness_seconds = allowed_lateness_seconds
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: One dict builds the dataset and each seal's batch ingestor.
        self._dataset_kwargs = dict(
            study_windows=study_windows,
            keep_response_sizes=keep_response_sizes,
            compute_naive=compute_naive,
            window_seconds=window_seconds,
        )
        self.dataset = StudyDataset(**self._dataset_kwargs)
        self.analyzer = (
            analyzer
            if analyzer is not None
            else OnlineTemporalAnalyzer(metrics=self.metrics)
        )
        if self.analyzer.metrics is None:
            self.analyzer.metrics = self.metrics
        #: §6 at the paper's default thresholds; always on, like the analyzer.
        self.monitor = StreamingRouteMonitor()
        self.late = LateSampleLedger(max_retained=max_retained_late)
        self._pending: Dict[int, List[SessionSample]] = {}
        #: The one append session on ``out_store``. It touches nothing until
        #: the first non-empty seal appends through it.
        self._appender = (
            None
            if out_store is None
            else StoreAppender(
                out_store,
                band_windows=band_windows,
                window_seconds=window_seconds,
                metrics=self.metrics,
            )
        )
        self._watermark = -math.inf
        #: Next window index to seal; ``None`` until the first seal decides
        #: where the gapless sealed record starts.
        self._next_seal: Optional[int] = None
        self._windows_sealed = 0
        self._windows_empty = 0
        self._samples_offered = 0
        self._samples_sealed = 0
        self._finished = False

    # ------------------------------------------------------------------ #
    @property
    def watermark(self) -> float:
        """Event-time watermark: ``max(end_time) − allowed_lateness``."""
        return self._watermark

    @property
    def windows_sealed(self) -> int:
        return self._windows_sealed

    def offer(self, sample: SessionSample) -> bool:
        """Feed one sample; returns False when it was late (ledgered).

        A kept (non-hosting) sample without a route annotation is refused
        with the fold's own ``ValueError`` before it is buffered or
        counted: no seal could ever fold it, so buffering it would wedge
        its window and every later one. Hosting-flagged samples may lack
        a route — the filter drops them before the route is read.

        An offer that advances the watermark seals the windows it passes.
        A seal is all-or-nothing: if folding a window or appending it to
        ``out_store`` raises, the exception propagates from here with the
        window still pending and no counter moved, and the next watermark
        advance or :meth:`finish` retries it. The offered sample itself
        *was* accepted — do not offer it again.
        """
        if self._finished:
            raise ValueError("ingestor is finished; create a new one")
        if sample.route is None and not sample.client_ip_is_hosting:
            raise ValueError("sample is missing its egress route annotation")
        self._samples_offered += 1
        window = window_index(sample.end_time, self.window_seconds)
        if self._next_seal is not None and window < self._next_seal:
            self.late.record(sample, window)
            self.metrics.inc("stream.late_samples")
            return False
        self._pending.setdefault(window, []).append(sample)
        advanced = sample.end_time - self.allowed_lateness_seconds
        if advanced > self._watermark:
            self._watermark = advanced
            self._seal_ready()
        return True

    def offer_all(self, samples: Iterable[SessionSample]) -> "StreamingIngestor":
        for sample in samples:
            self.offer(sample)
        return self

    def finish(self) -> IngestResult:
        """Seal every pending window and return the run's result.

        Idempotent: a second call returns an equivalent result without
        re-sealing anything (offering more samples after it raises).
        """
        if not self._finished:
            if self._pending:
                self._seal_through(max(self._pending))
            metrics = self.dataset.metrics
            metrics.set_gauge("pipeline.rows", self.dataset.session_count)
            metrics.set_gauge(
                "pipeline.aggregations", len(self.dataset.store)
            )
            metrics.set_gauge(
                "pipeline.groups", len(self.dataset.store.groups())
            )
            self._finished = True
        return IngestResult(
            dataset=self.dataset,
            alerts=self.analyzer.alerts,
            decisions=self.monitor.decisions,
            classifications=self.analyzer.classifications(),
            late=self.late,
            windows_sealed=self._windows_sealed,
            windows_empty=self._windows_empty,
            samples_offered=self._samples_offered,
            samples_sealed=self._samples_sealed,
        )

    # ------------------------------------------------------------------ #
    def _seal_ready(self) -> None:
        """Seal every window whose end the watermark has passed."""
        if not self._pending and self._next_seal is None:
            return
        # Highest window w with (w+1)·W <= watermark.
        bound = math.floor(self._watermark / self.window_seconds) - 1
        self._seal_through(bound)

    def _seal_through(self, last_window: int) -> None:
        if self._next_seal is None:
            # The gapless sealed record starts at the earliest buffered
            # window — but only once the watermark actually reaches it;
            # setting it any earlier would misbrand still-admissible
            # earlier windows as late.
            if not self._pending:
                return
            start = min(self._pending)
            if start > last_window:
                return
            self._next_seal = start
        while self._next_seal <= last_window:
            self._seal_one(self._next_seal)
            self._next_seal += 1

    def _seal_one(self, window: int) -> None:
        # Imported here, not at module top: repro.kernels.engine imports
        # repro.pipeline.filters, whose package __init__ imports this module.
        from repro.kernels.columns import ColumnBatch
        from repro.kernels.engine import (
            BatchIngestor,
            batches_from_pairs,
            fold_into_dataset,
        )

        samples = self._pending.get(window, [])
        # Canonical seal order: window membership depends only on end_time,
        # so this sort makes every downstream byte independent of arrival
        # order within the lateness bound (the replay invariant).
        samples.sort(key=lambda s: (s.end_time, s.session_id))
        # Shredded once, keyed by window position. With a store, the same
        # column dicts are staged and appended (the appender offsets
        # ``seq`` in new lists, so the staged batches are untouched);
        # without one, nothing needs partitions. The staged order keys
        # continue the previous seals' (``first``), so the dataset's
        # sessions read back in seal order.
        first = self._samples_sealed
        partitions = []
        if self._appender is None:
            batches = batches_from_pairs(enumerate(samples, first))
        else:
            partitions = list(
                shred_partitions(
                    enumerate(samples),
                    self.window_seconds,
                    self._appender.band_windows,
                )
            )
            # ``seq`` indexes ``samples`` until the append renumbers it.
            batches = (
                ColumnBatch.from_store_columns(
                    {**columns, "seq": [first + seq for seq in columns["seq"]]},
                    [samples[seq].route for seq in columns["seq"]],
                )
                for _, columns in partitions
            )
        # Stage, append, install (module docstring): both steps that can
        # fail run while the window is still pending and uncounted.
        staged = BatchIngestor(**self._dataset_kwargs)
        for batch in batches:
            staged.ingest_batch(batch)
        if partitions:
            # Unfiltered: the batch replay re-decides filtering.
            self._appender.append_partitions(partitions)
        self._pending.pop(window, None)
        self._windows_sealed += 1
        self.metrics.inc("stream.windows.sealed")
        if samples:
            self._samples_sealed += len(samples)
            self.metrics.inc("stream.samples.sealed", len(samples))
        else:
            self._windows_empty += 1
            self.metrics.inc("stream.windows.empty")
        # group -> rank -> aggregation, in the fold's install order.
        by_group: Dict[UserGroupKey, Dict[int, Aggregation]] = {}
        for _, (group, rank, _), aggregation in fold_into_dataset(
            self.dataset, staged
        ):
            by_group.setdefault(group, {})[rank] = aggregation
        self.analyzer.on_window_sealed(
            window,
            {group: ranks[0] for group, ranks in by_group.items() if 0 in ranks},
        )
        self.monitor.on_window_sealed(window, by_group)
