"""Study dataset: one pass over the sample stream, everything derived.

:class:`StudyDataset` ingests the (filtered) session stream once and keeps
both views the experiments need:

- **per-session table** (:class:`~repro.pipeline.table.SessionTable`) —
  one typed column per session field, for the distribution figures (1, 2,
  3, 6, 7) where each session is one point (``rows`` is its read-only
  :class:`SessionRow` view);
- **aggregations** — the (user group, route rank, window) store driving the
  temporal/routing analyses (Figures 5, 8, 9, 10, Tables 1–2).

HDratio is computed exactly once per session, during ingestion, through the
full §3.2 path (coalescing → eligibility → capability → achievement).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.aggregation import AggregationStore
from repro.core.hdratio import naive_hdratio, session_goodput
from repro.core.records import HttpVersion, SessionSample
from repro.obs import MetricsRegistry
from repro.pipeline.filters import FilterStats, record_sample
from repro.pipeline.table import (
    SessionChunk,
    SessionRow,
    SessionRows,
    SessionTable,
)

__all__ = ["SessionRow", "StudyDataset"]


class StudyDataset:
    """Single-pass collector for all experiment drivers.

    ``study_windows`` is the nominal number of 15-minute windows in the
    study period (used by the coverage rule); ``keep_response_sizes``
    controls whether per-transaction sizes are retained (needed only by the
    Figure 2 driver — disable for large runs that skip it).
    """

    def __init__(
        self,
        study_windows: int,
        keep_response_sizes: bool = True,
        compute_naive: bool = False,
        window_seconds: float = 900.0,
    ) -> None:
        if study_windows <= 0:
            raise ValueError("study_windows must be positive")
        self.study_windows = study_windows
        self.keep_response_sizes = keep_response_sizes
        self.compute_naive = compute_naive
        self.window_seconds = window_seconds
        #: The kept sessions, one typed column per field (DESIGN.md §10).
        self.table = SessionTable()
        #: The row oracle's chunk, opened by its first kept session.
        self._oracle_chunk: Optional[SessionChunk] = None
        #: Per-dataset observability registry. Always freshly constructed —
        #: never inherited from an activation — so every shard worker (even
        #: a thread sharing this process) counts into its own registry and
        #: the parallel merge cannot double-count.
        self.metrics = MetricsRegistry()
        self.store = AggregationStore(
            window_seconds=window_seconds, metrics=self.metrics
        )
        self.filter_stats = FilterStats()
        #: Per-shard execution report filled by the parallel pipeline
        #: (empty for serial ingestion): dicts of ordinal/rows/wall_seconds.
        self.shard_report: List[dict] = []
        #: Set by the parallel pipeline when shards were quarantined: a
        #: :class:`repro.pipeline.parallel.DegradedLedger` naming every
        #: lost shard and the samples/partitions lost with it. ``None``
        #: for clean (or serial) runs.
        self.degraded = None
        self._verdict_cache: dict = {}
        #: ``store.mutation_count`` the cached series were computed at.
        self._verdict_cache_at = 0

    @property
    def windows_per_day(self) -> int:
        return max(int(round(86400.0 / self.window_seconds)), 1)

    def verdicts(self, metric: str, kind: str):
        """Cached degradation/opportunity verdict series per user group.

        ``kind`` is ``"degradation"`` or ``"opportunity"``. Several
        figure/table drivers need the same verdict series; recomputing the
        confidence intervals per driver dominates analysis time otherwise.

        The cache lives exactly as long as the data it was computed from:
        every series is dropped once ``store.mutation_count`` has moved
        (any ``add`` / ``put`` / ``replace`` since), so a live dataset
        — ``StreamingIngestor.dataset`` between seals — answers for what it
        holds now, and a built-then-read-only one computes each series once.
        """
        if kind not in ("degradation", "opportunity"):
            raise ValueError(f"unknown verdict kind {kind!r}")
        mutations = self.store.mutation_count
        if self._verdict_cache_at != mutations:
            self._verdict_cache.clear()
            self._verdict_cache_at = mutations
        key = (metric, kind)
        if key in self._verdict_cache:
            return self._verdict_cache[key]
        from repro.core.comparison import degradation_series, opportunity_series

        result = {}
        for group in self.store.groups():
            if kind == "degradation":
                series = degradation_series(self.store, group, metric)
            else:
                series = opportunity_series(self.store, group, metric)
            if series:
                result[group] = series
        self._verdict_cache[key] = result
        return result

    def ingest_one(self, sample: SessionSample) -> bool:
        """Filter, measure, and aggregate one sample; True if it was kept.

        The reference fold: everything a sample contributes — session,
        aggregation, filter accounting, counters — spelled per record.
        Nothing under ``src/repro`` calls it; the tests hold
        ``build_dataset`` (the column kernels) to it byte for byte.
        """
        metrics = self.metrics
        metrics.inc("pipeline.samples.read")
        if not record_sample(sample, self.filter_stats):
            metrics.inc("pipeline.samples.dropped_hosting")
            return False
        metrics.inc("pipeline.samples.kept")
        if sample.transactions:
            summary = session_goodput(sample.transactions, sample.min_rtt_seconds)
            hd = summary.hdratio
            # The §3.2 funnel, summed across sessions: raw records in,
            # coalesced away, dropped by bytes-in-flight, Gtestable, achieved.
            metrics.inc("methodology.transactions.raw", summary.raw_count)
            metrics.inc("methodology.transactions.coalesced", summary.merged_away)
            metrics.inc(
                "methodology.transactions.inflight_dropped",
                summary.inflight_dropped,
            )
            metrics.inc("methodology.transactions.gtestable", summary.tested)
            metrics.inc("methodology.transactions.achieved", summary.achieved)
            if summary.tested:
                metrics.inc("methodology.sessions.hd_testable")
        else:
            hd = None
        naive = (
            naive_hdratio(sample.transactions, sample.min_rtt_seconds)
            if self.compute_naive and sample.transactions
            else None
        )
        chunk = self._oracle_chunk
        if chunk is None:
            chunk = self._oracle_chunk = SessionChunk()
            self.table.chunks.append(chunk)
        keep_sizes = self.keep_response_sizes
        chunk.add(
            len(chunk),
            sample.min_rtt_ms,
            hd,
            naive,
            sample.bytes_sent,
            sample.duration,
            sample.busy_fraction,
            sample.transaction_count,
            sample.http_version is HttpVersion.HTTP_2,
            sample.client_continent,
            sample.geo_tag,
            [t.response_bytes for t in sample.transactions] if keep_sizes else (),
            sample.media_response_sizes if keep_sizes else (),
        )
        self.store.add(sample, hdratio=hd)
        return True

    def ingest(self, samples: Iterable[SessionSample]) -> "StudyDataset":
        """The row oracle: :meth:`ingest_one` over a stream. Returns self."""
        for sample in samples:
            self.ingest_one(sample)
        return self

    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> SessionRows:
        """The sessions as :class:`SessionRow` tuples in stream order: a
        read-only view that builds them when iterated."""
        return SessionRows(self.table)

    @property
    def session_count(self) -> int:
        return len(self.table)
