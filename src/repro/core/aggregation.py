"""Aggregation of session samples into user groups and time windows (§3.3).

A **user group** is (PoP, client BGP prefix, client country); an
**aggregation** is one user group's samples for one egress route within one
15-minute window. Each aggregation summarizes its sessions as:

- ``MinRTT_P50`` — median of the sessions' MinRTTs (milliseconds);
- ``HDratio_P50`` — median HDratio across sessions that had at least one
  transaction test for HD goodput;
- traffic weight — total bytes carried, used to weight every reported
  distribution (§3.3's argument that prefixes are arbitrary units).

Medians (not means) are used to track shifts of the distribution without
being skewed by second-scale tail RTTs or HDratio's bimodality. The raw
per-session values are retained inside each aggregation because the
comparison layer (§3.4) needs them to compute distribution-free confidence
intervals. (No aggregation holds a t-digest: the paper's footnote 11
construction is not needed while the raw values are kept.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.constants import AGGREGATION_WINDOW_SECONDS, MIN_AGGREGATION_SAMPLES
from repro.core.hdratio import compute_hdratio
from repro.core.records import RouteInfo, SessionSample, UserGroupKey
from repro.stats.weighted import percentile

__all__ = ["Aggregation", "AggregationStore", "window_index"]


def window_index(timestamp: float, window_seconds: float = AGGREGATION_WINDOW_SECONDS) -> int:
    """Index of the fixed time window containing ``timestamp``."""
    return int(math.floor(timestamp / window_seconds))


@dataclass
class Aggregation:
    """Samples for one (user group, route preference rank, window).

    ``route_rank`` is 0 for the policy-preferred route and 1+ for the
    alternates measured in parallel (§2.2.3): keeping ranks separate is what
    makes the §6 preferred-vs-alternate comparison possible.
    """

    group: UserGroupKey
    route_rank: int
    window: int
    min_rtts_ms: List[float] = field(default_factory=list)
    hdratios: List[float] = field(default_factory=list)
    traffic_bytes: int = 0
    session_count: int = 0
    route: Optional["RouteInfo"] = None

    def add(self, sample: SessionSample, hdratio: Optional[float]) -> None:
        """Add one session sample (HDratio may be None: not testable)."""
        self.min_rtts_ms.append(sample.min_rtt_ms)
        if self.route is None:
            self.route = sample.route
        if hdratio is not None:
            self.hdratios.append(hdratio)
        self.traffic_bytes += sample.bytes_sent
        self.session_count += 1

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    @property
    def minrtt_p50(self) -> float:
        if not self.min_rtts_ms:
            raise ValueError("empty aggregation has no MinRTT_P50")
        return percentile(self.min_rtts_ms, 50.0)

    @property
    def hdratio_p50(self) -> Optional[float]:
        if not self.hdratios:
            return None
        return percentile(self.hdratios, 50.0)

    # ------------------------------------------------------------------ #
    # Merging (parallel/sharded ingestion)
    # ------------------------------------------------------------------ #
    def merge(self, other: "Aggregation") -> "Aggregation":
        """Fold a later partition's state for the same key into this one.

        ``other`` must describe the same (group, route rank, window) and its
        samples must come later in the stream than this aggregation's (the
        sharded pipeline merges partitions in stream order), so the raw
        value lists are concatenated — which keeps the per-session order,
        and hence medians and McKean–Schrader CIs, bit-identical to a
        single-process pass.
        """
        if (self.group, self.route_rank, self.window) != (
            other.group,
            other.route_rank,
            other.window,
        ):
            raise ValueError("cannot merge aggregations with different keys")
        self.min_rtts_ms.extend(other.min_rtts_ms)
        self.hdratios.extend(other.hdratios)
        self.traffic_bytes += other.traffic_bytes
        self.session_count += other.session_count
        if self.route is None:
            self.route = other.route
        return self

    @property
    def has_min_samples(self) -> bool:
        return self.session_count >= MIN_AGGREGATION_SAMPLES

    @property
    def has_min_hd_samples(self) -> bool:
        return len(self.hdratios) >= MIN_AGGREGATION_SAMPLES


class AggregationStore:
    """Groups a stream of session samples into aggregations.

    The store is keyed by (user group, route rank, window index). Samples
    without a route annotation are rejected — the measurement pipeline
    guarantees route annotation at session close (§2.2.2).

    Two structures hold the same aggregation objects. ``_store`` is the
    insertion-order record behind :meth:`get`, :meth:`items`,
    :meth:`all_aggregations` and ``len()``. ``_index`` is
    ``group -> window -> rank -> Aggregation`` in first-insertion order,
    and is what the §5–§6 comparisons find their aggregations through:
    :meth:`groups` costs the number of groups, :meth:`route_ranks` the
    ranks of one (group, window), :meth:`group_windows` /
    :meth:`group_series` the group's own windows — none of them walks the
    store. Both are written in one place only, :meth:`_install`, which the
    miss branches of :meth:`add` and :meth:`put`, and :meth:`replace`,
    call; nothing outside this class touches either.
    """

    def __init__(
        self, window_seconds: float = AGGREGATION_WINDOW_SECONDS, metrics=None
    ):
        self.window_seconds = window_seconds
        #: Optional :class:`repro.obs.MetricsRegistry`. Only :meth:`add`
        #: counts into it (one count per sample routed), never the merge
        #: path — so sharded rebuilds keep counters plan-invariant.
        self.metrics = metrics
        #: Number of :meth:`add` / :meth:`put` calls so far (a merge into an
        #: existing key included). Anything derived from the store's
        #: contents is current only while this has not moved —
        #: :meth:`repro.pipeline.dataset.StudyDataset.verdicts` drops its
        #: cache on it.
        self.mutation_count = 0
        self._store: Dict[Tuple[UserGroupKey, int, int], Aggregation] = {}
        self._index: Dict[UserGroupKey, Dict[int, Dict[int, Aggregation]]] = {}

    def key_for(self, sample: SessionSample) -> Tuple[UserGroupKey, int, int]:
        """The (user group, route rank, window) key ``sample`` lands in."""
        if sample.route is None:
            raise ValueError("sample is missing its egress route annotation")
        group = UserGroupKey(
            pop=sample.pop, prefix=sample.route.prefix, country=sample.client_country
        )
        window = window_index(sample.end_time, self.window_seconds)
        return (group, sample.route.preference_rank, window)

    def _install(
        self, key: Tuple[UserGroupKey, int, int], aggregation: Aggregation
    ) -> None:
        """Record a key: the only writer of ``_store`` and ``_index``. A key
        already present keeps its place in both insertion orders."""
        group, rank, window = key
        self._store[key] = aggregation
        ranks = self._index.setdefault(group, {}).setdefault(window, {})
        ranks[rank] = aggregation

    def add(self, sample: SessionSample, hdratio: Optional[float] = None) -> Aggregation:
        """Route one sample into its aggregation; returns the aggregation.

        If ``hdratio`` is not supplied it is computed from the sample's
        transaction records.
        """
        key = self.key_for(sample)
        if hdratio is None and sample.transactions:
            hdratio = compute_hdratio(sample)
        aggregation = self._store.get(key)
        if aggregation is None:
            group, rank, window = key
            aggregation = Aggregation(group=group, route_rank=rank, window=window)
            self._install(key, aggregation)
        aggregation.add(sample, hdratio)
        self.mutation_count += 1
        if self.metrics is not None:
            self.metrics.inc("core.aggregation.samples")
            if hdratio is not None:
                self.metrics.inc("core.aggregation.hd_samples")
        return aggregation

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._store)

    def get(
        self, group: UserGroupKey, route_rank: int, window: int
    ) -> Optional[Aggregation]:
        return self._store.get((group, route_rank, window))

    def groups(self) -> List[UserGroupKey]:
        """Distinct user groups, in insertion order."""
        return list(self._index)

    def windows(self) -> List[int]:
        """Distinct window indices, sorted."""
        return sorted({window for _, _, window in self._store})

    def window_ranks(self, group: UserGroupKey) -> Dict[int, Dict[int, Aggregation]]:
        """One group's ``window -> {route rank: Aggregation}``, both levels
        in first-insertion order (empty for an unknown group). This is the
        store's own index, not a copy: read it, do not write to it."""
        return self._index.get(group, {})

    def group_windows(self, group: UserGroupKey, route_rank: int = 0) -> List[int]:
        """Windows in which ``group`` has samples at ``route_rank``, sorted."""
        return sorted(
            window
            for window, ranks in self.window_ranks(group).items()
            if route_rank in ranks
        )

    def group_series(
        self, group: UserGroupKey, route_rank: int = 0
    ) -> List[Aggregation]:
        """All aggregations of a group at a rank, ordered by window."""
        # Windows are dict keys, hence distinct: the sort never compares ranks.
        return [
            ranks[route_rank]
            for _, ranks in sorted(self.window_ranks(group).items())
            if route_rank in ranks
        ]

    def route_ranks(self, group: UserGroupKey, window: int) -> List[int]:
        """Route ranks with data for ``group`` in ``window``, sorted."""
        return sorted(self.window_ranks(group).get(window, ()))

    def all_aggregations(self) -> List[Aggregation]:
        return list(self._store.values())

    def items(self) -> List[Tuple[Tuple[UserGroupKey, int, int], Aggregation]]:
        """(key, aggregation) pairs in insertion order."""
        return list(self._store.items())

    # ------------------------------------------------------------------ #
    # Merging (parallel/sharded ingestion)
    # ------------------------------------------------------------------ #
    def put(self, key: Tuple[UserGroupKey, int, int], aggregation: Aggregation) -> None:
        """Install (or fold into) an aggregation under ``key``.

        How every built aggregation reaches a store: the column kernels'
        fold (serial builds and each streaming seal) and the sharded
        pipeline's merger both install through here, in exact serial
        insertion order; ``key`` must match the aggregation's own identity
        fields.
        """
        if key != (aggregation.group, aggregation.route_rank, aggregation.window):
            raise ValueError("key does not match the aggregation's identity")
        existing = self._store.get(key)
        if existing is None:
            self._install(key, aggregation)
        else:
            existing.merge(aggregation)
        self.mutation_count += 1

    def replace(
        self, key: Tuple[UserGroupKey, int, int], aggregation: Aggregation
    ) -> None:
        """Install ``aggregation`` in place of the one under ``key`` (which
        must be present), keeping the key's place in both insertion orders:
        how :func:`repro.pipeline.parallel._merge_results` extends a key
        without mutating the aggregation installed there."""
        if key != (aggregation.group, aggregation.route_rank, aggregation.window):
            raise ValueError("key does not match the aggregation's identity")
        if key not in self._store:
            raise KeyError(key)
        self._install(key, aggregation)
        self.mutation_count += 1
