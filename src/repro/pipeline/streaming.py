"""Seal-time route decisions: §6 applied to each window as it seals.

:class:`StreamingRouteMonitor` is a sink of
:class:`repro.pipeline.ingest.StreamingIngestor`, beside the online
temporal analyzer. It does no windowing of its own — lateness, ordering
and gaps are the ingestor's — and no statistics of its own either: each
decision is :func:`repro.core.comparison.opportunity_verdict` over the raw
samples the sealed aggregations hold, so the decisions of a stream equal
the batch §6 analysis of the store that stream sealed, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.core.aggregation import Aggregation
from repro.core.comparison import WindowVerdict, opportunity_verdict
from repro.core.constants import (
    DEFAULT_HDRATIO_THRESHOLD,
    DEFAULT_MINRTT_THRESHOLD_MS,
)
from repro.core.records import UserGroupKey

__all__ = ["RouteDecision", "StreamingRouteMonitor"]


@dataclass(frozen=True)
class RouteDecision:
    """What the monitor concluded for one group when a window sealed.

    ``action`` is ``"hold"`` (preferred route fine, or not enough signal)
    or ``"consider_alternate"`` (a CI-confirmed win exists on
    ``alternate_rank``). The winning metric's improvement is its verdict's
    ``difference``; the other metric's is reported when its own comparison
    is valid and names the same alternate, else 0. Decisions are advisory:
    acting on them safely is the job of
    :class:`repro.edge.detour.GradualController`.
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


def _gain(verdict: Optional[WindowVerdict], winner: WindowVerdict) -> float:
    """``verdict.difference`` when it is a valid comparison against the
    winning alternate (the winner itself always is), else 0."""
    if (
        verdict is None
        or not verdict.valid
        or verdict.alternate_rank != winner.alternate_rank
    ):
        return 0.0
    return verdict.difference


class StreamingRouteMonitor:
    """One :class:`RouteDecision` per (group, sealed window) with
    preferred-route traffic, accumulated on :attr:`decisions`.

    The paper's two-metric rule: an HDratio opportunity stands alone;
    failing that, a MinRTT opportunity (which carries the HDratio guard);
    failing that, hold.
    """

    def __init__(
        self,
        minrtt_threshold_ms: float = DEFAULT_MINRTT_THRESHOLD_MS,
        hdratio_threshold: float = DEFAULT_HDRATIO_THRESHOLD,
    ) -> None:
        self.minrtt_threshold_ms = minrtt_threshold_ms
        self.hdratio_threshold = hdratio_threshold
        self.decisions: List[RouteDecision] = []

    def on_window_sealed(
        self,
        window: int,
        aggregations: Mapping[UserGroupKey, Mapping[int, Aggregation]],
    ) -> List[RouteDecision]:
        """Decide for every group of one sealed window.

        ``aggregations`` maps each group to its ``{route rank: Aggregation}``
        for this window. Decisions come out in the mapping's order — from
        the ingestor, the seal's canonical install order — and are returned
        (and accumulated on :attr:`decisions`).
        """
        made: List[RouteDecision] = []
        for group, ranks in aggregations.items():
            preferred = ranks.get(0)
            if preferred is None:
                continue
            hd = opportunity_verdict(ranks, "hdratio")
            rtt = opportunity_verdict(ranks, "minrtt")
            if hd is not None and hd.event_at(self.hdratio_threshold):
                winner = hd
            elif rtt is not None and rtt.event_at(self.minrtt_threshold_ms):
                winner = rtt
            else:
                made.append(
                    RouteDecision(
                        group=group,
                        window=window,
                        action="hold",
                        preferred_sessions=preferred.session_count,
                    )
                )
                continue
            made.append(
                RouteDecision(
                    group=group,
                    window=window,
                    action="consider_alternate",
                    alternate_rank=winner.alternate_rank,
                    minrtt_improvement_ms=_gain(rtt, winner),
                    hdratio_improvement=_gain(hd, winner),
                    preferred_sessions=preferred.session_count,
                )
            )
        self.decisions.extend(made)
        return made
