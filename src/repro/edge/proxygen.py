"""Proxygen-style load balancer sampling (§2.2.2).

The load balancer terminates client TCP connections and, for a configured
fraction of HTTP sessions, captures TCP state at prescribed points. On
session close it forwards the captured state to a side process that adds
the egress route annotation (prefix, AS path, relationship).

:class:`LoadBalancer` implements that sampling and annotation contract for
the synthetic edge: the caller presents each arriving session; the balancer
decides whether it is sampled, assigns the measurement route (preferred vs
alternates via :class:`~repro.edge.routing.MeasurementRouter`), and the
caller fills in the measured session before :meth:`finalize` attaches the
route annotation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.records import SessionSample
from repro.edge.bgp import BgpRoute
from repro.edge.routing import MeasurementRouter, RankedRoutes

__all__ = ["LoadBalancer", "SamplingDecision"]


@dataclass(frozen=True)
class SamplingDecision:
    """Outcome of admitting one session at the load balancer."""

    sampled: bool
    route: Optional[BgpRoute] = None
    preference_rank: int = 0


class LoadBalancer:
    """Per-PoP session sampler + route annotator."""

    def __init__(
        self,
        pop_name: str,
        rng: random.Random,
        sample_rate: float = 1.0,
        router: Optional[MeasurementRouter] = None,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.pop_name = pop_name
        self.rng = rng
        self.sample_rate = sample_rate
        self.router = router or MeasurementRouter(rng)

    def admit(self, ranked: RankedRoutes) -> SamplingDecision:
        """Decide sampling + measurement route for one arriving session."""
        if self.sample_rate < 1.0 and self.rng.random() >= self.sample_rate:
            return SamplingDecision(sampled=False)
        route, rank = self.router.assign(ranked)
        return SamplingDecision(sampled=True, route=route, preference_rank=rank)

    def finalize(
        self, sample: SessionSample, decision: SamplingDecision
    ) -> SessionSample:
        """Attach the egress-route annotation at session close (§2.2.2)."""
        if not decision.sampled or decision.route is None:
            raise ValueError("cannot finalize an unsampled session")
        sample.route = decision.route.to_route_info(decision.preference_rank)
        sample.pop = self.pop_name
        return sample
