"""Cartographer: steering users to PoPs (§2.1).

Facebook's Cartographer maps client networks to PoPs by controlling DNS and
embedded URLs, using performance measurements to pick the ingress location.
For the synthetic edge the dominant signal is geographic latency, so the
model maps each client network to its nearest PoP by propagation RTT. The
paper's capacity overflow (a share of Africa/Asia traffic served from
Europe) is a property of the generated trace, not of this mapping:
``ScenarioConfig.overflow_steer_fraction`` sends that share of a network's
sessions to its nearest out-of-continent PoP.
"""

from __future__ import annotations

from typing import Sequence

from repro.edge.geo import propagation_rtt_ms
from repro.edge.topology import ClientNetwork, PoP

__all__ = ["Cartographer"]


class Cartographer:
    """Maps client networks to serving PoPs, nearest by propagation RTT."""

    def __init__(self, pops: Sequence[PoP]) -> None:
        if not pops:
            raise ValueError("need at least one PoP")
        self.pops = list(pops)

    def primary_pop(self, network: ClientNetwork) -> PoP:
        """The steady-state PoP for a client network (the first nearest in
        ``pops`` order; remote when its continent has no closer PoP)."""
        location = network.metro.location
        return min(
            self.pops,
            key=lambda pop: propagation_rtt_ms(location.distance_km(pop.location)),
        )
