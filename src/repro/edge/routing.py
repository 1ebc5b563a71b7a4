"""Facebook's BGP routing policy and alternate-route selection (§6.1).

When a PoP has multiple routes to a user it applies, in order:

1. prefer the longest matching prefix;
2. prefer peer routes (private or public) over transit;
3. prefer shorter AS paths;
4. prefer routes via private interconnects (PNI) over public exchanges.

:func:`rank_routes` returns the full preference order; the preferred route
is rank 0 and the next ``n`` become the continuously-measured alternates
(§2.2.3 / §6.2: "by default ... the two next best paths").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.constants import (
    DEFAULT_ALTERNATE_ROUTES,
    PREFERRED_ROUTE_SAMPLE_FRACTION,
)
from repro.core.records import Relationship
from repro.edge.bgp import BgpRoute

__all__ = ["RankedRoutes", "rank_routes", "MeasurementRouter"]


def _policy_key(route: BgpRoute) -> Tuple:
    """Sort key implementing the four tiebreakers (ascending = preferred)."""
    return (
        -route.prefix_length,                          # 1. longest prefix
        0 if route.is_peer else 1,                     # 2. peer over transit
        route.as_path_length,                          # 3. shorter AS path
        0 if route.relationship is Relationship.PRIVATE else 1,  # 4. PNI
    )


@dataclass(frozen=True)
class RankedRoutes:
    """Routes in policy-preference order."""

    routes: Tuple[BgpRoute, ...]

    @property
    def preferred(self) -> BgpRoute:
        return self.routes[0]

    def alternates(self, count: int = DEFAULT_ALTERNATE_ROUTES) -> Tuple[BgpRoute, ...]:
        return self.routes[1 : 1 + count]


def rank_routes(routes: Sequence[BgpRoute]) -> RankedRoutes:
    """Apply the policy tiebreak; stable for equal keys (announcement order)."""
    if not routes:
        raise ValueError("cannot rank an empty route set")
    ordered = tuple(sorted(routes, key=_policy_key))
    return RankedRoutes(routes=ordered)


class MeasurementRouter:
    """Assigns sampled sessions to routes for alternate-path measurement.

    §6.2: approximately 47% of sampled sessions stay on the policy-preferred
    route; the remainder are spread over the next-best alternates so their
    performance is continuously measured. These assignments *override* any
    Edge Fabric detours (§2.2.3) so the analysis always sees the policy
    view, not capacity-management artifacts.
    """

    def __init__(
        self,
        rng: random.Random,
        preferred_fraction: float = PREFERRED_ROUTE_SAMPLE_FRACTION,
        alternate_count: int = DEFAULT_ALTERNATE_ROUTES,
    ) -> None:
        if not 0.0 < preferred_fraction <= 1.0:
            raise ValueError("preferred_fraction must be in (0, 1]")
        self.rng = rng
        self.preferred_fraction = preferred_fraction
        self.alternate_count = alternate_count

    def assign(self, ranked: RankedRoutes) -> Tuple[BgpRoute, int]:
        """Pick the measurement route for one sampled session.

        Returns ``(route, preference_rank)``.
        """
        alternates = ranked.alternates(self.alternate_count)
        if not alternates or self.rng.random() < self.preferred_fraction:
            return ranked.preferred, 0
        index = self.rng.randrange(len(alternates))
        return alternates[index], index + 1
