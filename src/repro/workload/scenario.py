"""End-to-end synthetic trace generation.

Builds the universe (metros → client networks → routes → events) and streams
:class:`~repro.core.records.SessionSample` objects for a multi-day study
period, reproducing the structure of the paper's dataset (§2.2.4):

- sessions are sampled at the PoP load balancer; ~47% ride the policy-
  preferred route, the rest the two best alternates (§6.2);
- traffic volume follows local-time activity (drives Figure 5's population
  mixes and §5's diurnal congestion);
- per-continent access profiles and PoP distances produce Figure 6;
- destination-side events (shared by all routes) produce degradation
  without opportunity; route-specific impairments and mis-preferred route
  sets produce the limited opportunity of §6;
- ~2% of networks are hosting providers/VPNs, to exercise the dataset
  filter (§2.2.4).

Scale is configurable through :class:`ScenarioConfig`;
:meth:`ScenarioConfig.snapshot` is the single-day heavy preset of the
distribution figures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.classification import WINDOWS_PER_DAY
from repro.core.constants import AGGREGATION_WINDOW_SECONDS
from repro.core.records import SessionSample
from repro.edge.bgp import BgpRoute, RouteGenerator
from repro.edge.cartographer import Cartographer
from repro.edge.geo import Continent, propagation_rtt_ms
from repro.edge.proxygen import LoadBalancer
from repro.edge.routing import MeasurementRouter, RankedRoutes, rank_routes
from repro.edge.topology import (
    DEFAULT_METROS,
    ClientNetwork,
    Metro,
    PoP,
    default_pops,
)
from repro.workload.channel import ChannelModel, PathState
from repro.workload.events import (
    ContinuousImpairment,
    DiurnalCongestion,
    EpisodicOutage,
    TemporalEvent,
    activity_level,
    combine_events,
    local_hour,
)
from repro.workload.profiles import AccessClass, default_profiles
from repro.workload.sessions import WorkloadModel

__all__ = ["ScenarioConfig", "EdgeScenario", "NetworkState"]

#: Route capacity expressed as an effective per-session bottleneck (Mbps)
#: when the interconnect is uncongested: plentiful, so the access link
#: normally dominates. Congestion events scale this down.
ROUTE_BASE_MBPS = 40.0

#: Share of a network's clients on its dominant access technology.
DOMINANT_CLASS_SHARE = 0.85


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for universe size and behaviour mix."""

    seed: int = 42
    days: int = 10
    networks_per_metro: int = 1
    base_sessions_per_window: float = 60.0
    sample_rate: float = 1.0
    #: Share of AF/AS sessions served from the nearest out-of-continent PoP
    #: (Cartographer capacity overflow, §2.1).
    overflow_steer_fraction: float = 0.06
    max_transactions_per_session: int = 200
    hosting_network_fraction: float = 0.05
    # Destination-side event mix (degradation §5):
    diurnal_fraction: float = 0.16
    episodic_fraction: float = 0.12
    continuous_fraction: float = 0.03
    # Route-specific impairment mix (opportunity §6):
    route_episodic_fraction: float = 0.05
    mispreferred_fraction: float = 0.04
    include_figure5_network: bool = False

    @property
    def total_windows(self) -> int:
        return self.days * WINDOWS_PER_DAY

    @classmethod
    def snapshot(cls, seed: int = 42) -> "ScenarioConfig":
        """Single-day heavy snapshot for distribution figures (6, 7)."""
        return cls(seed=seed, days=1, base_sessions_per_window=90.0)


@dataclass
class NetworkState:
    """Everything the generator holds per client network.

    ``dominant_class`` is the network's prevailing access technology: real
    eyeball ASes are mostly one technology (a cable ISP, a mobile carrier),
    which keeps within-prefix performance homogeneous enough for the
    paper's median-based statistics to be tight (§3.4.1).
    """

    network: ClientNetwork
    pop: PoP
    base_rtt_ms: float
    ranked: RankedRoutes
    dominant_class: Optional[AccessClass] = None
    dest_events: List[TemporalEvent] = field(default_factory=list)
    route_events: Dict[int, List[TemporalEvent]] = field(default_factory=dict)
    overflow_pop: Optional[PoP] = None
    overflow_rtt_ms: float = 0.0


class EdgeScenario:
    """Generates the synthetic study trace."""

    def __init__(self, config: ScenarioConfig = ScenarioConfig()) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.pops = default_pops()
        self.profiles = default_profiles()
        self.cartographer = Cartographer(self.pops)
        self.workload = WorkloadModel(random.Random(config.seed + 2))
        self.channel = ChannelModel(random.Random(config.seed + 3))
        self.router = MeasurementRouter(random.Random(config.seed + 4))
        self.route_generator = RouteGenerator(
            random.Random(config.seed + 5),
            mispreferred_probability=config.mispreferred_fraction,
        )
        self._session_counter = 0
        self.networks: List[NetworkState] = self._build_universe()
        self.balancers: Dict[str, LoadBalancer] = {
            pop.name: LoadBalancer(
                pop.name,
                random.Random((config.seed, pop.name).__hash__()),
                sample_rate=config.sample_rate,
                router=self.router,
            )
            for pop in self.pops
        }

    # ------------------------------------------------------------------ #
    # Universe construction
    # ------------------------------------------------------------------ #
    def _build_universe(self) -> List[NetworkState]:
        rng = self.rng
        networks: List[NetworkState] = []
        asn = 64512
        for metro in DEFAULT_METROS:
            for _ in range(self.config.networks_per_metro):
                asn += 1
                octet2 = rng.randrange(16, 240)
                octet3 = rng.randrange(0, 240)
                prefix = f"{rng.randrange(1, 223)}.{octet2}.{octet3 & 0xF0}.0/20"
                network = ClientNetwork(
                    asn=asn,
                    prefixes=[prefix],
                    metro=metro,
                    user_weight=metro.weight,
                    is_hosting_provider=(
                        rng.random() < self.config.hosting_network_fraction
                    ),
                )
                networks.append(self._instantiate(network))
        if self.config.include_figure5_network:
            networks.append(self._figure5_network(asn + 1))
        return networks

    def _figure5_network(self, asn: int) -> NetworkState:
        """A /16 serving California plus Hawaii (Figure 5)."""
        metros = {metro.name: metro for metro in DEFAULT_METROS}
        network = ClientNetwork(
            asn=asn,
            prefixes=["198.51.0.0/16"],
            metro=metros["sanfrancisco"],
            user_weight=1.0,
            secondary_metro=metros["honolulu"],
            secondary_share=0.45,
        )
        return self._instantiate(network)

    def _instantiate(self, network: ClientNetwork) -> NetworkState:
        rng = self.rng
        pop = self.cartographer.primary_pop(network)
        base_rtt = propagation_rtt_ms(
            network.metro.location.distance_km(pop.location)
        )
        routes = self.route_generator.routes_for_prefix(
            network.prefixes[0], network.asn
        )
        ranked = rank_routes(routes)
        dominant = self.profiles[network.continent].draw_class(rng)
        state = NetworkState(
            network=network,
            pop=pop,
            base_rtt_ms=base_rtt,
            ranked=ranked,
            dominant_class=dominant,
        )
        # AF/AS networks overflow to the nearest out-of-continent PoP for a
        # share of sessions (§2.1: 4.8% of all traffic is Asia-via-EU and
        # 2.1% Africa-via-EU) when local capacity is short.
        if network.continent in (Continent.AFRICA, Continent.ASIA):
            remote = min(
                (p for p in self.pops if p.continent is not network.continent),
                key=lambda p: network.metro.location.distance_km(p.location),
                default=None,
            )
            if remote is not None and remote is not pop:
                state.overflow_pop = remote
                state.overflow_rtt_ms = propagation_rtt_ms(
                    network.metro.location.distance_km(remote.location)
                )
        self._assign_events(state)
        return state

    def _assign_events(self, state: NetworkState) -> None:
        rng = self.rng
        config = self.config
        longitude = state.network.metro.location.longitude
        weak_infra = state.network.continent in (
            Continent.AFRICA,
            Continent.ASIA,
            Continent.SOUTH_AMERICA,
        )
        diurnal_p = config.diurnal_fraction * (1.8 if weak_infra else 0.7)
        if rng.random() < diurnal_p:
            state.dest_events.append(
                DiurnalCongestion(
                    longitude_deg=longitude,
                    peak_queue_ms=rng.uniform(4.0, 20.0),
                    peak_loss=rng.uniform(0.005, 0.04),
                    peak_capacity_factor=rng.uniform(0.03, 0.5),
                )
            )
        if rng.random() < config.episodic_fraction:
            start = rng.randrange(0, max(config.total_windows - 8, 1))
            state.dest_events.append(
                EpisodicOutage(
                    start_window=start,
                    end_window=start + rng.randrange(4, 16),
                    queue_ms=rng.uniform(10.0, 40.0),
                    loss=rng.uniform(0.005, 0.03),
                    capacity_factor=rng.uniform(0.4, 0.8),
                )
            )
        if rng.random() < config.continuous_fraction:
            state.dest_events.append(
                ContinuousImpairment(
                    queue_ms=rng.uniform(5.0, 15.0),
                    loss=rng.uniform(0.002, 0.01),
                    capacity_factor=rng.uniform(0.6, 0.9),
                )
            )
        # Route-specific outages hit exactly one route (bypassable -> §6
        # opportunity when they hit the preferred route).
        if rng.random() < config.route_episodic_fraction:
            rank = rng.randrange(0, len(state.ranked.routes))
            start = rng.randrange(0, max(config.total_windows - 8, 1))
            state.route_events.setdefault(rank, []).append(
                EpisodicOutage(
                    start_window=start,
                    end_window=start + rng.randrange(8, 32),
                    queue_ms=rng.uniform(8.0, 20.0),
                    loss=rng.uniform(0.005, 0.02),
                    capacity_factor=rng.uniform(0.5, 0.9),
                )
            )

    # ------------------------------------------------------------------ #
    # Trace generation
    # ------------------------------------------------------------------ #
    def _draw_client_metro(self, state: NetworkState, window: int) -> Metro:
        """Which metro this session's client sits in.

        Single-metro networks are trivial. Dual-metro networks (Figure 5)
        weight the draw by each metro's share *and* its local-time activity,
        so the client mix — and therefore the group's median MinRTT —
        oscillates over the day exactly as the paper's example shows.
        """
        network = state.network
        if network.secondary_metro is None:
            return network.metro
        primary_activity = activity_level(
            local_hour(window, network.metro.location.longitude)
        )
        secondary_activity = activity_level(
            local_hour(window, network.secondary_metro.location.longitude)
        )
        weight_secondary = network.secondary_share * secondary_activity
        weight_primary = (1.0 - network.secondary_share) * primary_activity
        roll = self.channel.rng.random()
        if roll < weight_secondary / (weight_secondary + weight_primary):
            return network.secondary_metro
        return network.metro

    def path_state(
        self,
        state: NetworkState,
        route: BgpRoute,
        rank: int,
        window: int,
        client_metro: Optional[Metro] = None,
        base_rtt_override: Optional[float] = None,
    ) -> PathState:
        """Combine geography, route condition, events, and an access draw."""
        rng = self.channel.rng
        continent_profile = self.profiles[state.network.continent]
        if state.dominant_class is not None and rng.random() < DOMINANT_CLASS_SHARE:
            profile = continent_profile.sample_from_class(state.dominant_class, rng)
        else:
            profile = continent_profile.sample(rng)

        modifier = combine_events(state.dest_events, window)
        for event in state.route_events.get(rank, ()):
            modifier = modifier.combine(event.modifier_at(window))

        # Geographic spread: Figure-5 networks draw clients from two metros.
        if client_metro is None:
            client_metro = self._draw_client_metro(state, window)
        if base_rtt_override is not None:
            base_rtt = base_rtt_override
        elif client_metro is state.network.metro:
            base_rtt = state.base_rtt_ms
        else:
            base_rtt = propagation_rtt_ms(
                client_metro.location.distance_km(state.pop.location)
            )

        route_capacity = ROUTE_BASE_MBPS * route.condition.congestion_capacity
        congested_capacity = route_capacity * modifier.capacity_factor
        bottleneck = min(profile.downlink_mbps, congested_capacity)
        rtt = (
            base_rtt
            + route.condition.rtt_penalty_ms
            + profile.last_mile_rtt_ms
            + modifier.extra_queue_ms
        )
        loss = min(
            profile.loss_probability
            + route.condition.loss_floor
            + modifier.extra_loss,
            0.4,
        )
        return PathState(
            base_rtt_ms=max(rtt, 0.5),
            bottleneck_mbps=max(bottleneck, 0.05),
            loss_probability=loss,
            queue_delay_ms=0.0,  # standing queue already folded into rtt
            # profile.jitter_ms is 0.0 for every default class; only the
            # LTE/high-mobility classes of the CC matrix contribute here.
            jitter_ms=profile.jitter_ms
            + modifier.extra_jitter_ms
            + rng.uniform(0.0, 3.0),
        )

    def sessions_in_window(self, state: NetworkState, window: int) -> int:
        hour = local_hour(window, state.network.metro.location.longitude)
        expected = (
            self.config.base_sessions_per_window
            * state.network.user_weight
            * activity_level(hour)
        )
        # Poisson draw around the expectation.
        return self._poisson(expected)

    def _poisson(self, lam: float) -> int:
        if lam <= 0:
            return 0
        rng = self.rng
        if lam > 50:
            return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
        threshold = math.exp(-lam)
        count, product = 0, rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count

    def generate_window(
        self, state: NetworkState, window: int
    ) -> Iterator[SessionSample]:
        """All sampled sessions for one network in one window."""
        window_start = window * AGGREGATION_WINDOW_SECONDS
        for _ in range(self.sessions_in_window(state, window)):
            serving_pop, base_rtt_override = state.pop, None
            if (
                state.overflow_pop is not None
                and self.rng.random() < self.config.overflow_steer_fraction
            ):
                serving_pop = state.overflow_pop
                base_rtt_override = state.overflow_rtt_ms
            balancer = self.balancers[serving_pop.name]
            decision = balancer.admit(state.ranked)
            if not decision.sampled or decision.route is None:
                continue
            rank = decision.preference_rank
            client_metro = self._draw_client_metro(state, window)
            path = self.path_state(
                state,
                decision.route,
                rank,
                window,
                client_metro=client_metro,
                base_rtt_override=base_rtt_override,
            )
            spec = self.workload.sample_session()
            if len(spec.transactions) > self.config.max_transactions_per_session:
                del spec.transactions[self.config.max_transactions_per_session :]
            self._session_counter += 1
            start = window_start + self.rng.uniform(
                0.0, AGGREGATION_WINDOW_SECONDS * 0.9
            )
            sample = self.channel.simulate_session(
                spec, path, start, session_id=self._session_counter
            )
            sample = balancer.finalize(sample, decision)
            sample.client_country = state.network.country
            sample.client_continent = state.network.continent.code
            sample.client_ip_is_hosting = state.network.is_hosting_provider
            sample.geo_tag = client_metro.name
            yield sample

    def generate(self) -> Iterator[SessionSample]:
        """Stream the full study period."""
        for window in range(self.config.total_windows):
            for state in self.networks:
                yield from self.generate_window(state, window)
