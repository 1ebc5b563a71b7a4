"""Synthetic Facebook-edge substrate.

Stands in for the production serving infrastructure of §2.1: geography and
PoPs (:mod:`repro.edge.geo`, :mod:`repro.edge.topology`), BGP route sets
(:mod:`repro.edge.bgp`), Facebook's routing policy and alternate-route
measurement (:mod:`repro.edge.routing`), Cartographer user→PoP steering
(:mod:`repro.edge.cartographer`), Proxygen session sampling
(:mod:`repro.edge.proxygen`), and the §6.2.2 detour controllers
(:mod:`repro.edge.detour`).
"""

from repro.edge.bgp import BgpRoute, PathCondition, RouteGenerator
from repro.edge.cartographer import Cartographer
from repro.edge.detour import (
    CongestibleRoute,
    ControlTrace,
    GradualController,
    GreedyShifter,
    simulate_control_loop,
)
from repro.edge.geo import Continent, Location, great_circle_km, propagation_rtt_ms
from repro.edge.proxygen import LoadBalancer, SamplingDecision
from repro.edge.routing import MeasurementRouter, RankedRoutes, rank_routes
from repro.edge.topology import (
    DEFAULT_METROS,
    ClientNetwork,
    Metro,
    PoP,
    default_pops,
)

__all__ = [
    "BgpRoute",
    "Cartographer",
    "ClientNetwork",
    "CongestibleRoute",
    "ControlTrace",
    "GradualController",
    "GreedyShifter",
    "simulate_control_loop",
    "Continent",
    "DEFAULT_METROS",
    "LoadBalancer",
    "Location",
    "MeasurementRouter",
    "Metro",
    "PathCondition",
    "PoP",
    "RankedRoutes",
    "RouteGenerator",
    "SamplingDecision",
    "default_pops",
    "great_circle_km",
    "propagation_rtt_ms",
    "rank_routes",
]
