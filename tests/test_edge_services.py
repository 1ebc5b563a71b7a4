"""Tests for Cartographer and Proxygen sampling."""

import random

import pytest

from repro.core.records import HttpVersion, Relationship, SessionSample
from repro.edge.bgp import RouteGenerator
from repro.edge.cartographer import Cartographer
from repro.edge.proxygen import LoadBalancer
from repro.edge.routing import rank_routes
from repro.edge.geo import Continent
from repro.edge.topology import DEFAULT_METROS, ClientNetwork, PoP, default_pops


def network_for(metro_name, asn=65001):
    metro = next(m for m in DEFAULT_METROS if m.name == metro_name)
    return ClientNetwork(asn=asn, prefixes=["10.1.0.0/20"], metro=metro)


class TestCartographer:
    def test_amsterdam_maps_to_ams(self):
        carto = Cartographer(default_pops())
        pop = carto.primary_pop(network_for("amsterdam"))
        assert pop.name == "ams1"

    def test_sydney_maps_to_syd(self):
        carto = Cartographer(default_pops())
        assert carto.primary_pop(network_for("sydney")).name == "syd1"

    def test_empty_pops_rejected(self):
        with pytest.raises(ValueError):
            Cartographer([])

    @pytest.mark.parametrize("continent", sorted(Continent, key=lambda c: c.name))
    def test_every_metro_maps_to_its_nearest_pop(self, continent):
        pops = default_pops()
        carto = Cartographer(pops)
        metros = [m for m in DEFAULT_METROS if m.location.continent is continent]
        assert metros
        for metro in metros:
            network = ClientNetwork(asn=65001, prefixes=["10.1.0.0/20"], metro=metro)
            nearest = min(pop.location.distance_km(metro.location) for pop in pops)
            chosen = carto.primary_pop(network)
            assert chosen.location.distance_km(metro.location) == nearest

    def test_mapping_is_deterministic(self):
        carto = Cartographer(default_pops())
        network = network_for("amsterdam")
        assert {carto.primary_pop(network).name for _ in range(50)} == {"ams1"}

    def test_equidistant_pops_resolve_to_the_first_listed(self):
        ams = next(pop for pop in default_pops() if pop.name == "ams1")
        twin = PoP(name="ams2", location=ams.location)
        network = network_for("amsterdam")
        assert Cartographer([ams, twin]).primary_pop(network) is ams
        assert Cartographer([twin, ams]).primary_pop(network) is twin

    def test_a_single_pop_serves_every_network(self):
        syd = next(pop for pop in default_pops() if pop.name == "syd1")
        carto = Cartographer([syd])
        assert {carto.primary_pop(network_for(m.name)) for m in DEFAULT_METROS} == {syd}

    def test_without_a_local_pop_the_nearest_remote_one_serves(self):
        # Drop Oceania's only PoP: Sydney then maps across continents.
        pops = [pop for pop in default_pops() if pop.name != "syd1"]
        chosen = Cartographer(pops).primary_pop(network_for("sydney"))
        assert chosen.continent is not Continent.OCEANIA
        assert chosen.name == "sin1"


class TestLoadBalancer:
    def _ranked(self):
        gen = RouteGenerator(random.Random(9))
        return rank_routes(gen.routes_for_prefix("10.1.0.0/20", 65001))

    def test_sample_rate(self):
        lb = LoadBalancer("ams1", random.Random(1), sample_rate=0.25)
        ranked = self._ranked()
        sampled = sum(lb.admit(ranked).sampled for _ in range(4000))
        assert sampled / 4000 == pytest.approx(0.25, abs=0.03)

    def test_full_sampling(self):
        lb = LoadBalancer("ams1", random.Random(2), sample_rate=1.0)
        decision = lb.admit(self._ranked())
        assert decision.sampled
        assert decision.route is not None

    def test_finalize_attaches_route(self):
        lb = LoadBalancer("ams1", random.Random(3))
        decision = lb.admit(self._ranked())
        sample = SessionSample(
            session_id=1,
            start_time=0.0,
            end_time=10.0,
            http_version=HttpVersion.HTTP_2,
            min_rtt_seconds=0.040,
            bytes_sent=1000,
            busy_time_seconds=1.0,
        )
        lb.finalize(sample, decision)
        assert sample.route is not None
        assert sample.pop == "ams1"
        assert sample.route.preference_rank == decision.preference_rank

    def test_finalize_unsampled_rejected(self):
        lb = LoadBalancer("ams1", random.Random(4), sample_rate=0.5)
        from repro.edge.proxygen import SamplingDecision

        sample = SessionSample(
            session_id=1,
            start_time=0.0,
            end_time=1.0,
            http_version=HttpVersion.HTTP_1_1,
            min_rtt_seconds=0.040,
            bytes_sent=0,
            busy_time_seconds=0.0,
        )
        with pytest.raises(ValueError):
            lb.finalize(sample, SamplingDecision(sampled=False))

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            LoadBalancer("ams1", random.Random(5), sample_rate=0.0)
