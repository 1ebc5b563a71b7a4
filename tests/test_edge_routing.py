"""Tests for BGP route generation, policy ranking, and measurement routing."""

import random

import pytest

from repro.core.records import Relationship
from repro.edge.bgp import BgpRoute, PathCondition, RouteGenerator
from repro.edge.routing import MeasurementRouter, rank_routes


def route(relationship, as_path=(64500,), prefix_length=20, prepended=False,
          rtt_penalty=0.0):
    return BgpRoute(
        prefix=f"203.0.0.0/{prefix_length}",
        prefix_length=prefix_length,
        as_path=tuple(as_path),
        relationship=relationship,
        prepended=prepended,
        condition=PathCondition(rtt_penalty_ms=rtt_penalty),
    )


class TestPolicyRanking:
    def test_longest_prefix_wins(self):
        specific = route(Relationship.TRANSIT, as_path=(1299, 64500), prefix_length=24)
        aggregate = route(Relationship.PRIVATE, prefix_length=16)
        ranked = rank_routes([aggregate, specific])
        assert ranked.preferred is specific

    def test_peer_beats_transit(self):
        transit = route(Relationship.TRANSIT, as_path=(1299, 64500))
        peer = route(Relationship.PUBLIC, as_path=(64500,))
        ranked = rank_routes([transit, peer])
        assert ranked.preferred is peer

    def test_peer_beats_transit_even_with_longer_path(self):
        # Tiebreaker 2 precedes tiebreaker 3: a 2-hop peer route still beats
        # a 2-hop transit and even a shorter transit never outranks a peer.
        transit = route(Relationship.TRANSIT, as_path=(1299, 64500))
        peer = route(Relationship.PUBLIC, as_path=(64499, 64500))
        ranked = rank_routes([transit, peer])
        assert ranked.preferred is peer

    def test_shorter_as_path_wins_within_relationship(self):
        long_transit = route(Relationship.TRANSIT, as_path=(1299, 64777, 64500))
        short_transit = route(Relationship.TRANSIT, as_path=(3356, 64500))
        ranked = rank_routes([long_transit, short_transit])
        assert ranked.preferred is short_transit

    def test_prepending_demotes_route(self):
        prepended = route(
            Relationship.TRANSIT, as_path=(1299, 64500, 64500, 64500), prepended=True
        )
        plain = route(Relationship.TRANSIT, as_path=(3356, 64500))
        ranked = rank_routes([prepended, plain])
        assert ranked.preferred is plain

    def test_pni_beats_ixp(self):
        ixp = route(Relationship.PUBLIC)
        pni = route(Relationship.PRIVATE)
        ranked = rank_routes([ixp, pni])
        assert ranked.preferred is pni

    def test_full_order(self):
        pni = route(Relationship.PRIVATE)
        ixp = route(Relationship.PUBLIC)
        transit = route(Relationship.TRANSIT, as_path=(1299, 64500))
        ranked = rank_routes([transit, ixp, pni])
        assert list(ranked.routes) == [pni, ixp, transit]
        assert ranked.alternates(2) == (ixp, transit)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_routes([])

    @pytest.mark.parametrize(
        "winner,loser",
        [
            # Each earlier tiebreaker overrides every later one.
            pytest.param(
                dict(relationship=Relationship.TRANSIT, prefix_length=24,
                     as_path=(1299, 64500)),
                dict(relationship=Relationship.PUBLIC, prefix_length=20),
                id="prefix-over-peer",
            ),
            pytest.param(
                dict(relationship=Relationship.TRANSIT, prefix_length=24,
                     as_path=(1299, 64777, 64500)),
                dict(relationship=Relationship.TRANSIT, prefix_length=20,
                     as_path=(3356, 64500)),
                id="prefix-over-path-length",
            ),
            pytest.param(
                dict(relationship=Relationship.PUBLIC, prefix_length=24),
                dict(relationship=Relationship.PRIVATE, prefix_length=20),
                id="prefix-over-pni",
            ),
            pytest.param(
                dict(relationship=Relationship.PUBLIC, as_path=(64499, 64498, 64500)),
                dict(relationship=Relationship.TRANSIT, as_path=(1299, 64500)),
                id="peer-over-path-length",
            ),
            pytest.param(
                dict(relationship=Relationship.PUBLIC),
                dict(relationship=Relationship.TRANSIT, as_path=(64500,)),
                id="peer-over-transit-of-equal-length",
            ),
            pytest.param(
                dict(relationship=Relationship.PUBLIC, as_path=(64500,)),
                dict(relationship=Relationship.PRIVATE, as_path=(64499, 64500)),
                id="path-length-over-pni",
            ),
        ],
    )
    def test_earlier_tiebreaker_dominates(self, winner, loser):
        first, second = route(**winner), route(**loser)
        assert rank_routes([second, first]).preferred is first
        assert rank_routes([first, second]).preferred is first

    def test_equal_keys_keep_announcement_order(self):
        a = route(Relationship.PUBLIC, as_path=(64501, 64500))
        b = route(Relationship.PUBLIC, as_path=(64502, 64500))
        assert rank_routes([a, b]).routes == (a, b)
        assert rank_routes([b, a]).routes == (b, a)

    def test_ranking_ignores_path_condition(self):
        # Policy ranks on BGP attributes only: a measured RTT penalty (a
        # congested or mis-preferred path) never reorders routes.
        slow = route(Relationship.PRIVATE, rtt_penalty=80.0)
        fast = route(Relationship.TRANSIT, as_path=(1299, 64500))
        assert rank_routes([fast, slow]).preferred is slow

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
    def test_alternates_are_the_next_ranked_routes(self, count):
        routes = [
            route(Relationship.PRIVATE),
            route(Relationship.PUBLIC),
            route(Relationship.TRANSIT, as_path=(1299, 64500)),
            route(Relationship.TRANSIT, as_path=(3356, 64777, 64500)),
        ]
        ranked = rank_routes(list(reversed(routes)))
        assert ranked.alternates(count) == tuple(routes[1 : 1 + count])
        assert ranked.preferred not in ranked.alternates(count)

    def test_rank_of(self):
        pni = route(Relationship.PRIVATE)
        transit = route(Relationship.TRANSIT, as_path=(1299, 64500))
        ranked = rank_routes([transit, pni])
        assert ranked.routes.index(pni) == 0
        assert ranked.routes.index(transit) == 1


class TestRouteGenerator:
    def test_generates_multiple_routes(self):
        gen = RouteGenerator(random.Random(1))
        routes = gen.routes_for_prefix("203.0.112.0/20", 64500)
        assert len(routes) >= 2
        assert all(r.prefix == "203.0.112.0/20" for r in routes)
        assert all(r.as_path[-1] == 64500 for r in routes)

    def test_transit_routes_always_present(self):
        gen = RouteGenerator(random.Random(2))
        routes = gen.routes_for_prefix("203.0.112.0/20", 64500)
        transits = [r for r in routes if r.relationship is Relationship.TRANSIT]
        assert len(transits) == 2

    def test_peer_routes_common(self):
        gen = RouteGenerator(random.Random(3))
        peer_count = 0
        for i in range(200):
            routes = gen.routes_for_prefix(f"10.{i}.0.0/20", 64500 + i)
            if any(r.is_peer for r in routes):
                peer_count += 1
        assert peer_count > 150  # most prefixes have at least one peer route

    def test_mispreferred_fraction(self):
        gen = RouteGenerator(random.Random(4), mispreferred_probability=1.0)
        routes = gen.routes_for_prefix("203.0.112.0/20", 64500)
        # The first (policy-best) route got a penalty; some other route is
        # physically better.
        best_penalty = routes[0].condition.rtt_penalty_ms
        assert any(
            r.condition.rtt_penalty_ms < best_penalty for r in routes[1:]
        )

    def test_deterministic_with_seed(self):
        a = RouteGenerator(random.Random(7)).routes_for_prefix("10.0.0.0/20", 65000)
        b = RouteGenerator(random.Random(7)).routes_for_prefix("10.0.0.0/20", 65000)
        assert a == b


class TestMeasurementRouter:
    def test_split_fractions(self):
        gen = RouteGenerator(random.Random(5))
        ranked = rank_routes(gen.routes_for_prefix("10.0.0.0/20", 65000))
        router = MeasurementRouter(random.Random(6))
        counts = {}
        for _ in range(10000):
            _, rank = router.assign(ranked)
            counts[rank] = counts.get(rank, 0) + 1
        total = sum(counts.values())
        assert counts[0] / total == pytest.approx(0.47, abs=0.02)
        # The remainder splits evenly over two alternates.
        assert counts.get(1, 0) / total == pytest.approx(0.265, abs=0.02)
        assert counts.get(2, 0) / total == pytest.approx(0.265, abs=0.02)

    def test_single_route_always_preferred(self):
        only = route(Relationship.PRIVATE)
        ranked = rank_routes([only])
        router = MeasurementRouter(random.Random(8))
        for _ in range(100):
            chosen, rank = router.assign(ranked)
            assert chosen is only
            assert rank == 0

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.01])
    def test_preferred_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError):
            MeasurementRouter(random.Random(1), preferred_fraction=fraction)

    def test_full_preferred_fraction_never_measures_alternates(self):
        ranked = rank_routes(RouteGenerator(random.Random(5)).routes_for_prefix(
            "10.0.0.0/20", 65000))
        router = MeasurementRouter(random.Random(9), preferred_fraction=1.0)
        assert {router.assign(ranked)[1] for _ in range(500)} == {0}

    def test_one_alternate_takes_every_non_preferred_session(self):
        ranked = rank_routes([
            route(Relationship.PRIVATE),
            route(Relationship.PUBLIC),
            route(Relationship.TRANSIT, as_path=(1299, 64500)),
        ])
        router = MeasurementRouter(random.Random(10), alternate_count=1)
        assert {router.assign(ranked)[1] for _ in range(500)} == {0, 1}

    def test_assigned_rank_indexes_the_ranked_routes(self):
        ranked = rank_routes(RouteGenerator(random.Random(11)).routes_for_prefix(
            "10.0.0.0/20", 65000))
        router = MeasurementRouter(random.Random(12))
        for _ in range(500):
            chosen, rank = router.assign(ranked)
            assert ranked.routes[rank] is chosen

    def test_assignments_ignore_path_condition(self):
        # Sampled sessions follow the policy ranking whatever a path's
        # current condition: the measurement overrides capacity detours
        # (§2.2.3), so a congested preferred route is still measured.
        healthy = rank_routes([
            route(Relationship.PRIVATE),
            route(Relationship.PUBLIC),
            route(Relationship.TRANSIT, as_path=(1299, 64500)),
        ])
        congested = rank_routes([
            route(Relationship.PRIVATE, rtt_penalty=200.0),
            route(Relationship.PUBLIC),
            route(Relationship.TRANSIT, as_path=(1299, 64500)),
        ])
        a = MeasurementRouter(random.Random(13))
        b = MeasurementRouter(random.Random(13))
        ranks_a = [a.assign(healthy)[1] for _ in range(300)]
        ranks_b = [b.assign(congested)[1] for _ in range(300)]
        assert ranks_a == ranks_b
        assert ranks_b.count(0) > 100

    def test_same_seed_same_assignments(self):
        ranked = rank_routes(RouteGenerator(random.Random(14)).routes_for_prefix(
            "10.0.0.0/20", 65000))
        first = MeasurementRouter(random.Random(15))
        second = MeasurementRouter(random.Random(15))
        assert [first.assign(ranked) for _ in range(100)] == [
            second.assign(ranked) for _ in range(100)
        ]

    def test_route_info_annotation(self):
        pni = route(Relationship.PRIVATE)
        info = pni.to_route_info(preference_rank=1)
        assert info.prefix == pni.prefix
        assert info.relationship is Relationship.PRIVATE
        assert info.preference_rank == 1
