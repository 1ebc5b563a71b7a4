"""Tests for the bottleneck link model."""

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link, Packet

pytestmark = pytest.mark.netsim


def collect(link):
    received = []
    link.connect(lambda p: received.append((link.sim.now, p)))
    return received


class TestDelays:
    def test_propagation_only(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, propagation_delay=0.030)
        received = collect(link)
        link.send(Packet(seq=0, payload_bytes=1500))
        sim.run()
        assert received[0][0] == pytest.approx(0.030)

    def test_serialization_delay(self):
        sim = Simulator()
        # 1 Mbps: a 1500+40 byte packet serializes in 12.32 ms.
        link = Link(sim, rate_bps=1e6, propagation_delay=0.0)
        received = collect(link)
        link.send(Packet(seq=0, payload_bytes=1500))
        sim.run()
        assert received[0][0] == pytest.approx(1540 * 8 / 1e6)

    def test_back_to_back_packets_queue(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, propagation_delay=0.0)
        received = collect(link)
        ser = 1540 * 8 / 1e6
        link.send(Packet(seq=0, payload_bytes=1500))
        link.send(Packet(seq=1500, payload_bytes=1500))
        sim.run()
        assert received[0][0] == pytest.approx(ser)
        assert received[1][0] == pytest.approx(2 * ser)

    def test_acks_have_header_serialization_only(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, propagation_delay=0.0)
        received = collect(link)
        link.send(Packet(seq=0, payload_bytes=0, ack_seq=100))
        sim.run()
        assert received[0][0] == pytest.approx(40 * 8 / 1e6)


class TestDrops:
    def test_queue_overflow_drops(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, propagation_delay=0.0, queue_packets=2)
        received = collect(link)
        for i in range(10):
            link.send(Packet(seq=i * 1500, payload_bytes=1500))
        sim.run()
        # One in service + two queued survive the burst.
        assert link.stats.dropped_queue == 7
        assert len(received) == 3

    def test_random_loss_rate(self):
        sim = Simulator()
        link = Link(
            sim,
            rate_bps=None,
            propagation_delay=0.0,
            loss_probability=0.3,
            rng=random.Random(7),
        )
        received = collect(link)
        for i in range(2000):
            link.send(Packet(seq=i, payload_bytes=100))
        sim.run()
        loss_rate = link.stats.dropped_random / 2000
        assert 0.25 < loss_rate < 0.35
        assert len(received) == 2000 - link.stats.dropped_random

    def test_invalid_loss_probability(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, loss_probability=1.0)


class TestJitter:
    def test_jitter_bounded(self):
        sim = Simulator()
        link = Link(
            sim,
            rate_bps=None,
            propagation_delay=0.010,
            jitter_seconds=0.005,
            rng=random.Random(3),
        )
        received = collect(link)
        for i in range(200):
            link.send(Packet(seq=i, payload_bytes=100))
        sim.run()
        delays = [t for t, _ in received]
        assert min(delays) >= 0.010
        assert max(delays) <= 0.015 + 1e-12
        assert max(delays) > 0.011  # jitter actually applied


class TestStats:
    def test_counters(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, propagation_delay=0.0)
        collect(link)
        link.send(Packet(seq=0, payload_bytes=500))
        sim.run()
        assert link.stats.sent == 1
        assert link.stats.delivered == 1
        assert link.stats.bytes_delivered == 500

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim)
        with pytest.raises(RuntimeError):
            link.send(Packet(seq=0, payload_bytes=100))
