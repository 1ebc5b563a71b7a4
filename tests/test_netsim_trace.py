"""Tests for packet trace capture and rendering."""

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.tcp import TcpConnection, TcpParams
from repro.netsim.trace import PacketTrace

pytestmark = pytest.mark.netsim

MSS = 1500


def traced_transfer(nbytes, loss=0.0, seed=1, delayed_ack=False):
    sim = Simulator()
    rng = random.Random(seed)
    data = Link(sim, rate_bps=None, propagation_delay=0.030,
                loss_probability=loss, rng=rng)
    ack = Link(sim, rate_bps=None, propagation_delay=0.030, rng=rng)
    trace = PacketTrace(data, ack)
    conn = TcpConnection(
        sim, data, ack, TcpParams(delayed_ack=delayed_ack)
    )
    conn.write(nbytes)
    sim.run(until=60.0)
    return conn, trace


class TestCapture:
    def test_counts_match_transfer(self):
        conn, trace = traced_transfer(5 * MSS)
        assert conn.all_acked
        assert trace.data_packets_sent == 5
        assert trace.acks_sent == 5  # no delayed acks
        assert trace.drops == 0

    def test_delayed_acks_fewer_ack_events(self):
        _, undelayed = traced_transfer(10 * MSS, delayed_ack=False)
        _, delayed = traced_transfer(10 * MSS, delayed_ack=True)
        assert delayed.acks_sent < undelayed.acks_sent

    def test_losses_recorded(self):
        conn, trace = traced_transfer(60 * MSS, loss=0.15, seed=5)
        assert trace.drops > 0
        retransmissions = [
            e for e in trace.events
            if e.direction == "data" and e.kind == "send" and e.retransmission
        ]
        assert retransmissions

    def test_events_time_ordered(self):
        _, trace = traced_transfer(24 * MSS)
        times = [e.time for e in trace.events]
        assert times == sorted(times)


class TestRender:
    def test_render_contains_rails_and_summary(self):
        _, trace = traced_transfer(3 * MSS)
        text = trace.render()
        assert "server" in text and "client" in text
        assert "data 0..1500" in text
        assert "ack" in text
        assert "[3 data packets" in text

    def test_render_truncates(self):
        _, trace = traced_transfer(100 * MSS)
        text = trace.render(max_events=10)
        assert "more events" in text

    def test_render_marks_retransmissions(self):
        _, trace = traced_transfer(60 * MSS, loss=0.15, seed=5)
        text = trace.render(max_events=10_000)
        assert "(rtx)" in text
        assert "drop-loss" in text or "✕" in text
