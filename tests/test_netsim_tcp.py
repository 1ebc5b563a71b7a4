"""Tests for the simulated TCP stack."""

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.scenarios import run_transfer
from repro.netsim.tcp import TcpConnection, TcpParams

pytestmark = pytest.mark.netsim

MSS = 1500


def make_connection(
    rtt_ms=60.0,
    bottleneck_mbps=None,
    icw=10,
    delayed_ack=False,
    loss=0.0,
    seed=1,
    queue_packets=1000,
):
    sim = Simulator()
    rng = random.Random(seed)
    one_way = rtt_ms / 2000.0
    data = Link(
        sim,
        rate_bps=None if bottleneck_mbps is None else bottleneck_mbps * 1e6,
        propagation_delay=one_way,
        loss_probability=loss,
        queue_packets=queue_packets,
        rng=rng,
    )
    ack = Link(sim, rate_bps=None, propagation_delay=one_way, rng=rng)
    conn = TcpConnection(
        sim, data, ack, TcpParams(initial_cwnd_packets=icw, delayed_ack=delayed_ack)
    )
    return sim, conn


class TestBasicTransfer:
    def test_single_window_completes_in_one_rtt(self):
        sim, conn = make_connection()
        conn.write(5 * MSS)
        sim.run()
        assert conn.all_acked
        assert sim.now == pytest.approx(0.060, abs=1e-6)

    def test_two_round_transfer(self):
        sim, conn = make_connection()
        conn.write(24 * MSS)  # 10 in round 1, 14 in round 2
        sim.run()
        assert conn.all_acked
        assert sim.now == pytest.approx(0.120, abs=1e-6)

    def test_slow_start_doubles_window(self):
        sim, conn = make_connection(icw=2)
        conn.write(100 * MSS)  # rounds: 2,4,8,16,32,38 -> 6 RTTs
        sim.run()
        assert conn.all_acked
        assert sim.now == pytest.approx(0.360, abs=1e-6)

    def test_cwnd_grows_by_bytes_acked_in_slow_start(self):
        sim, conn = make_connection(icw=10)
        conn.write(30 * MSS)
        sim.run(until=0.090)  # after the first round's ACKs
        assert conn.state.cwnd_bytes >= 20 * MSS

    def test_delivered_bytes_counted(self):
        sim, conn = make_connection()
        conn.write(7 * MSS)
        sim.run()
        assert conn.state.delivered_bytes == 7 * MSS

    def test_write_rejects_nonpositive(self):
        _, conn = make_connection()
        with pytest.raises(ValueError):
            conn.write(0)


class TestBottleneck:
    def test_long_transfer_paced_at_bottleneck(self):
        # 300 packets at 2 Mbps: payload-limited duration ~ 1.85 s.
        total = 300 * MSS
        sim, conn = make_connection(bottleneck_mbps=2.0)
        conn.write(total)
        sim.run()
        assert conn.all_acked
        wire_time = (total + 300 * 40) * 8 / 2e6
        assert sim.now >= wire_time
        assert sim.now < wire_time * 1.4

    def test_min_rtt_measured(self):
        sim, conn = make_connection(rtt_ms=80.0)
        conn.write(10 * MSS)
        sim.run()
        assert conn.min_rtt.at_termination(sim.now) == pytest.approx(0.080, rel=0.05)


class TestLossRecovery:
    def test_transfer_survives_random_loss(self):
        sim, conn = make_connection(loss=0.02, seed=11)
        conn.write(200 * MSS)
        sim.run(until=120.0)
        assert conn.all_acked
        assert conn.state.retransmits > 0

    def test_transfer_survives_heavy_loss(self):
        sim, conn = make_connection(loss=0.15, seed=13)
        conn.write(50 * MSS)
        sim.run(until=300.0)
        assert conn.all_acked

    def test_fast_retransmit_triggers_before_rto(self):
        # Lose exactly one packet mid-window: dup ACKs should recover it
        # without a timeout.
        sim, conn = make_connection(icw=20)
        original_send = conn.data_link.send
        dropped = []

        def lossy_send(packet):
            if packet.seq == 5 * MSS and not packet.retransmission and not dropped:
                dropped.append(packet.seq)
                return
            original_send(packet)

        conn.data_link.send = lossy_send
        conn.write(20 * MSS)
        sim.run(until=30.0)
        assert conn.all_acked
        assert conn.state.fast_retransmits == 1
        assert conn.state.timeouts == 0

    def test_window_reduced_after_loss(self):
        sim, conn = make_connection(icw=20)
        original_send = conn.data_link.send

        def lossy_send(packet):
            if packet.seq == 5 * MSS and not packet.retransmission:
                if not getattr(lossy_send, "done", False):
                    lossy_send.done = True
                    return
            original_send(packet)

        conn.data_link.send = lossy_send
        conn.write(20 * MSS)
        sim.run(until=30.0)
        assert conn.state.cwnd_bytes < 20 * MSS

    def test_rto_recovers_tail_loss(self):
        # Drop the last packet once: no dup ACKs possible, RTO must fire.
        sim, conn = make_connection(icw=10)
        original_send = conn.data_link.send

        def lossy_send(packet):
            if packet.seq == 4 * MSS and not packet.retransmission:
                if not getattr(lossy_send, "done", False):
                    lossy_send.done = True
                    return
            original_send(packet)

        conn.data_link.send = lossy_send
        conn.write(5 * MSS)
        sim.run(until=30.0)
        assert conn.all_acked
        assert conn.state.timeouts >= 1

    def test_bytes_in_flight_never_negative(self):
        sim, conn = make_connection(loss=0.1, seed=17)
        conn.write(100 * MSS)
        sim.run(until=120.0)
        assert conn.state.bytes_in_flight >= 0


class TestDelayedAck:
    def test_delayed_ack_single_packet_waits_for_timeout(self):
        sim, conn = make_connection(delayed_ack=True)
        conn.write(1 * MSS)
        sim.run()
        # One packet: ACK held for the 40 ms delayed-ACK timeout.
        assert sim.now == pytest.approx(0.060 + 0.040, abs=1e-6)

    def test_delayed_ack_pairs_acked_immediately(self):
        sim, conn = make_connection(delayed_ack=True)
        conn.write(2 * MSS)
        sim.run()
        assert sim.now == pytest.approx(0.060, abs=1e-6)

    def test_delayed_ack_slows_small_transfer_metrics(self):
        with_da = run_transfer([1 * MSS], rtt_ms=60.0, delayed_ack=True)
        without = run_transfer([1 * MSS], rtt_ms=60.0, delayed_ack=False)
        assert with_da.completion_time > without.completion_time


class TestAppLimited:
    def test_idle_connection_does_not_grow_cwnd(self):
        sim, conn = make_connection(icw=10)
        conn.write(1 * MSS)  # tiny write, far below the window
        sim.run()
        assert conn.state.cwnd_bytes == 10 * MSS
