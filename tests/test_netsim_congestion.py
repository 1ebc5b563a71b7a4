"""Tests for the pluggable congestion controllers (Reno, CUBIC, BBR-like)."""

import pytest

from repro.netsim.congestion import (
    BbrLikeControl,
    CubicControl,
    RenoControl,
    cc_for,
    registered_congestion_controls,
)
from repro.netsim.scenarios import run_transfer
from repro.netsim.tcp import TcpParams

pytestmark = pytest.mark.netsim

MSS = 1500


class TestReno:
    def test_slow_start_byte_counting(self):
        cc = RenoControl(MSS, 10 * MSS)
        cc.on_ack(3 * MSS, now=0.1, rtt_sample=0.05)
        assert cc.cwnd_bytes == 13 * MSS

    def test_congestion_avoidance_linear(self):
        cc = RenoControl(MSS, 10 * MSS)
        cc.ssthresh_bytes = 10 * MSS  # out of slow start
        # One full window of ACKs grows cwnd by ~1 MSS.
        for _ in range(10):
            cc.on_ack(MSS, now=0.1, rtt_sample=0.05)
        assert cc.cwnd_bytes == pytest.approx(11 * MSS, abs=MSS // 2)

    def test_loss_halves_flight(self):
        cc = RenoControl(MSS, 20 * MSS)
        cc.on_loss(bytes_in_flight=20 * MSS)
        assert cc.cwnd_bytes == 10 * MSS
        assert cc.ssthresh_bytes == 10 * MSS

    def test_timeout_collapses_to_one_segment(self):
        cc = RenoControl(MSS, 20 * MSS)
        cc.on_timeout(bytes_in_flight=20 * MSS)
        assert cc.cwnd_bytes == MSS

    def test_floor_of_two_segments(self):
        cc = RenoControl(MSS, 2 * MSS)
        cc.on_loss(bytes_in_flight=MSS)
        assert cc.cwnd_bytes >= 2 * MSS


def feed_round(cc, rtt, start, rate_bytes_per_sec=None, acks=None):
    """Deliver exactly one window (= one round) of ACKs with sequence info.

    Simulates what TcpConnection reports: ``snd_nxt`` pinned at the round
    start (a window ahead of ``snd_una``), then cumulative ACKs walking
    ``snd_una`` up to it, spread over the round's duration. With
    ``rate_bytes_per_sec`` the round takes as long as a bottleneck of that
    rate needs to drain the window (a saturated path: the delivery-rate
    samples plateau at the rate); without it, one RTT (unsaturated:
    delivery rate tracks the growing window). Returns the end time.
    """
    begin = cc._delivered
    end = begin + cc.cwnd_bytes
    window = end - begin
    count = acks if acks is not None else max(1, window // MSS)
    duration = (
        rtt
        if rate_bytes_per_sec is None
        else max(rtt, window / rate_bytes_per_sec)
    )
    una = begin
    for i in range(1, count + 1):
        next_una = begin + (window * i) // count if i < count else end
        cc.on_ack(
            next_una - una,
            now=start + duration * i / count,
            rtt_sample=rtt,
            snd_una=next_una,
            snd_nxt=end,
        )
        una = next_una
    return start + duration


class TestCubic:
    def test_slow_start_grows_like_reno(self):
        cc = CubicControl(MSS, 10 * MSS)
        cc.on_ack(3 * MSS, now=0.1, rtt_sample=0.05)
        assert cc.cwnd_bytes == 13 * MSS

    def test_beta_decrease(self):
        cc = CubicControl(MSS, 20 * MSS)
        cc.on_loss(bytes_in_flight=20 * MSS)
        assert cc.cwnd_bytes == int(20 * MSS * CubicControl.BETA)

    def test_cubic_growth_toward_wmax(self):
        cc = CubicControl(MSS, 20 * MSS)
        cc.on_loss(20 * MSS)        # sets Wmax = 20 segments
        cc.ssthresh_bytes = cc.cwnd_bytes  # stay in CA
        start = cc.cwnd_bytes
        now = 0.0
        for _ in range(200):
            now += 0.05
            cc.on_ack(MSS, now=now, rtt_sample=0.05)
        assert cc.cwnd_bytes > start
        # Approaches (and then probes past) the previous maximum.
        assert cc.cwnd_bytes >= 18 * MSS

    def test_hystart_exits_on_rtt_inflation(self):
        cc = CubicControl(MSS, 10 * MSS)
        # First round: flat RTTs.
        now = feed_round(cc, rtt=0.050, start=0.1)
        # Later rounds: RTTs inflated well past eta.
        for _ in range(3):
            now = feed_round(cc, rtt=0.080, start=now)
            if cc.hystart_exits:
                break
        assert cc.hystart_exits == 1
        assert not cc.in_slow_start

    def test_hystart_tolerates_flat_rtts(self):
        cc = CubicControl(MSS, 10 * MSS)
        now = 0.1
        for _ in range(5):
            now = feed_round(cc, rtt=0.050, start=now)
        assert cc.hystart_exits == 0
        assert cc.in_slow_start

    def test_one_bdp_of_acks_is_one_round(self):
        # Regression for the pseudo-round bug: a fixed 8-ACK "round" let a
        # large window complete many rounds per RTT. One full window
        # (one BDP) of ACKs must advance the round counter by exactly one,
        # however many ACKs carry it.
        cc = CubicControl(MSS, 64 * MSS)  # 64 ACKs per window — 8 old rounds
        assert cc.hystart_rounds == 0
        now = feed_round(cc, rtt=0.050, start=0.1, acks=64)
        assert cc.hystart_rounds == 1
        feed_round(cc, rtt=0.050, start=now)
        assert cc.hystart_rounds == 2

    def test_no_spurious_exit_within_one_rtt(self):
        # Pre-fix code compared 8-ACK batches against each other, so RTT
        # variance *within* one round trip (here: a ramp inside a single
        # window) could exit slow start. Sequence-delimited rounds compare
        # round minima, and the first round has no predecessor — no exit.
        cc = CubicControl(MSS, 64 * MSS)
        start = cc._delivered
        end = start + cc.cwnd_bytes
        rtt = 0.050
        for i in range(1, 65):
            rtt += 0.005  # strong intra-round inflation
            cc.on_ack(
                MSS, now=0.1, rtt_sample=rtt,
                snd_una=start + i * MSS, snd_nxt=end,
            )
        assert cc.hystart_exits == 0
        assert cc.in_slow_start


class TestBbr:
    def test_startup_is_ack_clocked(self):
        cc = BbrLikeControl(MSS, 10 * MSS)
        cc.on_ack(3 * MSS, now=0.1, rtt_sample=0.05)
        assert cc.phase == "startup"
        assert cc.cwnd_bytes == 13 * MSS

    RATE = 2.5e6  # bottleneck: 20 Mbps in bytes/s

    def test_exits_startup_when_rate_plateaus(self):
        cc = BbrLikeControl(MSS, 10 * MSS)
        now = 0.0
        # Saturated path: the bottleneck drains one window per round, so
        # delivery-rate samples plateau at the rate and startup must end.
        for _ in range(15):
            now = feed_round(cc, rtt=0.05, start=now, rate_bytes_per_sec=self.RATE)
            if cc.phase != "startup":
                break
        assert cc.phase in ("drain", "probe_bw")

    def test_settles_near_bdp(self):
        cc = BbrLikeControl(MSS, 10 * MSS)
        now = 0.0
        for _ in range(30):
            now = feed_round(cc, rtt=0.05, start=now, rate_bytes_per_sec=self.RATE)
        assert cc.phase == "probe_bw"
        bdp = cc._btl_bw * 0.05  # the BtlBw estimate × the path RTT
        assert bdp > 0
        # Window tracks gain × BDP (gains span 0.75–1.25).
        assert 0.5 * bdp <= cc.cwnd_bytes <= 1.5 * bdp

    def test_loss_is_not_multiplicative(self):
        cc = BbrLikeControl(MSS, 10 * MSS)
        now = 0.0
        for _ in range(30):
            now = feed_round(cc, rtt=0.05, start=now, rate_bytes_per_sec=self.RATE)
        before = cc.cwnd_bytes
        after = cc.on_loss(bytes_in_flight=before)
        # Rate-based: the window stays pinned near the operating point
        # rather than taking a beta-style cut.
        assert after >= int(before * 0.75)
        assert cc.loss_events == 1

    def test_loss_keeps_ssthresh_sane_for_recovery_exit(self):
        # TcpConnection's recovery exit sets cwnd = max(ssthresh, 2 MSS);
        # a controller that never lowered ssthresh from 1<<30 would explode
        # the window there.
        cc = BbrLikeControl(MSS, 10 * MSS)
        cc.on_loss(bytes_in_flight=8 * MSS)
        assert cc.ssthresh_bytes < (1 << 30)
        assert cc.ssthresh_bytes >= 2 * MSS

    def test_probe_rtt_entered_when_min_rtt_stale(self):
        cc = BbrLikeControl(MSS, 10 * MSS)
        now = 0.0
        for _ in range(10):
            now = feed_round(cc, rtt=0.05, start=now, rate_bytes_per_sec=self.RATE)
        # Keep acking with no new minimum for longer than the window.
        deadline = now + cc.MIN_RTT_WINDOW_SECONDS + 2.0
        while now < deadline and cc.probe_rtt_entries == 0:
            now = feed_round(cc, rtt=0.06, start=now, rate_bytes_per_sec=self.RATE)
        assert cc.probe_rtt_entries >= 1

    def test_timeout_collapses(self):
        cc = BbrLikeControl(MSS, 20 * MSS)
        cc.on_timeout(bytes_in_flight=20 * MSS)
        assert cc.cwnd_bytes == MSS


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_congestion_controls()
        assert {"reno", "cubic", "bbr"} <= set(names)

    def test_cc_for_builds_controller(self):
        cc = cc_for("bbr", MSS, 10 * MSS)
        assert isinstance(cc, BbrLikeControl)
        assert cc.cwnd_bytes == 10 * MSS

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="reno"):
            cc_for("vegas", MSS, 10 * MSS)


class TestIntegration:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_transfer([10 * MSS], congestion_control="vegas")

    @pytest.mark.parametrize("algorithm", ["reno", "cubic", "bbr"])
    def test_all_complete_clean_transfer(self, algorithm):
        result = run_transfer(
            [200 * MSS],
            bottleneck_mbps=5.0,
            rtt_ms=40.0,
            delayed_ack=False,
            congestion_control=algorithm,
        )
        assert result.total_bytes == 200 * MSS
        assert result.records

    @pytest.mark.parametrize("algorithm", ["reno", "cubic", "bbr"])
    def test_all_survive_loss(self, algorithm):
        result = run_transfer(
            [150 * MSS],
            bottleneck_mbps=5.0,
            rtt_ms=40.0,
            loss_probability=0.03,
            congestion_control=algorithm,
            seed=9,
            max_duration=120.0,
        )
        assert result.total_bytes == 150 * MSS

    def test_cubic_hystart_fires_through_deep_queue(self):
        # A slow bottleneck with a deep queue inflates RTTs during slow
        # start — exactly what HyStart watches for.
        from repro.netsim.engine import Simulator
        from repro.netsim.link import Link
        from repro.netsim.tcp import TcpConnection

        sim = Simulator()
        data = Link(sim, rate_bps=2e6, propagation_delay=0.020, queue_packets=500)
        ack = Link(sim, rate_bps=None, propagation_delay=0.020)
        conn = TcpConnection(
            sim, data, ack,
            TcpParams(initial_cwnd_packets=4, delayed_ack=False,
                      congestion_control="cubic"),
        )
        conn.write(400 * MSS)
        sim.run(until=60.0)
        assert conn.all_acked
        assert conn.cc.hystart_exits >= 1

    def test_bbr_beats_loss_based_on_bursty_path(self):
        # The motivating regime: random loss that is not congestion. A
        # loss-based sender halves its window on every train; the
        # rate-based sender holds the estimated rate.
        kwargs = dict(
            response_sizes=[600 * MSS],
            bottleneck_mbps=10.0,
            rtt_ms=50.0,
            burst_loss_probability=0.02,
            delayed_ack=False,
            seed=1,
            max_duration=300.0,
        )
        reno = run_transfer(congestion_control="reno", **kwargs)
        bbr = run_transfer(congestion_control="bbr", **kwargs)
        assert bbr.total_bytes == reno.total_bytes == 600 * MSS
        assert bbr.completion_time < reno.completion_time
