"""Congestion-control conformance suite: every controller honors one contract.

The registry (:func:`~repro.netsim.congestion.register_congestion_control`)
makes *which* congestion control a connection runs orthogonal to the TCP
machinery around it — but only if every controller upholds the invariants
:class:`~repro.netsim.tcp.TcpConnection` leans on:

- the window never collapses below 2 MSS on loss (the sender must always
  be able to clock out a segment pair);
- ``ssthresh`` never *increases* across consecutive loss events (recovery
  exit sets ``cwnd = max(ssthresh, 2 MSS)`` — a controller that left
  ssthresh at its 2**30 sentinel would explode the window there);
- ``on_timeout`` collapses the window (RTO means the pipe is gone);
- a fixed seed reproduces a transfer byte-for-byte (the differential
  harnesses and golden numbers depend on it).

Adding a controller via ``register_congestion_control`` means inheriting
this whole bar — the suite parameterizes over the live registry.
"""

from __future__ import annotations

import pytest

from repro.netsim.congestion import (
    CongestionControl,
    cc_for,
    register_congestion_control,
    registered_congestion_controls,
    _CC_FACTORIES,
)
from repro.netsim.scenarios import run_transfer

pytestmark = pytest.mark.netsim

MSS = 1500
CONTROLLERS = registered_congestion_controls()


@pytest.mark.parametrize("name", CONTROLLERS)
class TestControllerContract:
    def test_cwnd_floor_under_collapsing_flight(self, name):
        cc = cc_for(name, MSS, 10 * MSS)
        # Loss events with ever-shrinking flight must never take the window
        # below two segments.
        for flight in (10 * MSS, 4 * MSS, 2 * MSS, MSS, 100, 0):
            cc.on_loss(flight)
            assert cc.cwnd_bytes >= 2 * MSS

    def test_ssthresh_monotone_across_consecutive_losses(self, name):
        cc = cc_for(name, MSS, 20 * MSS)
        previous = None
        for flight in (20 * MSS, 12 * MSS, 6 * MSS, 3 * MSS):
            cc.on_loss(flight)
            assert cc.ssthresh_bytes >= 2 * MSS
            if previous is not None:
                assert cc.ssthresh_bytes <= previous
            previous = cc.ssthresh_bytes

    def test_loss_leaves_ssthresh_usable_for_recovery_exit(self, name):
        # TcpConnection's recovery exit does cwnd = max(ssthresh, 2 MSS);
        # after any loss, ssthresh must be a real window, not the 1<<30
        # "slow start forever" sentinel.
        cc = cc_for(name, MSS, 10 * MSS)
        cc.on_loss(10 * MSS)
        assert cc.ssthresh_bytes < (1 << 30)

    def test_timeout_collapses_window(self, name):
        cc = cc_for(name, MSS, 40 * MSS)
        before = cc.cwnd_bytes
        after = cc.on_timeout(bytes_in_flight=40 * MSS)
        assert after == cc.cwnd_bytes
        assert after < before
        assert after <= 2 * MSS

    def test_ack_growth_only_moves_forward_in_slow_start(self, name):
        cc = cc_for(name, MSS, 10 * MSS)
        before = cc.cwnd_bytes
        cc.on_ack(MSS, now=0.05, rtt_sample=0.05)
        assert cc.cwnd_bytes >= before

    def test_deterministic_under_fixed_seed(self, name):
        kwargs = dict(
            response_sizes=[120 * MSS, 40 * MSS],
            bottleneck_mbps=5.0,
            rtt_ms=40.0,
            loss_probability=0.02,
            jitter_ms=5.0,
            congestion_control=name,
            seed=11,
            max_duration=300.0,
        )
        first = run_transfer(**kwargs)
        second = run_transfer(**kwargs)
        assert first.completion_time == second.completion_time
        assert first.retransmits == second.retransmits
        assert first.timeouts == second.timeouts
        assert [
            (r.first_byte_time, r.ack_time, r.response_bytes)
            for r in first.records
        ] == [
            (r.first_byte_time, r.ack_time, r.response_bytes)
            for r in second.records
        ]

    def test_completes_transfer_under_burst_loss(self, name):
        result = run_transfer(
            [150 * MSS],
            bottleneck_mbps=8.0,
            rtt_ms=60.0,
            burst_loss_probability=0.01,
            congestion_control=name,
            seed=3,
            max_duration=300.0,
        )
        assert result.total_bytes == 150 * MSS


class TestRegistry:
    def test_lookup_is_by_exact_name(self):
        with pytest.raises(ValueError, match="unknown congestion control"):
            cc_for("RENO", MSS, 10 * MSS)

    def test_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            cc_for("nope", MSS, 10 * MSS)
        for name in CONTROLLERS:
            assert name in str(excinfo.value)

    def test_name_must_be_lowercase_identifier(self):
        with pytest.raises(ValueError):
            register_congestion_control("Bad-Name", lambda m, c: None)

    def test_register_and_replace(self):
        class Fixed(CongestionControl):
            def on_ack(self, acked, now, rtt, snd_una=None, snd_nxt=None):
                pass

            def on_loss(self, flight):
                return self.cwnd_bytes

            def on_timeout(self, flight):
                return self.cwnd_bytes

        register_congestion_control("fixedwin", Fixed)
        try:
            assert "fixedwin" in registered_congestion_controls()
            cc = cc_for("fixedwin", MSS, 7 * MSS)
            assert isinstance(cc, Fixed)
            assert cc.cwnd_bytes == 7 * MSS
        finally:
            _CC_FACTORIES.pop("fixedwin", None)
        assert "fixedwin" not in registered_congestion_controls()

    def test_abstract_base_raises(self):
        cc = CongestionControl(MSS, 10 * MSS)
        with pytest.raises(NotImplementedError):
            cc.on_ack(MSS, now=0.0, rtt_sample=None)
        with pytest.raises(NotImplementedError):
            cc.on_loss(MSS)
        with pytest.raises(NotImplementedError):
            cc.on_timeout(MSS)
