"""Pluggable congestion-control algorithms for the simulator.

The goodput model of §3.2 assumes idealized slow start; real connections run
Reno-style, CUBIC, or rate-based congestion control, and the paper explicitly
notes that transactions may "exit slow start early due to CUBIC's hybrid slow
start" (§3.2.3) — one of the real-world effects the Tmodel comparison must
absorb. A real edge additionally serves rate-based senders (Dropbox moved its
edge to BBRv2 precisely because CUBIC's loss response distorts tail goodput)
and mobile paths where loss is not a congestion signal at all. To exercise
that diversity the simulator supports:

- :class:`RenoControl` — byte-counted slow start + AIMD congestion
  avoidance (the behaviour footnote 3 describes for the Linux kernel);
- :class:`CubicControl` — CUBIC window growth (Ha, Rhee, Xu 2008) with
  **HyStart** (Ha & Rhee 2008): slow start exits early when the RTT-delay
  signal detects the pipe filling, before any loss;
- :class:`BbrLikeControl` — a rate-based model in the BBR family (Cardwell
  et al. 2016): a windowed-max delivery-rate estimator and a min-RTT
  estimator set the operating point, a startup/drain/probe-bw gain cycle
  modulates the window around it, and loss is *not* a primary signal.

Controllers register by name (:func:`register_congestion_control`) and are
resolved by :func:`cc_for`, so ``TcpParams(congestion_control=...)``
and the ``--cc`` CLI flag accept any registered name, and third parties can
plug in new models without touching :mod:`repro.netsim.tcp`. All registered
controllers are held to one contract by ``tests/test_cc_contract.py``.

Every controller exposes the same small interface consumed by
:class:`~repro.netsim.tcp.TcpConnection`:

``on_ack(acked_bytes, now, rtt_sample, snd_una=None, snd_nxt=None)`` → grow
(or retarget) the window; ``snd_una``/``snd_nxt`` let sequence-aware logic
(HyStart rounds, delivery-rate rounds) delimit real round trips;
``on_loss(bytes_in_flight)`` → loss response, returns new cwnd;
``on_timeout(bytes_in_flight)`` → collapse, returns new cwnd.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

__all__ = [
    "BbrLikeControl",
    "CongestionControl",
    "CubicControl",
    "RenoControl",
    "cc_for",
    "register_congestion_control",
    "registered_congestion_controls",
]


class CongestionControl:
    """Interface. ``cwnd_bytes`` is the controlled variable."""

    def __init__(self, mss_bytes: int, initial_cwnd_bytes: int) -> None:
        self.mss = mss_bytes
        self.cwnd_bytes = initial_cwnd_bytes
        self.ssthresh_bytes = 1 << 30

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_bytes < self.ssthresh_bytes

    def on_ack(
        self,
        acked_bytes: int,
        now: float,
        rtt_sample: Optional[float],
        snd_una: Optional[int] = None,
        snd_nxt: Optional[int] = None,
    ) -> None:
        raise NotImplementedError

    def on_loss(self, bytes_in_flight: int) -> int:
        raise NotImplementedError

    def on_timeout(self, bytes_in_flight: int) -> int:
        raise NotImplementedError


class RenoControl(CongestionControl):
    """NewReno with byte-counted slow start (Linux's ABC behaviour)."""

    def __init__(self, mss_bytes: int, initial_cwnd_bytes: int) -> None:
        super().__init__(mss_bytes, initial_cwnd_bytes)
        self._ca_accumulator = 0.0

    def on_ack(
        self,
        acked_bytes: int,
        now: float,
        rtt_sample: Optional[float],
        snd_una: Optional[int] = None,
        snd_nxt: Optional[int] = None,
    ) -> None:
        if self.in_slow_start:
            self.cwnd_bytes += acked_bytes
            return
        self._ca_accumulator += self.mss * acked_bytes / self.cwnd_bytes
        whole = int(self._ca_accumulator)
        if whole:
            self.cwnd_bytes += whole
            self._ca_accumulator -= whole

    def on_loss(self, bytes_in_flight: int) -> int:
        flight = max(bytes_in_flight, self.mss)
        self.ssthresh_bytes = max(flight // 2, 2 * self.mss)
        self.cwnd_bytes = self.ssthresh_bytes
        return self.cwnd_bytes

    def on_timeout(self, bytes_in_flight: int) -> int:
        self.ssthresh_bytes = max(bytes_in_flight // 2, 2 * self.mss)
        self.cwnd_bytes = self.mss
        return self.cwnd_bytes


class CubicControl(CongestionControl):
    """CUBIC window growth with HyStart slow-start exit.

    The cubic function ``W(t) = C (t - K)^3 + Wmax`` grows the window
    concavely toward the pre-loss maximum, plateaus, then probes convexly.
    HyStart watches RTT inflation during slow start: once the smallest RTT
    in the current round exceeds the previous round's by a threshold, the
    pipe is judged full and slow start ends without a loss.

    A *round* is delimited by sequence, not by an ACK count: at round start
    the highest outstanding sequence (``snd_nxt``) is snapshotted, and the
    round ends when the cumulative ACK covers it — one window of ACKs is
    one round trip. (An earlier revision treated every
    ``HYSTART_MIN_SAMPLES`` ACKs as a round, so a large window completed
    several pseudo-rounds per RTT and ACK-batch variance *within* one RTT
    could exit slow start spuriously; ``HYSTART_MIN_SAMPLES`` is now only
    the validity threshold a round's RTT minimum needs before it may
    trigger an exit, as in the reference implementation.) When the caller
    does not supply sequence numbers (standalone unit use), the round
    length falls back to one cwnd of acknowledged bytes.
    """

    C = 0.4           # cubic scaling constant (segments/sec^3)
    BETA = 0.7        # multiplicative decrease factor
    HYSTART_MIN_SAMPLES = 8
    HYSTART_ETA_MIN = 0.004   # 4 ms minimum RTT-inflation threshold
    HYSTART_ETA_MAX = 0.016

    def __init__(self, mss_bytes: int, initial_cwnd_bytes: int) -> None:
        super().__init__(mss_bytes, initial_cwnd_bytes)
        self._w_max = 0.0          # segments
        self._epoch_start: Optional[float] = None
        self._k = 0.0
        # HyStart round state (sequence-delimited).
        self._delivered = 0
        self._round_end_seq: Optional[int] = None
        self._round_min_rtt = math.inf
        self._last_round_min_rtt = math.inf
        self._round_samples = 0
        self.hystart_rounds = 0
        self.hystart_exits = 0

    # ------------------------------------------------------------------ #
    def on_ack(
        self,
        acked_bytes: int,
        now: float,
        rtt_sample: Optional[float],
        snd_una: Optional[int] = None,
        snd_nxt: Optional[int] = None,
    ) -> None:
        self._delivered = (
            snd_una if snd_una is not None else self._delivered + acked_bytes
        )
        if self.in_slow_start:
            self.cwnd_bytes += acked_bytes
            self._hystart_update(rtt_sample, snd_nxt)
            return
        self._cubic_update(now, acked_bytes)

    def _hystart_update(
        self, rtt_sample: Optional[float], snd_nxt: Optional[int]
    ) -> None:
        if self._round_end_seq is None:
            # Round start: snapshot the highest sequence outstanding. The
            # round ends when the cumulative ACK covers it — exactly one
            # round trip later for a window-limited sender.
            self._round_end_seq = (
                snd_nxt
                if snd_nxt is not None
                else self._delivered + self.cwnd_bytes
            )
            self._round_min_rtt = math.inf
            self._round_samples = 0
        if rtt_sample is not None:
            self._round_min_rtt = min(self._round_min_rtt, rtt_sample)
            self._round_samples += 1
        if self._delivered < self._round_end_seq:
            return
        # Round complete: compare against the previous round.
        self.hystart_rounds += 1
        if (
            self._round_samples >= self.HYSTART_MIN_SAMPLES
            and math.isfinite(self._last_round_min_rtt)
        ):
            eta = min(
                max(self._last_round_min_rtt / 8.0, self.HYSTART_ETA_MIN),
                self.HYSTART_ETA_MAX,
            )
            if self._round_min_rtt >= self._last_round_min_rtt + eta:
                # Delay increase detected: exit slow start here.
                self.ssthresh_bytes = self.cwnd_bytes
                self.hystart_exits += 1
        if math.isfinite(self._round_min_rtt):
            self._last_round_min_rtt = self._round_min_rtt
        self._round_end_seq = None

    def _cubic_update(self, now: float, acked_bytes: int) -> None:
        if self._epoch_start is None:
            self._epoch_start = now
            w_segments = self.cwnd_bytes / self.mss
            if self._w_max > w_segments:
                self._k = ((self._w_max - w_segments) / self.C) ** (1.0 / 3.0)
            else:
                self._k = 0.0
                self._w_max = w_segments
        t = now - self._epoch_start
        target_segments = self.C * (t - self._k) ** 3 + self._w_max
        target_bytes = max(int(target_segments * self.mss), 2 * self.mss)
        if target_bytes > self.cwnd_bytes:
            # Approach the cubic target proportionally to ACK arrival.
            step = max(
                (target_bytes - self.cwnd_bytes) * acked_bytes // self.cwnd_bytes,
                0,
            )
            self.cwnd_bytes += min(step, acked_bytes)
        # else: plateau (TCP-friendliness term omitted for clarity).

    # ------------------------------------------------------------------ #
    def on_loss(self, bytes_in_flight: int) -> int:
        self._w_max = self.cwnd_bytes / self.mss
        reduced = max(int(self.cwnd_bytes * self.BETA), 2 * self.mss)
        self.ssthresh_bytes = reduced
        self.cwnd_bytes = reduced
        self._epoch_start = None
        return self.cwnd_bytes

    def on_timeout(self, bytes_in_flight: int) -> int:
        self._w_max = self.cwnd_bytes / self.mss
        self.ssthresh_bytes = max(
            int(self.cwnd_bytes * self.BETA), 2 * self.mss
        )
        self.cwnd_bytes = self.mss
        self._epoch_start = None
        return self.cwnd_bytes


class BbrLikeControl(CongestionControl):
    """Rate-based congestion control in the BBR family.

    The model keeps the two BBR state variables — **BtlBw**, a windowed
    maximum of per-round delivery-rate samples, and **RTprop**, the minimum
    observed RTT — and sets the window from their product (the BDP) through
    a phase gain:

    - **startup**: ACK-clocked exponential growth (byte-counted, so it
      never outruns the §3.2 model's idealized doubling) until the
      delivery rate stops growing ≥25% per round for three consecutive
      rounds (the pipe is full);
    - **drain**: one RTprop at a sub-unity gain to drain the startup queue;
    - **probe-bw**: an eight-phase gain cycle (1.25, 0.75, then six unity
      phases) that periodically probes for more bandwidth and then yields
      the induced queue back.

    **Min-RTT probing**: when RTprop has not been refreshed for
    ``MIN_RTT_WINDOW_SECONDS`` the window collapses to
    ``PROBE_RTT_CWND_PACKETS`` for ``PROBE_RTT_DURATION`` so the queue
    empties and the propagation delay can be re-measured.

    **Loss is not a primary signal**: :meth:`on_loss` sheds only the
    transient overshoot above the estimated BDP (and keeps ``ssthresh``
    coherent for the recovery bookkeeping in
    :class:`~repro.netsim.tcp.TcpConnection`); the operating point stays
    pinned to the measured rate, which is what makes this family hold
    goodput on lossy/mobile paths where loss-based senders collapse.

    This is deliberately a *model*, not the spec: the simulator's sender is
    window-clocked (no pacer), so pacing gains act on the window, and the
    bandwidth filter is per-round rather than per-packet.
    """

    STARTUP_FULL_THRESHOLD = 1.25   # bw must still grow 25%/round...
    STARTUP_FULL_ROUNDS = 3         # ...else the pipe is full after 3 rounds
    DRAIN_GAIN = 0.35               # ≈ 1 / startup's 2/ln2 pacing gain
    PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    BW_WINDOW_ROUNDS = 10           # max-filter depth for BtlBw
    MIN_RTT_WINDOW_SECONDS = 10.0   # RTprop staleness bound
    PROBE_RTT_CWND_PACKETS = 4
    PROBE_RTT_DURATION = 0.2

    def __init__(self, mss_bytes: int, initial_cwnd_bytes: int) -> None:
        super().__init__(mss_bytes, initial_cwnd_bytes)
        self.phase = "startup"
        self._min_rtt: Optional[float] = None
        self._min_rtt_stamp = 0.0
        self._probe_rtt_until: Optional[float] = None
        self._phase_after_probe = "startup"
        # Delivery-rate estimator: per-round samples through a max filter.
        self._btl_bw = 0.0
        self._bw_window: Deque[Tuple[int, float]] = deque()
        self._round_count = 0
        self._delivered = 0
        self._round_end_seq: Optional[int] = None
        self._round_start_delivered = 0
        self._round_start_time: Optional[float] = None
        # Startup full-pipe detection.
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        # Probe-bw gain cycling.
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._drain_until: Optional[float] = None
        # Observability.
        self.loss_events = 0
        self.probe_rtt_entries = 0

    def _bdp_bytes(self) -> Optional[float]:
        if self._btl_bw <= 0.0 or not self._min_rtt:
            return None
        return self._btl_bw * self._min_rtt

    # ------------------------------------------------------------------ #
    def on_ack(
        self,
        acked_bytes: int,
        now: float,
        rtt_sample: Optional[float],
        snd_una: Optional[int] = None,
        snd_nxt: Optional[int] = None,
    ) -> None:
        self._delivered = (
            snd_una if snd_una is not None else self._delivered + acked_bytes
        )
        if rtt_sample is not None and (
            self._min_rtt is None or rtt_sample <= self._min_rtt
        ):
            self._min_rtt = rtt_sample
            self._min_rtt_stamp = now
        self._update_round(now, snd_nxt)
        self._advance_phase(now)
        self._retarget_cwnd(acked_bytes)

    def _update_round(self, now: float, snd_nxt: Optional[int]) -> None:
        if self._round_end_seq is None:
            self._round_end_seq = (
                snd_nxt
                if snd_nxt is not None
                else self._delivered + self.cwnd_bytes
            )
            self._round_start_delivered = self._delivered
            self._round_start_time = now
            return
        if self._delivered < self._round_end_seq:
            return
        # Round complete: one delivery-rate sample through the max filter.
        elapsed = now - (self._round_start_time or now)
        delivered = self._delivered - self._round_start_delivered
        self._round_count += 1
        if elapsed > 0.0 and delivered > 0:
            sample = delivered / elapsed
            self._bw_window.append((self._round_count, sample))
            horizon = self._round_count - self.BW_WINDOW_ROUNDS
            while self._bw_window and self._bw_window[0][0] <= horizon:
                self._bw_window.popleft()
            self._btl_bw = max(bw for _, bw in self._bw_window)
            if self.phase == "startup":
                if self._btl_bw >= self._full_bw * self.STARTUP_FULL_THRESHOLD:
                    self._full_bw = self._btl_bw
                    self._full_bw_rounds = 0
                else:
                    self._full_bw_rounds += 1
        self._round_end_seq = None

    def _advance_phase(self, now: float) -> None:
        if self._probe_rtt_until is not None:
            if now >= self._probe_rtt_until:
                self._probe_rtt_until = None
                self._min_rtt_stamp = now
                self.phase = self._phase_after_probe
                self._cycle_stamp = now
            return
        if (
            self._min_rtt is not None
            and now - self._min_rtt_stamp > self.MIN_RTT_WINDOW_SECONDS
        ):
            self._probe_rtt_until = now + self.PROBE_RTT_DURATION
            self._phase_after_probe = (
                "probe_bw" if self.phase != "startup" else "startup"
            )
            self.probe_rtt_entries += 1
            return
        if self.phase == "startup":
            if self._full_bw_rounds >= self.STARTUP_FULL_ROUNDS:
                self.phase = "drain"
                self._drain_until = now + (self._min_rtt or 0.0)
        elif self.phase == "drain":
            if self._drain_until is None or now >= self._drain_until:
                self.phase = "probe_bw"
                self._cycle_index = 0
                self._cycle_stamp = now
        else:  # probe_bw
            interval = self._min_rtt or self.PROBE_RTT_DURATION
            if now - self._cycle_stamp >= interval:
                self._cycle_index = (self._cycle_index + 1) % len(
                    self.PROBE_GAINS
                )
                self._cycle_stamp = now

    def _retarget_cwnd(self, acked_bytes: int) -> None:
        if self._probe_rtt_until is not None:
            self.cwnd_bytes = max(
                self.PROBE_RTT_CWND_PACKETS * self.mss, 2 * self.mss
            )
            return
        bdp = self._bdp_bytes()
        if self.phase == "startup":
            # ACK-clocked exponential growth; the rate estimator only
            # decides when to *leave* startup.
            self.cwnd_bytes += acked_bytes
            return
        if bdp is None:
            return
        gain = (
            self.DRAIN_GAIN
            if self.phase == "drain"
            else self.PROBE_GAINS[self._cycle_index]
        )
        self.cwnd_bytes = max(int(gain * bdp), 2 * self.mss)

    # ------------------------------------------------------------------ #
    def on_loss(self, bytes_in_flight: int) -> int:
        self.loss_events += 1
        flight = max(bytes_in_flight, 2 * self.mss)
        bdp = self._bdp_bytes()
        operating_point = max(flight, int(bdp) if bdp is not None else flight)
        # Rate-based response: shed only the overshoot above the operating
        # point; never a multiplicative decrease.
        self.cwnd_bytes = max(min(self.cwnd_bytes, operating_point), 2 * self.mss)
        self.ssthresh_bytes = min(
            self.ssthresh_bytes, max(self.cwnd_bytes, 2 * self.mss)
        )
        return self.cwnd_bytes

    def on_timeout(self, bytes_in_flight: int) -> int:
        self.loss_events += 1
        self.ssthresh_bytes = min(
            self.ssthresh_bytes, max(bytes_in_flight, 2 * self.mss)
        )
        # Collapse like any sender on RTO; the bandwidth filter survives,
        # so the window snaps back to the BDP once ACKs flow again.
        self.cwnd_bytes = self.mss
        return self.cwnd_bytes


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_CC_FACTORIES: Dict[str, Callable[[int, int], CongestionControl]] = {}


def register_congestion_control(
    name: str, factory: Callable[[int, int], CongestionControl]
) -> None:
    """Register (or replace) a congestion-control model under ``name``.

    ``factory`` takes ``(mss_bytes, initial_cwnd_bytes)`` and returns a
    :class:`CongestionControl`. Registered names are accepted by
    ``TcpParams(congestion_control=...)``, ``run_transfer``,
    ``run_validation_sweep`` and the ``--cc`` CLI flag. Names must be
    lowercase identifiers so they can mint ``netsim.cc.<name>.*`` metric
    names.
    """
    if not name or not name.replace("_", "").isalnum() or name != name.lower():
        raise ValueError(
            f"congestion-control name {name!r} must be a lowercase identifier"
        )
    _CC_FACTORIES[name] = factory


def registered_congestion_controls() -> Tuple[str, ...]:
    """All registered controller names, sorted."""
    return tuple(sorted(_CC_FACTORIES))


def cc_for(
    name: str, mss_bytes: int, initial_cwnd_bytes: int
) -> CongestionControl:
    """Build the controller registered under ``name``."""
    try:
        factory = _CC_FACTORIES[name]
    except KeyError:
        known = ", ".join(registered_congestion_controls())
        raise ValueError(
            f"unknown congestion control {name!r} (registered: {known})"
        ) from None
    return factory(mss_bytes, initial_cwnd_bytes)


register_congestion_control("reno", RenoControl)
register_congestion_control("cubic", CubicControl)
register_congestion_control("bbr", BbrLikeControl)
