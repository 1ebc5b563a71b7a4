"""Unidirectional link model with a bottleneck queue.

Models the four delay/loss effects the goodput model has to survive:

- **serialization** — packets drain at ``rate_bps``; back-to-back sends queue
  behind each other (this is the "transmission time at bottleneck links" of
  §3.2.3);
- **propagation** — fixed one-way delay;
- **queueing/drops** — a finite FIFO; packets arriving to a full queue are
  dropped (drop-tail), which is how congestion losses arise;
- **random loss & jitter** — i.i.d. loss probability and additive random
  delay, modelling lossy access links and cross-traffic-induced variance;
- **burst loss** — an optional two-state Gilbert–Elliott process (good/bad,
  geometric burst lengths) modelling the correlated fades of LTE and
  high-mobility paths, where losses arrive in trains rather than i.i.d.

The link is the only place in the simulator where time physics lives; TCP
sees only "hand me a packet" and "a packet arrived".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.netsim.engine import Simulator

__all__ = ["Link", "LinkStats", "Packet"]


@dataclass
class Packet:
    """A TCP segment on the wire.

    ``seq`` is the first payload byte's offset; ``payload_bytes`` is 0 for a
    pure ACK. ``ack_seq`` is the cumulative acknowledgement (next expected
    byte) carried by the segment; ``None`` for data-only segments.
    """

    seq: int
    payload_bytes: int
    ack_seq: Optional[int] = None
    header_bytes: int = 40
    sent_at: float = 0.0
    retransmission: bool = False

    @property
    def size_bytes(self) -> int:
        return self.payload_bytes + self.header_bytes

    @property
    def end_seq(self) -> int:
        return self.seq + self.payload_bytes


@dataclass
class LinkStats:
    """Counters for assertions and debugging."""

    sent: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_random: int = 0
    dropped_burst: int = 0
    bytes_delivered: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_queue + self.dropped_random + self.dropped_burst


class Link:
    """One direction of a path.

    Parameters
    ----------
    sim:
        The simulation engine.
    rate_bps:
        Serialization rate in bits/second. ``None`` means infinitely fast
        (used for ACK return paths where only propagation matters).
    propagation_delay:
        One-way propagation delay in seconds.
    queue_packets:
        FIFO capacity in packets (beyond the one in service). Arrivals when
        the queue is full are dropped.
    loss_probability:
        I.i.d. probability a packet is dropped in flight.
    jitter_seconds:
        Maximum additional uniform random delay per packet.
    burst_loss_probability:
        Per-packet probability of entering the Gilbert–Elliott *bad* state
        (in which every packet is dropped). 0 disables burst loss — and
        draws nothing from ``rng``, so enabling it never perturbs the
        random stream of existing scenarios.
    burst_length_packets:
        Mean burst length expressed in back-to-back packet times: on entry
        the fade's *duration* is drawn exponentially with mean
        ``burst_length_packets`` line-rate serializations, so a burst kills
        about that many consecutive packets of a saturating flow. The fade
        expires in wall-time, not per packet — a sparse flow (e.g. one RTO
        retransmission a minute) must not pin the channel bad forever.
    rng:
        Random source for loss/jitter; pass a seeded instance for
        reproducibility.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float] = None,
        propagation_delay: float = 0.010,
        queue_packets: int = 1000,
        loss_probability: float = 0.0,
        jitter_seconds: float = 0.0,
        burst_loss_probability: float = 0.0,
        burst_length_packets: float = 4.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError("rate_bps must be positive (or None for infinite)")
        if propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if not 0.0 <= burst_loss_probability < 1.0:
            raise ValueError("burst_loss_probability must be in [0, 1)")
        if burst_length_packets < 1.0:
            raise ValueError("burst_length_packets must be >= 1")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.queue_packets = queue_packets
        self.loss_probability = loss_probability
        self.jitter_seconds = jitter_seconds
        self.burst_loss_probability = burst_loss_probability
        self.burst_length_packets = burst_length_packets
        self._burst_bad = False
        self._burst_until = 0.0
        self.rng = rng or random.Random(0)
        self.stats = LinkStats()
        self.receiver: Optional[Callable[[Packet], None]] = None
        self._busy_until = 0.0
        self._queued = 0
        #: Observers called as ``callback(event, packet, now)`` where event
        #: is "send", "deliver", "drop-queue", or "drop-loss" — used by the
        #: trace recorder; zero cost when empty.
        self.observers: list = []

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        self.receiver = receiver

    def send(self, packet: Packet) -> None:
        """Enqueue a packet for transmission at the current time."""
        if self.receiver is None:
            raise RuntimeError("link has no receiver connected")
        self.stats.sent += 1
        for observer in self.observers:
            observer("send", packet, self.sim.now)

        now = self.sim.now
        if self.rate_bps is None:
            serialization = 0.0
            departure = now
        else:
            serialization = packet.size_bytes * 8.0 / self.rate_bps
            # Drop-tail: count packets waiting for the serializer.
            if self._busy_until > now and self._queued >= self.queue_packets:
                self.stats.dropped_queue += 1
                for observer in self.observers:
                    observer("drop-queue", packet, now)
                return
            if self._busy_until > now:
                self._queued += 1
                start = self._busy_until
            else:
                start = now
            departure = start + serialization
            self._busy_until = departure

        if self.loss_probability > 0 and self.rng.random() < self.loss_probability:
            self.stats.dropped_random += 1
            for observer in self.observers:
                observer("drop-loss", packet, now)
            if self.rate_bps is not None and departure > now:
                # The packet still occupied the serializer before being lost
                # downstream; release its queue slot at departure.
                self.sim.schedule_at(departure, self._release_slot)
            return

        if self.burst_loss_probability > 0 and self._burst_loss():
            self.stats.dropped_burst += 1
            for observer in self.observers:
                observer("drop-loss", packet, now)
            if self.rate_bps is not None and departure > now:
                self.sim.schedule_at(departure, self._release_slot)
            return

        jitter = self.rng.uniform(0.0, self.jitter_seconds) if self.jitter_seconds else 0.0
        arrival = departure + self.propagation_delay + jitter
        if self.rate_bps is not None and departure > now:
            self.sim.schedule_at(departure, self._release_slot)
        self.sim.schedule_at(arrival, lambda p=packet: self._deliver(p))

    def _burst_loss(self) -> bool:
        """Advance the Gilbert–Elliott chain; True = drop this packet."""
        now = self.sim.now
        if self._burst_bad and now >= self._burst_until:
            self._burst_bad = False
        if self._burst_bad:
            return True
        if self.rng.random() < self.burst_loss_probability:
            # Fade duration ~ Exp(mean = burst_length_packets line-rate
            # serializations): about that many consecutive packets of a
            # saturating flow die, but the fade ends in wall-time even if
            # the flow has stalled.
            packet_time = (
                1540 * 8.0 / self.rate_bps
                if self.rate_bps is not None
                else 0.003
            )
            mean = self.burst_length_packets * packet_time
            self._burst_bad = True
            self._burst_until = now + self.rng.expovariate(1.0 / mean)
            return True
        return False

    def _release_slot(self) -> None:
        if self._queued > 0:
            self._queued -= 1

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.payload_bytes
        for observer in self.observers:
            observer("deliver", packet, self.sim.now)
        assert self.receiver is not None
        self.receiver(packet)
