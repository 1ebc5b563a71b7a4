"""Packet trace capture and sequence-diagram rendering.

Attaches to a connection's data/ACK links and records every wire event.
:meth:`PacketTrace.render` draws a textual time/sequence diagram in the
spirit of the paper's Figure 4 — data packets flowing right, ACKs flowing
left, losses marked — which is the fastest way to understand (or debug) a
simulated transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.link import Link, Packet

__all__ = ["PacketTrace", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One wire event."""

    time: float
    direction: str   # "data" or "ack"
    kind: str        # "send", "deliver", "drop-queue", "drop-loss"
    seq: int
    end_seq: int
    ack_seq: Optional[int]
    retransmission: bool

    @property
    def is_drop(self) -> bool:
        return self.kind.startswith("drop")


class PacketTrace:
    """Event recorder for one connection's two links."""

    def __init__(self, data_link: Link, ack_link: Link) -> None:
        self.events: List[TraceEvent] = []
        data_link.observers.append(self._observer("data"))
        ack_link.observers.append(self._observer("ack"))

    def _observer(self, direction: str):
        def observe(kind: str, packet: Packet, now: float) -> None:
            self.events.append(
                TraceEvent(
                    time=now,
                    direction=direction,
                    kind=kind,
                    seq=packet.seq,
                    end_seq=packet.end_seq,
                    ack_seq=packet.ack_seq,
                    retransmission=packet.retransmission,
                )
            )

        return observe

    # ------------------------------------------------------------------ #
    @property
    def data_packets_sent(self) -> int:
        return sum(
            1 for e in self.events if e.direction == "data" and e.kind == "send"
        )

    @property
    def acks_sent(self) -> int:
        return sum(
            1 for e in self.events if e.direction == "ack" and e.kind == "send"
        )

    @property
    def drops(self) -> int:
        return sum(1 for e in self.events if e.is_drop)

    # ------------------------------------------------------------------ #
    def render(self, max_events: int = 80, mss: int = 1500) -> str:
        """Figure-4-style textual sequence diagram.

        One line per event: time, the server/client rails, and what crossed
        the wire. Data flows left→right, ACKs right→left.
        """
        lines = [
            "time (ms)  server                                client",
            "---------  ------                                ------",
        ]
        shown = self.events[:max_events]
        for event in shown:
            stamp = f"{event.time * 1000:8.1f}  "
            if event.direction == "data":
                packets = max((event.end_seq - event.seq + mss - 1) // mss, 1)
                label = f"data {event.seq}..{event.end_seq}"
                if event.retransmission:
                    label += " (rtx)"
                if event.kind == "send":
                    body = f"{label} ──▶".ljust(38)
                elif event.kind == "deliver":
                    body = f"{'':14}──▶ {label}".ljust(38)
                else:
                    body = f"{label} ──✕ {event.kind}".ljust(38)
            else:
                label = f"ack {event.ack_seq}"
                if event.kind == "send":
                    body = f"{'':24}◀── {label}".ljust(38)
                elif event.kind == "deliver":
                    body = f"◀── {label}".ljust(38)
                else:
                    body = f"✕── {label} ({event.kind})".ljust(38)
            lines.append(stamp + body)
        if len(self.events) > max_events:
            lines.append(f"… {len(self.events) - max_events} more events")
        lines.append(
            f"[{self.data_packets_sent} data packets, {self.acks_sent} ACKs, "
            f"{self.drops} drops]"
        )
        return "\n".join(lines)
