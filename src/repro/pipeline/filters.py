"""Dataset filtering (§2.2.4).

The paper filters out client IPs "determined by a third-party commercial
service to be controlled by a hosting provider (~2% of measured traffic)":
such sessions are API relays and VPN egress points whose user population
shifts over time, which poisons temporal analysis (footnote 2). The
synthetic edge tags those networks at generation time; this module applies
the filter and keeps the audit counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.records import SessionSample

__all__ = ["FilterStats", "record_sample"]


@dataclass
class FilterStats:
    """What the filter kept and dropped."""

    kept_sessions: int = 0
    dropped_sessions: int = 0
    kept_bytes: int = 0
    dropped_bytes: int = 0

    @property
    def dropped_traffic_fraction(self) -> float:
        total = self.kept_bytes + self.dropped_bytes
        if total == 0:
            return 0.0
        return self.dropped_bytes / total

    def merge(self, other: "FilterStats") -> "FilterStats":
        """Fold another partition's counters in (sharded ingestion)."""
        self.kept_sessions += other.kept_sessions
        self.dropped_sessions += other.dropped_sessions
        self.kept_bytes += other.kept_bytes
        self.dropped_bytes += other.dropped_bytes
        return self


def record_sample(sample: SessionSample, stats: FilterStats) -> bool:
    """Account one sample against ``stats``; True if it passes the filter."""
    if sample.client_ip_is_hosting:
        stats.dropped_sessions += 1
        stats.dropped_bytes += sample.bytes_sent
        return False
    stats.kept_sessions += 1
    stats.kept_bytes += sample.bytes_sent
    return True

