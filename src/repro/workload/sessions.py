"""Session/transaction workload models calibrated to §2.3.

Generates the *application-layer* shape of HTTP sessions — protocol version,
lifetime, idle structure, transaction count, response sizes — independent of
network conditions (which :mod:`repro.workload.channel` applies).

Calibration anchors from the paper:

- Figure 1(a): 7.4% of sessions last < 1 s; 33% < 1 min; 20% > 3 min;
  44% of HTTP/1.1 vs 26% of HTTP/2 sessions last < 1 min.
- Figure 1(b): sessions are mostly idle — 75% (H1) / 80% (H2) of sessions
  are active < 10% of their lifetime.
- Figure 2: > 58% of sessions transfer < 10 KB; the median response is
  < 6 KB; media responses have median ≈ 19 KB and 17% ≥ 100 KB; 6% of
  sessions move > 1 MB; intro: 50% of objects < 3 KB.
- Figure 3: most sessions have one transaction; 87% of H1 and 75% of H2
  sessions have < 5; sessions with ≥ 50 transactions carry > 50% of bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.core.records import HttpVersion
from repro.stats.sampling import (
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    lognormal_from_quantiles,
)

__all__ = ["SessionSpec", "TransactionSpec", "WorkloadModel"]


@dataclass(frozen=True)
class TransactionSpec:
    """One HTTP transaction: a response of ``response_bytes``, requested
    ``think_time_seconds`` after the previous response finished."""

    response_bytes: int
    think_time_seconds: float
    is_media: bool


@dataclass
class SessionSpec:
    """Application-layer description of one HTTP session."""

    http_version: HttpVersion
    target_duration_seconds: float
    is_media_session: bool
    transactions: List[TransactionSpec] = field(default_factory=list)

    @property
    def total_response_bytes(self) -> int:
        return sum(txn.response_bytes for txn in self.transactions)

    @property
    def transaction_count(self) -> int:
        return len(self.transactions)


class WorkloadModel:
    """Samples :class:`SessionSpec` objects matching the paper's workload."""

    #: Share of sessions on HTTP/2 (browsers + newer mobile apps, §2.3).
    HTTP2_SHARE = 0.55
    #: Share of sessions against media (image/video) endpoints.
    MEDIA_SESSION_SHARE = 0.20

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        # Response sizes: API/HTML responses pinned to (p50 ≈ 3 KB,
        # p90 ≈ 30 KB); media responses to (p50 ≈ 19 KB, p83 ≈ 100 KB).
        self._small_response = lognormal_from_quantiles(
            0.5, 2_800.0, 0.9, 16_000.0, low=150.0, high=5e6
        )
        self._media_response = lognormal_from_quantiles(
            0.5, 19_000.0, 0.83, 100_000.0, low=400.0, high=5e7
        )
        # Streaming-video chunks: the >1 MB session tail of Figure 2.
        self._video_chunk = LogNormal(mu=13.1, sigma=0.7, low=5e4, high=8e6)
        # Think times between transactions (Figure 1(b)'s idleness) and the
        # heavy transaction-count tails (hoisted: these are sampled per
        # transaction, the hottest path in trace generation).
        self._think_time = LogNormal(mu=1.3, sigma=1.2, low=0.0, high=600.0)
        self._tail_count_h2 = Pareto(xm=50.0, alpha=1.3, high=2000.0)
        self._tail_count_h1 = Pareto(xm=50.0, alpha=1.5, high=1000.0)

        # Session durations per protocol (seconds). Mixtures pinned to the
        # Figure 1(a) checkpoints.
        self._duration_h1 = Mixture(
            (
                (0.10, Uniform(0.05, 1.0)),        # one-shot API calls
                (0.37, LogNormal(mu=2.8, sigma=1.0, low=1.0, high=60.0)),
                (0.33, LogNormal(mu=4.8, sigma=0.5, low=60.0, high=180.0)),
                (0.20, LogNormal(mu=5.8, sigma=0.6, low=180.0, high=3600.0)),
            )
        )
        self._duration_h2 = Mixture(
            (
                (0.05, Uniform(0.05, 1.0)),
                (0.22, LogNormal(mu=3.0, sigma=0.9, low=1.0, high=60.0)),
                (0.43, LogNormal(mu=4.8, sigma=0.5, low=60.0, high=180.0)),
                (0.30, LogNormal(mu=6.0, sigma=0.6, low=180.0, high=3600.0)),
            )
        )

    # ------------------------------------------------------------------ #
    def sample_session(self) -> SessionSpec:
        rng = self.rng
        http2 = rng.random() < self.HTTP2_SHARE
        version = HttpVersion.HTTP_2 if http2 else HttpVersion.HTTP_1_1
        media = rng.random() < self.MEDIA_SESSION_SHARE
        duration = (self._duration_h2 if http2 else self._duration_h1).sample(rng)
        count = self._sample_transaction_count(http2, duration)
        spec = SessionSpec(
            http_version=version,
            target_duration_seconds=duration,
            is_media_session=media,
        )
        for index in range(count):
            spec.transactions.append(self._sample_transaction(media, count, index))
        return spec

    def _sample_transaction_count(self, http2: bool, duration: float) -> int:
        """Figure 3: dominated by 1, sub-5 for most, heavy tail.

        HTTP/2 multiplexes everything over one connection, so it has more
        transactions per session; very short sessions cannot host many.
        """
        rng = self.rng
        if duration < 1.0:
            return 1
        roll = rng.random()
        if http2:
            if roll < 0.52:
                count = 1
            elif roll < 0.76:
                count = rng.randint(2, 4)
            elif roll < 0.94:
                count = rng.randint(5, 49)
            else:
                count = int(self._tail_count_h2.sample(rng))
        else:
            if roll < 0.68:
                count = 1
            elif roll < 0.88:
                count = rng.randint(2, 4)
            elif roll < 0.975:
                count = rng.randint(5, 49)
            else:
                count = int(self._tail_count_h1.sample(rng))
        return max(count, 1)

    def _sample_transaction(
        self, media_session: bool, count: int, index: int
    ) -> TransactionSpec:
        rng = self.rng
        if media_session:
            if rng.random() < 0.09:
                size = self._video_chunk.sample(rng)
                is_media = True
            else:
                size = self._media_response.sample(rng)
                is_media = True
        else:
            size = self._small_response.sample(rng)
            is_media = False
        # Think times make sessions mostly idle (Figure 1(b)): user scroll /
        # interaction gaps dominate transfer times.
        think = self._think_time.sample(rng) if index else 0.0
        return TransactionSpec(
            response_bytes=int(size), think_time_seconds=think, is_media=is_media
        )
