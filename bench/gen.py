"""The benchmark's own seeded input generator.

Everything a workload feeds the program comes from here: a ``Universe`` of
PoPs and Zipf-weighted (PoP, prefix, country) user groups with three route
ranks each, a session stream over fifteen-minute windows, and the arrival
order a live stream would have. All randomness flows from one
``random.Random(seed)``; there is no module state, so the same seed gives
the same bytes whatever ran before (``tests.helpers.make_trace_samples``
numbers sessions from a module-global counter and is not used for that
reason). ``repro.workload.EdgeScenario`` is not used either: at ~7k
sessions/s it would make set-up longer than the timed phase.

The shape is chosen so every layer has real work: two dozen groups (see
``bench/README.md`` for why not a few hundred), the popular ones clearing the 30-sample aggregation floor on all three
route ranks (so ``compare_medians`` and figures 8-10 run their CI math),
some alternates that beat the preferred route, some groups with a
degraded stretch of windows, and transaction mixes that leave a non-zero
Gtestable share.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import random
from bisect import bisect
from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
)

WINDOW_SECONDS = 900.0

#: (PoP, continent, countries served). Countries are drawn from the set
#: ``routing_analysis`` maps to continents, so Table 1 splits are populated.
POPS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("ams1", "EU", ("NL", "DE", "GB")),
    ("fra1", "EU", ("DE", "PL", "IT")),
    ("lhr1", "EU", ("GB", "FR", "ES")),
    ("sjc1", "NA", ("US", "MX")),
    ("iad1", "NA", ("US", "CA")),
    ("gru1", "SA", ("BR", "AR", "CL")),
    ("bog1", "SA", ("CO", "PE")),
    ("sin1", "AS", ("SG", "ID", "TH")),
    ("bom1", "AS", ("IN", "BD", "PK")),
    ("nrt1", "AS", ("JP", "PH", "VN")),
    ("jnb1", "AF", ("ZA", "KE", "NG")),
    ("syd1", "OC", ("AU", "NZ")),
)
GROUPS_PER_POP = 2
ZIPF_EXPONENT = 1.1
#: Share of a group's sessions measured on ranks 0/1/2 (the §6 split:
#: roughly half on the preferred route, the rest on alternates).
RANK_WEIGHTS = (0.5, 0.3, 0.2)
HOSTING_FRACTION = 0.03
_RELATIONSHIPS = tuple(Relationship)
_GEO_TAGS = ("", "metro-a", "metro-b")


class _Group:
    """One (PoP, prefix, country) user group and its three routes."""

    __slots__ = (
        "pop", "country", "continent", "routes", "rtt_ms", "rate_bps",
        "degraded_from", "degraded_to", "degraded_ms",
    )

    def __init__(
        self, rng: random.Random, pop, continent, country, index,
        relationships=None,
    ):
        self.pop = pop
        self.country = country
        self.continent = continent
        prefix = f"10.{index // 250}.{index % 250}.0/24"
        base_rtt = rng.uniform(12.0, 140.0)
        base_rate = math.exp(rng.gauss(math.log(600_000.0), 0.7))
        self.routes = []
        self.rtt_ms = []
        self.rate_bps = []
        for rank in range(3):
            relationship = (
                rng.choice(_RELATIONSHIPS[:2]) if rank == 0
                else rng.choice(_RELATIONSHIPS)
            )
            if relationships is not None:
                relationship = relationships[rank]
            self.routes.append(
                RouteInfo(
                    prefix=prefix,
                    as_path=tuple(
                        64500 + rng.randrange(400)
                        for _ in range(rng.randrange(1, 4) + (rank > 0))
                    ),
                    relationship=relationship,
                    preference_rank=rank,
                    prepended=rank > 0 and rng.random() < 0.2,
                )
            )
            # One alternate in six beats the preferred route by a margin
            # the CI can confirm; the rest are a little worse.
            if rank and rng.random() < 1 / 6:
                shift = -rng.uniform(6.0, 20.0)
            else:
                shift = rng.uniform(0.0, 12.0) * rank
            self.rtt_ms.append(max(base_rtt + shift, 4.0))
            self.rate_bps.append(base_rate * rng.uniform(0.7, 1.3))
        # One group in five has a degraded stretch (a §5 episodic event).
        if rng.random() < 0.2:
            self.degraded_from = rng.random() * 0.8
            self.degraded_to = self.degraded_from + rng.uniform(0.05, 0.2)
            self.degraded_ms = rng.uniform(8.0, 40.0)
        else:
            self.degraded_from = self.degraded_to = 2.0
            self.degraded_ms = 0.0


class Universe:
    """The PoPs, groups and popularity a seed defines."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"universe-{seed}")
        order = list(range(len(POPS) * GROUPS_PER_POP))
        rng.shuffle(order)
        weights = [0.0] * len(order)
        for position, index in enumerate(order):
            weights[index] = 1.0 / (position + 1) ** ZIPF_EXPONENT
        self.groups: List[_Group] = []
        for pop, continent, countries in POPS:
            for _ in range(GROUPS_PER_POP):
                index = len(self.groups)
                self.groups.append(
                    _Group(
                        rng, pop, continent, rng.choice(countries), index,
                        # The busiest group always offers figure 10 a
                        # peer-vs-transit and a private-vs-public pair.
                        relationships=(
                            (Relationship.PRIVATE, Relationship.TRANSIT,
                             Relationship.PUBLIC)
                            if index == order[0] else None
                        ),
                    )
                )
        self._busiest = order[0]
        self._cumulative = list(accumulate(weights))
        self._rank_cumulative = list(accumulate(RANK_WEIGHTS))

    def pick(self, rng: random.Random) -> Tuple[_Group, int]:
        group = self.groups[
            bisect(self._cumulative, rng.random() * self._cumulative[-1])
        ]
        rank = bisect(self._rank_cumulative, rng.random())
        return group, min(rank, 2)

    @property
    def pops(self) -> List[str]:
        return [pop for pop, _, _ in POPS]

    def busiest(self) -> _Group:
        """The most popular group (its PoP and country make hot filters)."""
        return self.groups[self._busiest]


def _transactions(rng: random.Random, start, duration, rtt_s, rate_bps):
    count = rng.choice((0, 1, 1, 2, 2, 3, 5))
    records = []
    cursor = start + rng.random() * duration * 0.2
    for _ in range(count):
        response = int(math.exp(rng.uniform(7.5, 13.5)))  # 1.8 kB .. 730 kB
        cwnd = rng.randrange(14_000, 120_000)
        rounds = max(math.ceil(math.log2(response / cwnd + 1.0)), 1)
        rate = rate_bps * math.exp(rng.gauss(0.0, 0.5))
        transfer = rounds * rtt_s + response / rate
        records.append(
            TransactionRecord(
                first_byte_time=cursor,
                ack_time=cursor + transfer,
                response_bytes=response,
                last_packet_bytes=min(1500, response),
                cwnd_bytes_at_first_byte=cwnd,
                bytes_in_flight_at_start=3000 if rng.random() < 0.1 else 0,
                last_byte_write_time=cursor + transfer * rng.random() * 0.9,
            )
        )
        # Mostly spaced out; one in eight starts back to back (coalesces).
        gap = 0.0 if rng.random() < 0.125 else rng.uniform(0.05, 3.0)
        cursor += transfer + gap
    return records, cursor


def generate(
    seed: int,
    sessions: int,
    windows: int,
    first_window: int = 0,
    first_session_id: int = 1,
    universe: "Universe | None" = None,
) -> List[SessionSample]:
    """``sessions`` samples whose end times fall in ``windows`` consecutive
    fifteen-minute windows starting at ``first_window``, in end-time order
    (the order a trace exported from a sealed store has)."""
    universe = universe or Universe(seed)
    rng = random.Random(f"sessions-{seed}-{first_window}-{sessions}")
    span = windows * WINDOW_SECONDS
    origin = first_window * WINDOW_SECONDS
    end_times = sorted(origin + rng.random() * span for _ in range(sessions))
    samples: List[SessionSample] = []
    for offset, end_time in enumerate(end_times):
        group, rank = universe.pick(rng)
        phase = (end_time - origin) / span
        rtt_ms = group.rtt_ms[rank] + rng.gauss(0.0, 1.8)
        if rank == 0 and group.degraded_from <= phase < group.degraded_to:
            rtt_ms += group.degraded_ms
        rtt_s = max(rtt_ms, 1.0) / 1000.0
        duration = rng.uniform(0.5, 90.0)
        start = end_time - duration
        transactions, last_ack = _transactions(
            rng, start, duration, rtt_s, group.rate_bps[rank]
        )
        if last_ack > end_time:  # keep every record inside the session
            transactions = [t for t in transactions if t.ack_time <= end_time]
        sent = sum(t.response_bytes for t in transactions)
        samples.append(
            SessionSample(
                session_id=first_session_id + offset,
                start_time=start,
                end_time=end_time,
                http_version=(
                    HttpVersion.HTTP_2 if rng.random() < 0.6
                    else HttpVersion.HTTP_1_1
                ),
                min_rtt_seconds=rtt_s,
                bytes_sent=sent or 8_000,
                busy_time_seconds=duration * rng.uniform(0.02, 0.6),
                transactions=transactions,
                route=group.routes[rank],
                pop=group.pop,
                client_country=group.country,
                client_continent=group.continent,
                client_ip_is_hosting=rng.random() < HOSTING_FRACTION,
                geo_tag=rng.choice(_GEO_TAGS),
                media_response_sizes=tuple(
                    t.response_bytes for t in transactions
                    if t.response_bytes >= 12_000
                ),
            )
        )
    return samples


#: Arrival jitter: most samples reach the ingest tier within ten minutes of
#: session end; about one in a hundred straggles in up to 75 minutes late,
#: well past the ingestor's default two-window (30 min) allowed lateness.
ARRIVAL_JITTER_SECONDS = 600.0
STRAGGLER_FRACTION = 0.01
STRAGGLER_MAX_SECONDS = 4500.0


def arrival_order(
    seed: int, samples: Sequence[SessionSample]
) -> List[SessionSample]:
    """The same samples in the order a live stream would deliver them."""
    rng = random.Random(f"arrival-{seed}")
    keyed = []
    for sample in samples:
        if rng.random() < STRAGGLER_FRACTION:
            delay = rng.uniform(2400.0, STRAGGLER_MAX_SECONDS)
        else:
            delay = rng.random() * ARRIVAL_JITTER_SECONDS
        keyed.append((sample.end_time + delay, sample.session_id, sample))
    keyed.sort()
    return [sample for _, _, sample in keyed]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_store(path) -> str:
    """One digest over a trace store's manifest and data file."""
    digest = hashlib.sha256()
    for name in ("manifest.json", "data.bin"):
        digest.update(sha256_file(pathlib.Path(path) / name).encode("ascii"))
    return digest.hexdigest()
