"""Sample records exchanged between the measurement and analysis layers.

These dataclasses define the contract the paper's load balancer
instrumentation produces (§2.2.2): per-transaction TCP state captured "at
prescribed points", plus per-session TCP state at start and end, annotated
after close with the egress route (BGP prefix, AS path, relationship).

Everything downstream — goodput estimation, HDratio, aggregation,
degradation and opportunity analysis — consumes only these records, so the
same analysis code runs over packet-level simulator output and over the
synthetic session-level workload.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "HttpVersion",
    "Relationship",
    "RouteInfo",
    "TransactionRecord",
    "SessionSample",
    "UserGroupKey",
    "check_session",
    "check_transaction",
]


class HttpVersion(enum.Enum):
    """Application protocol carried by the session (§2.1)."""

    HTTP_1_1 = "HTTP/1.1"
    HTTP_2 = "HTTP/2"


class Relationship(enum.Enum):
    """Peering relationship of an egress route (§6.1).

    ``PRIVATE`` is a PNI peer, ``PUBLIC`` is peering across an IXP fabric,
    ``TRANSIT`` is a (paid) transit provider.
    """

    PRIVATE = "private"
    PUBLIC = "public"
    TRANSIT = "transit"


@dataclass(frozen=True)
class RouteInfo:
    """Egress route annotation attached to each sample after session close.

    Attributes
    ----------
    prefix:
        Destination BGP prefix (e.g. ``"203.0.112.0/20"``).
    as_path:
        AS path as announced, including any prepending.
    relationship:
        Peering relationship of the next hop.
    preference_rank:
        0 for the policy-preferred route, 1 for the best alternate, etc.
    prepended:
        Whether the announcement carried AS-path prepending (§6.2.2 uses this
        as an ingress-TE signal that deprioritizes a route).
    """

    prefix: str
    as_path: Tuple[int, ...]
    relationship: Relationship
    preference_rank: int = 0
    prepended: bool = False

    @property
    def as_path_length(self) -> int:
        return len(self.as_path)


#: What the store's ``i64`` columns hold.
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
#: The finite float range: a time or RTT outside it (``inf``, an int too
#: large for a float) or NaN fails a chained comparison against it.
_FLOAT_MIN, _FLOAT_MAX = -sys.float_info.max, sys.float_info.max


def _is_finite(value) -> bool:
    return value is None or _FLOAT_MIN <= value <= _FLOAT_MAX


def _is_int64(value) -> bool:
    return type(value) is int and INT64_MIN <= value <= INT64_MAX


def _is_str(value) -> bool:
    return type(value) is str


def _refuse(what: str, test, **fields) -> None:
    """Raise ``ValueError`` naming the first of ``fields`` that fails
    ``test``: it must be ``what``. The checks call it only once a chained
    comparison over all of them failed."""
    for name, value in fields.items():
        if not test(value):
            raise ValueError(f"{name} must be {what}")


def check_transaction(
    first_byte_time,
    ack_time,
    response_bytes,
    last_packet_bytes,
    cwnd_bytes_at_first_byte,
    bytes_in_flight_at_start,
    coalesced_count,
    last_byte_write_time,
) -> None:
    """The :class:`TransactionRecord` rules, raising ``ValueError``.

    The one definition: ``__post_init__`` calls it for every constructed
    record, and the JSONL column assembler (:mod:`repro.pipeline.io`) calls
    it for every transaction it fills into a batch without building one.
    Besides the order of the values, it refuses what the store's columns
    cannot hold: a time that is not a finite number, and a byte count,
    window or count that is not an integer in the int64 range (the
    coalesced count, a varint, also not negative).
    """
    if not (
        _FLOAT_MIN <= first_byte_time <= _FLOAT_MAX
        and _FLOAT_MIN <= ack_time <= _FLOAT_MAX
        and (
            last_byte_write_time is None
            or _FLOAT_MIN <= last_byte_write_time <= _FLOAT_MAX
        )
    ):
        _refuse("a finite number", _is_finite, first_byte_time=first_byte_time,
                ack_time=ack_time, last_byte_write_time=last_byte_write_time)
    if not (
        type(response_bytes) is type(last_packet_bytes) is int
        and type(cwnd_bytes_at_first_byte) is type(bytes_in_flight_at_start) is int
        and type(coalesced_count) is int
        and response_bytes <= INT64_MAX
        and cwnd_bytes_at_first_byte <= INT64_MAX
        and INT64_MIN <= bytes_in_flight_at_start <= INT64_MAX
        and 0 <= coalesced_count <= INT64_MAX
    ):
        _refuse("an integer in the int64 range", _is_int64,
                response_bytes=response_bytes, last_packet_bytes=last_packet_bytes,
                cwnd_bytes_at_first_byte=cwnd_bytes_at_first_byte,
                bytes_in_flight_at_start=bytes_in_flight_at_start,
                coalesced_count=coalesced_count)
        raise ValueError("coalesced_count must be non-negative")
    if ack_time < first_byte_time:
        raise ValueError("ack_time precedes first_byte_time")
    if last_byte_write_time is not None and last_byte_write_time < first_byte_time:
        raise ValueError("last_byte_write_time precedes first_byte_time")
    if response_bytes <= 0:
        raise ValueError("response_bytes must be positive")
    if not 0 <= last_packet_bytes <= response_bytes:
        raise ValueError("last_packet_bytes out of range")
    if cwnd_bytes_at_first_byte <= 0:
        raise ValueError("cwnd_bytes_at_first_byte must be positive")


def check_session(
    session_id,
    start_time,
    end_time,
    min_rtt_seconds,
    bytes_sent,
    busy_time_seconds,
    pop,
    client_country,
    client_continent,
    geo_tag,
    media_response_sizes,
) -> None:
    """The :class:`SessionSample` rules, raising ``ValueError`` (called like
    :func:`check_transaction`, and refusing the same kinds of value: a
    non-finite time, RTT or busy time, a session id, byte count or media
    size that is not an int64, and a PoP, country, continent or geo tag
    that is not a string)."""
    if not (
        _FLOAT_MIN <= start_time <= _FLOAT_MAX
        and _FLOAT_MIN <= end_time <= _FLOAT_MAX
        and _FLOAT_MIN <= min_rtt_seconds <= _FLOAT_MAX
        and _FLOAT_MIN <= busy_time_seconds <= _FLOAT_MAX
    ):
        _refuse("a finite number", _is_finite, start_time=start_time,
                end_time=end_time, min_rtt_seconds=min_rtt_seconds,
                busy_time_seconds=busy_time_seconds)
    if not (
        type(session_id) is type(bytes_sent) is int
        and INT64_MIN <= session_id <= INT64_MAX
        and bytes_sent <= INT64_MAX
    ):
        _refuse("an integer in the int64 range", _is_int64,
                session_id=session_id, bytes_sent=bytes_sent)
    for size in media_response_sizes:
        if not (type(size) is int and INT64_MIN <= size <= INT64_MAX):
            raise ValueError("media_response_sizes must be integers in the int64 range")
    if not (
        type(pop) is type(client_country) is type(client_continent) is str
        and type(geo_tag) is str
    ):
        _refuse("a string", _is_str, pop=pop, client_country=client_country,
                client_continent=client_continent, geo_tag=geo_tag)
    if end_time < start_time:
        raise ValueError("session ends before it starts")
    if min_rtt_seconds <= 0:
        raise ValueError("session min_rtt_seconds must be positive")
    if bytes_sent < 0:
        raise ValueError("bytes_sent must be non-negative")


@dataclass(frozen=True)
class TransactionRecord:
    """Instrumented state for one HTTP transaction (§§3.2.2–3.2.5).

    Times are absolute seconds on the server clock. ``first_byte_time`` is
    when the first response byte is written to the NIC; ``ack_time`` is when
    the ACK covering the *second-to-last* packet arrives at the NIC (the
    delayed-ACK correction of §3.2.5 — the last packet and its ACK are
    excluded). ``response_bytes`` is the full response size; the goodput
    model subtracts ``last_packet_bytes`` before use.

    ``cwnd_bytes_at_first_byte`` is Wnic: the congestion window measured when
    the first response byte was written to the NIC.

    ``bytes_in_flight_at_start`` supports the eligibility rule of §3.2.5: a
    transaction whose predecessor still had unacknowledged data when this
    response started, and which was not coalesced with it, must be excluded
    from goodput analysis.

    ``last_byte_write_time`` is when the final response byte was handed to
    the NIC; it is what the back-to-back coalescing rule compares against
    (paper footnote 9 — responses written "in series" with no transport-
    layer gap behave as one). ``None`` means unknown, in which case only
    genuinely overlapping responses coalesce.
    """

    first_byte_time: float
    ack_time: float
    response_bytes: int
    last_packet_bytes: int
    cwnd_bytes_at_first_byte: int
    bytes_in_flight_at_start: int = 0
    coalesced_count: int = 1
    last_byte_write_time: Optional[float] = None

    def __post_init__(self) -> None:
        check_transaction(
            self.first_byte_time,
            self.ack_time,
            self.response_bytes,
            self.last_packet_bytes,
            self.cwnd_bytes_at_first_byte,
            self.bytes_in_flight_at_start,
            self.coalesced_count,
            self.last_byte_write_time,
        )

    @property
    def transfer_time(self) -> float:
        """Ttotal after the delayed-ACK correction (§3.2.5)."""
        return self.ack_time - self.first_byte_time

    @property
    def measured_bytes(self) -> int:
        """Btotal after excluding the last packet (§3.2.5)."""
        return self.response_bytes - self.last_packet_bytes


@dataclass
class SessionSample:
    """One sampled HTTP session as emitted by the load balancer (§2.2.2).

    The measurement layer fills in the raw fields; the analysis layer
    computes ``hdratio`` lazily via :mod:`repro.core.hdratio`.
    """

    session_id: int
    start_time: float
    end_time: float
    http_version: HttpVersion
    min_rtt_seconds: float
    bytes_sent: int
    busy_time_seconds: float
    transactions: List[TransactionRecord] = field(default_factory=list)
    route: Optional[RouteInfo] = None
    pop: str = ""
    client_country: str = ""
    client_continent: str = ""
    client_ip_is_hosting: bool = False
    geo_tag: str = ""
    #: Response sizes of transactions against media (image/video) endpoints.
    #: The paper's Figure 2 splits responses by serving endpoint; the load
    #: balancer knows the endpoint, so the tag rides along with the sample.
    media_response_sizes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_session(
            self.session_id,
            self.start_time,
            self.end_time,
            self.min_rtt_seconds,
            self.bytes_sent,
            self.busy_time_seconds,
            self.pop,
            self.client_country,
            self.client_continent,
            self.geo_tag,
            self.media_response_sizes,
        )

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def busy_fraction(self) -> float:
        """Share of the session lifetime the server was actively sending."""
        if self.duration <= 0:
            return 1.0
        return min(self.busy_time_seconds / self.duration, 1.0)

    @property
    def min_rtt_ms(self) -> float:
        return self.min_rtt_seconds * 1000.0

    @property
    def transaction_count(self) -> int:
        return len(self.transactions)


@dataclass(frozen=True)
class UserGroupKey:
    """Aggregation key (§3.3): (PoP, client BGP prefix, client country).

    The prefix carries the client AS implicitly (routes vary per prefix, so
    aggregating to the AS would mix routing decisions), and the country term
    reduces variance from geographically wide prefixes (Figure 5).
    """

    pop: str
    prefix: str
    country: str

    def __str__(self) -> str:
        return f"{self.pop}|{self.prefix}|{self.country}"
