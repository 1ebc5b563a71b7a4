"""Cross-layer property-based invariants.

These tie the layers together: the estimator against the packet simulator,
serialization round-trips, coalescing conservation laws — the invariants a
refactor must not break.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coalesce import coalesce_transactions, eligible_transactions
from repro.core.goodput import estimate_delivery_rate, max_testable_goodput
from repro.core.hdratio import session_goodput
from repro.core.records import TransactionRecord
from repro.netsim.scenarios import run_transfer
from repro.pipeline.io import sample_from_dict, sample_to_dict

MSS = 1500


# --------------------------------------------------------------------- #
# Estimator vs simulator: the §3.2.3 invariant on random configurations
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    bw=st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
    rtt_ms=st.sampled_from([20.0, 50.0, 90.0, 150.0]),
    icw=st.sampled_from([2, 5, 10, 20, 40]),
    packets=st.sampled_from([5, 20, 60, 150, 400]),
)
def test_estimator_never_overestimates_bottleneck(bw, rtt_ms, icw, packets):
    transfer = run_transfer(
        [packets * MSS],
        bottleneck_mbps=bw,
        rtt_ms=rtt_ms,
        initial_cwnd_packets=icw,
        delayed_ack=False,
        queue_packets=10_000,
    )
    record = transfer.records[0]
    if record.measured_bytes <= MSS:
        return
    rtt = transfer.min_rtt_seconds
    wstart = record.cwnd_bytes_at_first_byte
    testable = max_testable_goodput(record.measured_bytes, wstart, rtt)
    bottleneck = bw * 1e6 / 8
    if testable <= bottleneck:
        return
    estimated = min(
        estimate_delivery_rate(
            record.measured_bytes, record.transfer_time, wstart, rtt
        ),
        testable,
    )
    assert estimated <= bottleneck * (1 + 1e-6)


# --------------------------------------------------------------------- #
# Coalescing conservation laws
# --------------------------------------------------------------------- #
@st.composite
def transaction_sequences(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    records = []
    clock = 0.0
    for _ in range(count):
        gap = draw(st.floats(min_value=0.0, max_value=0.3))
        duration = draw(st.floats(min_value=0.01, max_value=0.5))
        nbytes = draw(st.integers(min_value=1500, max_value=60_000))
        start = clock + gap
        ack = start + duration
        write_frac = draw(st.floats(min_value=0.0, max_value=1.0))
        records.append(
            TransactionRecord(
                first_byte_time=start,
                ack_time=ack,
                response_bytes=nbytes,
                last_packet_bytes=min(1500, nbytes),
                cwnd_bytes_at_first_byte=15_000,
                bytes_in_flight_at_start=draw(
                    st.sampled_from([0, 0, 0, 4000])
                ),
                last_byte_write_time=start + write_frac * duration,
            )
        )
        clock = start
    records.sort(key=lambda r: r.first_byte_time)
    return records


@settings(max_examples=150, deadline=None)
@given(transaction_sequences())
def test_coalescing_conserves_bytes_and_members(records):
    coalesced = coalesce_transactions(records)
    assert sum(c.total_bytes for c in coalesced) == sum(
        r.response_bytes for r in records
    )
    assert sum(c.member_count for c in coalesced) == len(records)
    # Order and containment.
    starts = [c.first_byte_time for c in coalesced]
    assert starts == sorted(starts)
    for c in coalesced:
        assert c.ack_time >= c.first_byte_time
        assert c.last_byte_write_time >= c.first_byte_time


@settings(max_examples=150, deadline=None)
@given(transaction_sequences())
def test_eligible_is_subset_of_coalesced(records):
    coalesced = coalesce_transactions(records)
    eligible = eligible_transactions(records)
    assert len(eligible) <= len(coalesced)
    coalesced_keys = {(c.first_byte_time, c.total_bytes) for c in coalesced}
    for txn in eligible:
        assert (txn.first_byte_time, txn.total_bytes) in coalesced_keys


@settings(max_examples=100, deadline=None)
@given(transaction_sequences(), st.floats(min_value=0.01, max_value=0.3))
def test_session_goodput_counts_are_consistent(records, min_rtt):
    summary = session_goodput(records, min_rtt)
    assert 0 <= summary.achieved <= summary.tested
    assert summary.tested <= summary.eligible <= len(records)
    if summary.hdratio is not None:
        assert 0.0 <= summary.hdratio <= 1.0


# --------------------------------------------------------------------- #
# Serialization round-trip
# --------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(
    rtt_ms=st.floats(min_value=0.5, max_value=3000.0),
    nbytes=st.integers(min_value=0, max_value=10**9),
    duration=st.floats(min_value=0.001, max_value=3600.0),
    rank=st.integers(min_value=0, max_value=3),
    hosting=st.booleans(),
)
def test_io_round_trip_preserves_sample(rtt_ms, nbytes, duration, rank, hosting):
    from tests.helpers import make_route, make_sample

    sample = make_sample(
        end_time=duration + 1.0,
        min_rtt_ms=rtt_ms,
        route=make_route(rank=rank),
        bytes_sent=nbytes,
        duration=duration,
    )
    sample.client_ip_is_hosting = hosting
    restored = sample_from_dict(sample_to_dict(sample))
    assert restored.min_rtt_seconds == pytest.approx(sample.min_rtt_seconds)
    assert restored.bytes_sent == sample.bytes_sent
    assert restored.route == sample.route
    assert restored.client_ip_is_hosting == hosting
    assert restored.duration == pytest.approx(sample.duration)

