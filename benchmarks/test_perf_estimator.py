"""Micro-benchmarks: the measurement hot path.

The paper stresses that the goodput methodology "is practical and deployed
in production at Facebook's PoPs worldwide" — i.e. cheap enough to run on
every sampled transaction at the load balancer. These benchmarks time the
hot-path primitives (capability test, achievement test, full per-session
HDratio) so regressions in the measurement cost are
caught like any other regression.
"""

import random

from repro.core.constants import HD_GOODPUT_BYTES_PER_SEC
from repro.core.goodput import (
    assess_transaction,
    estimate_delivery_rate,
    max_testable_goodput,
)
from repro.core.hdratio import session_goodput
from repro.core.records import TransactionRecord

MSS = 1500
RTT = 0.060


def test_perf_capability_test(benchmark):
    result = benchmark(max_testable_goodput, 100 * MSS, 10 * MSS, RTT)
    assert result > HD_GOODPUT_BYTES_PER_SEC


def test_perf_full_assessment(benchmark):
    result = benchmark(
        assess_transaction,
        total_bytes=100 * MSS,
        transfer_time_seconds=0.5,
        wnic_bytes=10 * MSS,
        min_rtt_seconds=RTT,
        prev_ideal_wstart_bytes=20 * MSS,
    )
    assert result.can_test


def test_perf_delivery_rate_estimate(benchmark):
    rate = benchmark(
        estimate_delivery_rate, 300 * MSS, 1.4, 10 * MSS, RTT
    )
    assert rate > 0


def _session_records(count=10):
    records = []
    clock = 0.0
    rng = random.Random(4)
    for _ in range(count):
        size = rng.choice((4, 20, 60, 120)) * MSS
        duration = rng.uniform(0.08, 0.8)
        records.append(
            TransactionRecord(
                first_byte_time=clock,
                ack_time=clock + duration,
                response_bytes=size,
                last_packet_bytes=MSS,
                cwnd_bytes_at_first_byte=10 * MSS,
                last_byte_write_time=clock + duration * 0.6,
            )
        )
        clock += duration + 1.0
    return records


def test_perf_session_hdratio(benchmark):
    records = _session_records()
    summary = benchmark(session_goodput, records, RTT)
    assert summary.eligible == len(records)
