"""§3.2 comparisons at their boundaries, row path and kernels side by side.

Gtestable is compared with the target rate (``>=``), the transfer time
with Tmodel (``<=``), the naive rate with the target (``>=``, the §4
ablation), and MinRTT with zero (``<= 0`` refuses it). Each
test below lands exactly on one of those boundaries: integer byte counts,
dyadic RTTs, rates and times, so every quotient and sum is exact and
equality is reached, not approximated. A mutant that swaps ``<`` and
``<=`` (``tools/mutate.py``) changes an outcome here.
"""

import math

import pytest

from repro.core.goodput import (
    assess_transaction,
    max_testable_goodput,
    model_transfer_time,
)
from repro.core.hdratio import naive_hdratio, session_goodput
from repro.core.records import TransactionRecord
from repro.kernels.goodput import funnel_single, session_funnel

pytestmark = pytest.mark.kernels

MIN_RTT = 2.0**-4
#: Bytes of the final packet, excluded by the delayed-ACK correction.
LAST = 1024
FBT = 1.0

#: (measured bytes, Wnic, the target rate Gtestable equals, the transfer
#: time Tmodel at that rate equals). One ideal round trip, then two.
POINTS = [
    pytest.param(16384, 16384, 2.0**18, 0.125, id="one-round"),
    pytest.param(16384, 8192, 2.0**17, 0.1875, id="two-rounds"),
]


def _txn(measured, cwnd, transfer):
    return TransactionRecord(
        first_byte_time=FBT,
        ack_time=FBT + transfer,
        response_bytes=measured + LAST,
        last_packet_bytes=LAST,
        cwnd_bytes_at_first_byte=cwnd,
    )


def _both(measured, cwnd, transfer, target):
    """(row, kernel, session row, session kernel) outcomes as
    ``(tested, achieved)`` for one transaction."""
    row = assess_transaction(
        total_bytes=measured,
        transfer_time_seconds=transfer,
        wnic_bytes=cwnd,
        min_rtt_seconds=MIN_RTT,
        target_rate_bytes_per_sec=target,
    )
    txn = _txn(measured, cwnd, transfer)
    session = session_goodput([txn], MIN_RTT, target)
    kernel = funnel_single(
        FBT, FBT + transfer, measured + LAST, LAST, cwnd, MIN_RTT, target
    )
    funnel = session_funnel(
        [FBT], [FBT + transfer], [measured + LAST], [LAST], [cwnd], [0],
        [FBT], 0, 1, MIN_RTT, target,
    )
    return [
        (int(row.can_test), int(row.achieved)),
        kernel[:2],
        (session.tested, session.achieved),
        (funnel.tested, funnel.achieved),
    ]


@pytest.mark.parametrize("measured, cwnd, target, model_time", POINTS)
def test_the_boundary_is_exact(measured, cwnd, target, model_time):
    """The chosen inputs put Gtestable and Tmodel exactly on the
    boundary, in the row path's own arithmetic."""
    assert max_testable_goodput(measured, cwnd, MIN_RTT) == target
    assert model_transfer_time(target, measured, cwnd, MIN_RTT) == model_time


@pytest.mark.parametrize("measured, cwnd, target, model_time", POINTS)
def test_gtestable_equal_to_the_target_can_test(
    measured, cwnd, target, model_time
):
    """``testable == target_rate`` tests the rate (§3.2.2: Gtestable >=
    target); the next double above the target does not."""
    slow = model_time * 2
    assert _both(measured, cwnd, slow, target) == [(1, 0)] * 4
    above = math.nextafter(target, math.inf)
    assert _both(measured, cwnd, slow, above) == [(0, 0)] * 4


@pytest.mark.parametrize("measured, cwnd, target, model_time", POINTS)
def test_a_transfer_as_fast_as_tmodel_achieves(
    measured, cwnd, target, model_time
):
    """``transfer == model_time`` achieves the rate (Ttotal <= Tmodel);
    one 2**-20 s later it does not."""
    assert _both(measured, cwnd, model_time, target) == [(1, 1)] * 4
    late = model_time + 2.0**-20
    assert _both(measured, cwnd, late, target) == [(1, 0)] * 4


@pytest.mark.parametrize("measured, cwnd, target, model_time", POINTS)
def test_a_naive_rate_equal_to_the_target_achieves(
    measured, cwnd, target, model_time
):
    """The §4 ablation's ``Btotal / Ttotal >= target`` at equality: the
    transfer that takes exactly ``measured / target`` seconds achieves
    under the naive estimator; one 2**-20 s later it does not."""
    exact = measured / target
    for transfer, expected in ((exact, 1), (exact + 2.0**-20, 0)):
        txn = _txn(measured, cwnd, transfer)
        assert naive_hdratio([txn], MIN_RTT, target) == expected
        assert funnel_single(
            FBT, FBT + transfer, measured + LAST, LAST, cwnd, MIN_RTT, target,
            compute_naive=True,
        )[2] == expected
        assert session_funnel(
            [FBT], [FBT + transfer], [measured + LAST], [LAST], [cwnd], [0],
            [FBT], 0, 1, MIN_RTT, target, compute_naive=True,
        ).naive_achieved == expected


@pytest.mark.parametrize("zero", [0, 0.0])
def test_a_zero_min_rtt_is_refused_by_every_guard(zero):
    """``min_rtt_seconds == 0`` reaches each guard directly and is refused
    there, with the guard's own message rather than a division's error.
    The session functions get no transactions, so only their guard can
    refuse it."""

    def refused():
        return pytest.raises(ValueError, match="min_rtt_seconds must be positive")

    with refused():
        max_testable_goodput(16384, 16384, zero)
    with refused():
        model_transfer_time(2.0**18, 16384, 16384, zero)
    with refused():
        naive_hdratio([], zero)
    with refused():
        session_goodput([], zero)
    with refused():
        funnel_single(FBT, FBT + 0.125, 16384 + LAST, LAST, 16384, zero)
    with refused():
        session_funnel([], [], [], [], [], [], [], 0, 0, zero)
