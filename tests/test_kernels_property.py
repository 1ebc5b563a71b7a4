"""Per-kernel properties: each batch kernel equals its row implementation.

`tests/test_batch_equivalence.py` asserts whole-pipeline equality; these
properties localize a divergence to the kernel that caused it. Every
comparison is exact (`==` on floats): the kernels must perform the same
float operations in the same order as the row functions, so any drift —
a reassociated sum, a different epsilon, a reordered guard — fails here
with the kernel's name in the test id.

Explicit edge cases the generators may under-sample (empty batches,
single-row sessions, all-ineligible sessions) get dedicated tests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coalesce import (
    coalesce_transactions,
    filter_eligible,
)
from repro.core.hdratio import naive_hdratio, session_goodput
from repro.core.records import TransactionRecord
from repro.kernels import funnel_single, session_funnel

pytestmark = pytest.mark.kernels

common = settings(deadline=None, max_examples=150)


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
# Gaps mix "clearly separate" with "overlapping/back-to-back" magnitudes
# so the coalescing branch and the 1e-4 boundary both get exercised.
gaps = st.one_of(
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=0.0, max_value=5e-5),
    st.just(0.0),
    st.just(1e-4),
)
write_spans = st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.1))
ack_spans = st.floats(min_value=0.0, max_value=0.8)
byte_counts = st.integers(min_value=1, max_value=2_000_000)
cwnds = st.integers(min_value=1, max_value=200_000)
inflights = st.sampled_from((0, 0, 0, 1, 17, 40_000))
rtts = st.floats(min_value=1e-4, max_value=0.5)


@st.composite
def transaction_lists(draw, min_size=0, max_size=10):
    """Ordered TransactionRecord lists spanning coalesce/eligibility space."""
    specs = draw(
        st.lists(
            st.tuples(
                gaps, ack_spans, byte_counts, st.floats(0.0, 1.0),
                cwnds, inflights, write_spans,
            ),
            min_size=min_size,
            max_size=max_size,
        )
    )
    records = []
    clock = 1_000.0
    for gap, ack_span, resp, last_frac, cwnd, inflight, write_span in specs:
        clock += gap
        records.append(
            TransactionRecord(
                first_byte_time=clock,
                ack_time=clock + ack_span,
                response_bytes=resp,
                last_packet_bytes=min(resp, int(resp * last_frac)),
                cwnd_bytes_at_first_byte=cwnd,
                bytes_in_flight_at_start=inflight,
                last_byte_write_time=(
                    None if write_span is None else clock + write_span
                ),
            )
        )
    return records


def columns_of(records):
    """Shred records into the seven per-transaction kernel columns."""
    return (
        [r.first_byte_time for r in records],
        [r.ack_time for r in records],
        [r.response_bytes for r in records],
        [r.last_packet_bytes for r in records],
        [r.cwnd_bytes_at_first_byte for r in records],
        [r.bytes_in_flight_at_start for r in records],
        [
            r.first_byte_time
            if r.last_byte_write_time is None
            else r.last_byte_write_time
            for r in records
        ],
    )


# --------------------------------------------------------------------- #
# Coalescing and eligibility
# --------------------------------------------------------------------- #
class TestFunnelCoalescing:
    """The funnel's first pass, seen through its ``coalesced`` /
    ``eligible`` counts against the row path's two stages."""

    @common
    @given(transaction_lists(), rtts)
    def test_matches_row_coalescing(self, records, min_rtt):
        funnel = session_funnel(*columns_of(records), 0, len(records), min_rtt)
        assert funnel.coalesced == len(coalesce_transactions(records))

    @common
    @given(transaction_lists(min_size=2), rtts)
    def test_ordering_violation_raises_like_row(self, records, min_rtt):
        disordered = list(reversed(records))
        if disordered[0].first_byte_time <= disordered[-1].first_byte_time:
            return  # all-equal timestamps: no violation to detect
        with pytest.raises(ValueError, match="ordered by first_byte_time"):
            coalesce_transactions(disordered)
        with pytest.raises(ValueError, match="ordered by first_byte_time"):
            session_funnel(
                *columns_of(disordered), 0, len(disordered), min_rtt
            )

    @common
    @given(transaction_lists(), rtts)
    def test_eligibility_matches_filter_eligible(self, records, min_rtt):
        coalesced = coalesce_transactions(records)
        funnel = session_funnel(*columns_of(records), 0, len(records), min_rtt)
        assert funnel.eligible == len(filter_eligible(records, coalesced))

    @common
    @given(
        transaction_lists(min_size=1, max_size=6),
        st.integers(min_value=1, max_value=7),
        rtts,
        st.integers(min_value=2**62, max_value=2**63 - 1),
    )
    def test_order_error_precedes_round_bound_error(
        self, records, position, min_rtt, huge
    ):
        """A slice that is out of order *and* holds a group past the
        ``_MAX_ROUNDS`` bound raises what the row path raises: the order
        error, which the row path finds while coalescing, before any
        group is assessed."""
        start = records[0].first_byte_time
        # Opens group 0 (always eligible) with Wnic 1: ~2**62 bytes need
        # 62 ideal rounds, past the bound whatever merges into it.
        giant = TransactionRecord(
            first_byte_time=start,
            ack_time=start + 1.0,
            response_bytes=huge,
            last_packet_bytes=0,
            cwnd_bytes_at_first_byte=1,
        )
        ordered = [giant] + records
        for funnel_of in (
            lambda rows: session_goodput(rows, min_rtt),
            lambda rows: session_funnel(*columns_of(rows), 0, len(rows), min_rtt),
        ):
            with pytest.raises(ValueError, match="implausibly large"):
                funnel_of(ordered)
        early = TransactionRecord(
            first_byte_time=start - 1.0,
            ack_time=start - 0.5,
            response_bytes=1_000,
            last_packet_bytes=100,
            cwnd_bytes_at_first_byte=10_000,
        )
        disordered = list(ordered)
        disordered.insert(min(position, len(ordered)), early)
        with pytest.raises(ValueError) as row_error:
            session_goodput(disordered, min_rtt)
        with pytest.raises(ValueError) as kernel_error:
            session_funnel(
                *columns_of(disordered), 0, len(disordered), min_rtt
            )
        assert str(kernel_error.value) == str(row_error.value)
        assert "ordered by first_byte_time" in str(row_error.value)


# --------------------------------------------------------------------- #
# Fused session funnel
# --------------------------------------------------------------------- #
class TestSessionFunnel:
    @common
    @given(transaction_lists(), rtts)
    def test_matches_session_goodput(self, records, min_rtt):
        row = session_goodput(records, min_rtt)
        funnel = session_funnel(
            *columns_of(records), 0, len(records), min_rtt
        )
        assert funnel.tested == row.tested
        assert funnel.achieved == row.achieved
        assert funnel.eligible == row.eligible
        assert funnel.coalesced == row.coalesced_count
        assert funnel.hdratio == row.hdratio

    @common
    @given(transaction_lists(), rtts)
    def test_naive_matches_naive_hdratio(self, records, min_rtt):
        funnel = session_funnel(
            *columns_of(records), 0, len(records), min_rtt, compute_naive=True
        )
        assert funnel.naive_hdratio == naive_hdratio(records, min_rtt)

    @common
    @given(transaction_lists(), rtts, st.floats(min_value=1e3, max_value=1e8))
    def test_matches_under_varied_target_rate(self, records, min_rtt, rate):
        row = session_goodput(records, min_rtt, rate)
        funnel = session_funnel(
            *columns_of(records), 0, len(records), min_rtt, target_rate=rate
        )
        assert (funnel.tested, funnel.achieved) == (row.tested, row.achieved)

    @common
    @given(
        transaction_lists(min_size=2, max_size=6),
        transaction_lists(min_size=1, max_size=4),
        rtts,
    )
    def test_slices_are_independent(self, first, second, min_rtt):
        """A session's slice of a shared column must assess exactly like
        the same records in isolation (no state leaks across sessions)."""
        columns = [a + b for a, b in zip(columns_of(first), columns_of(second))]
        split = len(first)
        assert session_funnel(
            *columns, 0, split, min_rtt
        ) == session_funnel(*columns_of(first), 0, len(first), min_rtt)
        assert session_funnel(
            *columns, split, split + len(second), min_rtt
        ) == session_funnel(*columns_of(second), 0, len(second), min_rtt)

    @common
    @given(transaction_lists(min_size=1, max_size=1), rtts)
    def test_funnel_single_matches_row_and_general_funnel(
        self, records, min_rtt
    ):
        """The scalar single-transaction fast path must agree with both
        the row path and the general kernel funnel on one-record slices."""
        record = records[0]
        row = session_goodput(records, min_rtt)
        general = session_funnel(
            *columns_of(records), 0, 1, min_rtt, compute_naive=True
        )
        tested, achieved, naive_achieved = funnel_single(
            record.first_byte_time,
            record.ack_time,
            record.response_bytes,
            record.last_packet_bytes,
            record.cwnd_bytes_at_first_byte,
            min_rtt,
            compute_naive=True,
        )
        assert (tested, achieved) == (row.tested, row.achieved)
        assert (tested, achieved, naive_achieved) == (
            general.tested,
            general.achieved,
            general.naive_achieved,
        )

    def test_funnel_single_nonpositive_min_rtt_raises_like_row(self):
        with pytest.raises(ValueError, match="min_rtt_seconds must be positive"):
            funnel_single(0.0, 0.1, 5_000, 100, 10_000, 0.0)

    def test_nonpositive_min_rtt_raises_like_row(self):
        records = [
            TransactionRecord(
                first_byte_time=0.0,
                ack_time=0.1,
                response_bytes=5_000,
                last_packet_bytes=100,
                cwnd_bytes_at_first_byte=10_000,
            )
        ]
        with pytest.raises(ValueError, match="min_rtt_seconds must be positive"):
            session_goodput(records, 0.0)
        with pytest.raises(ValueError, match="min_rtt_seconds must be positive"):
            session_funnel(*columns_of(records), 0, 1, 0.0)


# --------------------------------------------------------------------- #
# Explicit edge cases
# --------------------------------------------------------------------- #
class TestEdgeCases:
    def test_empty_batch(self):
        funnel = session_funnel([], [], [], [], [], [], [], 0, 0, 0.05)
        assert funnel == (0, 0, 0, 0, 0)
        assert funnel.hdratio is None
        assert funnel.naive_hdratio is None

    def test_single_row_batch(self):
        record = TransactionRecord(
            first_byte_time=10.0,
            ack_time=10.4,
            response_bytes=900_000,
            last_packet_bytes=1_200,
            cwnd_bytes_at_first_byte=30_000,
        )
        row = session_goodput([record], 0.04)
        funnel = session_funnel(*columns_of([record]), 0, 1, 0.04)
        assert (funnel.tested, funnel.achieved) == (row.tested, row.achieved)
        assert funnel.coalesced == 1
        assert funnel.eligible == 1

    def test_all_ineligible_batch(self):
        """Every group but the first refused by the bytes-in-flight rule,
        the first untestable: funnel counts must all be zero even though
        the refused groups carry testable transfers."""
        records = [
            TransactionRecord(
                first_byte_time=0.0,
                ack_time=0.3,
                response_bytes=1_000,
                last_packet_bytes=1_000,
                cwnd_bytes_at_first_byte=20_000,
            ),
            *(
                TransactionRecord(
                    first_byte_time=float(i),
                    ack_time=float(i) + 0.3,
                    response_bytes=600_000,
                    last_packet_bytes=1_000,
                    cwnd_bytes_at_first_byte=20_000,
                    bytes_in_flight_at_start=9_000,
                )
                for i in (5, 10)
            ),
        ]
        row = session_goodput(records, 0.05)
        funnel = session_funnel(*columns_of(records), 0, 3, 0.05)
        assert (funnel.coalesced, funnel.eligible) == (3, 1)
        assert (funnel.tested, funnel.achieved) == (0, 0)
        assert (row.coalesced_count, row.eligible, row.tested) == (3, 1, 0)

    def test_ineligible_after_first(self):
        """Openers with bytes in flight: only the first group survives —
        and the row path agrees."""
        records = [
            TransactionRecord(
                first_byte_time=float(i),
                ack_time=float(i) + 0.2,
                response_bytes=400_000,
                last_packet_bytes=1_000,
                cwnd_bytes_at_first_byte=25_000,
                bytes_in_flight_at_start=0 if i == 0 else 9_000,
            )
            for i in range(4)
        ]
        row = session_goodput(records, 0.05)
        funnel = session_funnel(*columns_of(records), 0, 4, 0.05)
        assert funnel.eligible == row.eligible == 1
        assert (funnel.tested, funnel.achieved) == (row.tested, row.achieved)

    def test_back_to_back_boundary_merges_like_row(self):
        """A follow-up exactly at the 1e-4 gap merges; just beyond stays."""
        for gap, expected_groups in ((1e-4, 1), (2.1e-4, 2)):
            records = [
                TransactionRecord(
                    first_byte_time=0.0,
                    ack_time=0.2,
                    response_bytes=10_000,
                    last_packet_bytes=500,
                    cwnd_bytes_at_first_byte=15_000,
                    last_byte_write_time=0.1,
                ),
                TransactionRecord(
                    first_byte_time=0.1 + gap,
                    ack_time=0.4,
                    response_bytes=20_000,
                    last_packet_bytes=700,
                    cwnd_bytes_at_first_byte=15_000,
                ),
            ]
            assert len(coalesce_transactions(records)) == expected_groups
            funnel = session_funnel(*columns_of(records), 0, 2, 0.05)
            assert funnel.coalesced == expected_groups
            row = session_goodput(records, 0.05)
            assert (funnel.tested, funnel.achieved) == (row.tested, row.achieved)
