"""§3.2 goodput kernels over flat column arrays.

Two kernels, each the whole per-session funnel of
:func:`repro.core.hdratio.session_goodput` — coalescing and bytes-in-flight
eligibility (:mod:`repro.core.coalesce`), then Gtestable, Tmodel(R) and the
ideal-Wstart chain (:mod:`repro.core.goodput`) — over parallel lists instead
of record objects: ``session_funnel`` on a ``[start, end)`` slice of a
batch's flat transaction columns, in one fused pass, and ``funnel_single``,
its scalar form for the dominant one-transaction session.

**Oracle invariant.** Every arithmetic expression here is a transcription of
its row-path counterpart: the same operations on the same Python numeric
types in the same order (including the ``- 1e-12`` log2 guard, the int
``max`` before the float division in Gtestable, and the left-to-right
addition order of Tmodel). That is what makes batch output *byte*-identical
to row output rather than merely approximately equal; do not "simplify" an
expression here without re-deriving bit-equality — the differential suite
(``tests/test_batch_equivalence.py``, ``tests/test_kernels_property.py``)
holds each kernel to its row implementation.

The power-of-two lookup table replaces the row path's ``2 ** (m - 1)``: for
in-range exponents both produce the same exact int, and the table indexes are
guarded by the same ``_MAX_ROUNDS`` bounds the row path enforces through
:func:`repro.core.goodput.window_at_round`.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.coalesce import BACK_TO_BACK_GAP_SECONDS
from repro.core.constants import HD_GOODPUT_BYTES_PER_SEC

__all__ = [
    "FunnelCounts",
    "funnel_single",
    "session_funnel",
]

#: Mirrors ``repro.core.goodput._MAX_ROUNDS``.
_MAX_ROUNDS = 60

#: ``_POW2[k] == 2 ** k`` for every exponent the bounded model can reach
#: (``window_at_round`` admits indexes up to ``_MAX_ROUNDS``, and Gtestable
#: reads one round past it before the bound check fires on the chain).
_POW2: Tuple[int, ...] = tuple(1 << k for k in range(_MAX_ROUNDS + 2))

_ORDER_ERROR = "transactions must be ordered by first_byte_time"
_ROUNDS_ERROR = "round_index implausibly large"


class FunnelCounts(NamedTuple):
    """One session's §3.2 funnel, batch-engine form.

    Field-for-field the counts :class:`repro.core.hdratio.SessionGoodput`
    carries (``raw_count`` is implied by the caller's slice length), plus
    the ablation's ``naive_achieved``.
    """

    tested: int
    achieved: int
    eligible: int
    coalesced: int
    naive_achieved: int

    @property
    def hdratio(self) -> Optional[float]:
        if self.tested == 0:
            return None
        return self.achieved / self.tested

    @property
    def naive_hdratio(self) -> Optional[float]:
        if self.tested == 0:
            return None
        return self.naive_achieved / self.tested


def funnel_single(
    fbt: float,
    ack: float,
    resp: int,
    last: int,
    cwnd: int,
    min_rtt_seconds: float,
    target_rate: float = HD_GOODPUT_BYTES_PER_SEC,
    compute_naive: bool = False,
) -> Tuple[int, int, int]:
    """(tested, achieved, naive_achieved) for a single-transaction session.

    The scalar fast path for the dominant case: one record is one coalesced
    group (nothing to merge, nothing to order-check), always eligible
    (position 0), with an empty ideal-window chain (``Wstart = Wnic``).
    Bit-identical to ``session_funnel`` on a one-record slice — the
    differential harness holds it to that.
    """
    if min_rtt_seconds <= 0:
        raise ValueError("min_rtt_seconds must be positive")
    total_bytes = resp - last
    if total_bytes <= 0:
        return 0, 0, 0
    pow2 = _POW2
    m = math.ceil(math.log2(total_bytes / cwnd + 1.0) - 1e-12)
    if m < 1:
        m = 1
    if m == 1:
        best = total_bytes
    else:
        if m - 1 > _MAX_ROUNDS:
            raise ValueError(_ROUNDS_ERROR)
        penultimate = pow2[m - 2] * cwnd
        final_round = total_bytes - cwnd * (pow2[m - 1] - 1)
        best = penultimate if penultimate > final_round else final_round
    testable = best / min_rtt_seconds
    if m > _MAX_ROUNDS:
        raise ValueError(_ROUNDS_ERROR)
    if testable < target_rate:
        return 0, 0, 0
    transfer = ack - fbt
    needed = target_rate * min_rtt_seconds
    if cwnd >= needed:
        n = 0
    else:
        n = math.ceil(math.log2(needed / cwnd) - 1e-12)
        if n < 0:
            n = 0
        elif n > _MAX_ROUNDS:
            n = _MAX_ROUNDS
    if n > m - 1:
        n = m - 1
    remaining = total_bytes - cwnd * (pow2[n] - 1)
    model_time = (
        n * min_rtt_seconds + remaining / target_rate + min_rtt_seconds
    )
    achieved = 1 if transfer <= model_time else 0
    naive_achieved = 0
    if compute_naive and transfer > 0 and total_bytes / transfer >= target_rate:
        naive_achieved = 1
    return 1, achieved, naive_achieved


def session_funnel(
    fbt: Sequence[float],
    ack: Sequence[float],
    resp: Sequence[int],
    last: Sequence[int],
    cwnd: Sequence[int],
    inflight: Sequence[int],
    lbwt: Sequence[float],
    start: int,
    end: int,
    min_rtt_seconds: float,
    target_rate: float = HD_GOODPUT_BYTES_PER_SEC,
    compute_naive: bool = False,
) -> FunnelCounts:
    """Full §3.2 funnel for one session's ``[start, end)`` column slice.

    One pass over the slice coalesces (mirrors
    :func:`repro.core.coalesce.coalesce_transactions`; ``lbwt`` is the
    *effective* last-byte-write-time column, ``first_byte_time`` where a
    record had none) and applies the bytes-in-flight rule as each group
    opens (:func:`repro.core.coalesce.filter_eligible`: the first group, or
    one whose opening record had nothing in flight), keeping only eligible
    groups. A second walk over those chains the ideal Wstart and assesses
    Gtestable and Tmodel like :func:`repro.core.hdratio._assess_session`:
    a group whose delayed-ACK corrected size is non-positive only grows the
    chain; ``naive_achieved`` applies the §4 ablation's ``Btotal/Ttotal``
    criterion under the same capability gate, when ``compute_naive`` is
    set. The row path's ``min_rtt_seconds`` guard comes first, and an
    out-of-order slice raises before any group is assessed — the row
    path's error order.
    """
    if min_rtt_seconds <= 0:
        raise ValueError("min_rtt_seconds must be positive")
    # Eligible groups as [fbt, ack, total_bytes, last_packet_bytes, cwnd];
    # ``group`` is the open one, None while the open group is ineligible.
    groups: List[list] = []
    group = None
    coalesced = 0
    previous_start = -math.inf
    open_lbwt = -math.inf
    gap = BACK_TO_BACK_GAP_SECONDS
    for t in range(start, end):
        f = fbt[t]
        if f < previous_start:
            raise ValueError(_ORDER_ERROR)
        previous_start = f
        lw = lbwt[t]
        if coalesced and f <= open_lbwt + gap:
            if group is not None:
                a = ack[t]
                if a > group[1]:
                    group[1] = a
                group[2] += resp[t]
                group[3] = last[t]
            if lw > open_lbwt:
                open_lbwt = lw
        else:
            if coalesced == 0 or inflight[t] == 0:
                group = [f, ack[t], resp[t], last[t], cwnd[t]]
                groups.append(group)
            else:
                group = None
            coalesced += 1
            open_lbwt = lw

    pow2 = _POW2
    ceil = math.ceil
    log2 = math.log2
    tested = 0
    achieved = 0
    naive_achieved = 0
    prev_ideal = 0
    for g_fbt, g_ack, g_total, g_last, cw in groups:
        total_bytes = g_total - g_last
        if total_bytes <= 0:
            # Single-packet group: nothing left after the delayed-ACK
            # correction; it still grows the ideal window chain.
            if cw > prev_ideal:
                prev_ideal = cw
            continue
        wstart = cw if cw > prev_ideal else prev_ideal
        m = ceil(log2(total_bytes / wstart + 1.0) - 1e-12)
        if m < 1:
            m = 1
        if m == 1:
            best = total_bytes
        else:
            if m - 1 > _MAX_ROUNDS:
                raise ValueError(_ROUNDS_ERROR)
            penultimate = pow2[m - 2] * wstart
            final_round = total_bytes - wstart * (pow2[m - 1] - 1)
            best = penultimate if penultimate > final_round else final_round
        testable = best / min_rtt_seconds
        if m > _MAX_ROUNDS:
            raise ValueError(_ROUNDS_ERROR)
        prev_ideal = pow2[m - 1] * wstart
        if testable < target_rate:
            continue
        tested += 1
        transfer = g_ack - g_fbt
        needed = target_rate * min_rtt_seconds
        if wstart >= needed:
            n = 0
        else:
            n = ceil(log2(needed / wstart) - 1e-12)
            if n < 0:
                n = 0
            elif n > _MAX_ROUNDS:
                n = _MAX_ROUNDS
        if n > m - 1:
            n = m - 1
        remaining = total_bytes - wstart * (pow2[n] - 1)
        model_time = n * min_rtt_seconds + remaining / target_rate + min_rtt_seconds
        if transfer <= model_time:
            achieved += 1
        if compute_naive and transfer > 0 and total_bytes / transfer >= target_rate:
            naive_achieved += 1
    return FunnelCounts(
        tested=tested,
        achieved=achieved,
        eligible=len(groups),
        coalesced=coalesced,
        naive_achieved=naive_achieved,
    )
