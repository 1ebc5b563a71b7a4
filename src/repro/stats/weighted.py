"""Percentiles and (weighted) empirical CDFs.

The paper reports every distribution weighted by traffic volume (§3.3):
"prefixes are arbitrary units of address space whose size may not map to the
underlying userbase size", so user groups are weighted by the bytes their
sessions carried. These helpers implement the percentiles of the figure
drivers in :mod:`repro.pipeline.experiments` and the weighted ECDFs of
:mod:`repro.pipeline.routing_analysis`.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

__all__ = [
    "percentile",
    "weighted_ecdf",
    "weighted_fraction_at_most",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Unweighted percentile with linear interpolation (q in [0, 100])."""
    return _percentile_of_sorted(sorted(map(float, values)), q)


def _percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of floats already in ascending order (no sort)."""
    if not ordered:
        raise ValueError("cannot take the percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def weighted_ecdf(
    values: Sequence[float], weights: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Weighted ECDF as ``(sorted_values, cumulative_weight_fractions)``."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    if not values:
        raise ValueError("cannot build an ECDF from an empty sequence")
    pairs = sorted(zip((float(v) for v in values), (float(w) for w in weights)))
    total = sum(weight for _, weight in pairs)
    if total <= 0:
        raise ValueError("total weight must be positive")
    xs: List[float] = []
    fractions: List[float] = []
    cumulative = 0.0
    for value, weight in pairs:
        cumulative += weight
        xs.append(value)
        fractions.append(cumulative / total)
    return xs, fractions


def weighted_fraction_at_most(
    values: Sequence[float], weights: Sequence[float], threshold: float
) -> float:
    """Weight share of observations with ``value <= threshold``.

    Convenience for statements like "83.9% of traffic is within 3 ms of
    optimal" — evaluates the weighted ECDF at ``threshold``.
    """
    xs, fractions = weighted_ecdf(values, weights)
    index = bisect.bisect_right(xs, threshold)
    if index == 0:
        return 0.0
    return fractions[index - 1]
