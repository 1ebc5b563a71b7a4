"""Streaming median comparison from t-digests (paper footnote 11).

Production traffic-engineering systems "need to be able to make these
comparisons in near real-time"; the paper points at t-digests as the way to
compute percentiles in streaming analytics frameworks and derive confidence
intervals "via the cited approach" (Price & Bonett).

The exact McKean–Schrader estimator needs order statistics; a t-digest
yields any quantile, and the order statistic ``X(k)`` of an ``n``-sample is
the quantile at ``k / n``. So the streaming construction is:

1. median from the digest at q = 0.5;
2. ``c = floor((n + 1) / 2 - z * sqrt(n / 4))`` as in the exact method;
3. ``SE = (Q((n - c + 1) / n) - Q(c / n)) / (2 z)`` from digest quantiles;
4. combine two SEs for the difference CI.

:func:`streaming_compare` mirrors
:func:`repro.stats.median_ci.compare_medians` but over digests. Nothing in
the pipeline calls either function: sealed windows keep their raw samples,
so every §5–§6 verdict uses the exact estimator, and these two are held to
it by ``tests/test_property_invariants.py``.
"""

from __future__ import annotations

import math

from repro.stats.median_ci import (
    MIN_SAMPLES_FOR_COMPARISON,
    MedianComparison,
    normal_quantile,
)
from repro.stats.tdigest import TDigest

__all__ = ["streaming_median_se", "streaming_compare"]


def streaming_median_se(digest: TDigest, confidence: float = 0.95) -> float:
    """McKean–Schrader SE of the median, from a t-digest."""
    n = int(digest.total_weight)
    if n < 5:
        raise ValueError("need at least 5 observations for a median SE")
    z = normal_quantile(0.5 + confidence / 2.0)
    c = max(int(math.floor((n + 1) / 2.0 - z * math.sqrt(n / 4.0))), 1)
    upper = digest.quantile((n - c + 1) / n)
    lower = digest.quantile(c / n)
    return max(upper - lower, 0.0) / (2.0 * z)


def streaming_compare(
    digest_a: TDigest,
    digest_b: TDigest,
    confidence: float = 0.95,
    max_ci_width: float = math.inf,
    min_samples: int = MIN_SAMPLES_FOR_COMPARISON,
) -> MedianComparison:
    """Difference-of-medians comparison computed entirely from digests."""
    n_a, n_b = int(digest_a.total_weight), int(digest_b.total_weight)
    if n_a < 5 or n_b < 5:
        return MedianComparison(math.nan, -math.inf, math.inf, False, n_a, n_b)
    difference = digest_a.median() - digest_b.median()
    se_a = streaming_median_se(digest_a, confidence)
    se_b = streaming_median_se(digest_b, confidence)
    z = normal_quantile(0.5 + confidence / 2.0)
    half = z * math.sqrt(se_a * se_a + se_b * se_b)
    low, high = difference - half, difference + half
    valid = (
        n_a >= min_samples and n_b >= min_samples and (high - low) <= max_ci_width
    )
    return MedianComparison(difference, low, high, valid, n_a, n_b)
