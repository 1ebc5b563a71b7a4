"""Distribution-free confidence intervals for medians and their differences.

The paper (§3.4.1) gates every degradation/opportunity decision on the
confidence interval of the *difference* between two medians, computed "using a
distribution-free technique" (Price & Bonett, "Distribution-Free Confidence
Intervals for Difference and Ratio of Medians", 2002).

We implement the standard construction:

1. Per-sample median standard error via the **McKean–Schrader** estimator:
   with order statistics ``X(1) <= ... <= X(n)`` and
   ``c = floor((n + 1) / 2 - z * sqrt(n / 4))``,
   ``SE = (X(n - c + 1) - X(c)) / (2 * z)``, where ``z`` is the standard
   normal quantile for the chosen confidence level.
2. The difference of two independent medians is approximately normal with
   variance ``SE1^2 + SE2^2`` (the Price–Bonett combination), giving
   ``(M1 - M2) ± z * sqrt(SE1^2 + SE2^2)``.

This matches the paper's operational requirements: no normality assumption on
the underlying samples, cheap enough for streaming use, and it produces the
interval *width* used for the paper's "tight CI" validity rule (<10 ms for
MinRTT_P50 differences, <0.1 for HDratio_P50 differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "MedianComparison",
    "compare_medians",
    "median_standard_error",
    "normal_quantile",
]

#: Minimum samples per aggregation before any comparison is attempted (§3.4.1).
MIN_SAMPLES_FOR_COMPARISON = 30


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation).

    Implemented from scratch so the core library only depends on the standard
    library; accurate to ~1e-9, far below what the CI machinery needs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")

    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)

    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _median_of_sorted(ordered: Sequence[float]) -> float:
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return 0.5 * (float(ordered[mid - 1]) + float(ordered[mid]))


def median_standard_error(values: Sequence[float], confidence: float = 0.95) -> float:
    """McKean–Schrader standard error of the sample median.

    ``values`` need not be sorted. Requires at least 5 observations; below
    that the order-statistic construction degenerates.
    """
    n = len(values)
    if n < 5:
        raise ValueError("need at least 5 observations for a median SE")
    z = normal_quantile(0.5 + confidence / 2.0)
    ordered = sorted(float(v) for v in values)
    c = int(math.floor((n + 1) / 2.0 - z * math.sqrt(n / 4.0)))
    c = max(c, 1)
    upper = ordered[n - c]      # X(n - c + 1), 1-indexed
    lower = ordered[c - 1]      # X(c), 1-indexed
    return (upper - lower) / (2.0 * z)


@dataclass(frozen=True)
class MedianComparison:
    """Outcome of comparing two aggregations' medians (§3.4).

    Attributes
    ----------
    difference:
        ``median_a - median_b``.
    ci_low, ci_high:
        Confidence interval for the difference.
    valid:
        Whether both sides had enough samples (>= 30) and the interval is
        "tight" (width below ``max_ci_width``). Invalid comparisons are
        excluded from the paper's analyses rather than trusted.
    n_a, n_b:
        Sample counts on each side.
    """

    difference: float
    ci_low: float
    ci_high: float
    valid: bool
    n_a: int
    n_b: int

    def exceeds(self, threshold: float) -> bool:
        """True when the difference is confidently above ``threshold``.

        Mirrors the paper's rule: compare the *lower bound* of the CI against
        the threshold so that only statistically significant differences
        count. Invalid comparisons never exceed.
        """
        return self.valid and self.ci_low > threshold

    def statistically_equal_or_greater(self, slack: float = 0.0) -> bool:
        """True when ``a`` is not confidently worse than ``b`` by > slack.

        Used for the paper's guard: an alternate route only counts as a
        MinRTT opportunity if its HDratio is statistically equal or better
        than the preferred route's.
        """
        if not self.valid:
            return False
        return self.ci_high >= -slack


def compare_medians(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    confidence: float = 0.95,
    max_ci_width: float = math.inf,
    min_samples: int = MIN_SAMPLES_FOR_COMPARISON,
) -> MedianComparison:
    """Compare the medians of two independent samples.

    Returns a :class:`MedianComparison` whose ``difference`` is
    ``median(sample_a) - median(sample_b)`` with a Price–Bonett-style
    distribution-free CI. The comparison is flagged invalid when either side
    has fewer than ``min_samples`` observations or when the CI is wider than
    ``max_ci_width`` (the paper's tightness rule).
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 5 or n_b < 5:
        return MedianComparison(math.nan, -math.inf, math.inf, False, n_a, n_b)

    ordered_a = sorted(float(v) for v in sample_a)
    ordered_b = sorted(float(v) for v in sample_b)
    med_a = _median_of_sorted(ordered_a)
    med_b = _median_of_sorted(ordered_b)
    se_a = median_standard_error(ordered_a, confidence)
    se_b = median_standard_error(ordered_b, confidence)
    z = normal_quantile(0.5 + confidence / 2.0)

    difference = med_a - med_b
    half_width = z * math.sqrt(se_a * se_a + se_b * se_b)
    low, high = difference - half_width, difference + half_width
    valid = (
        n_a >= min_samples
        and n_b >= min_samples
        and (high - low) <= max_ci_width
    )
    return MedianComparison(difference, low, high, valid, n_a, n_b)
