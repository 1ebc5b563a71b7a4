"""Degradation and routing-opportunity comparisons (§3.4, §5, §6).

Two comparisons drive the paper's analyses, both gated by distribution-free
confidence intervals so that measurement noise is never reported as signal:

**Degradation** (§5). Each user group's *baseline* is the 10th percentile of
its preferred route's per-window ``MinRTT_P50`` distribution (90th percentile
for ``HDratio_P50``). A window is degraded at threshold ``t`` when the lower
bound of the CI of (current − baseline) exceeds ``t`` (baseline − current for
HDratio, where lower is worse).

**Opportunity** (§6). Within a window, the preferred route (rank 0) is
compared against the best-performing alternate. An HDratio opportunity
requires the CI lower bound of (alternate − preferred) to exceed the
threshold. A MinRTT opportunity additionally requires the alternate's
HDratio to be statistically equal or better — the paper assumes operators
would never trade goodput for latency.

Comparisons are *valid* only when both sides have ≥30 samples and the CI is
"tight" (<10 ms for MinRTT differences, <0.1 for HDratio differences).
Invalid windows are excluded from analysis rather than guessed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.core.aggregation import Aggregation, AggregationStore
from repro.core.constants import (
    BASELINE_HDRATIO_PERCENTILE,
    BASELINE_MINRTT_PERCENTILE,
    CONFIDENCE_LEVEL,
    MAX_CI_WIDTH_HDRATIO,
    MAX_CI_WIDTH_MINRTT_MS,
    MIN_AGGREGATION_SAMPLES,
)
from repro.core.records import UserGroupKey
from repro.stats.median_ci import (
    MedianComparison,
    compare_medians,
    median_standard_error,
    normal_quantile,
)
from repro.stats.weighted import percentile

__all__ = [
    "GroupBaseline",
    "WindowVerdict",
    "compute_baseline",
    "degradation_series",
    "degradation_verdict",
    "opportunity_series",
    "opportunity_verdict",
]


@dataclass(frozen=True)
class GroupBaseline:
    """Baseline performance of a user group's preferred route (§3.4)."""

    minrtt_p50_ms: Optional[float]
    hdratio_p50: Optional[float]
    window_count: int


@dataclass(frozen=True)
class WindowVerdict:
    """One window's comparison outcome for one metric.

    ``difference`` is oriented so that **positive = the paper's event**
    (degradation for §5, improvement available for §6):

    - MinRTT degradation: ``current − baseline`` (ms).
    - HDratio degradation: ``baseline − current``.
    - MinRTT opportunity: ``preferred − alternate`` (ms).
    - HDratio opportunity: ``alternate − preferred``.

    ``valid`` applies the sample-count and tight-CI rules; ``ci_low`` is what
    thresholds are compared against.
    """

    window: int
    difference: float
    ci_low: float
    ci_high: float
    valid: bool
    traffic_bytes: int
    alternate_rank: Optional[int] = None

    def event_at(self, threshold: float) -> bool:
        """Degraded / improvable at ``threshold`` (CI-lower-bound rule)."""
        return self.valid and self.ci_low > threshold


def compute_baseline(
    series: Sequence[Aggregation],
    minrtt_percentile: float = BASELINE_MINRTT_PERCENTILE,
    hdratio_percentile: float = BASELINE_HDRATIO_PERCENTILE,
) -> GroupBaseline:
    """Baseline MinRTT_P50 / HDratio_P50 over a group's window series.

    Only windows meeting the minimum sample count contribute; the MinRTT
    baseline is the ``p10`` of the per-window medians (best sustained
    latency) and the HDratio baseline the ``p90`` (best sustained goodput).
    """
    rtt_medians = [
        aggregation.minrtt_p50 for aggregation in series if aggregation.has_min_samples
    ]
    hd_medians = [
        aggregation.hdratio_p50
        for aggregation in series
        if aggregation.has_min_hd_samples and aggregation.hdratio_p50 is not None
    ]
    return GroupBaseline(
        minrtt_p50_ms=percentile(rtt_medians, minrtt_percentile) if rtt_medians else None,
        hdratio_p50=percentile(hd_medians, hdratio_percentile) if hd_medians else None,
        window_count=len(series),
    )


def _one_sample_verdict(
    window: int,
    values: Sequence[float],
    baseline: float,
    orientation: float,
    max_ci_width: float,
    traffic_bytes: int,
    confidence: float = CONFIDENCE_LEVEL,
) -> WindowVerdict:
    """CI for (median(values) − baseline) with the baseline as a constant.

    ``orientation`` is +1 when larger medians mean degradation (MinRTT) and
    −1 when smaller medians do (HDratio).
    """
    n = len(values)
    if n < MIN_AGGREGATION_SAMPLES:
        return WindowVerdict(window, math.nan, -math.inf, math.inf, False, traffic_bytes)
    med = percentile(values, 50.0)
    se = median_standard_error(values, confidence)
    z = normal_quantile(0.5 + confidence / 2.0)
    difference = orientation * (med - baseline)
    half = z * se
    low, high = difference - half, difference + half
    valid = (high - low) <= max_ci_width
    return WindowVerdict(window, difference, low, high, valid, traffic_bytes)


def _check_metric(metric: str) -> None:
    if metric not in ("minrtt", "hdratio"):
        raise ValueError("metric must be 'minrtt' or 'hdratio'")


def degradation_verdict(
    aggregation: Aggregation,
    baseline: GroupBaseline,
    metric: str,
) -> Optional[WindowVerdict]:
    """One preferred-route window judged against ``baseline`` (§5).

    The one statement of the per-window degradation rule:
    :func:`degradation_series` applies it with a whole-series baseline,
    the online analyzer with a trailing one. ``None`` when the baseline
    has no value for ``metric``, or — for HDratio — the window has no
    testable session; a window failing the validity rules still gets a
    verdict, flagged invalid, so coverage accounting can see it.
    """
    _check_metric(metric)
    if metric == "minrtt":
        values, reference = aggregation.min_rtts_ms, baseline.minrtt_p50_ms
        orientation, max_ci_width = +1.0, MAX_CI_WIDTH_MINRTT_MS
    else:
        values, reference = aggregation.hdratios, baseline.hdratio_p50
        orientation, max_ci_width = -1.0, MAX_CI_WIDTH_HDRATIO
        if len(values) == 0:
            return None
    if reference is None:
        return None
    return _one_sample_verdict(
        aggregation.window,
        values,
        reference,
        orientation,
        max_ci_width,
        aggregation.traffic_bytes,
    )


def degradation_series(
    store: AggregationStore,
    group: UserGroupKey,
    metric: str,
) -> List[WindowVerdict]:
    """Per-window degradation verdicts for one group (§5).

    ``metric`` is ``"minrtt"`` or ``"hdratio"``. Every window of the
    group's preferred route is judged by :func:`degradation_verdict`
    against the baseline of the whole series.
    """
    _check_metric(metric)
    series = store.group_series(group, route_rank=0)
    if not series:
        return []
    baseline = compute_baseline(series)
    verdicts = (
        degradation_verdict(aggregation, baseline, metric) for aggregation in series
    )
    return [verdict for verdict in verdicts if verdict is not None]


def _two_sample_comparison(
    values_a: Sequence[float],
    values_b: Sequence[float],
    max_ci_width: float,
) -> MedianComparison:
    return compare_medians(
        values_a,
        values_b,
        confidence=CONFIDENCE_LEVEL,
        max_ci_width=max_ci_width,
        min_samples=MIN_AGGREGATION_SAMPLES,
    )


def _best_alternate(
    ranks: Mapping[int, Aggregation], metric: str
) -> Optional[Aggregation]:
    """The best-performing alternate-route aggregation in a window.

    Ranks are tried in ascending order and only a strictly better median
    displaces the incumbent, so ties go to the more-preferred alternate.
    """
    best: Optional[Aggregation] = None
    best_value: Optional[float] = None
    for rank in sorted(ranks):
        if rank == 0:
            continue
        candidate = ranks[rank]
        if metric == "minrtt":
            if not candidate.has_min_samples:
                continue
            value = candidate.minrtt_p50
            better = best_value is None or value < best_value
        else:
            if not candidate.has_min_hd_samples or candidate.hdratio_p50 is None:
                continue
            value = candidate.hdratio_p50
            better = best_value is None or value > best_value
        if better:
            best, best_value = candidate, value
    return best


def opportunity_verdict(
    ranks: Mapping[int, Aggregation],
    metric: str,
    hd_guard_slack: float = 0.0,
) -> Optional[WindowVerdict]:
    """One window's preferred-vs-best-alternate verdict (§6).

    The one statement of the per-window opportunity rule, over one
    (group, window)'s ``{route rank: Aggregation}``:
    :func:`opportunity_series` applies it to a stored group, the route
    monitor to each window as it seals. ``None`` when the window has no
    preferred-route data or no alternate with enough samples.

    Positive differences mean the best alternate beats the preferred route.
    For ``metric="minrtt"`` the HDratio guard is applied: the verdict only
    fires if the alternate's HDratio is statistically equal or better than
    the preferred route's (within ``hd_guard_slack``). A guard comparison
    that exists but is not valid (thin or wide) cannot rule out an HD
    regression, so — the paper prioritizes HDratio — it suppresses the
    MinRTT opportunity too. A guarded-out verdict is kept, with its
    ``ci_low`` at −inf so it never fires.
    """
    _check_metric(metric)
    preferred = ranks.get(0)
    if preferred is None:
        return None
    alternate = _best_alternate(ranks, metric)
    if alternate is None:
        return None
    if metric == "hdratio":
        comparison = _two_sample_comparison(
            alternate.hdratios, preferred.hdratios, MAX_CI_WIDTH_HDRATIO
        )
        ci_low = comparison.ci_low
    else:
        comparison = _two_sample_comparison(
            preferred.min_rtts_ms, alternate.min_rtts_ms, MAX_CI_WIDTH_MINRTT_MS
        )
        ci_low = comparison.ci_low
        # Fewer than 5 HD samples on a side: no CI, no signal to protect.
        if (
            comparison.valid
            and len(alternate.hdratios) >= 5
            and len(preferred.hdratios) >= 5
        ):
            guard = _two_sample_comparison(
                alternate.hdratios, preferred.hdratios, MAX_CI_WIDTH_HDRATIO
            )
            # An invalid guard comparison is never "equal or greater".
            if not guard.statistically_equal_or_greater(hd_guard_slack):
                ci_low = -math.inf
    return WindowVerdict(
        window=preferred.window,
        difference=comparison.difference,
        ci_low=ci_low,
        ci_high=comparison.ci_high,
        valid=comparison.valid,
        traffic_bytes=preferred.traffic_bytes,
        alternate_rank=alternate.route_rank,
    )


def opportunity_series(
    store: AggregationStore,
    group: UserGroupKey,
    metric: str,
    hd_guard_slack: float = 0.0,
) -> List[WindowVerdict]:
    """Per-window opportunity verdicts for one group (§6): each of the
    group's windows, in order, through :func:`opportunity_verdict`."""
    _check_metric(metric)
    verdicts = (
        opportunity_verdict(ranks, metric, hd_guard_slack)
        for _, ranks in sorted(store.window_ranks(group).items())
    )
    return [verdict for verdict in verdicts if verdict is not None]
