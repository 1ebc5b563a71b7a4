"""Bootstrap confidence intervals — the test suite's reference for the
distribution-free CIs.

The paper's methodology uses the Price–Bonett construction because it is
cheap enough for production streaming; the percentile bootstrap is the
slower gold standard. ``tests/test_stats_bootstrap.py`` checks that the
McKean–Schrader/Price–Bonett intervals of :mod:`repro.stats.median_ci`
agree with these on realistic data — the empirical justification for
trusting the fast path. Nothing in the program calls this module.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from repro.stats.weighted import percentile


def _median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def bootstrap_median_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    rng: Optional[random.Random] = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap CI for a median: ``(median, low, high)``."""
    if len(values) < 5:
        raise ValueError("need at least 5 observations")
    if resamples < 50:
        raise ValueError("resamples too small for a stable interval")
    rng = rng or random.Random(0)
    data = [float(v) for v in values]
    n = len(data)
    medians = []
    for _ in range(resamples):
        resample = [data[rng.randrange(n)] for _ in range(n)]
        medians.append(_median(resample))
    alpha = (1.0 - confidence) / 2.0
    return (
        _median(data),
        percentile(medians, 100.0 * alpha),
        percentile(medians, 100.0 * (1.0 - alpha)),
    )


def bootstrap_median_difference_ci(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 1000,
    rng: Optional[random.Random] = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap CI for ``median(a) - median(b)``.

    Resamples each side independently (the two aggregations are
    independent route measurements). Returns ``(difference, low, high)``.
    """
    if len(sample_a) < 5 or len(sample_b) < 5:
        raise ValueError("need at least 5 observations per side")
    rng = rng or random.Random(0)
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    n_a, n_b = len(a), len(b)
    differences = []
    for _ in range(resamples):
        resample_a = [a[rng.randrange(n_a)] for _ in range(n_a)]
        resample_b = [b[rng.randrange(n_b)] for _ in range(n_b)]
        differences.append(_median(resample_a) - _median(resample_b))
    alpha = (1.0 - confidence) / 2.0
    return (
        _median(a) - _median(b),
        percentile(differences, 100.0 * alpha),
        percentile(differences, 100.0 * (1.0 - alpha)),
    )
