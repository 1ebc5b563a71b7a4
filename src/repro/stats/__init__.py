"""Statistics substrate for the edge-performance reproduction.

The paper's methodology (§3.3–3.4) relies on three statistical tools, all of
which are implemented here from scratch:

- :mod:`repro.stats.tdigest` — a merging t-digest (Dunning & Ertl) for
  streaming percentile estimation (footnote 11 of the paper notes t-digests
  are how this runs in production analytics); here it backs the
  :mod:`repro.obs` timers. Every §5–§6 verdict uses the exact estimator
  below: sealed windows keep their raw samples.
- :mod:`repro.stats.median_ci` — distribution-free confidence intervals for a
  median and for the *difference* of two medians (McKean–Schrader standard
  errors combined in the Price & Bonett style), used to gate every
  degradation/opportunity decision.
- :mod:`repro.stats.weighted` — percentiles and (weighted) empirical CDFs
  used for traffic-weighted reporting.

:mod:`repro.stats.sampling` provides the seeded random-variate machinery the
synthetic workload generator is built on (mixtures, truncated lognormals,
quantile-matched lognormal fitting).
"""

from repro.stats.median_ci import (
    MedianComparison,
    compare_medians,
    median_standard_error,
)
from repro.stats.tdigest import TDigest
from repro.stats.weighted import weighted_ecdf, weighted_fraction_at_most

__all__ = [
    "MedianComparison",
    "TDigest",
    "compare_medians",
    "median_standard_error",
    "weighted_ecdf",
    "weighted_fraction_at_most",
]
