"""Constants fixed by the paper's methodology.

Every number here is taken directly from the text of "Internet Performance
from Facebook's Edge" (IMC 2019) and referenced back to the section that
defines it.
"""

from __future__ import annotations

#: Target goodput for the HD capability test: 2.5 Mbps, "the minimum required
#: to stream HD video" (§3.2.1). Expressed in bytes/second because the model
#: works in bytes.
HD_GOODPUT_BPS = 2.5e6
HD_GOODPUT_BYTES_PER_SEC = HD_GOODPUT_BPS / 8.0

#: Kernel MinRTT tracking window (§3.1): "in Facebook's environment this
#: window is set to 5 minutes".
MINRTT_WINDOW_SECONDS = 300.0

#: Aggregation time window (§3.3): measurements are grouped into 15 minute
#: windows per user group.
AGGREGATION_WINDOW_SECONDS = 900.0

#: Confidence level for all median-difference comparisons (§3.4.1).
CONFIDENCE_LEVEL = 0.95

#: Minimum samples in an aggregation before comparisons are attempted
#: (§3.4.1): "we only consider aggregations with at least 30 samples".
MIN_AGGREGATION_SAMPLES = 30

#: "Tight CI" validity rule (§3.4.1): the CI of a MinRTT_P50 difference must
#: be narrower than 10 ms, and of an HDratio_P50 difference narrower than 0.1,
#: for the comparison to be considered valid.
MAX_CI_WIDTH_MINRTT_MS = 10.0
MAX_CI_WIDTH_HDRATIO = 0.1

#: Default decision thresholds used throughout §§5–6: 5 ms for MinRTT_P50 and
#: 0.05 for HDratio_P50.
DEFAULT_MINRTT_THRESHOLD_MS = 5.0
DEFAULT_HDRATIO_THRESHOLD = 0.05

#: Degradation baselines (§3.4): baseline MinRTT_P50 is the 10th percentile of
#: the preferred route's per-window MinRTT_P50 distribution; baseline
#: HDratio_P50 is the 90th percentile of its distribution.
BASELINE_MINRTT_PERCENTILE = 10.0
BASELINE_HDRATIO_PERCENTILE = 90.0

#: Temporal class thresholds (§3.4.2): persistent requires degradation or
#: opportunity in >= 75% of valid windows; diurnal requires a recurring
#: fixed 15-minute window on >= 5 distinct days; groups need traffic in
#: >= 60% of windows to be classified at all.
PERSISTENT_WINDOW_FRACTION = 0.75
DIURNAL_MIN_DAYS = 5
MIN_COVERAGE_FRACTION = 0.60

#: Number of alternate routes continuously measured per prefix (§6.2): "by
#: default ... the two next best paths to the destination".
DEFAULT_ALTERNATE_ROUTES = 2

#: Fraction of sampled sessions kept on the policy-preferred path (§6.2):
#: "approximately 47% of sampled HTTP sessions are routed via the best path".
PREFERRED_ROUTE_SAMPLE_FRACTION = 0.47
