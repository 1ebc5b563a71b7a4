"""Experiment drivers for the characterization figures (1–3, 5–7) and
ablations.

Each driver consumes a :class:`~repro.pipeline.dataset.StudyDataset` and
returns a result object holding the same series/rows the paper's figure
shows plus the headline statistics quoted in the text. Figure 4 is a
packet-simulator run, :func:`repro.netsim.scenarios.run_figure4_scenario`.
The routing analyses (Figures 8–10, Tables 1–2) live in
:mod:`repro.pipeline.routing_analysis`.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import traced
from repro.pipeline.dataset import StudyDataset
from repro.stats.weighted import _percentile_of_sorted, percentile

__all__ = [
    "CdfSeries",
    "fig1_session_behaviour",
    "fig2_transfer_sizes",
    "fig3_transaction_counts",
    "fig5_population_mix",
    "fig6_global",
    "fig6_global_performance",
    "fig7_rtt_vs_hdratio",
    "ablation_naive_goodput",
]


@dataclass(frozen=True)
class CdfSeries:
    """One CDF line: its x values in ascending order, nothing else — the
    fraction at ``xs[i]`` is ``(i + 1) / len(xs)``, computed when asked.
    The values are a typed array, 8 bytes each: integer series stay ints
    (``q``, exact against float thresholds below 2**53), any other is
    ``d``.

    An empty series (a zero-session population split) is representable:
    its quantiles are ``None`` and its ``fraction_at_most`` is 0 — report
    renderers turn the ``None`` into ``n/a`` instead of raising.
    """

    label: str
    xs: array

    @classmethod
    def of(cls, label: str, values: Iterable[float]) -> "CdfSeries":
        xs = sorted(values)
        typecode = "q" if set(map(type, xs)) <= {int} else "d"
        return cls(label=label, xs=array(typecode, xs))

    def __len__(self) -> int:
        return len(self.xs)

    def fraction_at_most(self, x: float) -> float:
        xs = self.xs
        return bisect.bisect_right(xs, x) / len(xs) if xs else 0.0

    def fraction_above(self, x: float) -> Optional[float]:
        """``1 - fraction_at_most(x)``; ``None`` for an empty series."""
        return 1.0 - self.fraction_at_most(x) if self.xs else None

    def quantile(self, q: float) -> Optional[float]:
        if not self.xs:
            return None
        return float(_percentile_of_sorted(self.xs, q * 100.0))


# --------------------------------------------------------------------- #
# Figure 1 — session duration and busy time
# --------------------------------------------------------------------- #
@dataclass
class Fig1Result:
    duration_all: CdfSeries
    duration_h1: CdfSeries
    duration_h2: CdfSeries
    busy_all: CdfSeries
    busy_h1: CdfSeries
    busy_h2: CdfSeries

    @property
    def under_one_second(self) -> float:
        return self.duration_all.fraction_at_most(1.0)

    @property
    def under_one_minute(self) -> float:
        return self.duration_all.fraction_at_most(60.0)

    @property
    def over_three_minutes(self) -> Optional[float]:
        return self.duration_all.fraction_above(180.0)

    @property
    def mostly_idle_fraction(self) -> float:
        """Sessions active less than 10% of their lifetime."""
        return self.busy_all.fraction_at_most(0.10)


def _by_protocol(values: list, http2: Iterable[int]) -> Tuple[list, list]:
    """``values`` split into (HTTP/1.1, HTTP/2) lists by an ``is_http2``
    column."""
    return list(compress(values, map(not_, http2))), list(compress(values, http2))


@traced("pipeline.fig1")
def fig1_session_behaviour(dataset: StudyDataset) -> Fig1Result:
    """Figure 1: session-duration and busy-time CDFs, split by protocol."""
    table = dataset.table
    http2 = table.values("is_http2")
    durations = table.values("duration")
    busy = table.values("busy_fraction")
    duration_h1, duration_h2 = _by_protocol(durations, http2)
    busy_h1, busy_h2 = _by_protocol(busy, http2)
    return Fig1Result(
        duration_all=CdfSeries.of("all", durations),
        duration_h1=CdfSeries.of("http/1.1", duration_h1),
        duration_h2=CdfSeries.of("http/2", duration_h2),
        busy_all=CdfSeries.of("all", busy),
        busy_h1=CdfSeries.of("http/1.1", busy_h1),
        busy_h2=CdfSeries.of("http/2", busy_h2),
    )


# --------------------------------------------------------------------- #
# Figure 2 — bytes per session / response / media response
# --------------------------------------------------------------------- #
@dataclass
class Fig2Result:
    session_bytes: CdfSeries
    response_bytes: CdfSeries
    media_response_bytes: CdfSeries

    @property
    def sessions_under_10kb(self) -> float:
        return self.session_bytes.fraction_at_most(10_000.0)

    @property
    def sessions_over_1mb(self) -> Optional[float]:
        return self.session_bytes.fraction_above(1_000_000.0)

    @property
    def median_response(self) -> float:
        return self.response_bytes.quantile(0.5)


#: Fallback size threshold for traces whose samples predate media tagging.
MEDIA_RESPONSE_THRESHOLD_BYTES = 12_000


@traced("pipeline.fig2")
def fig2_transfer_sizes(dataset: StudyDataset) -> Fig2Result:
    """Figure 2: bytes per session, per response, and per media response."""
    table = dataset.table
    sessions = [sent for sent in table.values("bytes_sent") if sent > 0]
    responses = table.values("sizes")
    media = table.values("media")
    if not media:
        # Untagged trace: fall back to the size heuristic.
        media = [
            size for size in responses if size >= MEDIA_RESPONSE_THRESHOLD_BYTES
        ]
    return Fig2Result(
        session_bytes=CdfSeries.of("sessions", sessions),
        response_bytes=CdfSeries.of("all responses", responses),
        media_response_bytes=CdfSeries.of("media responses", media),
    )


# --------------------------------------------------------------------- #
# Figure 3 — transactions per session
# --------------------------------------------------------------------- #
@dataclass
class Fig3Result:
    count_all: CdfSeries
    count_h1: CdfSeries
    count_h2: CdfSeries
    heavy_session_byte_share: float  # bytes on sessions with >= 50 txns

    @property
    def h1_under_5(self) -> float:
        return self.count_h1.fraction_at_most(4.0)

    @property
    def h2_under_5(self) -> float:
        return self.count_h2.fraction_at_most(4.0)


@traced("pipeline.fig3")
def fig3_transaction_counts(dataset: StudyDataset) -> Fig3Result:
    """Figure 3: transactions per session and the heavy-session byte share."""
    table = dataset.table
    counts = table.values("transaction_count")
    sent = table.values("bytes_sent")
    total_bytes = sum(sent) or 1
    heavy_bytes = sum(compress(sent, [count >= 50 for count in counts]))
    count_h1, count_h2 = _by_protocol(counts, table.values("is_http2"))
    return Fig3Result(
        count_all=CdfSeries.of("all", counts),
        count_h1=CdfSeries.of("http/1.1", count_h1),
        count_h2=CdfSeries.of("http/2", count_h2),
        heavy_session_byte_share=heavy_bytes / total_bytes,
    )


# --------------------------------------------------------------------- #
# Figure 5 — client-population mixes move MinRTT_P50
# --------------------------------------------------------------------- #
@dataclass
class Fig5Result:
    """Per-window median MinRTT for the dual-metro group, split by region."""

    windows: List[int]
    all_clients: List[Optional[float]]
    primary_clients: List[Optional[float]]
    secondary_clients: List[Optional[float]]
    primary_label: str
    secondary_label: str

    def spread(self) -> float:
        """Max − min of the combined median across windows."""
        values = [v for v in self.all_clients if v is not None]
        return max(values) - min(values)


@traced("pipeline.fig5")
def fig5_population_mix(
    samples: Sequence, primary_tag: str = "sanfrancisco",
    secondary_tag: str = "honolulu", prefix: str = "198.51.0.0/16",
) -> Fig5Result:
    """Median MinRTT over time for a prefix spanning two regions.

    ``samples`` is the raw sample stream restricted (by the caller or here)
    to the Figure-5 network; the split uses the generator's geo tags the
    way the paper uses client geolocation.
    """
    from collections import defaultdict

    from repro.core.aggregation import window_index

    per_window: Dict[int, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for sample in samples:
        if sample.route is None or sample.route.prefix != prefix:
            continue
        if sample.route.preference_rank != 0:
            continue
        window = window_index(sample.end_time)
        per_window[window][sample.geo_tag].append(sample.min_rtt_ms)
        per_window[window]["__all__"].append(sample.min_rtt_ms)

    windows = sorted(per_window)

    def series(tag: str) -> List[Optional[float]]:
        out: List[Optional[float]] = []
        for window in windows:
            values = per_window[window].get(tag, [])
            out.append(percentile(values, 50.0) if len(values) >= 5 else None)
        return out

    return Fig5Result(
        windows=windows,
        all_clients=series("__all__"),
        primary_clients=series(primary_tag),
        secondary_clients=series(secondary_tag),
        primary_label=primary_tag,
        secondary_label=secondary_tag,
    )


# --------------------------------------------------------------------- #
# Figure 6 — global MinRTT / HDratio distributions
# --------------------------------------------------------------------- #
CONTINENT_CODES = ("AF", "AS", "EU", "NA", "OC", "SA")


@dataclass
class Fig6Result:
    minrtt_all: CdfSeries
    hdratio_all: CdfSeries
    minrtt_by_continent: Dict[str, CdfSeries]
    hdratio_by_continent: Dict[str, CdfSeries]

    @property
    def median_minrtt(self) -> float:
        return self.minrtt_all.quantile(0.5)

    @property
    def p80_minrtt(self) -> float:
        return self.minrtt_all.quantile(0.8)

    @property
    def hdratio_positive_fraction(self) -> Optional[float]:
        """Share of HD-testable sessions with HDratio > 0 (paper: >82%).

        ``None`` when no session was HD-testable (rendered as ``n/a``).
        """
        return self.hdratio_all.fraction_above(0.0)

    @property
    def hdratio_full_fraction(self) -> float:
        """Share with HDratio == 1 (paper: ~60%); 0 for an empty study."""
        xs = self.hdratio_all.xs
        if not xs:
            return 0.0
        return (len(xs) - bisect.bisect_left(xs, 1.0)) / len(xs)

    def continent_median_minrtt(self, code: str) -> Optional[float]:
        """None when no session came from continent ``code``."""
        series = self.minrtt_by_continent.get(code)
        return None if series is None else series.quantile(0.5)

    def continent_zero_hd_fraction(self, code: str) -> Optional[float]:
        """None when no HD-testable session came from continent ``code``."""
        series = self.hdratio_by_continent.get(code)
        return None if series is None else series.fraction_at_most(0.0)


@traced("pipeline.fig6")
def fig6_global_performance(dataset: StudyDataset) -> Fig6Result:
    """Figure 6: MinRTT and HDratio distributions, global and per continent."""
    # One pass groups the values (fold order within each list; every series
    # is sorted), and the per-continent dicts keep CONTINENT_CODES order
    # (empty ones left out).
    table = dataset.table
    minrtt_all = table.values("min_rtt_ms")
    hdratios = table.optional("hdratio")
    hdratio_all: List[float] = []
    minrtt_of: Dict[str, List[float]] = {code: [] for code in CONTINENT_CODES}
    hdratio_of: Dict[str, List[float]] = {code: [] for code in CONTINENT_CODES}
    for minrtt, hdratio, continent in zip(
        minrtt_all, hdratios, table.labels("continent")
    ):
        continent_minrtts = minrtt_of.get(continent)
        if continent_minrtts is not None:
            continent_minrtts.append(minrtt)
        if hdratio is not None:
            hdratio_all.append(hdratio)
            if continent_minrtts is not None:
                hdratio_of[continent].append(hdratio)
    return Fig6Result(
        minrtt_all=CdfSeries.of("all", minrtt_all),
        hdratio_all=CdfSeries.of("all", hdratio_all),
        minrtt_by_continent={
            code: CdfSeries.of(code, values)
            for code, values in minrtt_of.items()
            if values
        },
        hdratio_by_continent={
            code: CdfSeries.of(code, values)
            for code, values in hdratio_of.items()
            if values
        },
    )


def fig6_global(dataset: StudyDataset) -> Fig6Result:
    """Figure 6's two global series alone, the continent dicts empty:
    equal to :func:`fig6_global_performance`'s, at a fraction of its cost
    (``/v1/quantiles`` serves these and nothing else)."""
    table = dataset.table
    return Fig6Result(
        minrtt_all=CdfSeries.of("all", table.values("min_rtt_ms")),
        hdratio_all=CdfSeries.of("all", table.present("hdratio")),
        minrtt_by_continent={},
        hdratio_by_continent={},
    )


# --------------------------------------------------------------------- #
# Figure 7 — HDratio by MinRTT bucket
# --------------------------------------------------------------------- #
#: Contiguous (low, high] MinRTT buckets; labels follow the paper's legend
#: ("0-30", "31-50", "51-80", "81+").
MINRTT_BUCKETS = ((0.0, 30.0), (30.0, 50.0), (50.0, 80.0), (80.0, math.inf))
_BUCKET_LABELS = ("0-30", "31-50", "51-80", "81+")


@dataclass
class Fig7Result:
    hdratio_by_bucket: Dict[str, CdfSeries]

    @staticmethod
    def bucket_label(bounds: Tuple[float, float]) -> str:
        index = MINRTT_BUCKETS.index(bounds)
        return _BUCKET_LABELS[index]


@traced("pipeline.fig7")
def fig7_rtt_vs_hdratio(dataset: StudyDataset) -> Fig7Result:
    """Figure 7: HDratio distribution within each MinRTT bucket."""
    buckets: Dict[str, List[float]] = {
        Fig7Result.bucket_label(bounds): [] for bounds in MINRTT_BUCKETS
    }
    table = dataset.table
    for minrtt, hdratio in zip(
        table.values("min_rtt_ms"), table.optional("hdratio")
    ):
        if hdratio is None:
            continue  # not HD-testable
        for bounds in MINRTT_BUCKETS:
            if minrtt <= bounds[1]:
                buckets[Fig7Result.bucket_label(bounds)].append(hdratio)
                break
    return Fig7Result(
        hdratio_by_bucket={
            label: CdfSeries.of(label, values)
            for label, values in buckets.items()
        }
    )


# --------------------------------------------------------------------- #
# Ablation — naive Btotal/Ttotal goodput vs the model (§4)
# --------------------------------------------------------------------- #
@dataclass
class AblationResult:
    model_median_hdratio: float
    naive_median_hdratio: float
    sessions: int


@traced("pipeline.ablation_naive")
def ablation_naive_goodput(dataset: StudyDataset) -> AblationResult:
    """Compare the model HDratio against the naive estimator.

    Requires the dataset to have been built with ``compute_naive=True``.
    """
    table = dataset.table
    pairs = [
        (model, naive)
        for model, naive in zip(
            table.optional("hdratio"),
            table.optional("naive_hdratio"),
        )
        if model is not None and naive is not None
    ]
    if not pairs:
        raise ValueError("dataset has no naive HDratio values")
    model = percentile([p[0] for p in pairs], 50.0)
    naive = percentile([p[1] for p in pairs], 50.0)
    return AblationResult(
        model_median_hdratio=model,
        naive_median_hdratio=naive,
        sessions=len(pairs),
    )
