"""Routing/temporal analyses: Figures 8–10 and Tables 1–2.

All drivers consume a built :class:`~repro.pipeline.dataset.StudyDataset`
(its aggregation store) and report traffic-weighted results, mirroring §5
and §6 of the paper:

- :func:`fig8_degradation` — per-window degradation vs baseline, weighted
  CDF over traffic;
- :func:`fig9_opportunity` — preferred vs best-alternate difference CDFs;
- :func:`fig10_relationship_comparison` — MinRTT_P50 differences by peering
  relationship pair;
- :func:`table1_temporal_classes` — temporal class × continent × threshold
  traffic shares;
- :func:`table2_opportunity_relationships` — opportunity broken down by
  relationship pair, with longer-AS-path and prepending shares.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.aggregation import Aggregation, AggregationStore
from repro.core.classification import TemporalClass, classify_group
from repro.core.comparison import WindowVerdict
from repro.core.constants import (
    MAX_CI_WIDTH_HDRATIO,
    MAX_CI_WIDTH_MINRTT_MS,
)
from repro.core.records import Relationship, UserGroupKey
from repro.obs import traced
from repro.pipeline.dataset import StudyDataset
from repro.stats.median_ci import compare_medians
from repro.stats.weighted import weighted_ecdf, weighted_fraction_at_most

__all__ = [
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Table1Result",
    "Table2Result",
    "fig8_degradation",
    "fig9_opportunity",
    "fig10_relationship_comparison",
    "table1_temporal_classes",
    "table2_opportunity_relationships",
]


@dataclass
class WeightedDifferenceCdf:
    """Traffic-weighted distribution of per-window differences."""

    differences: List[float] = field(default_factory=list)
    ci_lows: List[float] = field(default_factory=list)
    ci_highs: List[float] = field(default_factory=list)
    weights: List[float] = field(default_factory=list)
    valid_traffic: float = 0.0
    total_traffic: float = 0.0

    def add(self, verdict: WindowVerdict) -> None:
        self.total_traffic += verdict.traffic_bytes
        if not verdict.valid or math.isnan(verdict.difference):
            return
        self.valid_traffic += verdict.traffic_bytes
        self.differences.append(verdict.difference)
        self.ci_lows.append(verdict.ci_low)
        self.ci_highs.append(verdict.ci_high)
        self.weights.append(float(verdict.traffic_bytes))

    @property
    def valid_traffic_fraction(self) -> float:
        if self.total_traffic == 0:
            return 0.0
        return self.valid_traffic / self.total_traffic

    def cdf(self) -> Tuple[List[float], List[float]]:
        return weighted_ecdf(self.differences, self.weights)

    def traffic_fraction_at_least(self, threshold: float, use_ci_low: bool = False) -> float:
        """Traffic share whose difference (or its CI lower bound) >= threshold."""
        values = self.ci_lows if use_ci_low else self.differences
        if not values:
            return 0.0
        return 1.0 - weighted_fraction_at_most(
            values, self.weights, threshold - 1e-12
        )

    def traffic_fraction_at_most(self, threshold: float) -> float:
        if not self.differences:
            return 0.0
        return weighted_fraction_at_most(self.differences, self.weights, threshold)


# --------------------------------------------------------------------- #
# Figure 8 — degradation
# --------------------------------------------------------------------- #
@dataclass
class Fig8Result:
    minrtt: WeightedDifferenceCdf
    hdratio: WeightedDifferenceCdf


@traced("pipeline.fig8")
def fig8_degradation(dataset: StudyDataset) -> Fig8Result:
    """Figure 8: per-window degradation vs each group's baseline, traffic-weighted."""
    result = Fig8Result(WeightedDifferenceCdf(), WeightedDifferenceCdf())
    for metric, acc in (("minrtt", result.minrtt), ("hdratio", result.hdratio)):
        for verdicts in dataset.verdicts(metric, "degradation").values():
            for verdict in verdicts:
                acc.add(verdict)
    return result


# --------------------------------------------------------------------- #
# Figure 9 — opportunity
# --------------------------------------------------------------------- #
@dataclass
class Fig9Result:
    minrtt: WeightedDifferenceCdf
    hdratio: WeightedDifferenceCdf

    def minrtt_within_of_optimal(self, slack_ms: float = 3.0) -> float:
        """Traffic whose preferred MinRTT_P50 is within ``slack`` of the
        best available route (difference <= slack)."""
        return self.minrtt.traffic_fraction_at_most(slack_ms)

    def hdratio_within_of_optimal(self, slack: float = 0.025) -> float:
        return self.hdratio.traffic_fraction_at_most(slack)


@traced("pipeline.fig9")
def fig9_opportunity(dataset: StudyDataset) -> Fig9Result:
    """Figure 9: preferred vs best-alternate route differences, traffic-weighted."""
    result = Fig9Result(WeightedDifferenceCdf(), WeightedDifferenceCdf())
    for metric, acc in (("minrtt", result.minrtt), ("hdratio", result.hdratio)):
        for verdicts in dataset.verdicts(metric, "opportunity").values():
            for verdict in verdicts:
                acc.add(verdict)
    return result


# --------------------------------------------------------------------- #
# Figure 10 — relationship-type comparison
# --------------------------------------------------------------------- #
RELATIONSHIP_PAIRS = (
    ("peering-vs-transit", "peer", "transit"),
    ("transit-vs-transit", "transit", "transit"),
    ("private-vs-public", "private", "public"),
)


def _matches_kind(relationship: Relationship, kind: str) -> bool:
    if kind == "peer":
        return relationship in (Relationship.PRIVATE, Relationship.PUBLIC)
    if kind == "private":
        return relationship is Relationship.PRIVATE
    if kind == "public":
        return relationship is Relationship.PUBLIC
    if kind == "transit":
        return relationship is Relationship.TRANSIT
    raise ValueError(f"unknown relationship kind {kind!r}")


@dataclass
class Fig10Result:
    """Weighted per-pair differences (preferred vs most-preferred alternate).

    ``by_pair`` carries MinRTT_P50 differences oriented as
    (preferred − alternate): negative = preferred faster. ``hd_by_pair``
    carries HDratio_P50 differences oriented as (alternate − preferred):
    positive = alternate better — the §6.3 result the paper describes but
    omits plotting ("concentrated around x = 0 and mostly symmetrical").
    """

    by_pair: Dict[str, WeightedDifferenceCdf]
    hd_by_pair: Dict[str, WeightedDifferenceCdf] = field(default_factory=dict)

    @staticmethod
    def _median_of(acc: WeightedDifferenceCdf) -> float:
        xs, fractions = acc.cdf()
        for x, fraction in zip(xs, fractions):
            if fraction >= 0.5:
                return x
        return xs[-1]

    def median_difference(self, pair: str) -> float:
        return self._median_of(self.by_pair[pair])

    def median_hd_difference(self, pair: str) -> float:
        return self._median_of(self.hd_by_pair[pair])


@traced("pipeline.fig10")
def fig10_relationship_comparison(dataset: StudyDataset) -> Fig10Result:
    """Compare preferred r1-routes against the most-preferred r2 alternate.

    Unlike the opportunity analysis (best-performing alternate), §6.3 picks
    the most *policy-preferred* alternate of the target relationship type.
    Differences are oriented as (alternate − preferred) for MinRTT so that
    positive = preferred is better (left-skew in the paper's plot means
    preferred usually wins); we keep the paper's orientation
    (preferred − alternate): negative = preferred faster.
    """
    store = dataset.store
    result = Fig10Result(
        by_pair={name: WeightedDifferenceCdf() for name, _, _ in RELATIONSHIP_PAIRS},
        hd_by_pair={
            name: WeightedDifferenceCdf() for name, _, _ in RELATIONSHIP_PAIRS
        },
    )
    for group in store.groups():
        for window in store.group_windows(group, route_rank=0):
            preferred = store.get(group, 0, window)
            if preferred is None or preferred.route is None:
                continue
            for name, kind_preferred, kind_alternate in RELATIONSHIP_PAIRS:
                if not _matches_kind(preferred.route.relationship, kind_preferred):
                    continue
                alternate = _first_alternate_of_kind(
                    store, group, window, kind_alternate
                )
                if alternate is None:
                    continue
                comparison = compare_medians(
                    preferred.min_rtts_ms,
                    alternate.min_rtts_ms,
                    max_ci_width=MAX_CI_WIDTH_MINRTT_MS,
                )
                result.by_pair[name].add(
                    WindowVerdict(
                        window=window,
                        difference=comparison.difference,
                        ci_low=comparison.ci_low,
                        ci_high=comparison.ci_high,
                        valid=comparison.valid,
                        traffic_bytes=preferred.traffic_bytes,
                        alternate_rank=alternate.route_rank,
                    )
                )
                hd_comparison = compare_medians(
                    alternate.hdratios,
                    preferred.hdratios,
                    max_ci_width=MAX_CI_WIDTH_HDRATIO,
                )
                result.hd_by_pair[name].add(
                    WindowVerdict(
                        window=window,
                        difference=hd_comparison.difference,
                        ci_low=hd_comparison.ci_low,
                        ci_high=hd_comparison.ci_high,
                        valid=hd_comparison.valid,
                        traffic_bytes=preferred.traffic_bytes,
                        alternate_rank=alternate.route_rank,
                    )
                )
    return result


def _first_alternate_of_kind(
    store: AggregationStore, group: UserGroupKey, window: int, kind: str
) -> Optional[Aggregation]:
    for rank in store.route_ranks(group, window):
        if rank == 0:
            continue
        candidate = store.get(group, rank, window)
        if candidate is None or candidate.route is None:
            continue
        if _matches_kind(candidate.route.relationship, kind):
            return candidate
    return None


# --------------------------------------------------------------------- #
# Table 1 — temporal classes
# --------------------------------------------------------------------- #
DEGRADATION_THRESHOLDS = {
    "minrtt": (5.0, 10.0, 20.0, 50.0),
    "hdratio": (0.05, 0.1, 0.2, 0.5),
}
OPPORTUNITY_THRESHOLDS = {
    "minrtt": (5.0, 10.0),
    "hdratio": (0.05,),
}


@dataclass
class Table1Cell:
    """One (class, continent, threshold) cell: the paper's blue/orange pair."""

    class_traffic: float = 0.0      # total traffic of groups in the class
    event_traffic: float = 0.0      # traffic during the event windows

    def normalized(self, denominator: float) -> Tuple[float, float]:
        if denominator <= 0:
            return 0.0, 0.0
        return self.class_traffic / denominator, self.event_traffic / denominator


@dataclass
class Table1Result:
    """cells[kind][metric][threshold][class][continent] -> Table1Cell.

    ``continent`` is a two-letter code or ``"ALL"``. Use
    :meth:`fractions` for the normalized (blue, orange) pairs.
    """

    cells: Dict[str, Dict[str, Dict[float, Dict[TemporalClass, Dict[str, Table1Cell]]]]]
    total_traffic: Dict[str, float]  # per continent + "ALL"

    def fractions(
        self,
        kind: str,
        metric: str,
        threshold: float,
        temporal_class: TemporalClass,
        continent: str = "ALL",
    ) -> Tuple[float, float]:
        cell = (
            self.cells[kind][metric][threshold]
            .get(temporal_class, {})
            .get(continent, Table1Cell())
        )
        return cell.normalized(self.total_traffic.get(continent, 0.0))


@traced("pipeline.table1")
def table1_temporal_classes(
    dataset: StudyDataset, windows_per_day: Optional[int] = None
) -> Table1Result:
    """Table 1: temporal-class traffic shares per metric, threshold, continent."""
    store = dataset.store
    study_windows = dataset.study_windows
    if windows_per_day is None:
        windows_per_day = dataset.windows_per_day

    # Total classified traffic per continent (denominators).
    group_traffic: Dict[UserGroupKey, float] = {}
    group_continent: Dict[UserGroupKey, str] = {}
    for aggregation in store.all_aggregations():
        if aggregation.route_rank != 0:
            continue
        group_traffic[aggregation.group] = (
            group_traffic.get(aggregation.group, 0.0) + aggregation.traffic_bytes
        )
    continent_of_country = _continent_index(dataset)
    for group in group_traffic:
        group_continent[group] = continent_of_country.get(group.country, "ALL")

    total_traffic: Dict[str, float] = defaultdict(float)
    for group, traffic in group_traffic.items():
        total_traffic["ALL"] += traffic
        total_traffic[group_continent[group]] += traffic

    cells: Dict = {}
    for kind, thresholds_by_metric in (
        ("degradation", DEGRADATION_THRESHOLDS),
        ("opportunity", OPPORTUNITY_THRESHOLDS),
    ):
        cells[kind] = {}
        for metric, thresholds in thresholds_by_metric.items():
            cells[kind][metric] = {}
            verdict_map = dataset.verdicts(metric, kind)
            for threshold in thresholds:
                per_class: Dict[TemporalClass, Dict[str, Table1Cell]] = defaultdict(
                    lambda: defaultdict(Table1Cell)
                )
                for group, verdicts in verdict_map.items():
                    classification = classify_group(
                        verdicts,
                        threshold,
                        study_windows,
                        windows_per_day=windows_per_day,
                    )
                    if not classification.classified:
                        continue
                    continent = group_continent.get(group, "ALL")
                    for scope in ("ALL", continent):
                        cell = per_class[classification.temporal_class][scope]
                        cell.class_traffic += group_traffic.get(group, 0.0)
                        cell.event_traffic += classification.event_traffic_bytes
                cells[kind][metric][threshold] = {
                    cls: dict(by_continent) for cls, by_continent in per_class.items()
                }
    return Table1Result(cells=cells, total_traffic=dict(total_traffic))


def _continent_index(dataset: StudyDataset) -> Dict[str, str]:
    """country -> continent mapping for the study's user groups.

    User-group keys carry countries, not continents; the static table below
    covers every country the synthetic universe (and any realistic subset
    of ISO codes) uses. Unknown countries fall back to ``"ALL"`` upstream.
    """
    return dict(_STATIC_COUNTRY_CONTINENT)


#: ISO country -> continent for every country the synthetic universe uses.
_STATIC_COUNTRY_CONTINENT = {
    "NL": "EU", "GB": "EU", "FR": "EU", "DE": "EU", "PL": "EU", "TR": "EU",
    "UA": "EU", "ES": "EU", "SE": "EU", "IT": "EU",
    "US": "NA", "MX": "NA", "CA": "NA",
    "IN": "AS", "ID": "AS", "PH": "AS", "TH": "AS", "JP": "AS", "VN": "AS",
    "BD": "AS", "PK": "AS", "SG": "AS", "HK": "AS",
    "BR": "SA", "AR": "SA", "CO": "SA", "PE": "SA", "CL": "SA",
    "NG": "AF", "KE": "AF", "ZA": "AF", "EG": "AF", "GH": "AF",
    "AU": "OC", "NZ": "OC",
}


# --------------------------------------------------------------------- #
# Table 2 — opportunity by relationship pair
# --------------------------------------------------------------------- #
TABLE2_ROWS = (
    "private->private",
    "private->transit",
    "public->public",
    "public->transit",
    "transit->transit",
    "others",
)


@dataclass
class Table2Row:
    event_traffic: float = 0.0
    longer_path_traffic: float = 0.0
    prepended_traffic: float = 0.0


@dataclass
class Table2Result:
    """Opportunity traffic by (preferred, alternate) relationship pair."""

    rows: Dict[str, Dict[str, Table2Row]]  # metric -> row name -> Table2Row
    total_traffic: float

    def absolute(self, metric: str, row: str) -> float:
        if self.total_traffic <= 0:
            return 0.0
        return self.rows[metric][row].event_traffic / self.total_traffic

    def relative(self, metric: str, row: str) -> float:
        total = sum(r.event_traffic for r in self.rows[metric].values())
        if total <= 0:
            return 0.0
        return self.rows[metric][row].event_traffic / total

    def longer_share(self, metric: str, row: str) -> float:
        cell = self.rows[metric][row]
        if cell.event_traffic <= 0:
            return 0.0
        return cell.longer_path_traffic / cell.event_traffic


def _pair_name(preferred: Relationship, alternate: Relationship) -> str:
    mapping = {
        (Relationship.PRIVATE, Relationship.PRIVATE): "private->private",
        (Relationship.PRIVATE, Relationship.TRANSIT): "private->transit",
        (Relationship.PUBLIC, Relationship.PUBLIC): "public->public",
        (Relationship.PUBLIC, Relationship.TRANSIT): "public->transit",
        (Relationship.TRANSIT, Relationship.TRANSIT): "transit->transit",
    }
    return mapping.get((preferred, alternate), "others")


@traced("pipeline.table2")
def table2_opportunity_relationships(
    dataset: StudyDataset,
    minrtt_threshold: float = 5.0,
    hdratio_threshold: float = 0.05,
) -> Table2Result:
    """Table 2: CI-confirmed opportunity broken down by relationship pair."""
    store = dataset.store
    rows = {
        "minrtt": {name: Table2Row() for name in TABLE2_ROWS},
        "hdratio": {name: Table2Row() for name in TABLE2_ROWS},
    }
    total_traffic = sum(
        aggregation.traffic_bytes
        for aggregation in store.all_aggregations()
        if aggregation.route_rank == 0
    )
    for metric, threshold in (
        ("minrtt", minrtt_threshold),
        ("hdratio", hdratio_threshold),
    ):
        for group, verdicts in dataset.verdicts(metric, "opportunity").items():
            for verdict in verdicts:
                if not verdict.event_at(threshold):
                    continue
                preferred = store.get(group, 0, verdict.window)
                alternate = (
                    store.get(group, verdict.alternate_rank, verdict.window)
                    if verdict.alternate_rank is not None
                    else None
                )
                if (
                    preferred is None
                    or alternate is None
                    or preferred.route is None
                    or alternate.route is None
                ):
                    continue
                name = _pair_name(
                    preferred.route.relationship, alternate.route.relationship
                )
                cell = rows[metric][name]
                cell.event_traffic += verdict.traffic_bytes
                if alternate.route.as_path_length > preferred.route.as_path_length:
                    cell.longer_path_traffic += verdict.traffic_bytes
                if alternate.route.prepended and not preferred.route.prepended:
                    cell.prepended_traffic += verdict.traffic_bytes
    return Table2Result(rows=rows, total_traffic=float(total_traffic))
