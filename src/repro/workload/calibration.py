"""Calibration validation: the synthetic universe against the paper's anchors.

The synthetic edge is only useful if it keeps matching the published
distribution checkpoints as the code evolves. This module makes the
calibration contract executable: every anchor the paper states (Figures
1–3 workload shape, Figure 6 per-continent performance) is a declarative
:class:`CalibrationTarget` with a tolerance band, and
:func:`run_calibration` scores a generated dataset against all of them.

Used by the test suite as a regression gate and exposed as
``repro calibrate`` for anyone who retunes the workload models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.pipeline.dataset import StudyDataset
from repro.pipeline.experiments import (
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig6_global_performance,
)

__all__ = ["CalibrationTarget", "CalibrationResult", "run_calibration"]


@dataclass(frozen=True)
class CalibrationTarget:
    """One paper anchor with an acceptance band."""

    name: str
    paper_value: float
    low: float
    high: float
    extract: Callable[[dict], Optional[float]]
    section: str = ""

    def check(self, context: dict) -> "CalibrationResult":
        """Score ``context``; a measurement the data lacks (None) fails."""
        measured = self.extract(context)
        return CalibrationResult(
            target=self,
            measured=measured,
            passed=measured is not None and self.low <= measured <= self.high,
        )


@dataclass(frozen=True)
class CalibrationResult:
    target: CalibrationTarget
    measured: Optional[float]
    passed: bool


def _targets() -> List[CalibrationTarget]:
    T = CalibrationTarget
    return [
        # Figure 1(a)
        T("sessions < 1 s", 0.074, 0.03, 0.13,
          lambda c: c["fig1"].under_one_second, "fig1"),
        T("sessions < 60 s", 0.33, 0.24, 0.50,
          lambda c: c["fig1"].under_one_minute, "fig1"),
        T("sessions > 180 s", 0.20, 0.12, 0.40,
          lambda c: c["fig1"].over_three_minutes, "fig1"),
        T("H1 minus H2 share under a minute", 0.18, 0.08, 0.35,
          lambda c: (
              c["fig1"].duration_h1.fraction_at_most(60.0)
              - c["fig1"].duration_h2.fraction_at_most(60.0)
          ), "fig1"),
        # Figure 1(b)
        T("sessions active < 10% of lifetime", 0.78, 0.60, 1.0,
          lambda c: c["fig1"].mostly_idle_fraction, "fig1"),
        # Figure 2
        T("sessions < 10 KB", 0.58, 0.40, 0.70,
          lambda c: c["fig2"].sessions_under_10kb, "fig2"),
        T("sessions > 1 MB", 0.06, 0.01, 0.12,
          lambda c: c["fig2"].sessions_over_1mb, "fig2"),
        T("median response bytes", 5000, 1500, 6000,
          lambda c: c["fig2"].median_response, "fig2"),
        # Figure 3
        T("HTTP/1.1 sessions < 5 txns", 0.87, 0.79, 0.95,
          lambda c: c["fig3"].h1_under_5, "fig3"),
        T("HTTP/2 sessions < 5 txns", 0.75, 0.67, 0.83,
          lambda c: c["fig3"].h2_under_5, "fig3"),
        T("byte share of >=50-txn sessions", 0.5, 0.35, 0.75,
          lambda c: c["fig3"].heavy_session_byte_share, "fig3"),
        # Figure 6 — global
        T("global MinRTT p50 (ms)", 39.0, 28.0, 50.0,
          lambda c: c["fig6"].median_minrtt, "fig6"),
        T("global MinRTT p80 (ms)", 78.0, 55.0, 100.0,
          lambda c: c["fig6"].p80_minrtt, "fig6"),
        T("HD-testable sessions with HDratio > 0", 0.82, 0.74, 0.95,
          lambda c: c["fig6"].hdratio_positive_fraction, "fig6"),
        # Figure 6 — per continent
        T("Africa MinRTT p50 (ms)", 58.0, 45.0, 75.0,
          lambda c: c["fig6"].continent_median_minrtt("AF"), "fig6"),
        T("Asia MinRTT p50 (ms)", 51.0, 38.0, 65.0,
          lambda c: c["fig6"].continent_median_minrtt("AS"), "fig6"),
        T("South America MinRTT p50 (ms)", 40.0, 30.0, 55.0,
          lambda c: c["fig6"].continent_median_minrtt("SA"), "fig6"),
        T("Europe MinRTT p50 (ms)", 25.0, 15.0, 35.0,
          lambda c: c["fig6"].continent_median_minrtt("EU"), "fig6"),
        T("North America MinRTT p50 (ms)", 25.0, 15.0, 35.0,
          lambda c: c["fig6"].continent_median_minrtt("NA"), "fig6"),
        T("Africa HDratio=0 share", 0.36, 0.24, 0.48,
          lambda c: c["fig6"].continent_zero_hd_fraction("AF"), "fig6"),
        T("Asia HDratio=0 share", 0.24, 0.14, 0.36,
          lambda c: c["fig6"].continent_zero_hd_fraction("AS"), "fig6"),
        T("South America HDratio=0 share", 0.27, 0.13, 0.40,
          lambda c: c["fig6"].continent_zero_hd_fraction("SA"), "fig6"),
    ]


def run_calibration(
    dataset: StudyDataset,
    targets: Optional[Sequence[CalibrationTarget]] = None,
) -> List[CalibrationResult]:
    """Score a dataset against all (or given) calibration targets."""
    context = {
        "fig1": fig1_session_behaviour(dataset),
        "fig2": fig2_transfer_sizes(dataset),
        "fig3": fig3_transaction_counts(dataset),
        "fig6": fig6_global_performance(dataset),
    }
    return [target.check(context) for target in (targets or _targets())]


def render_report(results: Sequence[CalibrationResult]) -> str:
    """Human-readable pass/fail table."""
    from repro.pipeline.report import format_metric, format_table

    rows = [
        (
            "PASS" if result.passed else "FAIL",
            result.target.name,
            f"{result.target.paper_value:g}",
            format_metric(result.measured, ".4g"),
            f"[{result.target.low:g}, {result.target.high:g}]",
        )
        for result in results
    ]
    passed = sum(1 for r in results if r.passed)
    return (
        format_table(
            ("", "anchor", "paper", "measured", "accepted band"),
            rows,
            title="Calibration against the paper's published anchors:",
        )
        + f"\n{passed}/{len(results)} anchors within band"
    )
