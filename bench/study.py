"""The *study*: what a user runs over a trace, as one timed operation.

Two dataset builds — the ``analyze`` profile (fifteen-minute windows,
response sizes kept) and the ``routing`` profile (hourly windows, sizes
dropped, as ``repro routing`` does) — every figure and table driver that
takes a dataset, and a text report rendered through
``repro.pipeline.report``. The report's sha256 is the output every
correctness check compares.

Untraced, the builds go through the program's own ``build_dataset``.
Traced, the same build is spelled out call by call into each layer so the
recorder can time the boundaries; its report must hash the same.
"""

from __future__ import annotations

import hashlib
import inspect
from contextlib import nullcontext
from typing import Dict, NamedTuple, Optional

from repro.core.classification import TemporalClass
from repro.kernels.engine import (
    BatchIngestor,
    batches_from_pairs,
    fold_into_dataset,
)
from repro.pipeline import (
    StudyDataset,
    build_dataset,
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
    fig8_degradation,
    fig9_opportunity,
    fig10_relationship_comparison,
    read_samples,
    table1_temporal_classes,
    table2_opportunity_relationships,
)
from repro.pipeline.io import detect_format
from repro.pipeline.report import format_metric, format_percent, format_table
from repro.pipeline.routing_analysis import (
    DEGRADATION_THRESHOLDS,
    OPPORTUNITY_THRESHOLDS,
    TABLE2_ROWS,
)
from repro.store import TraceStoreReader

from bench.trace import Recorder

# ROADMAP item 3 plans to drop the ``engine`` switch and keep the batch
# kernels as the only runtime path. Until then the study asks for what the
# CLI defaults to; afterwards there is nothing to ask for.
_ENGINE = (
    {"engine": "batch"}
    if "engine" in inspect.signature(build_dataset).parameters
    else {}
)


def profile_kwargs(profile: str, windows: int) -> dict:
    """``StudyDataset`` arguments for ``analyze`` / ``routing`` over a trace
    of ``windows`` fifteen-minute windows."""
    if profile == "analyze":
        return dict(
            study_windows=windows, keep_response_sizes=True,
            window_seconds=900.0,
        )
    if profile == "routing":
        return dict(
            study_windows=max(-(-windows // 4), 1),
            keep_response_sizes=False, window_seconds=3600.0,
        )
    raise ValueError(f"unknown profile {profile!r}")


def build(source, profile: str, windows: int, options=None) -> StudyDataset:
    """The program's own dataset build (CLI-default engine)."""
    return build_dataset(
        source, options=options, **profile_kwargs(profile, windows), **_ENGINE
    )


def build_row_oracle(source, profile: str, windows: int) -> StudyDataset:
    """The reference CONTRIBUTING names: the per-row fold."""
    dataset = StudyDataset(**profile_kwargs(profile, windows))
    return dataset.ingest(read_samples(source, metrics=dataset.metrics))


def build_traced(
    rec: Recorder, source, profile: str, windows: int
) -> StudyDataset:
    """``build_dataset``'s serial batch path, one span per layer call."""
    kwargs = profile_kwargs(profile, windows)
    dataset = StudyDataset(**kwargs)
    ingestor = BatchIngestor(**kwargs)
    if detect_format(source) == "store":
        batches = rec.timed_iter(
            "store.decode_columns",
            TraceStoreReader(source).read_column_batches(
                metrics=ingestor.metrics
            ),
        )
    else:
        with rec.span("io.jsonl_decode"):
            samples = list(read_samples(source, metrics=ingestor.metrics))
        rec.count("io.rows", len(samples))
        batches = rec.timed_iter(
            "kernels.from_pairs", batches_from_pairs(enumerate(samples))
        )
    for batch in batches:
        rec.count("kernels.batches")
        with rec.span("kernels.ingest"):
            ingestor.ingest_batch(batch)
    with rec.span("kernels.fold"):
        fold_into_dataset(dataset, ingestor)
    rec.count("kernels.rows", len(dataset.rows))
    return dataset


ANALYZE_DRIVERS = (
    ("experiments.fig1", "fig1", fig1_session_behaviour),
    ("experiments.fig2", "fig2", fig2_transfer_sizes),
    ("experiments.fig3", "fig3", fig3_transaction_counts),
    ("experiments.fig6", "fig6", fig6_global_performance),
    ("experiments.fig7", "fig7", fig7_rtt_vs_hdratio),
)
ROUTING_DRIVERS = (
    ("routing.fig8", "fig8", fig8_degradation),
    ("routing.fig9", "fig9", fig9_opportunity),
    ("routing.fig10", "fig10", fig10_relationship_comparison),
    ("routing.table1", "table1", table1_temporal_classes),
    ("routing.table2", "table2", table2_opportunity_relationships),
)


def run_drivers(dataset, drivers, rec: Optional[Recorder] = None) -> dict:
    results = {}
    for span_name, key, driver in drivers:
        with rec.span(span_name) if rec else nullcontext():
            results[key] = driver(dataset)
    return results


class StudyOutput(NamedTuple):
    text: str
    #: Counts that show every driver had real work (all must be > 0).
    shape: Dict[str, int]

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def study(
    source, windows: int, rec: Optional[Recorder] = None, build_fn=build
) -> StudyOutput:
    """Run the whole study over ``source``; returns the report.

    With ``rec`` the builds are the spelled-out traced form and every
    driver and the render run under a span; otherwise ``build_fn`` builds
    (the program's ``build_dataset``, or the row oracle).
    """
    def one_build(profile):
        if rec is None:
            return build_fn(source, profile, windows)
        with rec.span(f"op.build_{profile}"):
            return build_traced(rec, source, profile, windows)

    analyze = one_build("analyze")
    results = run_drivers(analyze, ANALYZE_DRIVERS, rec)
    results["sessions"] = analyze.session_count
    # Released before the second build so the two datasets are never
    # resident together: peak RSS is one profile's, as in the CLI.
    del analyze
    routing = one_build("routing")
    results.update(run_drivers(routing, ROUTING_DRIVERS, rec))
    with rec.span("report.render") if rec else nullcontext():
        text = render(results)
    return StudyOutput(text, shape_of(results))


def shape_of(results: Dict[str, object]) -> Dict[str, int]:
    fig1, fig2, fig6 = results["fig1"], results["fig2"], results["fig6"]
    series = [
        fig1.duration_h1, fig1.duration_h2, fig2.response_bytes,
        fig2.media_response_bytes, fig6.minrtt_all, fig6.hdratio_all,
        *results["fig7"].hdratio_by_bucket.values(),
    ]
    return {
        "sessions": results["sessions"],
        "hd_testable_sessions": len(fig6.hdratio_all),
        "smallest_series": min(len(s) for s in series),
        "fig8_valid_comparisons": len(results["fig8"].minrtt.differences),
        "fig9_valid_comparisons": len(results["fig9"].minrtt.differences),
        "fig10_comparisons": sum(
            len(acc.differences) for acc in results["fig10"].by_pair.values()
        ),
    }


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #
def _num(value) -> str:
    return format_metric(value, ".6g")


def _cdf_row(series):
    return (
        series.label, len(series),
        _num(series.quantile(0.1)), _num(series.quantile(0.5)),
        _num(series.quantile(0.9)),
    )


def _cdf_table(title, series_list) -> str:
    return format_table(
        ("series", "n", "p10", "p50", "p90"),
        [_cdf_row(series) for series in series_list],
        title=title,
    )


def _difference_rows(label, acc, thresholds):
    rows = [
        (label, "valid comparisons", len(acc.differences)),
        (label, "valid traffic", format_percent(acc.valid_traffic_fraction, 4)),
    ]
    for threshold in thresholds:
        rows.append((
            label, f">= {threshold:g} (CI low)",
            format_percent(
                acc.traffic_fraction_at_least(threshold, use_ci_low=True), 4
            ),
        ))
        rows.append((
            label, f"<= {threshold:g}",
            format_percent(acc.traffic_fraction_at_most(threshold), 4),
        ))
    return rows


def render_fig6(fig6) -> str:
    return "\n\n".join([
        _cdf_table(
            "fig6 MinRTT (ms)",
            [fig6.minrtt_all] + [
                fig6.minrtt_by_continent[c]
                for c in sorted(fig6.minrtt_by_continent)
            ],
        ),
        _cdf_table(
            "fig6 HDratio",
            [fig6.hdratio_all] + [
                fig6.hdratio_by_continent[c]
                for c in sorted(fig6.hdratio_by_continent)
            ],
        ),
        "fig6 HDratio > 0 "
        + format_percent(fig6.hdratio_positive_fraction, 4)
        + "; == 1 " + format_percent(fig6.hdratio_full_fraction, 4),
    ])


def render(results: Dict[str, object]) -> str:
    """Every number the drivers produced, as fixed-width text."""
    fig1, fig2, fig3 = results["fig1"], results["fig2"], results["fig3"]
    fig6, fig7 = results["fig6"], results["fig7"]
    fig8, fig9, fig10 = results["fig8"], results["fig9"], results["fig10"]
    table1, table2 = results["table1"], results["table2"]
    parts = [f"sessions {results['sessions']}"]
    parts.append(_cdf_table("fig1 session duration / busy fraction", [
        fig1.duration_all, fig1.duration_h1, fig1.duration_h2,
        fig1.busy_all, fig1.busy_h1, fig1.busy_h2,
    ]))
    parts.append(_cdf_table("fig2 bytes", [
        fig2.session_bytes, fig2.response_bytes, fig2.media_response_bytes,
    ]))
    parts.append(_cdf_table("fig3 transactions per session", [
        fig3.count_all, fig3.count_h1, fig3.count_h2,
    ]))
    parts.append(
        "fig3 heavy-session byte share "
        + format_percent(fig3.heavy_session_byte_share, 4)
    )
    parts.append(render_fig6(fig6))
    parts.append(_cdf_table(
        "fig7 HDratio by MinRTT bucket",
        [fig7.hdratio_by_bucket[k] for k in sorted(fig7.hdratio_by_bucket)],
    ))
    for title, result, thresholds in (
        ("fig8 degradation", fig8, DEGRADATION_THRESHOLDS),
        ("fig9 opportunity", fig9, OPPORTUNITY_THRESHOLDS),
    ):
        parts.append(format_table(
            ("metric", "what", "value"),
            _difference_rows("minrtt", result.minrtt, thresholds["minrtt"])
            + _difference_rows("hdratio", result.hdratio, thresholds["hdratio"]),
            title=title,
        ))
    parts.append(format_table(
        ("pair", "n", "median minrtt diff", "n hd", "median hd diff"),
        [
            (
                pair,
                len(acc.differences),
                _num(fig10.median_difference(pair) if acc.differences else None),
                len(fig10.hd_by_pair[pair].differences),
                _num(
                    fig10.median_hd_difference(pair)
                    if fig10.hd_by_pair[pair].differences else None
                ),
            )
            for pair, acc in sorted(fig10.by_pair.items())
        ],
        title="fig10 relationship comparison",
    ))
    rows = []
    for kind, by_metric in sorted(table1.cells.items()):
        for metric, by_threshold in sorted(by_metric.items()):
            for threshold in sorted(by_threshold):
                for temporal_class in TemporalClass:
                    blue, orange = table1.fractions(
                        kind, metric, threshold, temporal_class
                    )
                    rows.append((
                        kind, metric, f"{threshold:g}", temporal_class.value,
                        format_percent(blue, 4), format_percent(orange, 4),
                    ))
    parts.append(format_table(
        ("kind", "metric", "threshold", "class", "traffic", "event traffic"),
        rows, title="table1 temporal classes",
    ))
    parts.append(format_table(
        ("metric", "pair", "absolute", "relative", "longer path"),
        [
            (
                metric, row,
                format_percent(table2.absolute(metric, row), 4),
                format_percent(table2.relative(metric, row), 4),
                format_percent(table2.longer_share(metric, row), 4),
            )
            for metric in ("minrtt", "hdratio")
            for row in TABLE2_ROWS
        ],
        title="table2 opportunity by relationship",
    ))
    return "\n\n".join(parts) + "\n"
