#!/usr/bin/env python3
"""Global performance snapshot — the §4 analysis on a synthetic edge.

Generates a few hours of sampled traffic across all PoPs and prints the
per-continent MinRTT / HDratio report the paper's Figure 6 plots: median
and p80 MinRTT per continent, the share of sessions that can stream HD
video, and the share stuck at HDratio = 0.

Run:  python examples/global_performance_report.py  (takes ~half a minute)
"""

import dataclasses

from repro.pipeline import (
    build_dataset,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
)
from repro.pipeline.report import format_metric, format_percent, format_table
from repro.workload import EdgeScenario, ScenarioConfig

CONTINENT_NAMES = {
    "AF": "Africa",
    "AS": "Asia",
    "EU": "Europe",
    "NA": "North America",
    "OC": "Oceania",
    "SA": "South America",
}


def main() -> None:
    # Several networks per metro so per-continent medians average over the
    # networks' (random) dominant access technologies.
    config = dataclasses.replace(
        ScenarioConfig.snapshot(seed=20),
        networks_per_metro=3,
        base_sessions_per_window=5.0,
    )
    scenario = EdgeScenario(config)
    print(f"Generating {config.days}-day snapshot across {len(scenario.pops)} PoPs…")
    dataset = build_dataset(
        scenario.generate(), study_windows=config.total_windows
    )
    print(
        f"  {dataset.session_count:,} sampled sessions "
        f"({format_percent(dataset.filter_stats.dropped_traffic_fraction)} of "
        f"traffic filtered as hosting providers)\n"
    )

    result = fig6_global_performance(dataset)
    rows = []
    for code in ("AF", "AS", "SA", "EU", "NA", "OC"):
        if code not in result.minrtt_by_continent:
            continue
        rtt = result.minrtt_by_continent[code]
        hd = result.hdratio_by_continent[code]
        rows.append(
            (
                CONTINENT_NAMES[code],
                f"{rtt.quantile(0.5):.0f} ms",
                f"{rtt.quantile(0.8):.0f} ms",
                format_percent(1 - hd.fraction_at_most(0.0)),
                format_percent(hd.fraction_at_most(0.0)),
            )
        )
    print(
        format_table(
            ("continent", "MinRTT p50", "MinRTT p80", "HDratio > 0", "HDratio = 0"),
            rows,
            title="Per-continent performance (paper Figure 6):",
        )
    )
    print()
    print(
        f"Global: median MinRTT {result.median_minrtt:.0f} ms "
        f"(paper: <39 ms), p80 {result.p80_minrtt:.0f} ms (paper: <78 ms); "
        f"{format_percent(result.hdratio_positive_fraction)} of HD-testable "
        f"sessions achieve HD goodput at least once (paper: >82%)."
    )

    print()
    buckets = fig7_rtt_vs_hdratio(dataset)
    rows = [
        (
            label,
            format_metric(series.quantile(0.5), ".2f"),
            format_percent(series.fraction_above(0.0)),
        )
        for label, series in buckets.hdratio_by_bucket.items()
    ]
    print(
        format_table(
            ("MinRTT bucket (ms)", "median HDratio", "HDratio > 0"),
            rows,
            title="HDratio by latency bucket (paper Figure 7):",
        )
    )


if __name__ == "__main__":
    main()
