#!/usr/bin/env python3
"""Performance-aware routing audit — the §6 question on a synthetic edge.

For every user group, compares the BGP policy-preferred route against the
continuously-measured alternates (the paper routes ~47% of sampled sessions
on the preferred path and the rest over the two next-best routes), then
reports where an alternate route is *statistically* better and what kind of
interconnect it uses.

Run:  python examples/routing_opportunity_audit.py  (takes ~a minute)
"""

from repro.pipeline import build_dataset, fig9_opportunity
from repro.pipeline.report import format_percent, format_table
from repro.pipeline.routing_analysis import table2_opportunity_relationships
from repro.workload import EdgeScenario, ScenarioConfig


def main() -> None:
    config = ScenarioConfig(
        seed=31,
        days=1,
        base_sessions_per_window=40.0,
        mispreferred_fraction=0.08,   # make the rare case visible at demo scale
        route_episodic_fraction=0.08,
    )
    scenario = EdgeScenario(config)
    print(
        f"Measuring {len(scenario.networks)} user groups, "
        f"{config.days} day(s), preferred + 2 alternates per group…"
    )
    dataset = build_dataset(
        scenario.generate(),
        study_windows=config.days * 24,
        keep_response_sizes=False,
        window_seconds=3600.0,   # hourly aggregations at demo scale
    )
    print(f"  {dataset.session_count:,} sampled sessions\n")

    result = fig9_opportunity(dataset)
    print("Preferred vs best alternate (traffic-weighted, paper Figure 9):")
    print(
        f"  MinRTT_P50 within 3 ms of optimal: "
        f"{format_percent(result.minrtt_within_of_optimal(3.0))} of traffic "
        f"(paper: 83.9%)"
    )
    print(
        f"  HDratio_P50 within 0.025 of optimal: "
        f"{format_percent(result.hdratio_within_of_optimal(0.025))} "
        f"(paper: 93.4%)"
    )
    print(
        f"  MinRTT_P50 improvable by >=5 ms (CI-gated): "
        f"{format_percent(result.minrtt.traffic_fraction_at_least(5.0, use_ci_low=True))} "
        f"(paper: ~2.0%)"
    )
    print(
        f"  valid comparisons cover "
        f"{format_percent(result.minrtt.valid_traffic_fraction)} of traffic"
    )
    print()

    table2 = table2_opportunity_relationships(dataset)
    rows = []
    for name in (
        "private->private",
        "private->transit",
        "public->public",
        "public->transit",
        "transit->transit",
        "others",
    ):
        rows.append(
            (
                name,
                format_percent(table2.absolute("minrtt", name), digits=3),
                format_percent(table2.relative("minrtt", name)),
                format_percent(table2.longer_share("minrtt", name)),
            )
        )
    print(
        format_table(
            ("preferred->alternate", "abs traffic", "share of opp.", "longer AS-path"),
            rows,
            title="MinRTT opportunity by relationship pair (paper Table 2):",
        )
    )
    print()
    print(
        "Interpretation: as in the paper, the preferred route is already\n"
        "(near-)optimal for most traffic (this demo inflates the rate of\n"
        "mis-preferred route sets so the rare case is visible). What\n"
        "opportunity exists concentrates on alternates the policy\n"
        "deprioritized for topology reasons — same-relationship routes with\n"
        "longer AS paths, and direct IXP routes ranked below a PNI."
    )


if __name__ == "__main__":
    main()
