#!/usr/bin/env python3
"""Temporal degradation monitoring — the §5 pipeline on one user group.

Injects a known evening-congestion event into one network, runs the
measurement pipeline, and shows how the paper's machinery surfaces it:
per-window MinRTT_P50 against the group baseline, CI-gated degradation
verdicts, and the temporal-behaviour classification (diurnal, in this
case).

Run:  python examples/degradation_monitor.py
"""

import dataclasses

from repro.core.classification import classify_group
from repro.core.comparison import compute_baseline
from repro.pipeline import build_dataset
from repro.pipeline.report import format_table
from repro.workload import DiurnalCongestion, EdgeScenario, ScenarioConfig


def main() -> None:
    config = ScenarioConfig(
        seed=47,
        days=6,
        base_sessions_per_window=110.0,
        # Turn off random events; we inject one deterministically below.
        diurnal_fraction=0.0,
        episodic_fraction=0.0,
        continuous_fraction=0.0,
        route_episodic_fraction=0.0,
        mispreferred_fraction=0.0,
    )
    scenario = EdgeScenario(config)
    # Keep a single European network and give it evening congestion.
    state = next(
        s for s in scenario.networks if s.network.continent.code == "EU"
    )
    state.dest_events = [
        DiurnalCongestion(
            longitude_deg=state.network.metro.location.longitude,
            peak_queue_ms=18.0,
            peak_loss=0.02,
            peak_capacity_factor=0.05,
        )
    ]
    scenario.networks = [state]
    print(
        f"Monitoring AS{state.network.asn} ({state.network.metro.name}) via "
        f"{state.pop.name} for {config.days} days with injected evening "
        f"congestion…"
    )

    dataset = build_dataset(
        scenario.generate(),
        study_windows=config.days * 24,
        keep_response_sizes=False,
        window_seconds=3600.0,
    )
    print(f"  {dataset.session_count:,} sampled sessions\n")

    group = dataset.store.groups()[0]
    series = dataset.store.group_series(group, route_rank=0)
    baseline = compute_baseline(series)
    print(
        f"Baseline (best sustained performance): "
        f"MinRTT_P50 {baseline.minrtt_p50_ms:.1f} ms, "
        f"HDratio_P50 {baseline.hdratio_p50:.2f}\n"
    )

    verdicts = dataset.verdicts("minrtt", "degradation")[group]
    rows = []
    for verdict in verdicts:
        if verdict.window % 3 != 0:
            continue
        hour = (verdict.window % 24)
        flag = "DEGRADED" if verdict.event_at(5.0) else ""
        if not verdict.valid:
            flag = "(thin/wide-CI)"
        rows.append(
            (
                f"day {verdict.window // 24} {hour:02d}:00",
                f"{verdict.difference:+.1f} ms"
                if verdict.difference == verdict.difference
                else "n/a",
                f"[{verdict.ci_low:+.1f}, {verdict.ci_high:+.1f}]"
                if verdict.valid
                else "-",
                flag,
            )
        )
    print(
        format_table(
            ("window", "Δ vs baseline", "95% CI", ""),
            rows[:30],
            title="MinRTT_P50 degradation verdicts (every 3rd hour shown):",
        )
    )

    classification = classify_group(
        verdicts,
        threshold=5.0,
        study_windows=dataset.study_windows,
        windows_per_day=dataset.windows_per_day,
    )
    print()
    print(
        f"Temporal class at the 5 ms threshold: "
        f"{classification.temporal_class.value.upper()} "
        f"({classification.event_windows}/{classification.valid_windows} valid "
        f"windows degraded; recurring at fixed evening hours on 5+ days)"
    )


if __name__ == "__main__":
    main()
