#!/usr/bin/env python3
"""Near-real-time route monitoring — §6 applied as each window seals.

Production traffic engineering can't wait for batch analysis: the paper
notes that comparisons must run "in near real-time". This example offers a
live sample stream (one network whose preferred route degrades mid-day) to
:class:`StreamingIngestor`, whose :class:`StreamingRouteMonitor` sink makes
one route decision per sealed hour — the same CI-gated, HD-guarded rule the
batch §6 analysis applies, over the same samples — and shows it flagging
the alternate exactly while the preferred path is impaired. Samples arrive
in generation order, not time order; those within the lateness bound are
decided on, the few beyond it are ledgered and reported.

Run:  python examples/streaming_route_monitor.py
"""

from repro.pipeline import StreamingIngestor
from repro.workload import EdgeScenario, EpisodicOutage, ScenarioConfig


def main() -> None:
    config = ScenarioConfig(
        seed=77,
        days=1,
        base_sessions_per_window=180.0,
        diurnal_fraction=0.0,
        episodic_fraction=0.0,
        continuous_fraction=0.0,
        route_episodic_fraction=0.0,
        mispreferred_fraction=0.0,
    )
    scenario = EdgeScenario(config)
    state = next(
        s
        for s in scenario.networks
        if s.network.continent.code == "EU" and len(s.ranked.routes) >= 2
    )
    # Impair ONLY the preferred route for four afternoon hours: a classic
    # bypassable event (the alternates don't share the failing segment).
    state.route_events = {
        0: [
            EpisodicOutage(
                start_window=13 * 4,
                end_window=17 * 4,
                queue_ms=18.0,
                loss=0.01,
                capacity_factor=0.8,
            )
        ]
    }
    state.dest_events = []
    scenario.networks = [state]

    print(
        f"Streaming one day of AS{state.network.asn} "
        f"({state.network.metro.name}) through the monitor; the preferred "
        f"route is impaired 13:00–17:00 UTC…\n"
    )
    ingestor = StreamingIngestor(study_windows=24, window_seconds=3600.0)
    result = ingestor.offer_all(scenario.generate()).finish()
    decisions = result.decisions

    print("hour  action               MinRTT gain   sessions")
    print("----  -------------------  ------------  --------")
    for decision in decisions:
        hour = decision.window % 24
        gain = (
            f"{decision.minrtt_improvement_ms:+.1f} ms"
            if decision.is_shift_candidate
            else "-"
        )
        print(
            f"{hour:02d}:00  {decision.action:<19}  {gain:<12}  "
            f"{decision.preferred_sessions}"
        )

    flagged = [d for d in decisions if d.is_shift_candidate]
    print(
        f"\n{result.samples_sealed:,} of {result.samples_offered:,} samples "
        f"sealed and decided on; {result.late.count} arrived after their "
        f"window sealed and were ledgered."
    )
    print(
        f"{len(flagged)} of {len(decisions)} windows flagged; the paper's "
        f"§6.2.2 guidance is to hand these to a gradual, capacity-aware "
        f"controller (see examples/routing_opportunity_audit.py and "
        f"repro.edge.detour) rather than shifting all traffic at once."
    )


if __name__ == "__main__":
    main()
