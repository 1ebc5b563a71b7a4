"""Analysis pipeline: dataset building and per-figure/table drivers.

- :mod:`repro.pipeline.filters` — hosting-provider filtering (§2.2.4);
- :mod:`repro.pipeline.io` — trace serialization: JSONL and the columnar
  store (:mod:`repro.store`), format auto-detected, ``convert`` between;
- :mod:`repro.pipeline.dataset` — single-pass study dataset;
- :mod:`repro.pipeline.ingest` — always-on streaming ingest: watermarked
  incremental windows sealed into the store, analyzed online;
- :mod:`repro.pipeline.streaming` — the seal-time §6 route monitor, a sink
  of the ingestor;
- :mod:`repro.pipeline.experiments` — Figures 1–7 and the naive-goodput
  ablation;
- :mod:`repro.pipeline.routing_analysis` — Figures 8–10, Tables 1–2;
- :mod:`repro.pipeline.parallel` — sharded parallel ingestion,
  bit-identical to the serial pass;
- :mod:`repro.pipeline.report` — text rendering.
"""

from repro.pipeline.dataset import SessionRow, StudyDataset
from repro.pipeline.experiments import (
    CdfSeries,
    ablation_naive_goodput,
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig5_population_mix,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
)
from repro.pipeline.filters import FilterStats
from repro.pipeline.ingest import (
    DegradationAlert,
    IngestResult,
    LateSampleLedger,
    OnlineTemporalAnalyzer,
    StreamingIngestor,
)
from repro.pipeline.io import convert, detect_format, read_samples, write_samples
from repro.pipeline.parallel import (
    DegradedLedger,
    ParallelOptions,
    ShardError,
    build_dataset,
)
from repro.pipeline.streaming import RouteDecision, StreamingRouteMonitor
from repro.pipeline.routing_analysis import (
    fig8_degradation,
    fig9_opportunity,
    fig10_relationship_comparison,
    table1_temporal_classes,
    table2_opportunity_relationships,
)

__all__ = [
    "CdfSeries",
    "DegradationAlert",
    "DegradedLedger",
    "FilterStats",
    "IngestResult",
    "LateSampleLedger",
    "OnlineTemporalAnalyzer",
    "ParallelOptions",
    "ShardError",
    "RouteDecision",
    "SessionRow",
    "StreamingIngestor",
    "StreamingRouteMonitor",
    "StudyDataset",
    "build_dataset",
    "convert",
    "detect_format",
    "read_samples",
    "write_samples",
    "ablation_naive_goodput",
    "fig1_session_behaviour",
    "fig2_transfer_sizes",
    "fig3_transaction_counts",
    "fig5_population_mix",
    "fig6_global_performance",
    "fig7_rtt_vs_hdratio",
    "fig8_degradation",
    "fig9_opportunity",
    "fig10_relationship_comparison",
    "table1_temporal_classes",
    "table2_opportunity_relationships",
]
