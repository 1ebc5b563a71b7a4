"""The one table: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` is generated from this module (``python -m bench
manifest --write``) and ``bench/tests/test_smoke.py`` checks the committed
file against it, so the names the driver emits and the names the file
declares cannot drift. Later performance and simplicity changes are
accepted or rejected on these names; do not rename them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]
#: Seconds of timed phase per run. With three set-ups, a cold operation
#: and the output checks a run takes 16-20 s on the 2-core reference host,
#: which keeps the driver's 4 + 22 x 6 runs inside its 3420 s budget.
RUN_SECONDS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Input sizes at the reference scale and at ``--smoke`` scale.
    sessions: int
    windows: int
    smoke_sessions: int
    smoke_windows: int


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "analyze_store",
        "24k sessions/96 windows in a columnar store; full study (two "
        "dataset builds, figs 1-3,6-10, tables 1-2): store decode, kernels, "
        "CI statistics and figure drivers work, the JSONL codec does none",
        24_000, 96, 1_500, 16,
    ),
    Workload(
        "analyze_jsonl",
        "10k sessions/32 windows as plain JSONL; convert to a store, then "
        "the same study straight off the JSONL: JSON decode and bulk store "
        "writes dominate, kernels do little; predicts no move on "
        "analyze_store",
        10_000, 32, 800, 8,
    ),
    Workload(
        "analyze_sharded",
        "analyze_store's input built with ParallelOptions(workers=min(nproc,"
        "4), shards=2*workers) + fig6: the only place plan -> ship -> merge "
        "in pipeline.parallel runs",
        24_000, 96, 1_500, 16,
    ),
    Workload(
        "stream_ingest",
        "10k sessions/32 windows offered in arrival order (1% too late) to "
        "StreamingIngestor(out_store=...): watermark bookkeeping plus ~29 "
        "fsynced 12-partition appends, each rewriting the whole manifest",
        10_000, 32, 1_200, 16,
    ),
    Workload(
        "serve_hot",
        "repro serve subprocess over a 5k-session store, max(1,nproc-1) "
        "closed-loop clients, 17-key Zipf dashboard mix, every key warmed: "
        "all cache hits, so HTTP parse + manifest re-read + lock + render",
        5_000, 16, 600, 8,
    ),
    Workload(
        "serve_churn",
        "same server and mix, min(nproc,2) closed-loop clients, rounds of "
        "append_to_store (cache flush) then 250 requests per client: cold "
        "builds under the engine lock set p99, the warm path sets p50",
        5_000, 16, 600, 8,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for item in WORKLOADS:
        if item.name == name:
            return item
    raise KeyError(f"unknown workload {name!r} (have {WORKLOAD_NAMES})")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Every workload emits every one of these on every untraced run.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of three full set-ups: generate, materialise through the "
        "program's writers, start the server if any",
    ),
    EndToEnd(
        "throughput_per_s", "1/s", "higher", 0.25,
        "units of work per second of timed wall (sessions on analyze_* and "
        "stream_ingest, 200 responses on serve_*)",
    ),
    EndToEnd(
        "latency_ms_p50", "ms", "lower", 0.25,
        "median wait for the workload's blocking operation (study, sealing "
        "offer, request)",
    ),
    EndToEnd(
        "latency_ms_tail", "ms", "lower", 0.25,
        "the slow case a user meets: third quartile of the repeats on "
        "analyze_*, seal p90 on stream_ingest, request p90 on serve_hot "
        "and p99 on serve_churn",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.2,
        "peak resident set of the program (child ru_maxrss; server VmHWM)",
    ),
    EndToEnd(
        "store_bytes_per_session", "B/session", "lower", 0.03,
        "(data file + manifest) / sessions of the store the workload reads "
        "or writes; a count, exact for a given seed",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: The end-to-end metric and workload this is expected to move; every
    #: pairing not named is predicted not to move.
    moves: str


def _layer(prefix: str, rows: List[Tuple[str, str, str, str]]) -> List[PerLayer]:
    return [PerLayer(f"{prefix}.{n}", u, b, m) for n, u, b, m in rows]


_TP_STORE = "throughput_per_s on analyze_store"
_TP_JSONL = "throughput_per_s on analyze_jsonl"
_TP_SHARD = "throughput_per_s on analyze_sharded"
_TP_INGEST = "throughput_per_s, latency_ms_p50 on stream_ingest"
_P50_HOT = "latency_ms_p50, throughput_per_s on serve_hot"
_P99_CHURN = "latency_ms_tail, throughput_per_s on serve_churn"
_FIGS = _TP_STORE + "; " + _TP_JSONL

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layer("io", [
        ("jsonl_decode_s", "s", "lower", _TP_JSONL),
        ("jsonl_decode_ideal_s", "s", "lower", "nothing: json.loads alone, the reference"),
        ("jsonl_decode_vs_ideal", "ratio", "lower", _TP_JSONL),
        ("jsonl_encode_s", "s", "lower", "setup_s on analyze_jsonl, stream_ingest"),
        ("jsonl_bytes_per_session", "B/session", "lower", _TP_JSONL),
        ("plan_chunks_s", "s", "lower", _TP_SHARD),
    ])
    + _layer("store", [
        ("write_s", "s", "lower", _TP_JSONL + "; setup_s on analyze_store"),
        ("append_ms_p50", "ms", "lower", _TP_INGEST),
        ("append_ms_growth", "ratio", "lower", "latency_ms_tail on stream_ingest"),
        ("open_ms", "ms", "lower", _P50_HOT),
        ("decode_columns_s", "s", "lower", _TP_STORE),
        ("decode_rows_s", "s", "lower", _P99_CHURN),
        ("decode_mb_per_s", "MB/s", "higher", _TP_STORE),
        ("pruned_bytes_fraction", "fraction", "higher", _P99_CHURN),
        ("partitions", "count", "lower", "store_bytes_per_session everywhere"),
        ("blocks_verified", "count", "higher", "nothing: integrity work done"),
    ])
    + _layer("kernels", [
        ("ingest_s", "s", "lower", _TP_STORE),
        ("fold_s", "s", "lower", _TP_STORE),
        ("from_pairs_s", "s", "lower", _TP_JSONL),
    ])
    + _layer("pipeline", [
        ("build_analyze_s", "s", "lower", _TP_STORE),
        ("build_routing_s", "s", "lower", _TP_STORE),
        ("build_unattributed_fraction", "fraction", "lower", _TP_STORE),
        ("row_fold_s", "s", "lower", _P99_CHURN + "; " + _TP_INGEST),
    ])
    + _layer("parallel", [
        ("sharded_build_s", "s", "lower", _TP_SHARD),
        ("serial_build_s", "s", "lower", _TP_SHARD),
        ("speedup", "ratio", "higher", _TP_SHARD),
        ("shards", "count", "lower", "nothing: the plan"),
        ("workers", "count", "higher", "nothing: the plan"),
    ])
    + _layer("stats", [
        ("tdigest_fold_s", "s", "lower", "throughput_per_s on all analyze_* and stream_ingest"),
        ("tdigest_merge_s", "s", "lower", "throughput_per_s on all analyze_* and stream_ingest"),
        ("compare_medians_us", "us", "lower", _FIGS),
    ])
    + _layer("core", [
        ("aggregations", "count", "lower", "nothing: input shape"),
        ("groups", "count", "lower", "nothing: input shape"),
        ("gtestable_fraction", "fraction", "higher", "nothing: input shape"),
    ])
    + _layer("experiments", [
        (f"fig{n}_s", "s", "lower", _FIGS) for n in (1, 2, 3, 6, 7)
    ])
    + _layer("routing", [
        ("fig8_s", "s", "lower", _FIGS + "; " + _P99_CHURN),
        ("fig9_s", "s", "lower", _FIGS + "; " + _P99_CHURN),
        ("fig10_s", "s", "lower", _FIGS),
        ("table1_s", "s", "lower", _FIGS),
        ("table2_s", "s", "lower", _FIGS),
    ])
    + _layer("report", [("render_s", "s", "lower", _FIGS)])
    + _layer("ingest", [
        ("offer_us_p50", "us", "lower", _TP_INGEST),
        ("seal_share", "fraction", "lower", _TP_INGEST),
        ("seal_ms_p95", "ms", "lower", "latency_ms_tail on stream_ingest"),
        ("memory_sessions_per_s", "sessions/s", "higher", "throughput_per_s on stream_ingest (bookkeeping without the store)"),
        ("finish_ms", "ms", "lower", _TP_INGEST),
        ("windows_sealed", "count", "higher", "nothing: input shape"),
        ("late_fraction", "fraction", "lower", "nothing: input shape"),
    ])
    + _layer("serve", [
        ("engine_warm_ms_p50", "ms", "lower", _P50_HOT),
        ("engine_cold_ms.quantiles", "ms", "lower", _P99_CHURN),
        ("engine_cold_ms.quantiles_filtered", "ms", "lower", _P99_CHURN),
        ("engine_cold_ms.degradation", "ms", "lower", _P99_CHURN),
        ("engine_cold_ms.routing", "ms", "lower", _P99_CHURN),
        ("render_ms_p50", "ms", "lower", _P50_HOT),
        ("http_overhead_ms_p50", "ms", "lower", _P50_HOT),
        ("http_noop_ideal_ms_p50", "ms", "lower", "nothing: a no-op handler, the reference"),
        ("cache_hit_ratio", "fraction", "higher", _P99_CHURN),
        ("cache_evictions", "count", "lower", _P99_CHURN),
        ("cold_builds", "count", "lower", _P99_CHURN),
        ("health_during_cold_ms_p50", "ms", "lower", _P99_CHURN),
        ("fresh_ms_p50", "ms", "lower", _P99_CHURN),
        ("startup_s", "s", "lower", "setup_s on serve_hot, serve_churn"),
    ])
    + _layer("obs", [
        ("trace_overhead_fraction", "fraction", "lower", "nothing: cost of the benchmark's own spans"),
        ("program_tracer_overhead_fraction", "fraction", "lower", "nothing today: the obs-on/obs-off row ROADMAP 5 budgets"),
    ])
    + _layer("loadgen", [
        ("generate_sessions_per_s", "sessions/s", "higher", "setup_s everywhere"),
        ("cpu_fraction", "fraction", "lower", "nothing: the generator must not be the bottleneck"),
    ])
    + _layer("op", [
        (f"share.{layer}", "fraction", "lower", f"share of the workload's own traced operation spent in {layer}")
        for layer in (
            "io", "store", "kernels", "parallel", "experiments", "routing",
            "report", "ingest", "serve", "unattributed",
        )
    ])
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BOUNDS: Dict[str, float] = {m.name: m.bound for m in END_TO_END}
BETTER: Dict[str, str] = {m.name: m.better for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
