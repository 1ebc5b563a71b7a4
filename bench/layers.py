"""The traced pass: per-layer numbers, measured from outside.

Two parts, both recorded by :class:`bench.trace.Recorder` around public
calls into each layer — nothing inside the program is switched on:

1. the workload's own operation once more, spelled out into its layer
   calls under an ``op`` span; the self time per layer gives the
   ``op.share.*`` metrics and, against an untraced run of the same
   operation in the same process, ``obs.trace_overhead_fraction``;
2. the *layer probes*: every layer's public entry points timed on the
   probe slice — the leading windows of this workload's input, at most
   ``PROBE_SESSIONS`` sessions — so every per-layer metric exists on
   every workload at a comparable size.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import shutil
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List
from urllib.parse import parse_qs, urlsplit

from repro.core.aggregation import window_index
from repro.kernels.engine import (
    BatchIngestor,
    batches_from_pairs,
    fold_into_dataset,
)
from repro.obs import MetricsRegistry, Tracer, activate_metrics, activate_tracer
from repro.pipeline import (
    StreamingIngestor,
    StudyDataset,
    convert,
    read_samples,
    write_samples,
)
from repro.pipeline.io import plan_chunks
from repro.serve import make_server
from repro.serve.engine import QueryEngine
from repro.serve.server import render_payload
from repro.stats.median_ci import compare_medians
from repro.stats.tdigest import TDigest
from repro.store import (
    ScanFilter,
    TraceStoreReader,
    append_to_store,
    write_store,
)

from bench import gen, study
from bench import workloads as wl
from bench.calibrate import Drift
from bench.metrics import PER_LAYER_NAMES
from bench.trace import Recorder

PROBE_SESSIONS = 6_000
HELD_OUT_WINDOWS = 4
WARM_REQUESTS = 300
TRACED_REQUESTS = 300
OVERHEAD_PAIRS = 3
SHARE_LAYERS = (
    "io", "store", "kernels", "parallel", "experiments", "routing",
    "report", "ingest", "serve", "unattributed",
)


def probe_slice(samples, windows: int):
    """Leading whole windows of ``samples`` (end-time ordered) holding at
    most ``PROBE_SESSIONS`` sessions, but at least ``2 * HELD_OUT_WINDOWS``
    windows; returns ``(slice, windows in it)``."""
    by_window: Dict[int, int] = {}
    for sample in samples:
        index = window_index(sample.end_time)
        by_window[index] = by_window.get(index, 0) + 1
    taken = kept = 0
    for index in sorted(by_window):
        if kept >= 2 * HELD_OUT_WINDOWS and taken + by_window[index] > PROBE_SESSIONS:
            break
        taken += by_window[index]
        kept += 1
    last = sorted(by_window)[kept - 1]
    return [s for s in samples if window_index(s.end_time) <= last], last + 1


def _median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1000.0


def _split(path: str):
    parts = urlsplit(path)
    return parts.path, parse_qs(parts.query, keep_blank_values=True)


# --------------------------------------------------------------------- #
# Part 1: the workload's own operation, traced
# --------------------------------------------------------------------- #
def _traced_vs_untraced(rec: Recorder, untraced, traced) -> float:
    """Warm up, then alternate ``untraced`` and ``traced`` (under an ``op``
    span) ``OVERHEAD_PAIRS`` times; both return a comparable output.
    Returns the overhead from the medians of the drift-normalised times
    (:mod:`bench.calibrate`): one pair alone reads anywhere within +-25%
    on the reference host."""
    def under_op_span():
        with rec.span("op"):
            return traced()

    untraced()
    plain: List[float] = []
    with_spans: List[float] = []
    with Drift() as drift:
        for _ in range(OVERHEAD_PAIRS):
            gc.collect()
            _, seconds, expected = drift.time(untraced)
            plain.append(seconds)
            gc.collect()
            _, seconds, got = drift.time(under_op_span)
            with_spans.append(seconds)
            if got != expected:
                raise AssertionError(
                    "traced operation's output differs from untraced"
                )
    return statistics.median(with_spans) / statistics.median(plain) - 1.0


def op_analyze_store(rec: Recorder, work, plan) -> float:
    source, windows = work / "input.store", plan["windows"]
    return _traced_vs_untraced(
        rec,
        lambda: study.study(source, windows).digest,
        lambda: study.study(source, windows, rec=rec).digest,
    )


def op_analyze_jsonl(rec: Recorder, work, plan) -> float:
    source, windows = work / "input.jsonl", plan["windows"]
    converted = work / "converted.store"

    def untraced():
        shutil.rmtree(converted, ignore_errors=True)
        convert(source, converted)
        return study.study(source, windows).digest

    def traced():
        shutil.rmtree(converted, ignore_errors=True)
        with rec.span("io.jsonl_decode"):
            samples = list(read_samples(source))
        with rec.span("store.write"):
            write_store(converted, samples)
        del samples
        return study.study(source, windows, rec=rec).digest

    return _traced_vs_untraced(rec, untraced, traced)


def op_analyze_sharded(rec: Recorder, work, plan) -> float:
    source, windows = work / "input.store", plan["windows"]
    options = wl.sharded_options()

    def untraced():
        return wl.fig6_text(study.build(source, "analyze", windows, options))

    def traced():
        with rec.span("io.plan_chunks"):
            chunks = plan_chunks(source, options.effective_shards)
        rec.count("parallel.chunks", len(chunks))
        # Plan, ship and merge are private to build_dataset; from outside
        # they are one span.
        with rec.span("parallel.build"):
            dataset = study.build(source, "analyze", windows, options)
        with rec.span("experiments.fig6"):
            return wl.fig6_text(dataset)

    return _traced_vs_untraced(rec, untraced, traced)


def op_stream_ingest(rec: Recorder, work, plan) -> float:
    windows = plan["windows"]
    stream = list(read_samples(work / "stream.jsonl"))
    sealed = work / "sealed.store"

    def untraced():
        shutil.rmtree(sealed, ignore_errors=True)
        run = wl.offer_stream(
            StreamingIngestor(study_windows=windows, out_store=sealed), stream
        )
        return run["result"].samples_sealed

    def traced():
        shutil.rmtree(sealed, ignore_errors=True)
        ingestor = StreamingIngestor(study_windows=windows, out_store=sealed)
        clock = time.perf_counter
        for sample in stream:
            before = ingestor.windows_sealed
            start = clock()
            ingestor.offer(sample)
            end = clock()
            # A sealing offer folds the window and appends it to the
            # store; the two cannot be told apart from outside.
            rec.record(
                "ingest.seal" if ingestor.windows_sealed != before
                else "ingest.offer",
                start, end,
            )
        with rec.span("ingest.finish"):
            result = ingestor.finish()
        rec.count("ingest.windows_sealed", result.windows_sealed)
        return result.samples_sealed

    return _traced_vs_untraced(rec, untraced, traced)


def op_serve(rec: Recorder, work, plan) -> float:
    """One closed-loop client issuing a fixed stretch of the schedule, with
    and without a span per request, every key warmed first."""
    schedule = wl.zipf_schedule(plan["seed"], plan["keys"], 0, TRACED_REQUESTS)
    client = wl.Client(plan["port"])

    def wrong_responses() -> int:
        return client.not_ok + client.body_mismatches

    def untraced():
        for key in schedule:
            client.get(key)
        return wrong_responses()

    def traced():
        for key in schedule:
            start = time.perf_counter()
            client.get(key)
            rec.record("serve.request", start, time.perf_counter())
        return wrong_responses()

    try:
        for key in plan["keys"]:
            client.get(key)
        overhead = _traced_vs_untraced(rec, untraced, traced)
    finally:
        client.close()
    if wrong_responses():
        raise AssertionError("traced serve loop saw a wrong response")
    rec.count("serve.requests", len(rec.durations("serve.request")))
    return overhead


OPS = {
    "analyze_store": op_analyze_store,
    "analyze_jsonl": op_analyze_jsonl,
    "analyze_sharded": op_analyze_sharded,
    "stream_ingest": op_stream_ingest,
    "serve_hot": op_serve,
    "serve_churn": op_serve,
}


# --------------------------------------------------------------------- #
# Part 2: layer probes on the probe slice
# --------------------------------------------------------------------- #
class _NoopHandler(BaseHTTPRequestHandler):
    """The reference for HTTP cost: same server class, no engine."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        body = b"{}\n"
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass


class ServerThread:
    """``with ServerThread(server):`` serves on a thread, then shuts down."""

    def __init__(self, server) -> None:
        self.server = server
        self.thread = threading.Thread(target=server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self.server

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


def probe_layers(rec: Recorder, work: pathlib.Path, plan: dict) -> Dict[str, float]:
    m: Dict[str, float] = {}
    seed, windows = plan["seed"], plan["probe_windows"]
    probe = work / "probe.jsonl"

    # ---- pipeline.io ------------------------------------------------ #
    with rec.span("io.jsonl_decode"):
        samples = list(read_samples(probe))
    with rec.span("io.jsonl_decode_ideal"):
        with open(probe, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)
    with rec.span("io.jsonl_encode"):
        write_samples(work / "probe_copy.jsonl", samples)
    sessions = len(samples)
    rec.count("probe.sessions", sessions)
    m["io.jsonl_decode_s"] = rec.total("io.jsonl_decode")
    m["io.jsonl_decode_ideal_s"] = rec.total("io.jsonl_decode_ideal")
    m["io.jsonl_decode_vs_ideal"] = (
        m["io.jsonl_decode_s"] / m["io.jsonl_decode_ideal_s"]
    )
    m["io.jsonl_encode_s"] = rec.total("io.jsonl_encode")
    m["io.jsonl_bytes_per_session"] = os.path.getsize(probe) / sessions

    # ---- store ------------------------------------------------------ #
    store = work / "probe.store"
    with rec.span("store.write"):
        write_store(store, samples)
    m["store.write_s"] = rec.total("store.write")
    by_window: Dict[int, list] = {}
    for sample in samples:
        by_window.setdefault(window_index(sample.end_time), []).append(sample)
    appended = work / "probe_appended.store"
    for index in sorted(by_window):
        with rec.span("store.append"):
            append_to_store(appended, by_window[index])
    appends = rec.durations("store.append")
    tenth = max(len(appends) // 10, 1)
    m["store.append_ms_p50"] = _median_ms(appends)
    m["store.append_ms_growth"] = (
        statistics.fmean(appends[-tenth:]) / statistics.fmean(appends[1:tenth + 1])
    )
    for _ in range(20):
        with rec.span("store.open"):
            reader = TraceStoreReader(store)
    m["store.open_ms"] = _median_ms(rec.durations("store.open"))
    decoded = MetricsRegistry()
    with rec.span("store.decode_columns"):
        batches = list(reader.read_column_batches(metrics=decoded))
    with rec.span("store.decode_rows"):
        for _ in reader.scan():
            pass
    m["store.decode_columns_s"] = rec.total("store.decode_columns")
    m["store.decode_rows_s"] = rec.total("store.decode_rows")
    m["store.decode_mb_per_s"] = (
        decoded.counter("store.bytes.read") / 1e6 / m["store.decode_columns_s"]
    )
    pruned = MetricsRegistry()
    hot_pop = gen.Universe(seed).busiest().pop
    for _ in reader.scan(ScanFilter(pops=hot_pop), metrics=pruned):
        pass
    skipped = pruned.counter("store.bytes.skipped")
    m["store.pruned_bytes_fraction"] = skipped / (
        skipped + pruned.counter("store.bytes.read")
    )
    m["store.partitions"] = len(reader.partitions)
    m["store.blocks_verified"] = decoded.counter("store.blocks.verified")
    with rec.span("io.plan_chunks"):
        plan_chunks(store, wl.sharded_options().effective_shards)
    m["io.plan_chunks_s"] = rec.total("io.plan_chunks")

    # ---- kernels ---------------------------------------------------- #
    kwargs = study.profile_kwargs("analyze", windows)
    ingestor = BatchIngestor(**kwargs)
    with rec.span("kernels.ingest"):
        for batch in batches:
            ingestor.ingest_batch(batch)
    with rec.span("kernels.fold"):
        fold_into_dataset(StudyDataset(**kwargs), ingestor)
    with rec.span("kernels.from_pairs"):
        for _ in batches_from_pairs(enumerate(samples)):
            pass
    del batches, ingestor
    m["kernels.ingest_s"] = rec.total("kernels.ingest")
    m["kernels.fold_s"] = rec.total("kernels.fold")
    m["kernels.from_pairs_s"] = rec.total("kernels.from_pairs")

    # ---- pipeline.dataset / pipeline.parallel ----------------------- #
    with rec.span("pipeline.build_analyze"):
        analyze = study.build(store, "analyze", windows)
    with rec.span("pipeline.build_routing"):
        routing = study.build(store, "routing", windows)
    with rec.span("pipeline.row_fold"):
        StudyDataset(**kwargs).ingest(samples)
    m["pipeline.build_analyze_s"] = rec.total("pipeline.build_analyze")
    m["pipeline.build_routing_s"] = rec.total("pipeline.build_routing")
    m["pipeline.build_unattributed_fraction"] = 1.0 - (
        m["store.decode_columns_s"] + m["kernels.ingest_s"] + m["kernels.fold_s"]
    ) / m["pipeline.build_analyze_s"]
    m["pipeline.row_fold_s"] = rec.total("pipeline.row_fold")
    options = wl.sharded_options()
    with rec.span("parallel.sharded_build"):
        study.build(store, "analyze", windows, options)
    with rec.span("parallel.serial_build"):
        study.build(store, "analyze", windows)
    m["parallel.sharded_build_s"] = rec.total("parallel.sharded_build")
    m["parallel.serial_build_s"] = rec.total("parallel.serial_build")
    m["parallel.speedup"] = (
        m["parallel.serial_build_s"] / m["parallel.sharded_build_s"]
    )
    m["parallel.shards"] = options.effective_shards
    m["parallel.workers"] = options.workers

    # ---- stats / core ----------------------------------------------- #
    rtts = [sample.min_rtt_ms for sample in samples]
    with rec.span("stats.tdigest_fold"):
        TDigest.of(rtts).quantile(0.5)
    parts = [TDigest.of(rtts[i:i + 500]) for i in range(0, len(rtts), 500)]
    with rec.span("stats.tdigest_merge"):
        merged = TDigest()
        for part in parts:
            merged.merge(part)
        merged.quantile(0.5)
    biggest = sorted(
        routing.store.all_aggregations(), key=lambda a: -len(a.min_rtts_ms)
    )[:2]
    with rec.span("stats.compare_medians"):
        for _ in range(200):
            compare_medians(biggest[0].min_rtts_ms, biggest[1].min_rtts_ms)
    m["stats.tdigest_fold_s"] = rec.total("stats.tdigest_fold")
    m["stats.tdigest_merge_s"] = rec.total("stats.tdigest_merge")
    m["stats.compare_medians_us"] = rec.total("stats.compare_medians") / 200 * 1e6
    m["core.aggregations"] = len(analyze.store)
    m["core.groups"] = len(analyze.store.groups())
    m["core.gtestable_fraction"] = (
        analyze.metrics.counter("methodology.transactions.gtestable")
        / analyze.metrics.counter("methodology.transactions.raw")
    )

    # ---- experiments / routing_analysis / report -------------------- #
    results = study.run_drivers(analyze, study.ANALYZE_DRIVERS, rec)
    results["sessions"] = analyze.session_count
    results.update(study.run_drivers(routing, study.ROUTING_DRIVERS, rec))
    with rec.span("report.render"):
        study.render(results)
    for span_name, _, _ in study.ANALYZE_DRIVERS + study.ROUTING_DRIVERS:
        m[span_name + "_s"] = rec.total(span_name)
    m["report.render_s"] = rec.total("report.render")
    del analyze, routing, results

    # ---- pipeline.ingest -------------------------------------------- #
    stream = gen.arrival_order(seed, samples)
    run = wl.offer_stream(
        StreamingIngestor(
            study_windows=windows, out_store=work / "probe_sealed.store"
        ),
        stream,
    )
    result = run["result"]
    m["ingest.offer_us_p50"] = statistics.median(run["plain"]) * 1e6
    m["ingest.seal_share"] = sum(run["sealing"]) / run["wall_s"]
    m["ingest.seal_ms_p95"] = wl.percentile(run["sealing"], 0.95) * 1000.0
    m["ingest.finish_ms"] = run["finish_s"] * 1000.0
    m["ingest.windows_sealed"] = result.windows_sealed
    m["ingest.late_fraction"] = result.late.count / result.samples_offered
    in_memory = wl.offer_stream(StreamingIngestor(study_windows=windows), stream)
    m["ingest.memory_sessions_per_s"] = (
        in_memory["result"].samples_sealed / in_memory["wall_s"]
    )
    del run, result, in_memory, stream

    # ---- serve ------------------------------------------------------ #
    m.update(probe_serve(rec, work, plan, by_window))

    # ---- obs -------------------------------------------------------- #
    def observed_study():
        with activate_metrics(MetricsRegistry()), activate_tracer(Tracer()):
            study.study(store, windows)

    def timed_study(drift: Drift, observed: bool) -> float:
        gc.collect()
        return drift.time(
            observed_study if observed else lambda: study.study(store, windows)
        )[1]

    with Drift() as drift:
        pairs = [
            (timed_study(drift, False), timed_study(drift, True))
            for _ in range(3)
        ]
    m["obs.program_tracer_overhead_fraction"] = (
        statistics.median(on for _, on in pairs)
        / statistics.median(off for off, _ in pairs) - 1.0
    )
    return m


def probe_serve(rec: Recorder, work, plan, by_window) -> Dict[str, float]:
    """In-process engine and HTTP probes over the slice minus its last
    ``HELD_OUT_WINDOWS`` windows, which are then appended one by one."""
    m: Dict[str, float] = {}
    keys = wl.dashboard_keys(plan["seed"])
    schedule = wl.zipf_schedule(plan["seed"], keys, 0, WARM_REQUESTS)
    order = sorted(by_window)
    base = [s for index in order[:-HELD_OUT_WINDOWS] for s in by_window[index]]
    held_out = [by_window[index] for index in order[-HELD_OUT_WINDOWS:]]
    store = work / "probe_served.store"
    write_store(store, base)

    engine = QueryEngine(store)
    filtered = next(key for key in keys if "pop=" in key and "country=" in key)
    for name, key in (
        ("quantiles", "/v1/quantiles"),
        ("quantiles_filtered", filtered),
        ("degradation", "/v1/degradation"),
        ("routing", "/v1/routing"),
    ):
        with rec.span("serve.engine_cold." + name):
            status, _ = engine.handle(*_split(key))
        if status != 200:
            raise AssertionError(f"{key} answered {status}")
        m["serve.engine_cold_ms." + name] = (
            rec.total("serve.engine_cold." + name) * 1000.0
        )
    payloads = {key: engine.handle(*_split(key))[1] for key in keys}
    for key in schedule:
        with rec.span("serve.engine_warm"):
            engine.handle(*_split(key))
        with rec.span("serve.render"):
            render_payload(payloads[key])
    m["serve.engine_warm_ms_p50"] = _median_ms(rec.durations("serve.engine_warm"))
    m["serve.render_ms_p50"] = _median_ms(rec.durations("serve.render"))
    del engine, payloads

    with ServerThread(
        ThreadingHTTPServer(("127.0.0.1", 0), _NoopHandler)
    ) as noop:
        client = wl.Client(noop.server_address[1])
        for key in schedule:
            client.get(key)
        m["serve.http_noop_ideal_ms_p50"] = _median_ms(client.latencies)
        client.close()

    with ServerThread(make_server(store, port=0)) as server:
        port = server.server_address[1]
        client = wl.Client(port)
        for key in keys:
            client.get(key)
        client.latencies.clear()
        client.starts.clear()
        wall_start, cpu_start = time.perf_counter(), time.thread_time()
        for key in schedule:
            client.get(key)
        m["loadgen.cpu_fraction"] = (time.thread_time() - cpu_start) / (
            time.perf_counter() - wall_start
        )
        m["serve.http_overhead_ms_p50"] = (
            _median_ms(client.latencies)
            - m["serve.engine_warm_ms_p50"] - m["serve.render_ms_p50"]
        )
        # /v1/health reports counters, so its body differs call to call;
        # it gets a connection whose bodies are not compared.
        prober = wl.Client(port)
        fresh: List[float] = []
        # The server counts what the hosting filter keeps.
        expected = sum(not s.client_ip_is_hosting for s in base)
        for extra in held_out:
            client.new_generation()
            append_to_store(store, extra)
            expected += sum(not s.client_ip_is_hosting for s in extra)
            appended_at = time.perf_counter()
            while json.loads(client.get("/v1/quantiles")).get("sessions") != expected:
                if time.perf_counter() - appended_at > 30:
                    raise AssertionError("server never showed the appended window")
            fresh.append(time.perf_counter() - appended_at)
            # /v1/health while another connection's cold /v1/routing
            # build holds the engine lock.
            other = wl.Client(port)
            cold = threading.Thread(target=other.get, args=("/v1/routing",))
            cold.start()
            time.sleep(0.002)
            while cold.is_alive():
                prober.get("/v1/health")
            cold.join()
            other.close()
            for key in keys:
                client.get(key)
        health = prober.latencies
        if client.not_ok or client.body_mismatches or prober.not_ok:
            raise AssertionError("serve probe saw a wrong response")
        client.close()
        prober.close()
        cache = server.engine.cache
        m["serve.cache_hit_ratio"] = cache.hits / (cache.hits + cache.misses)
        m["serve.cache_evictions"] = cache.evictions
        m["serve.cold_builds"] = cache.misses
    m["serve.fresh_ms_p50"] = _median_ms(fresh)
    m["serve.health_during_cold_ms_p50"] = _median_ms(health)

    process, _, startup = wl.start_server(store)
    wl.stop_server(process)
    m["serve.startup_s"] = startup
    return m


# --------------------------------------------------------------------- #
def traced_pass(work: pathlib.Path, plan: dict, trace_path) -> Dict[str, float]:
    """Run both parts; dump the spans; return every per-layer metric."""
    name = plan["workload"]
    op_rec = Recorder(f"{name}-{plan['seed']}-op")
    overhead = OPS[name](op_rec, work, plan)
    shares = op_rec.layer_shares("op")
    probe_rec = Recorder(f"{name}-{plan['seed']}-probes")
    metrics = probe_layers(probe_rec, work, plan)
    metrics["obs.trace_overhead_fraction"] = overhead
    metrics["loadgen.generate_sessions_per_s"] = plan["generate_sessions_per_s"]
    unknown = set(shares) - set(SHARE_LAYERS)
    if unknown:
        raise AssertionError(f"span layers without a share metric: {unknown}")
    for layer in SHARE_LAYERS:
        metrics[f"op.share.{layer}"] = shares.get(layer, 0.0)
    if set(metrics) != set(PER_LAYER_NAMES):
        raise AssertionError(
            "per-layer metrics differ from bench.metrics: "
            f"{sorted(set(metrics) ^ set(PER_LAYER_NAMES))}"
        )
    op_rec.dump(
        trace_path,
        extra={
            "op_seconds": statistics.median(op_rec.durations("op")),
            "op_layer_shares": shares,
            "probes": {
                "run_id": probe_rec.run_id,
                "sessions": probe_rec.counts["probe.sessions"],
                "self_seconds": probe_rec.self_times(),
            },
        },
    )
    return metrics
