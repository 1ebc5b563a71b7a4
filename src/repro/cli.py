"""Command-line interface.

The subcommands mirror the library's main entry points:

- ``repro figure4`` — the paper's goodput walkthrough on the packet
  simulator;
- ``repro sweep`` — the §3.2.3 estimator-validation sweep;
- ``repro snapshot`` — generate a synthetic edge snapshot and print the §4
  global-performance report;
- ``repro routing`` — run the §6 preferred-vs-alternate audit (generated,
  or over a saved trace via ``--trace``);
- ``repro trace`` / ``repro analyze`` — export a synthetic trace and
  re-analyse it later; both formats (JSONL and the columnar store of
  :mod:`repro.store`) are supported, selected by the path;
- ``repro ingest`` — stream a trace (or JSONL on stdin via ``-``) through
  watermarked incremental windows: sealed windows append to a ``--out``
  store and the §5 temporal classifier, degradation alerts and §6 route
  decisions run online (DESIGN.md §11);
- ``repro convert`` — convert a trace between JSONL and the columnar
  store;
- ``repro verify-store`` — scan a columnar store for corruption
  (per-partition checksums — a partition whose descriptor records none is
  corrupt — plus a full decode; exit 1 with ``CORRUPT:`` lines naming the
  partition, its byte range and the column when one fails to decode; a
  torn tail past ``data_bytes`` is reported, not damage);
- ``repro serve`` — serve a columnar store over HTTP (DESIGN.md §12):
  ``/v1/quantiles``, ``/v1/degradation``, ``/v1/routing``, ``/v1/health``
  behind a hot-aggregation LRU cache that invalidates when a concurrent
  ``repro ingest`` appends windows to the same store;
- ``repro worker`` — run a shard-executing worker daemon
  (:mod:`repro.dist`); point a sharded subcommand at a fleet of these
  with ``--workers-addr host:port,...`` to fan the
  analysis out across hosts (DESIGN.md §13);
- ``repro compact-store`` — merge a store's many small streamed
  partitions into few large ones (CRC re-verified, crash-safe
  manifest-last swap), keeping long-running ingest stores prunable.

Sharded subcommands (``routing --trace``, ``analyze`` over a ``*.store`` —
a shard task names a chunk of a columnar store; a generated stream or a
JSONL trace folds in one pass, and sharding flags on one exit 2) take the
fault policy flags ``--max-retries``, ``--retry-backoff``, and
``--strict``: by default a shard that keeps failing is quarantined and the
run completes degraded (with a ``WARNING: degraded run`` header and a
``degraded`` section in the manifest); ``--strict`` fails fast instead.

Every subcommand supports ``--metrics-out PATH`` (write a
:class:`repro.obs.RunManifest` JSON recording config, shard plan, stage
wall times, and the full sample-accounting counters) and ``--profile``
(print the per-stage wall-time table after the run).

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _option(*flags, bound=None, **kwargs):
    """One ``add_argument`` call's flags and keyword arguments, plus an
    optional ``(text, check)`` bound: :func:`_validate_args` turns a value
    that fails ``check`` into the usage error ``<flag> must be <text>``."""
    return flags, kwargs, bound


def _listen_address(text: str):
    """``--listen HOST:PORT`` as ``(host, port)``: unlike a client address
    (``parse_addr``) it may name port 0, any free port, as a bare host does.
    A non-numeric port is ``None``, which the option's bound refuses."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, 0
    try:
        return host, int(port)
    except ValueError:
        return host, None


_AT_LEAST_1 = (">= 1", lambda value: value >= 1)
_POSITIVE = ("finite and > 0", lambda value: 0 < value < float("inf"))
_PORT = ("in 0-65535", lambda port: port is not None and 0 <= port <= 65535)

_CC = _option(
    "--cc", dest="congestion_control", default="reno", metavar="NAME",
    help="congestion control: reno (default), cubic, bbr, or any "
    "registered name",
)

#: The sharding flags, which :func:`_parallel_options` reads.
_SHARDING = (
    _option(
        "--workers", type=int, default=1,
        help="process-pool size for sharded ingestion (1 = run inline)",
    ),
    _option(
        "--shards", type=int, help="number of partitions (defaults to --workers)"
    ),
    _option(
        "--workers-addr", metavar="HOST:PORT,...",
        help="fan the shards out over these `repro worker` daemons "
        "(comma-separated) instead of a local pool",
    ),
    _option(
        "--max-retries", type=int, default=2, metavar="N",
        help="re-run a failing shard up to N times before quarantining "
        "it (default 2)",
    ),
    _option(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base delay between shard retries, doubled per attempt "
        "(default 0.05)",
    ),
    _option(
        "--strict", action="store_true",
        help="fail fast on the first exhausted shard instead of "
        "quarantining it and completing degraded",
    ),
)

#: Every subcommand takes these after its own options.
_OBSERVABILITY = (
    _option(
        "--metrics-out", metavar="PATH",
        help="write a JSON run manifest (metrics, stage timings, config)",
    ),
    _option(
        "--profile", action="store_true",
        help="print a per-stage wall-time table after the run",
    ),
)

#: Options several subcommands share, each with its own help (and default).
_WINDOWS = _option("--windows", type=int, bound=_AT_LEAST_1)
_BAND_WINDOWS = _option(
    "--band-windows", type=int, metavar="N", bound=_AT_LEAST_1
)


def _with(option, **kwargs):
    """A shared ``option`` with one subcommand's ``kwargs`` (help, default)."""
    flags, shared, bound = option
    return flags, {**shared, **kwargs}, bound


def _generator(seed, rate, days=None, networks_per_metro=None, rate_help=None):
    """The scenario generator's flags with one subcommand's defaults; a
    flag whose default is None is one the subcommand does not take."""
    options = [
        _option("--seed", type=int, default=seed),
        _option("--days", type=int, default=days, bound=_AT_LEAST_1),
        _option(
            "--rate", type=float, default=rate, help=rate_help, bound=_POSITIVE
        ),
        _option(
            "--networks-per-metro", type=int, default=networks_per_metro,
            bound=_AT_LEAST_1,
        ),
    ]
    return [option for option in options if option[1]["default"] is not None]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Internet Performance from Facebook's Edge' "
            "(IMC 2019): server-side goodput estimation, MinRTT analytics, "
            "and routing-opportunity analysis over a synthetic global edge."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, *options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flags, kwargs, _ in (*options, *_OBSERVABILITY):
            command.add_argument(*flags, **kwargs)
    return parser


def _print_degraded(dataset) -> None:
    """One-line degradation header for runs that quarantined shards."""
    if getattr(dataset, "degraded", None):
        print(f"WARNING: degraded run — {dataset.degraded.summary()}")


def _parallel_options(args: argparse.Namespace):
    """The sharding flags as a ``ParallelOptions``; ``ValueError`` if bad."""
    from repro.pipeline import ParallelOptions

    # Empty parts are kept so that `--workers-addr ""` or a trailing comma
    # is rejected as a bad address rather than quietly running locally.
    addrs = () if args.workers_addr is None else args.workers_addr.split(",")
    return ParallelOptions(
        workers=args.workers,
        shards=args.shards,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        strict=args.strict,
        worker_addrs=tuple(part.strip() for part in addrs),
    )


def _scenario(args: argparse.Namespace, **settings):
    """The generator flags (plus a command's fixed ``settings``) as an
    ``EdgeScenario``."""
    from repro.workload import EdgeScenario, ScenarioConfig

    for name in ("seed", "days", "networks_per_metro"):
        if hasattr(args, name):
            settings[name] = getattr(args, name)
    config = ScenarioConfig(base_sessions_per_window=args.rate, **settings)
    return EdgeScenario(config)


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.core.hdratio import session_goodput
    from repro.netsim import run_figure4_scenario

    if args.trace:
        from repro.netsim.scenarios import run_transfer

        mss = 1500
        sink: list = []
        run_transfer(
            [2 * mss, 24 * mss, 14 * mss],
            rtt_ms=60.0,
            delayed_ack=args.delayed_ack,
            congestion_control=args.congestion_control,
            trace_sink=sink,
        )
        print(sink[0].render(max_events=120))
        print()

    result = run_figure4_scenario(
        delayed_ack=args.delayed_ack,
        congestion_control=args.congestion_control,
    )
    print(f"congestion control: {args.congestion_control}")
    print(f"MinRTT: {result.min_rtt_ms:.1f} ms")
    for index, (observed, testable) in enumerate(
        zip(result.observed_goodputs_mbps, result.testable_goodputs_mbps), 1
    ):
        print(
            f"txn{index}: observed {observed:.2f} Mbps, "
            f"max testable {testable:.2f} Mbps"
        )
    summary = session_goodput(result.result.records, result.result.min_rtt_seconds)
    print(
        f"session HDratio: {summary.hdratio} "
        f"({summary.achieved}/{summary.tested} tested transactions achieved HD)"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.netsim import SweepConfig, run_validation_sweep

    if args.dense:
        config = SweepConfig(
            bottleneck_mbps=(0.5, 1.0, 1.5, 2.5, 3.5, 5.0),
            rtt_ms=(20.0, 40.0, 60.0, 100.0, 140.0, 200.0),
            initial_cwnd_packets=(1, 2, 3, 5, 8, 10, 15, 20, 30, 40, 50),
            transfer_packets=(1, 2, 5, 10, 20, 35, 50, 75, 100, 150, 200, 350, 500),
        )
    else:
        config = SweepConfig()
    print(
        f"Sweeping {config.count} configurations "
        f"({args.congestion_control})…"
    )
    result = run_validation_sweep(
        config, congestion_control=args.congestion_control
    )
    testing = result.testing_points
    print(f"configurations able to test the bottleneck: {len(testing)}")
    print(f"overestimates: {len(result.overestimates)} (paper: 0)")
    for q in (50.0, 90.0, 99.0):
        print(
            f"relative error p{q:.0f}: "
            f"{result.relative_error_percentile(q):.4f}"
        )
    return 0 if not result.overestimates else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.pipeline import build_dataset, fig6_global_performance
    from repro.pipeline.report import format_metric, format_percent, format_table

    scenario = _scenario(args)
    print(
        f"Generating {args.days} day(s), {len(scenario.networks)} networks, "
        f"{len(scenario.pops)} PoPs…"
    )
    dataset = build_dataset(
        scenario.generate(), study_windows=scenario.config.total_windows
    )
    print(f"{dataset.session_count:,} sampled sessions")

    result = fig6_global_performance(dataset)
    rows = []
    for code in ("AF", "AS", "SA", "EU", "NA", "OC"):
        if code not in result.minrtt_by_continent:
            continue
        hd = result.hdratio_by_continent[code]
        rows.append(
            (
                code,
                format_metric(result.continent_median_minrtt(code), ".0f", " ms"),
                format_percent(hd.fraction_at_most(0.0)),
            )
        )
    print(format_table(("continent", "MinRTT p50", "HDratio=0"), rows))
    print(
        f"global MinRTT p50 {format_metric(result.median_minrtt, '.0f', ' ms')}; "
        f"HDratio>0 {format_percent(result.hdratio_positive_fraction)}"
    )
    return 0


def _cmd_routing(args: argparse.Namespace) -> int:
    from repro.pipeline import build_dataset, fig9_opportunity
    from repro.pipeline.report import format_percent

    if args.trace is not None:
        print(f"Auditing saved trace {args.trace}…")
        source = args.trace
    else:
        scenario = _scenario(args)
        print(
            f"Measuring preferred + alternates for "
            f"{len(scenario.networks)} groups…"
        )
        source = scenario.generate()
    dataset = build_dataset(
        source,
        study_windows=args.days * 24,
        keep_response_sizes=False,
        window_seconds=3600.0,
        options=_parallel_options(args),
    )
    print(f"{dataset.session_count:,} sampled sessions")
    _print_degraded(dataset)

    result = fig9_opportunity(dataset)
    print(
        f"MinRTT_P50 within 3 ms of optimal: "
        f"{format_percent(result.minrtt_within_of_optimal(3.0))} (paper 83.9%)"
    )
    print(
        f"MinRTT_P50 improvable >= 5 ms (CI-gated): "
        f"{format_percent(result.minrtt.traffic_fraction_at_least(5.0, use_ci_low=True))}"
        f" (paper ~2.0%)"
    )
    print(
        f"HDratio_P50 improvable >= 0.05: "
        f"{format_percent(result.hdratio.traffic_fraction_at_least(0.05, use_ci_low=True))}"
        f" (paper ~0.2%)"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import active_metrics
    from repro.pipeline.io import detect_format, write_samples

    scenario = _scenario(args)
    print(f"Generating {args.days} day(s) across {len(scenario.networks)} networks…")
    count = write_samples(
        args.output, scenario.generate(), metrics=active_metrics()
    )
    print(
        f"wrote {count:,} samples to {args.output} "
        f"({detect_format(args.output)})"
    )
    print(
        f"(the trace spans {scenario.config.total_windows} fifteen-minute "
        "windows)"
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.obs import active_metrics
    from repro.pipeline.io import convert, detect_format
    from repro.store import DEFAULT_BAND_WINDOWS

    band_windows = (
        args.band_windows
        if args.band_windows is not None
        else DEFAULT_BAND_WINDOWS
    )
    count = convert(
        args.src,
        args.dst,
        band_windows=band_windows,
        metrics=active_metrics(),
    )
    print(
        f"converted {count:,} samples: {args.src} "
        f"({detect_format(args.src)}) -> {args.dst} "
        f"({detect_format(args.dst)})"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.pipeline import build_dataset, fig6_global_performance
    from repro.pipeline.report import format_metric, format_percent

    dataset = build_dataset(
        args.trace,
        study_windows=args.windows,
        options=_parallel_options(args),
    )
    print(f"{dataset.session_count:,} sessions loaded from {args.trace}")
    _print_degraded(dataset)
    result = fig6_global_performance(dataset)
    print(f"global MinRTT p50: {format_metric(result.median_minrtt, '.1f', ' ms')}")
    print(f"global MinRTT p80: {format_metric(result.p80_minrtt, '.1f', ' ms')}")
    print(
        f"HD-testable sessions with HDratio > 0: "
        f"{format_percent(result.hdratio_positive_fraction)}"
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.obs import active_metrics, merge_into_active
    from repro.pipeline.ingest import StreamingIngestor
    from repro.pipeline.io import read_samples, read_samples_stream

    ingestor = StreamingIngestor(
        study_windows=args.windows,
        out_store=args.out_store,
        band_windows=args.band_windows,
        metrics=active_metrics(),
        **(
            {"allowed_lateness_seconds": args.lateness}
            if args.lateness is not None
            else {}
        ),
    )
    if args.trace == "-":
        print("streaming JSONL samples from stdin…")
        samples = read_samples_stream(sys.stdin, metrics=active_metrics())
    else:
        print(f"streaming saved trace {args.trace}…")
        samples = read_samples(args.trace, metrics=active_metrics())
    result = ingestor.offer_all(samples).finish()
    merge_into_active(result.dataset.metrics)

    print(
        f"{result.samples_offered:,} samples offered; "
        f"{result.samples_sealed:,} sealed across "
        f"{result.windows_sealed} window(s) "
        f"({result.windows_empty} empty); "
        f"{result.late.count} late sample(s) ledgered"
    )
    if args.out_store:
        print(f"sealed windows appended to {args.out_store}")
    candidates = sum(d.is_shift_candidate for d in result.decisions)
    print(
        f"{result.dataset.session_count:,} sessions kept; "
        f"{len(result.alerts)} degradation alert(s); "
        f"{candidates} shift candidate(s) in "
        f"{len(result.decisions)} route decision(s)"
    )
    for alert in result.alerts[:10]:
        print(
            f"ALERT: {alert.group.pop}/{alert.group.prefix}/"
            f"{alert.group.country} window {alert.window} {alert.metric} "
            f"+{alert.difference:.2f} (ci_low {alert.ci_low:.2f})"
        )
    if len(result.alerts) > 10:
        print(f"… and {len(result.alerts) - 10} more")
    counts = result.class_counts()
    if counts:
        summary = ", ".join(
            f"{label}: {count}" for label, count in sorted(counts.items())
        )
        print(f"temporal classes so far — {summary}")
    return 0


def _cmd_verify_store(args: argparse.Namespace) -> int:
    from repro.obs import active_metrics
    from repro.store import verify_store

    report = verify_store(args.store, metrics=active_metrics())
    if report.torn_tail_bytes:
        print(
            f"{args.store}: torn tail of {report.torn_tail_bytes} byte(s) past "
            "data_bytes (a crashed append's; reclaimable, the next append "
            "truncates it)"
        )
    if report.ok:
        print(
            f"{args.store}: OK "
            f"({report.partitions_total} partition(s) verified)"
        )
        return 0
    for finding in report.findings:
        print(f"CORRUPT: {finding.describe()}")
    print(
        f"{args.store}: {len(report.findings)} finding(s) across "
        f"{report.partitions_corrupt} corrupt partition(s) of "
        f"{report.partitions_total}"
    )
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import active_metrics
    from repro.serve import make_server

    server = make_server(
        args.store,
        host=args.host,
        port=args.port,
        max_requests=args.max_requests,
        cache_capacity=args.cache_capacity,
        study_windows=args.windows,
        metrics=active_metrics(),
    )
    host, port = server.server_address[:2]
    engine = server.engine
    # Flushed eagerly so a wrapping process (tests, scripts) can read the
    # bound port before the first request arrives.
    print(
        f"serving {args.store} on http://{host}:{port} "
        f"({engine.study_windows} windows × {engine.window_seconds:.0f}s, "
        f"cache={engine.cache.capacity})",
        flush=True,
    )
    print(
        "endpoints: /v1/quantiles /v1/degradation /v1/routing /v1/health",
        flush=True,
    )
    if args.max_requests is not None:
        print(f"(exiting after {args.max_requests} response(s))", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    cache = engine.cache
    print(
        f"served {engine.metrics.counter('serve.requests')} request(s); "
        f"cache {cache.hits} hit(s) / {cache.misses} miss(es) / "
        f"{cache.evictions} eviction(s)"
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import WorkerDaemon

    host, port = _listen_address(args.listen)
    daemon = WorkerDaemon(host=host, port=port, max_tasks=args.max_tasks)
    daemon.start()
    # Flushed eagerly so a wrapping process (tests, scripts) can read the
    # bound port before the first task arrives.
    print(f"worker daemon listening on {daemon.address}", flush=True)
    if args.max_tasks is not None:
        print(f"(exiting after {args.max_tasks} task(s))", flush=True)
    daemon.serve_forever()
    print(f"worker daemon served {daemon.tasks_served} task(s)")
    return 0


def _cmd_compact_store(args: argparse.Namespace) -> int:
    from repro.obs import active_metrics
    from repro.store import compact_store

    report = compact_store(
        args.store,
        band_windows=args.band_windows,
        metrics=active_metrics(),
    )
    if report.skipped:
        print(
            f"{args.store}: already compact "
            f"({report.partitions_before} partition(s)); nothing to do"
        )
        return 0
    print(
        f"compacted {args.store}: {report.partitions_before} -> "
        f"{report.partitions_after} partition(s), "
        f"{report.bytes_before:,} -> {report.bytes_after:,} data bytes "
        f"({report.rows:,} rows re-verified)"
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.pipeline import build_dataset
    from repro.workload.calibration import render_report, run_calibration

    scenario = _scenario(args, days=1, networks_per_metro=3)
    print(f"Generating calibration snapshot ({len(scenario.networks)} networks)…")
    dataset = build_dataset(
        scenario.generate(), study_windows=scenario.config.total_windows
    )
    results = run_calibration(dataset)
    print(render_report(results))
    return 0 if all(result.passed for result in results) else 1


#: Each subcommand: its help line, its handler, then its options in
#: ``--help`` order.
_SUBCOMMANDS = {
    "figure4": (
        "run the Figure-4 goodput walkthrough", _cmd_figure4,
        _option(
            "--delayed-ack", action="store_true", help="enable delayed ACKs"
        ),
        _option(
            "--trace", action="store_true",
            help="print the packet-level sequence diagram",
        ),
        _CC,
    ),
    "sweep": (
        "run the §3.2.3 validation sweep", _cmd_sweep,
        _option(
            "--dense", action="store_true",
            help="use the dense, paper-shaped grid",
        ),
        _CC,
    ),
    "snapshot": (
        "generate + analyse a snapshot", _cmd_snapshot,
        *_generator(
            42, 10.0, days=1, networks_per_metro=3,
            rate_help="base sessions per 15-minute window per network",
        ),
    ),
    "routing": (
        "run the §6 routing audit", _cmd_routing,
        *_generator(42, 60.0, days=2),
        _option(
            "--trace", metavar="PATH",
            help="audit a saved trace (JSONL or store) instead of generating "
            "a scenario; --seed/--rate are ignored",
        ),
        *_SHARDING,
    ),
    "trace": (
        "generate a synthetic trace file (JSONL or store)", _cmd_trace,
        _option("output", help="path (.jsonl, .jsonl.gz, or .store)"),
        *_generator(42, 10.0, days=1, networks_per_metro=1),
    ),
    "analyze": (
        "run the global-performance report over a saved trace", _cmd_analyze,
        _option(
            "trace", help="trace produced by `repro trace` (JSONL or store)"
        ),
        _with(
            _WINDOWS, default=96,
            help="number of 15-minute windows the trace spans",
        ),
        *_SHARDING,
    ),
    "ingest": (
        "stream a trace through watermarked windows, sealing to a store and "
        "analyzing online",
        _cmd_ingest,
        _option(
            "trace",
            help="trace to stream (JSONL or store), or '-' for JSONL on stdin",
        ),
        _with(
            _WINDOWS, default=96,
            help="nominal number of 15-minute windows the study spans",
        ),
        _option(
            "--lateness", type=float, metavar="SECONDS",
            help="allowed event-time lateness before a window seals "
            "(default: two aggregation windows)",
            bound=(">= 0", lambda seconds: seconds >= 0),
        ),
        _option(
            "--out", metavar="STORE", dest="out_store",
            help="append sealed windows to this *.store directory "
            "(created on first seal)",
        ),
        _with(
            _BAND_WINDOWS,
            help="aggregation windows per store partition band for --out",
        ),
    ),
    "convert": (
        "convert a trace between JSONL and the columnar store", _cmd_convert,
        _option("src", help="source trace (JSONL or store)"),
        _option(
            "dst", help="destination (a *.store directory or a JSONL path)"
        ),
        _with(
            _BAND_WINDOWS,
            help="aggregation windows per store partition band "
            "(default 4 = one hour of 15-minute windows)",
        ),
    ),
    "verify-store": (
        "scan a columnar store for corruption (checksums + decode)",
        _cmd_verify_store,
        _option("store", help="trace-store directory to verify"),
    ),
    "serve": (
        "serve a columnar store over HTTP with a hot-aggregation cache",
        _cmd_serve,
        _option("store", help="trace-store directory to serve"),
        _option(
            "--host", default="127.0.0.1", help="bind address (default loopback)"
        ),
        _option(
            "--port", type=int, default=8321, bound=_PORT,
            help="TCP port (0 picks a free port; default 8321)",
        ),
        _option(
            "--cache-capacity", type=int, default=64, metavar="N",
            bound=_AT_LEAST_1,
            help="hot-aggregation LRU entries kept resident (default 64)",
        ),
        _with(
            _WINDOWS,
            help="study windows for the analyze profile (default: derived "
            "from the store manifest's partition bands)",
        ),
        _option(
            "--max-requests", type=int, metavar="N", bound=_AT_LEAST_1,
            help="exit after serving N responses (smoke tests / CI)",
        ),
    ),
    "worker": (
        "run a shard-executing worker daemon for --workers-addr", _cmd_worker,
        _option(
            "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
            help="bind address (port 0 picks a free port; default loopback)",
            bound=(
                f"HOST:PORT with a port {_PORT[0]}",
                lambda text: _PORT[1](_listen_address(text)[1]),
            ),
        ),
        _option(
            "--max-tasks", type=int, metavar="N", bound=_AT_LEAST_1,
            help="exit after executing N shard tasks (smoke tests / CI)",
        ),
    ),
    "compact-store": (
        "merge a store's many small partitions into few large ones",
        _cmd_compact_store,
        _option("store", help="trace-store directory to compact"),
        _with(
            _BAND_WINDOWS,
            help="aggregation windows per compacted partition band "
            "(default: the store's current banding)",
        ),
    ),
    "calibrate": (
        "check the synthetic universe against the paper's anchors",
        _cmd_calibrate,
        *_generator(101, 9.0),
    ),
}


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Turn option values a command would reject into usage errors: a
    value outside its option's bound in :data:`_SUBCOMMANDS`,
    ``--band-windows`` where no store is written, sharding values
    ``ParallelOptions`` rejects, and sharding flags with no columnar store
    to shard (a generated stream, or a JSONL trace)."""
    from repro.pipeline.io import detect_format

    for flags, kwargs, bound in _SUBCOMMANDS[args.command][2:]:
        dest = kwargs.get("dest", flags[0].lstrip("-").replace("-", "_"))
        value = getattr(args, dest)
        if bound is not None and value is not None and not bound[1](value):
            parser.error(f"{flags[0]} must be {bound[0]}")
    if getattr(args, "band_windows", None) is not None and (
        args.out_store is None
        if args.command == "ingest"
        else args.command == "convert" and detect_format(args.dst) != "store"
    ):
        parser.error("--band-windows needs a store to write, and this writes none")
    if not hasattr(args, "workers"):
        return
    try:
        options = _parallel_options(args)
    except ValueError as error:
        parser.error(str(error))
    if options != type(options)() and (
        args.trace is None or detect_format(args.trace) != "store"
    ):
        parser.error(
            "sharding flags need a store: a sharded plan reads a columnar "
            f"store on disk, and {args.trace or 'a generated stream'} is "
            "not one (`repro convert TRACE.jsonl TRACE.store` makes one; "
            "`routing` takes it as --trace PATH)"
        )


def _shard_plan(args: argparse.Namespace) -> dict:
    """Describe the partitioning this invocation asked for (execution facts)."""
    if not hasattr(args, "workers"):
        return {}
    options = _parallel_options(args)
    plan = {
        "workers": options.workers,
        "shards": options.effective_shards,
        "executor": options.backend,
        "max_retries": options.max_retries,
        "retry_backoff": options.retry_backoff,
        "strict": options.strict,
    }
    if options.worker_addrs:
        plan["worker_addrs"] = list(options.worker_addrs)
    return plan


def _manifest_config(args: argparse.Namespace) -> dict:
    """The invocation's config: every CLI option except the obs plumbing."""
    config = dict(vars(args))
    for key in ("command", "metrics_out", "profile"):
        config.pop(key, None)
    return config


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script; returns the exit code.

    Every subcommand runs under an activated metrics registry and tracer;
    ``--profile`` prints the stage-time table and ``--metrics-out`` writes
    the :class:`repro.obs.RunManifest` after the command returns.
    """
    from repro.obs import (
        MetricsRegistry,
        RunManifest,
        Tracer,
        activate_metrics,
        activate_tracer,
        span,
    )
    from repro.pipeline.report import format_table

    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)

    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    with activate_metrics(registry), activate_tracer(tracer):
        # Metric names reject hyphens, and the tracer mints a
        # "stage.cli.<command>" timer from this span's path.
        with span(f"cli.{args.command.replace('-', '_')}"):
            code = _SUBCOMMANDS[args.command][1](args)

    if args.profile:
        rows = [
            (row["stage"], row["calls"], f"{row['wall_seconds']:.3f}")
            for row in tracer.stage_table()
        ]
        print()
        print(format_table(("stage", "calls", "wall s"), rows, title="profile"))
    if args.metrics_out:
        manifest = RunManifest.collect(
            command=args.command,
            config=_manifest_config(args),
            registry=registry,
            tracer=tracer,
            shard_plan=_shard_plan(args),
            exit_code=code,
        )
        manifest.write(args.metrics_out)
        print(f"wrote run manifest to {args.metrics_out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
