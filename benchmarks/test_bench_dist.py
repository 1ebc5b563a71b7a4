"""Dispatch-overhead benchmark: socket daemons vs the local process pool.

Runs the same sharded analysis three ways over one synthetic trace saved
as a columnar store — one-pass, process pool, and dispatch over two worker
daemons on localhost — and reports wall time plus the dispatch manifest
counters (tasks dispatched, bytes over the wire). The daemons here are
in-process threads, so what the dispatch number measures is exactly the
subsystem's own overhead: framing chunk descriptors over a real TCP
socket, pickling partial states back, and merging results that arrive out
of order.

Three things are asserted. What dispatch ships: a task is a descriptor of
bytes on disk, so ``dist.bytes.sent`` for the whole plan stays under
``TASK_BYTES_CEILING`` (64 KiB; the 8 tasks were 5,017,750 B when they
carried pickled samples) — samples in a task frame fail this at once.
What a result costs coming back: ``dist.bytes.received`` per session
stays under ``RESULT_BYTES_CEILING`` (100 B; 117.7 B when rows were
pickled as frozen dataclasses, ~88 B as plain tuples) — a row type that
drags a per-row reduce call or class reference back onto the wire fails
it. And a tripwire: dispatch over localhost must stay within
``OVERHEAD_CEILING``x of the process pool's wall time (default 3.0). On a
single host the process pool is the natural winner — dispatch pays result
serialization twice (daemon and client) plus socket hops for zero extra
parallel hardware — so that bound is a regression tripwire for the
transport, not a performance claim. Cross-host, the same wire buys shards
on machines the pool cannot reach.

Results land in ``benchmarks/results/BENCH_dist.json``.

Scale knobs: ``REPRO_BENCH_DIST_SESSIONS`` (default 20000),
``REPRO_BENCH_DIST_SHARDS`` (default 8),
``REPRO_BENCH_DIST_OVERHEAD`` (overhead ceiling, default 3.0).

Run with ``make bench-dist`` or ``pytest -m bench benchmarks/``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.dist import WorkerDaemon
from repro.obs import MetricsRegistry, activate_metrics
from repro.pipeline import ParallelOptions, StudyDataset, build_dataset

from repro.pipeline.io import plan_chunks
from repro.store import write_store

from tests.helpers import make_trace_samples
from tests.test_pipeline_parallel import assert_datasets_equal

pytestmark = pytest.mark.bench

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SESSIONS = int(os.environ.get("REPRO_BENCH_DIST_SESSIONS", 20_000))
SHARDS = int(os.environ.get("REPRO_BENCH_DIST_SHARDS", 8))
OVERHEAD_CEILING = float(os.environ.get("REPRO_BENCH_DIST_OVERHEAD", 3.0))
TASK_BYTES_CEILING = 64 * 1024
#: Result bytes per session (``dist.bytes.received / SESSIONS``).
RESULT_BYTES_CEILING = 100
STUDY_WINDOWS = 8
WORKERS = 2


def _timed_build(trace, options=None):
    registry = MetricsRegistry()
    start = time.perf_counter()
    with activate_metrics(registry):
        dataset = build_dataset(
            trace, study_windows=STUDY_WINDOWS, options=options
        )
    return dataset, time.perf_counter() - start, registry


def test_dispatch_overhead(tmp_path):
    samples = make_trace_samples(SESSIONS, seed=23, windows=STUDY_WINDOWS)
    serial = StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))
    trace = tmp_path / "trace.store"
    # One-window bands: 24 partitions, so the 8-shard plan gets 8 chunks.
    write_store(trace, samples, band_windows=1)
    assert len(plan_chunks(trace, SHARDS)) == SHARDS

    _, serial_wall, _ = _timed_build(trace)

    pool_dataset, pool_wall, _ = _timed_build(
        trace,
        ParallelOptions(workers=WORKERS, shards=SHARDS),
    )
    assert_datasets_equal(pool_dataset, serial)

    with WorkerDaemon() as first, WorkerDaemon() as second:
        dispatch_dataset, dispatch_wall, registry = _timed_build(
            trace,
            ParallelOptions(
                workers=WORKERS,
                shards=SHARDS,
                worker_addrs=(first.address, second.address),
            ),
        )
    assert_datasets_equal(dispatch_dataset, serial)
    assert registry.counter("dist.tasks.dispatched") == SHARDS
    assert registry.counter("dist.workers.lost") == 0
    assert 0 < registry.counter("dist.bytes.sent") < TASK_BYTES_CEILING

    overhead = dispatch_wall / pool_wall if pool_wall else float("inf")
    result_bytes = registry.counter("dist.bytes.received") / SESSIONS
    results = {
        "sessions": SESSIONS,
        "shards": SHARDS,
        "workers": WORKERS,
        "serial_wall_seconds": round(serial_wall, 4),
        "process_pool_wall_seconds": round(pool_wall, 4),
        "dispatch_wall_seconds": round(dispatch_wall, 4),
        "dispatch_vs_pool": round(overhead, 3),
        "overhead_ceiling": OVERHEAD_CEILING,
        "task_bytes_ceiling": TASK_BYTES_CEILING,
        "result_bytes_per_session": round(result_bytes, 1),
        "result_bytes_ceiling": RESULT_BYTES_CEILING,
        "dist_counters": {
            name: value
            for name, value in registry.counters.items()
            if name.startswith("dist.")
        },
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_dist.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    assert result_bytes < RESULT_BYTES_CEILING, (
        f"dispatch results cost {result_bytes:.1f} B per session "
        f"(ceiling {RESULT_BYTES_CEILING} B)"
    )
    assert overhead <= OVERHEAD_CEILING, (
        f"dispatch over localhost took {overhead:.2f}x the process pool "
        f"(ceiling {OVERHEAD_CEILING:.1f}x): "
        f"{dispatch_wall:.3f}s vs {pool_wall:.3f}s"
    )
