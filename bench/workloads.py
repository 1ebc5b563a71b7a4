"""The six workloads: set-up (parent process) and timed phase (child).

Set-up generates inputs with :mod:`bench.gen`, materialises them through
the program's own writers and, for the serve workloads, starts ``repro
serve`` as a subprocess. The timed phase runs in a fresh interpreter
(:mod:`bench.child`) that sees only the files and ``plan.json``, so its
peak RSS is the program's and not the generator's.

Batch operations are one cold run, then repeats until ``seconds`` of
timed wall have passed, with the previous repeat's results released and
``gc.collect()`` called before each (without it heap growth alone makes
later repeats slower). Values reported are medians, never best-of-N.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import pathlib
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence

from repro.pipeline import (
    ParallelOptions,
    StreamingIngestor,
    convert,
    fig6_global_performance,
    read_samples,
    write_samples,
)
from repro.pipeline.report import format_metric
from repro.store import (
    TraceStoreReader,
    append_to_store,
    verify_store,
    write_store,
)

from bench import gen, study
from bench.calibrate import Drift
from bench.metrics import workload as workload_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUBSAMPLE_EVERY = 20
WARMUP_SESSIONS = 2_000
REQUESTS_PER_ROUND = 250
MAX_CHURN_ROUNDS = 16
MIN_REPEATS = 3


# --------------------------------------------------------------------- #
# Small shared pieces
# --------------------------------------------------------------------- #
class Checks:
    """Correctness checks; every failure counts into ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.tally(name, 1, 0 if ok else 1, detail)

    def tally(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed}/{attempted} {detail}".strip())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of unsorted values."""
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def summary(values: Sequence[float]) -> dict:
    """Median with quartiles and the sample count beside it."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values),
    }


def store_bytes_per_session(path) -> float:
    """(data file + manifest) / sessions."""
    reader = TraceStoreReader(path)
    size = os.path.getsize(reader.data_path) + os.path.getsize(
        pathlib.Path(path) / "manifest.json"
    )
    return size / reader.row_count


def peak_rss_mb(pid="self") -> float:
    """Peak resident set of a process, from ``VmHWM``. Not ``ru_maxrss``:
    across fork + exec that starts at the *parent's* resident set, which
    here is the generator's."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Repeats:
    """One cold run, then timed repeats; seconds are normalised
    (:mod:`bench.calibrate`), with the raw wall times kept beside them."""

    def __init__(self, op: Callable[[], object], seconds: float) -> None:
        self.seconds: List[float] = []
        self.raw: List[float] = []
        with Drift() as drift:
            gc.collect()
            self.cold_raw, self.cold, first = drift.time(op)
            self.outputs = [first]
            deadline = time.perf_counter() + seconds
            while (
                time.perf_counter() < deadline
                or len(self.seconds) < MIN_REPEATS
            ):
                gc.collect()
                raw, normalised, output = drift.time(op)
                self.raw.append(raw)
                self.seconds.append(normalised)
                self.outputs.append(output)
        self.spins = drift.spins

    def values(self, sessions: int, store) -> dict:
        median = statistics.median(self.seconds)
        return {
            "throughput_per_s": sessions / median,
            "latency_ms_p50": median * 1000.0,
            "latency_ms_tail": percentile(self.seconds, 0.75) * 1000.0,
            "peak_rss_mb": peak_rss_mb(),
            "store_bytes_per_session": store_bytes_per_session(store),
        }

    def detail(self) -> dict:
        return {
            "op_s": summary(self.seconds), "op_raw_s": summary(self.raw),
            "cold_s": self.cold, "cold_raw_s": self.cold_raw,
            "spin_ms": summary([s * 1000.0 for s in self.spins]),
        }


def program_env() -> dict:
    """Environment for the program's subprocesses: ``src`` importable, and
    string hashing fixed — with it randomised, medians of the same
    operation on the same files moved by 20% from one child to the next
    (dict and set layouts differ); fixed, by 8%."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


# --------------------------------------------------------------------- #
# Set-up (parent)
# --------------------------------------------------------------------- #
def _generate(plan: dict, facts: dict):
    spec = workload_spec(plan["workload"])
    sessions, windows = (
        (spec.smoke_sessions, spec.smoke_windows) if plan["smoke"]
        else (spec.sessions, spec.windows)
    )
    start = time.perf_counter()
    samples = gen.generate(plan["seed"], sessions, windows)
    facts["generate_sessions_per_s"] = sessions / (time.perf_counter() - start)
    facts["sessions"], facts["windows"] = sessions, windows
    return samples


def _setup_store(work: pathlib.Path, plan: dict, facts: dict):
    samples = _generate(plan, facts)
    write_store(work / "input.store", samples)
    write_store(work / "sample.store", samples[::SUBSAMPLE_EVERY])
    facts["digests"] = {"input.store": gen.sha256_store(work / "input.store")}
    return samples


def _setup_jsonl(work: pathlib.Path, plan: dict, facts: dict):
    samples = _generate(plan, facts)
    write_samples(work / "input.jsonl", samples)
    write_samples(work / "sample.jsonl", samples[::SUBSAMPLE_EVERY])
    facts["digests"] = {"input.jsonl": gen.sha256_file(work / "input.jsonl")}
    return samples


def _setup_stream(work: pathlib.Path, plan: dict, facts: dict):
    samples = _generate(plan, facts)
    stream = gen.arrival_order(plan["seed"], samples)
    write_samples(work / "stream.jsonl", stream)
    warmup = min(WARMUP_SESSIONS, len(stream) // 4)
    write_samples(work / "warmup.jsonl", stream[:warmup])
    facts["digests"] = {"stream.jsonl": gen.sha256_file(work / "stream.jsonl")}
    return samples


def dashboard_keys(seed: int) -> List[str]:
    """The 17-panel dashboard: quantiles unfiltered, by PoP, by
    PoP+country, by country and by window range, degradation x2, routing.
    Hot panels first; the schedule draws them Zipf in this order."""
    universe = gen.Universe(seed)
    hot = universe.busiest()
    pops = [hot.pop] + [p for p in universe.pops if p != hot.pop][:3]
    countries = {g.pop: g.country for g in reversed(universe.groups)}
    keys = ["/v1/quantiles", "/v1/degradation", "/v1/routing"]
    keys += [f"/v1/quantiles?pop={pop}" for pop in pops]
    keys += [
        f"/v1/quantiles?pop={pop}&country={countries[pop]}" for pop in pops
    ]
    keys += [f"/v1/quantiles?country={hot.country}"]
    keys += [f"/v1/quantiles?window={lo}-{hi}" for lo, hi in
             ((0, 3), (4, 7), (0, 7), (2, 5))]
    keys += ["/v1/degradation?metric=hdratio"]
    assert len(keys) == 17 and len(set(keys)) == 17
    return keys


def start_server(store: pathlib.Path, timeout: float = 60.0):
    """``repro serve <store> --port 0``; returns ``(process, port,
    seconds until the port was announced)``."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(store), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=program_env(), cwd=str(ROOT),
    )
    seen = b""
    descriptor = process.stdout.fileno()
    while time.perf_counter() - start < timeout:
        ready, _, _ = select.select([descriptor], [], [], 0.5)
        if not ready:
            if process.poll() is not None:
                break
            continue
        block = os.read(descriptor, 4096)
        if not block:
            break
        seen += block
        match = re.search(rb"http://[\d.]+:(\d+)", seen)
        if match:
            return process, int(match.group(1)), time.perf_counter() - start
    stop_server(process)
    raise RuntimeError(f"repro serve did not announce a port: {seen!r}")


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def _setup_serve(work: pathlib.Path, plan: dict, facts: dict):
    samples = _generate(plan, facts)
    sessions, windows = facts["sessions"], facts["windows"]
    write_store(work / "served.store", samples)
    # What the server reports as ``sessions``: the hosting filter's keepers.
    kept = [sum(not s.client_ip_is_hosting for s in samples)]
    digests = {"served.store": gen.sha256_store(work / "served.store")}
    if plan["workload"] == "serve_churn":
        per_window = max(sessions // windows, 1)
        universe = gen.Universe(plan["seed"])
        for index in range(MAX_CHURN_ROUNDS):
            extra = gen.generate(
                plan["seed"], per_window, 1,
                first_window=windows + index,
                first_session_id=sessions + 1 + index * per_window,
                universe=universe,
            )
            samples.extend(extra)
            kept.append(kept[-1] + sum(not s.client_ip_is_hosting for s in extra))
            path = work / f"append_{index:02d}.jsonl"
            write_samples(path, extra)
            digests[path.name] = gen.sha256_file(path)
    facts["digests"] = digests
    facts["kept_sessions"] = kept
    facts["keys"] = dashboard_keys(plan["seed"])
    facts["_server"], facts["port"], _ = start_server(work / "served.store")
    return samples


SETUPS = {
    "analyze_store": _setup_store,
    "analyze_jsonl": _setup_jsonl,
    "analyze_sharded": _setup_store,
    "stream_ingest": _setup_stream,
    "serve_hot": _setup_serve,
    "serve_churn": _setup_serve,
}


def teardown(work: pathlib.Path, facts: dict) -> None:
    server = facts.pop("_server", None)
    if server is not None:
        stop_server(server)
    shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------------- #
# Timed phases (child). Each returns ``(values, detail)``: ``values``
# holds the end-to-end metrics the child can know (everything but
# ``setup_s``; for serve the parent adds the server's RSS).
# --------------------------------------------------------------------- #
def check_study(checks: Checks, plan, outputs, sample_path) -> dict:
    """One digest across repeats; engine == row oracle on the subsample;
    the input gave every driver real work."""
    windows = plan["windows"]
    digests = {output.digest for output in outputs}
    checks.tally(
        "study.one_digest", len(outputs), len(digests) - 1, str(sorted(digests))
    )
    engine = study.study(sample_path, windows)
    oracle = study.study(sample_path, windows, build_fn=study.build_row_oracle)
    checks.expect(
        "study.engine_equals_row_oracle", engine.digest == oracle.digest
    )
    shape = outputs[-1].shape
    for name, value in shape.items():
        checks.expect(f"input.non_degenerate.{name}", value > 0, str(value))
    return shape


def timed_analyze_store(work: pathlib.Path, plan: dict, checks: Checks):
    source, windows = work / "input.store", plan["windows"]
    repeats = Repeats(lambda: study.study(source, windows), plan["seconds"])
    values = repeats.values(plan["sessions"], source)
    shape = check_study(checks, plan, repeats.outputs, work / "sample.store")
    return values, {**repeats.detail(), "shape": shape}


def timed_analyze_jsonl(work: pathlib.Path, plan: dict, checks: Checks):
    source, windows = work / "input.jsonl", plan["windows"]
    converted = work / "converted.store"
    convert_seconds: List[float] = []

    def op():
        shutil.rmtree(converted, ignore_errors=True)
        start = time.perf_counter()
        convert(source, converted)
        convert_seconds.append(time.perf_counter() - start)
        return study.study(source, windows)

    repeats = Repeats(op, plan["seconds"])
    values = repeats.values(plan["sessions"], converted)
    shape = check_study(checks, plan, repeats.outputs, work / "sample.jsonl")
    check_roundtrip(checks, source, converted, work / "roundtrip.jsonl")
    detail = {
        **repeats.detail(), "shape": shape,
        "convert_raw_s": summary(convert_seconds[1:]),
    }
    return values, detail


def check_roundtrip(checks: Checks, source, converted, back) -> None:
    """JSONL -> store -> JSONL reproduces the input bytes."""
    convert(converted, back)
    checks.expect(
        "convert.roundtrip_bytes",
        gen.sha256_file(back) == gen.sha256_file(source),
    )


def sharded_options() -> ParallelOptions:
    workers = min(os.cpu_count() or 1, 4)
    return ParallelOptions(workers=workers, shards=2 * workers)


def fig6_text(dataset) -> str:
    return f"sessions {dataset.session_count}\n\n" + study.render_fig6(
        fig6_global_performance(dataset)
    )


def timed_analyze_sharded(work: pathlib.Path, plan: dict, checks: Checks):
    source, windows = work / "input.store", plan["windows"]
    options = sharded_options()
    repeats = Repeats(
        lambda: fig6_text(study.build(source, "analyze", windows, options)),
        plan["seconds"],
    )
    values = repeats.values(plan["sessions"], source)
    serial = fig6_text(study.build(source, "analyze", windows))
    checks.tally(
        "sharded.equals_serial", len(repeats.outputs),
        sum(text != serial for text in repeats.outputs),
    )
    detail = {
        **repeats.detail(),
        "workers": options.workers, "shards": options.effective_shards,
    }
    return values, detail


def offer_stream(ingestor: StreamingIngestor, stream) -> dict:
    """Offer every sample, timing each call; sealing offers are the ones
    later samples wait behind."""
    sealing: List[float] = []
    sealing_at: List[float] = []
    plain: List[float] = []
    clock = time.perf_counter
    begin = clock()
    for sample in stream:
        sealed_before = ingestor.windows_sealed
        start = clock()
        ingestor.offer(sample)
        elapsed = clock() - start
        if ingestor.windows_sealed != sealed_before:
            sealing.append(elapsed)
            sealing_at.append(start)
        else:
            plain.append(elapsed)
    start = clock()
    result = ingestor.finish()
    end = clock()
    return {
        "result": result, "sealing": sealing, "sealing_at": sealing_at,
        "plain": plain,
        "finish_s": end - start, "wall_s": end - begin,
    }


def check_ingest_pass(checks: Checks, result, offered: int, store) -> None:
    """Nothing offered went missing, and what was sealed verifies."""
    checks.expect(
        "ingest.sealed_plus_late_is_offered",
        result.samples_sealed + result.late.count == result.samples_offered
        and result.samples_offered == offered,
    )
    checks.expect("ingest.store_verifies", verify_store(store).ok)


def timed_stream_ingest(work: pathlib.Path, plan: dict, checks: Checks):
    windows = plan["windows"]
    stream = list(read_samples(work / "stream.jsonl"))
    warmup = list(read_samples(work / "warmup.jsonl"))
    sealed_store = work / "sealed.store"

    def ingest(samples):
        """One pass to a fresh store; ``(run, (start, end))``."""
        shutil.rmtree(sealed_store, ignore_errors=True)
        start = time.perf_counter()
        run = offer_stream(
            StreamingIngestor(study_windows=windows, out_store=sealed_store),
            samples,
        )
        end = time.perf_counter()
        check_ingest_pass(checks, run["result"], len(samples), sealed_store)
        return run, (start, end)

    ingest(warmup)
    seals: List[float] = []
    seconds: List[float] = []
    raw: List[float] = []
    sealed_counts: List[int] = []
    run = None
    with Drift() as drift:
        deadline = time.perf_counter() + plan["seconds"]
        while time.perf_counter() < deadline or len(seconds) < MIN_REPEATS:
            run = None  # the previous pass's dataset goes before the next
            gc.collect()
            run, interval = ingest(stream)
            factor = drift.factor(*interval)
            raw.append(run["wall_s"])
            seconds.append(run["wall_s"] * factor)
            # Each stall by the host speed around it, not the pass's.
            seals.extend(
                elapsed * drift.factor(at, at + elapsed)
                for at, elapsed in zip(run["sealing_at"], run["sealing"])
            )
            sealed_counts.append(run["result"].samples_sealed)
    result = run["result"]
    values = {
        "throughput_per_s":
            statistics.median(sealed_counts) / statistics.median(seconds),
        "latency_ms_p50": percentile(seals, 0.5) * 1000.0,
        "latency_ms_tail": percentile(seals, 0.9) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "store_bytes_per_session": store_bytes_per_session(sealed_store),
    }
    replay = study.build(sealed_store, "analyze", windows)
    checks.expect(
        "ingest.batch_replay_session_count",
        replay.session_count == result.dataset.session_count,
        f"{replay.session_count} != {result.dataset.session_count}",
    )
    checks.expect("input.non_degenerate.late", result.late.count > 0)
    detail = {
        "op_s": summary(seconds), "op_raw_s": summary(raw),
        "spin_ms": summary([s * 1000.0 for s in drift.spins]),
        "seal_samples": len(seals),
        "windows_sealed": result.windows_sealed,
        "shape": {
            "late_fraction": result.late.count / result.samples_offered,
            "sessions": result.samples_offered,
        },
    }
    return values, detail


# --------------------------------------------------------------------- #
# Serve load generation (closed loop: a dashboard panel waits for its
# reply before asking again)
# --------------------------------------------------------------------- #
def zipf_schedule(seed, keys: Sequence[str], client: int, length=4096):
    rng = random.Random(f"schedule-{seed}-{client}")
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]
    return rng.choices(list(keys), weights=weights, k=length)


def run_clients(loop: Callable[[int], None], count: int, barrier=None) -> None:
    """Run ``loop(index)`` on ``count`` threads; re-raise the first error.
    A failing client aborts ``barrier`` so the others cannot wait forever."""
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            loop(index)
        except threading.BrokenBarrierError:
            pass
        except Exception as error:  # re-raised below, in the caller's thread
            errors.append(error)
            if barrier is not None:
                barrier.abort()

    threads = [
        threading.Thread(target=guarded, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Client:
    """One keep-alive connection; records latency, status and whether a
    key's body ever differs from the first one seen this generation."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )
        self.latencies: List[float] = []
        self.starts: List[float] = []
        self.not_ok = 0
        self.body_mismatches = 0
        self.first_bodies: Dict[str, bytes] = {}

    def get(self, path: str) -> bytes:
        start = time.perf_counter()
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        body = response.read()
        self.latencies.append(time.perf_counter() - start)
        self.starts.append(start)
        if response.status != 200:
            self.not_ok += 1
            return body
        first = self.first_bodies.setdefault(path, body)
        if first is not body and first != body:
            self.body_mismatches += 1
        return body

    def new_generation(self) -> Dict[str, bytes]:
        bodies, self.first_bodies = self.first_bodies, {}
        return bodies

    def close(self) -> None:
        self.connection.close()


class Slices:
    """The timed phase of a serve workload, cut into slices: a slice's
    wall time is normalised by the host speed seen during that slice, each
    request's latency by the speed around that request
    (:mod:`bench.calibrate`)."""

    def __init__(self, clients: List["Client"], drift: Drift) -> None:
        self.clients = clients
        self.drift = drift
        self.latencies: List[float] = []
        self.raw_latencies: List[float] = []
        self.wall = 0.0
        self.raw_wall = 0.0

    def run(self, body: Callable[[], None]) -> None:
        """Run one slice; ``body`` returns when its requests are done."""
        marks = [len(client.latencies) for client in self.clients]
        start = time.perf_counter()
        body()
        end = time.perf_counter()
        self.raw_wall += end - start
        self.wall += (end - start) * self.drift.factor(start, end)
        for client, mark in zip(self.clients, marks):
            for at, latency in zip(client.starts[mark:], client.latencies[mark:]):
                self.raw_latencies.append(latency)
                self.latencies.append(
                    latency * self.drift.factor(at, at + latency)
                )

    def values(self, tail: float) -> dict:
        """``tail`` is the percentile (0..1) reported as the tail."""
        completed = len(self.latencies) - sum(c.not_ok for c in self.clients)
        return {
            "throughput_per_s": completed / self.wall,
            "latency_ms_p50": percentile(self.latencies, 0.5) * 1000.0,
            "latency_ms_tail": percentile(self.latencies, tail) * 1000.0,
        }

    def detail(self) -> dict:
        return {
            "clients": len(self.clients),
            "requests": len(self.latencies),
            "raw_requests_per_s": len(self.raw_latencies) / self.raw_wall,
            "raw_latency_ms_p50": percentile(self.raw_latencies, 0.5) * 1000.0,
            "raw_latency_ms_p99": percentile(self.raw_latencies, 0.99) * 1000.0,
            "latency_ms_p90": percentile(self.latencies, 0.90) * 1000.0,
            "latency_ms_p99": percentile(self.latencies, 0.99) * 1000.0,
            "spin_ms": summary([s * 1000.0 for s in self.drift.spins]),
        }


def check_served_equals_batch(checks: Checks, store, port: int) -> None:
    """The final served MinRTT p50 is the in-process fig6 on that store."""
    client = Client(port)
    payload = json.loads(client.get("/v1/quantiles"))
    client.close()
    reader = TraceStoreReader(store)
    bands = [p["band"] for p in reader.partitions]
    windows = (max(bands) + 1) * reader.manifest["band_windows"]
    dataset = study.build(store, "analyze", windows)
    fig6 = fig6_global_performance(dataset)
    checks.expect(
        "serve.equals_batch",
        payload.get("sessions") == dataset.session_count
        and payload.get("formatted", {}).get("minrtt_p50")
        == format_metric(fig6.median_minrtt, ".1f", " ms"),
        json.dumps(payload.get("formatted")),
    )


def tally_clients(checks: Checks, clients: List[Client]) -> None:
    requests = sum(len(client.latencies) for client in clients)
    checks.tally(
        "serve.status_200", requests, sum(c.not_ok for c in clients)
    )
    checks.tally(
        "serve.body_identical_within_generation", requests,
        sum(c.body_mismatches for c in clients),
    )


def agree_across_clients(checks: Checks, generations) -> None:
    """Within one generation every client saw the same bytes per key."""
    for bodies_by_client in generations:
        merged: Dict[str, bytes] = {}
        differing = 0
        for bodies in bodies_by_client:
            for key, body in bodies.items():
                differing += merged.setdefault(key, body) != body
        checks.tally("serve.body_identical_across_clients", len(merged), differing)


SLICE_SECONDS = 0.5
#: What one serve_churn round takes on the reference host.
ROUND_SECONDS = 2.5


def timed_serve_hot(work: pathlib.Path, plan: dict, checks: Checks):
    keys, port = plan["keys"], plan["port"]
    count = max(1, (os.cpu_count() or 1) - 1)
    clients = [Client(port) for _ in range(count)]
    for key in keys:  # every key warmed before timing
        clients[0].get(key)
    warm_bodies = clients[0].new_generation()
    for client in clients:
        client.first_bodies = dict(warm_bodies)
        client.latencies.clear()
        client.starts.clear()
    schedules = [zipf_schedule(plan["seed"], keys, i) for i in range(count)]
    positions = [0] * count

    def one_slice() -> None:
        until = time.perf_counter() + SLICE_SECONDS

        def loop(index: int) -> None:
            client, schedule = clients[index], schedules[index]
            position = positions[index]
            while time.perf_counter() < until:
                client.get(schedule[position % len(schedule)])
                position += 1
            positions[index] = position

        run_clients(loop, count)

    with Drift() as drift:
        slices = Slices(clients, drift)
        cpu_begin, begin = time.process_time(), time.perf_counter()
        deadline = begin + plan["seconds"]
        while time.perf_counter() < deadline:
            slices.run(one_slice)
        cpu = time.process_time() - cpu_begin - sum(drift.spins)
        wall = time.perf_counter() - begin
    # p99 of 3 000 warm requests is set by a handful of scheduling
    # hiccups: 31% spread between runs on the reference host, p90 12%.
    values = slices.values(tail=0.90)
    tally_clients(checks, clients)
    for client in clients:
        client.close()
    check_served_equals_batch(checks, work / "served.store", port)
    values["store_bytes_per_session"] = store_bytes_per_session(
        work / "served.store"
    )
    return values, {**slices.detail(), "loadgen_cpu_fraction": cpu / wall}


def timed_serve_churn(work: pathlib.Path, plan: dict, checks: Checks):
    keys, port, store = plan["keys"], plan["port"], work / "served.store"
    count = min(os.cpu_count() or 1, 2)
    clients = [Client(port) for _ in range(count)]
    appends = [
        list(read_samples(work / f"append_{index:02d}.jsonl"))
        for index in range(MAX_CHURN_ROUNDS)
    ]
    schedules = [zipf_schedule(plan["seed"], keys, i) for i in range(count)]
    positions = [0] * count
    generations: List[List[Dict[str, bytes]]] = []
    append_seconds: List[float] = []
    fresh_failures: List[str] = []

    def one_round(extra) -> None:
        """Client 0 appends a window (the server's cache is flushed by the
        generation change), then every client issues its requests."""
        barrier = threading.Barrier(count)
        expected = plan["kept_sessions"][len(generations) + 1]

        def loop(index: int) -> None:
            client, schedule = clients[index], schedules[index]
            if index == 0:
                start = time.perf_counter()
                append_to_store(store, extra)
                append_seconds.append(time.perf_counter() - start)
            barrier.wait()
            if index == 0:
                # The first answer after an append carries the new count.
                served = json.loads(client.get("/v1/quantiles")).get("sessions")
                if served != expected:
                    fresh_failures.append(f"{served} != {expected}")
            position = positions[index]
            for _ in range(REQUESTS_PER_ROUND):
                client.get(schedule[position % len(schedule)])
                position += 1
            positions[index] = position

        run_clients(loop, count, barrier)
        generations.append([client.new_generation() for client in clients])

    # A fixed number of rounds for a given ``--seconds``, so that the
    # store's size and the server's peak RSS do not depend on host speed.
    rounds = min(max(MIN_REPEATS, round(plan["seconds"] / ROUND_SECONDS)), len(appends))
    with Drift() as drift:
        slices = Slices(clients, drift)
        for extra in appends[:rounds]:
            slices.run(lambda: one_round(extra))
    values = slices.values(tail=0.99)
    tally_clients(checks, clients)
    agree_across_clients(checks, generations)
    checks.tally(
        "serve.fresh_count_after_append", len(generations),
        len(fresh_failures), "; ".join(fresh_failures[:3]),
    )
    for client in clients:
        client.close()
    check_served_equals_batch(checks, store, port)
    values["store_bytes_per_session"] = store_bytes_per_session(store)
    detail = {
        **slices.detail(), "rounds": len(generations),
        "append_raw_ms": summary([s * 1000.0 for s in append_seconds]),
    }
    return values, detail


TIMED = {
    "analyze_store": timed_analyze_store,
    "analyze_jsonl": timed_analyze_jsonl,
    "analyze_sharded": timed_analyze_sharded,
    "stream_ingest": timed_stream_ingest,
    "serve_hot": timed_serve_hot,
    "serve_churn": timed_serve_churn,
}
