"""Smoke tests for the benchmark itself (not part of tier-1).

Run from the repository root::

    python -m pytest bench/tests -q

Every workload runs once untraced and once traced at ``--smoke`` scale;
the rest checks that the names on record are the names emitted, that each
correctness check can fail, and that ``compare`` sees a slowdown.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from bench import ROOT, gen, metrics, study, trace
from bench import workloads as wl
from bench.compare import compare
from bench.layers import ServerThread
from bench.run import run_workload

from repro.pipeline import StreamingIngestor, convert, write_samples
from repro.store import write_store

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7
WINDOWS = 16  # of the ``small_store`` fixture: analyze_store's smoke shape


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced smoke run of every workload."""
    return {
        (name, traced): run_workload(
            name, SEED, seconds=0.5, trace=traced, smoke=True
        )
        for name in metrics.WORKLOAD_NAMES
        for traced in (False, True)
    }


# --------------------------------------------------------------------- #
# The names on record are the names emitted
# --------------------------------------------------------------------- #
def test_benchmark_json_is_generated_from_the_table():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()


def test_benchmark_json_is_inside_the_contract():
    spec = metrics.benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for item in spec["workloads"]:
        assert set(item) == {"name", "why"}
        assert len(item["why"]) <= 200 and "\n" not in item["why"]
    for item in spec["end_to_end"]:
        assert set(item) == {"name", "unit", "better", "bound"}
        assert 0 < item["bound"] <= 0.25
    for item in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(item["unit"])
        assert item["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_declared_metric_is_emitted_on_every_workload(records):
    for (name, traced), record in records.items():
        declared = (
            metrics.PER_LAYER_NAMES if traced else metrics.END_TO_END_NAMES
        )
        emitted = record["line"]["metrics"]
        assert tuple(emitted) == declared, (name, traced)
        for key, item in emitted.items():
            assert item["unit"] == metrics.UNITS[key]
            assert isinstance(item["value"], (int, float))
            if not traced:
                assert item["value"] > 0, (name, key)
        assert set(record["line"]) == {"correct", "attempted", "failed", "metrics"}
        assert record["line"]["attempted"] >= 1


def test_clean_runs_have_no_failures(records):
    for key, record in records.items():
        assert record["failures"] == [], key
        assert record["line"]["correct"] and record["failed_fraction"] == 0


def test_host_facts_and_input_digests_are_recorded(records):
    record = records[("analyze_store", False)]
    assert {"cpu_count", "python", "numpy", "zlib", "platform", "git_commit"} \
        <= set(record["host"])
    assert all(len(d) == 64 for d in record["input"]["digests"].values())


def test_traced_op_accounts_for_its_time(records):
    shares = {
        key: item["value"]
        for key, item in records[("analyze_store", True)]["line"]["metrics"].items()
        if key.startswith("op.share.")
    }
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)
    assert shares["op.share.unattributed"] < 0.15
    assert shares["op.share.store"] > 0 and shares["op.share.kernels"] > 0


# --------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------- #
def _jsonl_digest(tmp_path, name, samples):
    path = tmp_path / name
    write_samples(path, samples)
    return gen.sha256_file(path)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    gen.generate(99, 50, 2)  # whatever ran before must not matter
    first = _jsonl_digest(tmp_path, "a.jsonl", gen.generate(SEED, 400, 4))
    again = _jsonl_digest(tmp_path, "b.jsonl", gen.generate(SEED, 400, 4))
    other = _jsonl_digest(tmp_path, "c.jsonl", gen.generate(SEED + 1, 400, 4))
    assert first == again != other


def test_arrival_order_is_a_permutation_with_stragglers():
    samples = gen.generate(SEED, 2000, 16)
    stream = gen.arrival_order(SEED, samples)
    assert sorted(s.session_id for s in stream) == [s.session_id for s in samples]
    assert stream != samples


def test_second_seed_is_not_degenerate_and_has_the_same_shape(records):
    """Shares of the input that decide how much work there is stay within
    a fifth of each other between two seeds."""
    def shares(seed):
        if seed == SEED:
            analyze = records[("analyze_store", False)]
            ingest = records[("stream_ingest", False)]
        else:
            analyze = run_workload("analyze_store", seed, 0.5, smoke=True)
            ingest = run_workload("stream_ingest", seed, 0.5, smoke=True)
            assert analyze["failures"] == ingest["failures"] == []
        shape = analyze["detail"]["shape"]
        return {
            "gtestable": shape["hd_testable_sessions"] / shape["sessions"],
            "kept": shape["sessions"] / analyze["input"]["sessions"],
            "late": ingest["detail"]["shape"]["late_fraction"],
        }, shape

    (first, _), (second, shape) = shares(SEED), shares(SEED + 1)
    assert all(value > 0 for value in shape.values())
    for key in ("gtestable", "kept"):
        assert second[key] == pytest.approx(first[key], rel=0.2), key
    # A 1% share of 1 200 smoke sessions is a dozen stragglers: same
    # order of magnitude is all a smoke input can show.
    assert 0.5 < second["late"] / first["late"] < 2.0


# --------------------------------------------------------------------- #
# Every correctness check can fail
# --------------------------------------------------------------------- #
@pytest.fixture
def small_store(tmp_path):
    samples = gen.generate(SEED, 1500, WINDOWS)
    write_store(tmp_path / "small.store", samples)
    return tmp_path / "small.store", samples


def test_study_checks_pass_then_catch_a_dropped_sample(small_store, monkeypatch):
    store, samples = small_store
    plan = {"windows": WINDOWS}
    outputs = [study.study(store, WINDOWS), study.study(store, WINDOWS)]
    checks = wl.Checks()
    wl.check_study(checks, plan, outputs, store)
    assert checks.failures == [] and checks.attempted > 3

    def oracle_that_loses_a_sample(source, profile, windows):
        dataset = study.StudyDataset(**study.profile_kwargs(profile, windows))
        return dataset.ingest(samples[1:])

    monkeypatch.setattr(study, "build_row_oracle", oracle_that_loses_a_sample)
    checks = wl.Checks()
    wl.check_study(checks, plan, outputs, store)
    assert checks.failed == 1
    assert "engine_equals_row_oracle" in checks.failures[0]


def test_study_checks_catch_two_digests_and_an_idle_driver(small_store):
    store, _ = small_store
    good = study.study(store, WINDOWS)
    odd = study.StudyOutput(good.text + "x", {**good.shape, "fig9_valid_comparisons": 0})
    checks = wl.Checks()
    wl.check_study(checks, {"windows": WINDOWS}, [good, odd], store)
    assert checks.failed == 2
    assert checks.failed / checks.attempted > 0


def test_roundtrip_check_catches_a_flipped_byte(tmp_path):
    source = tmp_path / "in.jsonl"
    write_samples(source, gen.generate(SEED, 200, 2))
    convert(source, tmp_path / "c.store")
    checks = wl.Checks()
    wl.check_roundtrip(checks, source, tmp_path / "c.store", tmp_path / "back.jsonl")
    assert checks.failed == 0
    data = bytearray(source.read_bytes())
    position = data.index(b"bytes_sent") + 14
    data[position] = ord("7") if data[position] != ord("7") else ord("8")
    source.write_bytes(bytes(data))
    wl.check_roundtrip(checks, source, tmp_path / "c.store", tmp_path / "back.jsonl")
    assert checks.failed == 1


def test_ingest_checks_catch_a_flipped_byte_and_a_lost_sample(tmp_path):
    stream = gen.arrival_order(SEED, gen.generate(SEED, 600, 8))
    sealed = tmp_path / "sealed.store"
    run = wl.offer_stream(StreamingIngestor(study_windows=8, out_store=sealed), stream)
    checks = wl.Checks()
    wl.check_ingest_pass(checks, run["result"], len(stream), sealed)
    assert checks.failed == 0
    wl.check_ingest_pass(checks, run["result"], len(stream) + 1, sealed)
    assert checks.failed == 1
    data = bytearray((sealed / "data.bin").read_bytes())
    data[len(data) // 2] ^= 0xFF
    (sealed / "data.bin").write_bytes(bytes(data))
    wl.check_ingest_pass(checks, run["result"], len(stream), sealed)
    assert checks.failed == 2


class _Misbehaving(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    calls = 0

    def do_GET(self):  # noqa: N802 (http.server API)
        type(self).calls += 1
        status = 500 if self.path == "/boom" else 200
        body = f"{type(self).calls if self.path == '/drift' else 0}\n".encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


def test_serve_checks_catch_a_500_and_a_drifting_body():
    with ServerThread(ThreadingHTTPServer(("127.0.0.1", 0), _Misbehaving)) as server:
        client = wl.Client(server.server_address[1])
        for path in ("/ok", "/ok", "/boom", "/drift", "/drift"):
            client.get(path)
        client.close()
    checks = wl.Checks()
    wl.tally_clients(checks, [client])
    assert checks.attempted == 10 and checks.failed == 2
    assert any("status_200" in f for f in checks.failures)
    assert any("body_identical" in f for f in checks.failures)
    checks = wl.Checks()
    wl.agree_across_clients(checks, [[{"/k": b"a"}, {"/k": b"b"}]])
    assert checks.failed == 1


def test_served_equals_batch_check_catches_a_stale_server(small_store, tmp_path):
    from repro.serve import make_server

    store, samples = small_store
    stale = tmp_path / "stale.store"
    write_store(stale, samples[: len(samples) // 2])
    with ServerThread(make_server(stale, port=0)) as server:
        checks = wl.Checks()
        wl.check_served_equals_batch(checks, stale, server.server_address[1])
        assert checks.failed == 0
        wl.check_served_equals_batch(checks, store, server.server_address[1])
        assert checks.failed == 1


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #
def _result_set(tmp_path, name, records, scale=None):
    runs = []
    for jitter in (0.99, 1.0, 1.01):
        for (workload, traced), record in records.items():
            if traced:
                continue
            record = copy.deepcopy(record)
            for key, item in record["line"]["metrics"].items():
                item["value"] *= jitter * (scale or {}).get((workload, key), 1.0)
            runs.append(record)
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_passes_equal_sets_and_flags_a_slowdown(tmp_path, records):
    base = _result_set(tmp_path, "a.json", records)
    text, regressed = compare(base, _result_set(tmp_path, "b.json", records))
    assert not regressed and "regressed" not in text
    slow = _result_set(
        tmp_path, "slow.json", records,
        scale={("serve_hot", "latency_ms_p50"): 1.4,
               ("analyze_store", "throughput_per_s"): 0.7},
    )
    text, regressed = compare(base, slow)
    assert regressed
    flagged = [line.split()[:2] for line in text.splitlines() if "regressed" in line]
    assert flagged == [
        ["analyze_store", "throughput_per_s"], ["serve_hot", "latency_ms_p50"]
    ]
    faster = _result_set(
        tmp_path, "fast.json", records,
        scale={("serve_hot", "latency_ms_p50"): 0.5},
    )
    assert not compare(base, faster)[1]


def test_compare_reports_wide_spread_as_unresolved(tmp_path, records):
    base = _result_set(tmp_path, "a.json", records)
    payload = json.loads(base.read_text())
    ingest_runs = [
        r for r in payload["runs"] if r["workload"] == "stream_ingest"
    ]
    for index, record in enumerate(ingest_runs):
        record["line"]["metrics"]["latency_ms_tail"]["value"] *= 1.0 + 0.6 * index
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(payload))
    text, regressed = compare(base, noisy)
    line = next(
        l for l in text.splitlines()
        if l.startswith("stream_ingest") and "latency_ms_tail" in l
    )
    assert line.endswith("unresolved") and not regressed


def test_compare_flags_a_higher_failed_fraction(tmp_path, records):
    base = _result_set(tmp_path, "a.json", records)
    payload = json.loads(base.read_text())
    payload["runs"][0]["failed_fraction"] = 0.01
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert compare(base, broken)[1]


# --------------------------------------------------------------------- #
# The span recorder
# --------------------------------------------------------------------- #
def test_self_time_is_duration_minus_children():
    rec = trace.Recorder("t")
    rec.spans = [
        [0, None, "op", 0.0, 10.0],
        [1, 0, "store.decode", 1.0, 4.0],
        [2, 0, "kernels.ingest", 4.0, 9.0],
        [3, 2, "stats.ci", 5.0, 6.0],
    ]
    assert rec.self_times() == {
        "op": 2.0, "store.decode": 3.0, "kernels.ingest": 4.0, "stats.ci": 1.0,
    }
    assert rec.layer_shares("op") == {
        "unattributed": 0.2, "store": 0.3, "kernels": 0.4, "stats": 0.1,
    }


def test_timed_iter_times_only_the_generator():
    rec = trace.Recorder("t")
    seen = list(rec.timed_iter("gen", iter(range(3))))
    assert seen == [0, 1, 2]
    assert len(rec.durations("gen")) == 4  # three items and the StopIteration


def test_no_work_directories_are_left_behind(records):
    work = ROOT / "bench" / "out" / "work"
    assert not work.exists() or not any(work.iterdir())
    shutil.rmtree(work, ignore_errors=True)
