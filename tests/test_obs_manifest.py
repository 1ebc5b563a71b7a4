"""Tests for the run manifest (``repro.obs.manifest``)."""

import json

import pytest

from repro.obs import (
    MANIFEST_FORMAT_VERSION,
    MetricsRegistry,
    RunManifest,
    Tracer,
    activate_tracer,
    span,
)

pytestmark = pytest.mark.obs


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("pipeline.samples.read", 100)
    registry.inc("pipeline.samples.kept", 90)
    registry.inc("methodology.transactions.gtestable", 40)
    registry.inc("netsim.runs", 2)
    registry.set_gauge("pipeline.rows", 90)
    registry.observe("stage.cli.snapshot", 1.5)
    return registry


def _populated_tracer(registry=None) -> Tracer:
    tracer = Tracer(metrics=registry)
    with activate_tracer(tracer):
        with span("cli.snapshot"):
            with span("ingest"):
                pass
    return tracer


class TestCollect:
    def test_collect_snapshots_registry_and_tracer(self):
        manifest = RunManifest.collect(
            command="snapshot",
            config={"seed": 42, "rate": 10.0},
            registry=_populated_registry(),
            tracer=_populated_tracer(),
            shard_plan={"workers": 4, "shards": 4, "executor": "process"},
            exit_code=0,
        )
        assert manifest.command == "snapshot"
        assert manifest.counters["pipeline.samples.read"] == 100
        assert manifest.gauges["pipeline.rows"] == 90.0
        assert manifest.timers["stage.cli.snapshot"]["count"] == 1
        assert manifest.stage_names() == ["cli.snapshot", "cli.snapshot.ingest"]
        assert manifest.shard_plan["workers"] == 4
        assert manifest.exit_code == 0
        assert manifest.python_version

    def test_collect_with_nothing_is_empty_but_valid(self):
        manifest = RunManifest.collect(command="sweep")
        assert manifest.counters == {}
        assert manifest.stages == []
        assert manifest.exit_code is None

    def test_sample_accounting_filters_to_data_namespaces(self):
        manifest = RunManifest.collect(
            command="snapshot", registry=_populated_registry()
        )
        accounting = manifest.sample_accounting()
        assert "pipeline.samples.read" in accounting
        assert "methodology.transactions.gtestable" in accounting
        # The event loop's counters are engine stats, not sample accounting.
        assert "netsim.runs" not in accounting


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        manifest = RunManifest.collect(
            command="analyze",
            config={"trace": "t.jsonl", "windows": 96},
            registry=_populated_registry(),
            tracer=_populated_tracer(),
            shard_plan={"workers": 1, "shards": 1, "executor": "process"},
            exit_code=0,
        )
        path = manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.read(path)
        assert loaded.command == manifest.command
        assert loaded.config == manifest.config
        assert loaded.shard_plan == manifest.shard_plan
        assert loaded.counters == manifest.counters
        assert loaded.gauges == manifest.gauges
        assert loaded.timers == manifest.timers
        assert loaded.stages == manifest.stages
        assert loaded.exit_code == 0
        assert loaded.python_version == manifest.python_version

    def test_written_file_is_plain_json_with_version(self, tmp_path):
        path = RunManifest.collect(command="sweep").write(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        assert payload["format_version"] == MANIFEST_FORMAT_VERSION
        assert set(payload) == {
            "format_version", "command", "config", "shard_plan", "stages",
            "counters", "gauges", "timers", "exit_code", "python_version",
            "degraded", "streaming", "serving", "dist",
        }

    def test_counters_serialize_sorted(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        path = RunManifest.collect(command="x", registry=registry).write(
            tmp_path / "m.json"
        )
        payload = json.loads(path.read_text())
        assert list(payload["counters"]) == ["a.first", "z.last"]

    def test_unknown_format_version_rejected(self):
        payload = RunManifest.collect(command="sweep").to_dict()
        payload["format_version"] = MANIFEST_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            RunManifest.from_dict(payload)

    def test_missing_format_version_rejected(self):
        with pytest.raises(ValueError, match="format version"):
            RunManifest.from_dict({"command": "sweep"})


class TestServingSection:
    def test_serve_counters_summarize_into_serving(self):
        registry = MetricsRegistry()
        registry.inc("serve.requests", 5)
        registry.inc("serve.responses.ok", 4)
        registry.inc("serve.responses.client_error", 1)
        registry.inc("serve.cache.hits", 3)
        registry.inc("serve.cache.misses", 1)
        manifest = RunManifest.collect(command="serve", registry=registry)
        assert manifest.serving == {
            "requests": 5,
            "responses_ok": 4,
            "responses_client_error": 1,
            "responses_server_error": 0,
            "cache_hits": 3,
            "cache_misses": 1,
            "cache_evictions": 0,
            "cache_invalidations": 0,
            "quarantined": 0,
        }

    def test_non_serving_run_has_empty_serving_section(self):
        registry = MetricsRegistry()
        registry.inc("pipeline.samples.read", 10)
        manifest = RunManifest.collect(command="analyze", registry=registry)
        assert manifest.serving == {}

    def test_serving_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("serve.requests")
        registry.inc("serve.responses.ok")
        manifest = RunManifest.collect(command="serve", registry=registry)
        path = manifest.write(tmp_path / "m.json")
        assert RunManifest.read(path).serving == manifest.serving


class TestDistSection:
    def test_dist_counters_summarize_into_dist(self):
        registry = MetricsRegistry()
        registry.inc("dist.workers.connected", 2)
        registry.inc("dist.workers.lost", 1)
        registry.inc("dist.tasks.dispatched", 5)
        registry.inc("dist.tasks.completed", 4)
        registry.inc("dist.tasks.reassigned", 1)
        registry.inc("dist.remote_failures", 1)
        registry.inc("dist.bytes.sent", 1000)
        registry.inc("dist.bytes.received", 2000)
        manifest = RunManifest.collect(command="analyze", registry=registry)
        assert manifest.dist == {
            "workers_connected": 2,
            "workers_unreachable": 0,
            "workers_lost": 1,
            "tasks_dispatched": 5,
            "tasks_completed": 4,
            "tasks_reassigned": 1,
            "tasks_stranded": 0,
            "remote_failures": 1,
            "bytes_sent": 1000,
            "bytes_received": 2000,
        }

    def test_single_host_run_has_empty_dist_section(self):
        registry = MetricsRegistry()
        registry.inc("pipeline.samples.read", 10)
        manifest = RunManifest.collect(command="analyze", registry=registry)
        assert manifest.dist == {}

    def test_dist_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("dist.workers.connected", 2)
        registry.inc("dist.tasks.completed", 2)
        manifest = RunManifest.collect(command="analyze", registry=registry)
        path = manifest.write(tmp_path / "m.json")
        assert RunManifest.read(path).dist == manifest.dist
