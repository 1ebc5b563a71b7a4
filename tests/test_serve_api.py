"""Endpoint contract tests: a served number IS the batch number.

The serving layer inherits the equivalence-to-serial contract — every
``/v1`` response on the golden-trace store must carry exactly the values
the batch pipeline computes (same figure drivers, same dataset fold), and
the CLI-formatted strings embedded in responses must match ``repro
analyze`` / ``repro routing`` stdout character for character. Cold-cache
and warm-cache responses must be *byte*-identical (canonical rendering +
response memoization), and no payload names an engine — there is one.

Filtered queries are checked against an independent oracle: the golden
trace re-read in plain Python with the filter applied by hand, folded
through ``StudyDataset`` directly — no ScanFilter, no store pruning, no
kernels — so a pruning bug cannot cancel itself out. The whole served
dataset (rows, aggregations, filter stats, data counters) must equal it,
not just the payload fields.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.core.aggregation import window_index
from repro.obs import MetricsRegistry, activate_metrics
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.experiments import fig6_global_performance
from repro.pipeline.io import convert, read_samples
from repro.pipeline.routing_analysis import fig9_opportunity
from repro.serve import QueryEngine, render_payload
from repro.store import ScanFilter, TraceStoreReader

from tests.helpers import assert_same_analysis_state

pytestmark = pytest.mark.serve

TRACE = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_report.json"


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_api") / "golden.store"
    convert(TRACE, path)
    return path


@pytest.fixture(scope="module")
def engine(store_path):
    return QueryEngine(store_path)


def get(engine, path, **params):
    """Engine call with HTTP-shaped params: every value a list of strings."""
    query = {
        key: value if isinstance(value, list) else [str(value)]
        for key, value in params.items()
    }
    status, payload = engine.handle(path, query)
    return status, payload


def served_dataset(engine, pops=None, countries=None, window=None):
    """The dataset the cache holds for an ``analyze``-profile query."""
    entry = engine.cache.get(
        (
            "analyze",
            tuple(sorted(pops)) if pops else None,
            tuple(sorted(countries)) if countries else None,
            window,
        )
    )
    return entry.dataset


class TestQuantilesContract:
    def test_matches_golden_report_fig6(self, engine):
        status, payload = get(engine, "/v1/quantiles")
        assert status == 200
        golden = json.loads(GOLDEN.read_text())
        assert payload["study_windows"] == golden["study_windows"]
        assert payload["sessions"] == golden["session_count"]
        fig6 = golden["fig6"]
        assert payload["minrtt_ms"]["p50"] == fig6["median_minrtt"]
        assert payload["minrtt_ms"]["p80"] == fig6["p80_minrtt"]
        assert (
            payload["hdratio"]["positive_fraction"]
            == fig6["hdratio_positive_fraction"]
        )

    def test_matches_batch_driver_exactly(self, engine, store_path):
        status, payload = get(engine, "/v1/quantiles")
        assert status == 200
        dataset = StudyDataset(study_windows=engine.study_windows)
        dataset.ingest(read_samples(TRACE))
        result = fig6_global_performance(dataset)
        for q in (0.5, 0.8, 0.9, 0.99):
            assert payload["minrtt_ms"][f"p{int(q * 100)}"] == (
                result.minrtt_all.quantile(q)
            )
        assert payload["hdratio"]["full_fraction"] == (
            result.hdratio_full_fraction
        )

    def test_formatted_strings_match_analyze_cli(
        self, engine, store_path, capsys
    ):
        code = main(
            ["analyze", str(store_path), "--windows", str(engine.study_windows)]
        )
        assert code == 0
        out = capsys.readouterr().out
        _, payload = get(engine, "/v1/quantiles")
        formatted = payload["formatted"]
        assert f"global MinRTT p50: {formatted['minrtt_p50']}" in out
        assert f"global MinRTT p80: {formatted['minrtt_p80']}" in out
        assert (
            f"HDratio > 0: {formatted['hdratio_positive']}" in out
        )


class TestRoutingContract:
    def test_matches_batch_driver_exactly(self, engine):
        status, payload = get(engine, "/v1/routing")
        assert status == 200
        dataset = StudyDataset(
            study_windows=engine.routing_windows,
            keep_response_sizes=False,
            window_seconds=engine.routing_window_seconds,
        )
        dataset.ingest(read_samples(TRACE))
        result = fig9_opportunity(dataset)
        assert payload["minrtt"]["within_slack_fraction"] == (
            result.minrtt_within_of_optimal(3.0)
        )
        assert payload["minrtt"]["improvable_fraction_ci"] == (
            result.minrtt.traffic_fraction_at_least(5.0, use_ci_low=True)
        )
        assert payload["hdratio"]["improvable_fraction_ci"] == (
            result.hdratio.traffic_fraction_at_least(0.05, use_ci_low=True)
        )

    def test_formatted_strings_match_routing_cli(
        self, engine, store_path, capsys
    ):
        code = main(["routing", "--trace", str(store_path)])
        assert code == 0
        out = capsys.readouterr().out
        _, payload = get(engine, "/v1/routing")
        formatted = payload["formatted"]
        assert (
            f"within 3 ms of optimal: {formatted['minrtt_within_slack']} "
            in out
        )
        assert f"{formatted['minrtt_improvable']} (paper ~2.0%)" in out
        assert f"{formatted['hdratio_improvable']} (paper ~0.2%)" in out


class TestDegradationContract:
    def test_matches_direct_classification(self, engine):
        from repro.core.classification import classify_group
        from repro.core.constants import DEFAULT_MINRTT_THRESHOLD_MS

        status, payload = get(engine, "/v1/degradation")
        assert status == 200
        dataset = StudyDataset(study_windows=engine.study_windows)
        dataset.ingest(read_samples(TRACE))
        verdict_map = dataset.verdicts("minrtt", "degradation")
        assert payload["groups_total"] == len(verdict_map)
        expected_counts: dict = {}
        for group, verdicts in verdict_map.items():
            classification = classify_group(
                verdicts,
                DEFAULT_MINRTT_THRESHOLD_MS,
                dataset.study_windows,
                windows_per_day=dataset.windows_per_day,
            )
            label = (
                classification.temporal_class.value
                if classification.temporal_class is not None
                else "unclassified"
            )
            expected_counts[label] = expected_counts.get(label, 0) + 1
        assert payload["class_counts"] == dict(sorted(expected_counts.items()))

    def test_groups_sorted_and_attributed(self, engine):
        _, payload = get(engine, "/v1/degradation")
        keys = [(g["pop"], g["prefix"], g["country"]) for g in payload["groups"]]
        assert keys == sorted(keys)
        assert all(g["temporal_class"] for g in payload["groups"])

    def test_hdratio_metric_variant(self, engine):
        status, payload = get(engine, "/v1/degradation", metric="hdratio")
        assert status == 200
        assert payload["metric"] == "hdratio"
        assert payload["threshold"] == pytest.approx(0.05)


class TestFilteredQueries:
    """Served filters vs a hand-rolled Python oracle (no store involved)."""

    @pytest.mark.parametrize(
        "pops,countries",
        [(("ams1",), None), (None, ("NL", "BR")), (("gru1", "sjc1"), ("BR",))],
    )
    def test_pop_country_filters_match_oracle(self, engine, pops, countries):
        params = {}
        if pops:
            params["pop"] = list(pops)
        if countries:
            params["country"] = list(countries)
        status, payload = get(engine, "/v1/quantiles", **params)
        assert status == 200
        oracle = StudyDataset(study_windows=engine.study_windows)
        oracle.ingest(
            s
            for s in read_samples(TRACE)
            if (pops is None or s.pop in pops)
            and (countries is None or s.client_country in countries)
        )
        result = fig6_global_performance(oracle)
        assert payload["sessions"] == oracle.session_count
        assert payload["minrtt_ms"]["p50"] == result.minrtt_all.quantile(0.5)
        assert payload["minrtt_ms"]["p80"] == result.minrtt_all.quantile(0.8)
        assert_same_analysis_state(
            served_dataset(engine, pops, countries), oracle
        )

    @pytest.mark.parametrize("window", ["0", "1-2", "0-3", "3"])
    def test_window_range_matches_oracle(self, engine, window):
        status, payload = get(engine, "/v1/quantiles", window=window)
        assert status == 200
        lo, _, hi = window.partition("-")
        lo, hi = int(lo), int(hi) if hi else int(lo)
        oracle = StudyDataset(study_windows=engine.study_windows)
        oracle.ingest(
            s
            for s in read_samples(TRACE)
            if lo <= window_index(s.end_time, engine.window_seconds) <= hi
        )
        assert payload["sessions"] == oracle.session_count
        result = fig6_global_performance(oracle)
        assert payload["minrtt_ms"]["p50"] == result.minrtt_all.quantile(0.5)
        assert_same_analysis_state(
            served_dataset(engine, window=(lo, hi)), oracle
        )

    def test_window_boundary_not_over_admitted(self, engine):
        """A window filter must not leak the next window's first sample.

        ScanFilter's inclusive time bound admits end_time == (hi+1)*W at
        the partition level; the exact row predicate must drop it.
        """
        _, w0 = get(engine, "/v1/quantiles", window="0")
        _, w1 = get(engine, "/v1/quantiles", window="1")
        _, w01 = get(engine, "/v1/quantiles", window="0-1")
        assert w0["sessions"] + w1["sessions"] == w01["sessions"]

    def test_empty_filter_result_is_na_not_crash(self, engine):
        status, payload = get(engine, "/v1/quantiles", pop="nonexistent")
        assert status == 200
        assert payload["sessions"] == 0
        assert payload["minrtt_ms"]["p50"] is None
        assert payload["formatted"]["minrtt_p50"] == "n/a"


class TestOneAccounting:
    """Data counters reach the engine's registry once per partition
    build — whether that registry is the activated one (``repro
    serve``), another one is, or none is — and a query that only merges
    partials built before it counts no data at all."""

    SCANNED = (
        "io.rows_read",
        "store.rows.decoded",
        "store.bytes.read",
        "store.partitions.scanned",
    )

    @pytest.mark.parametrize("active", ["engine", "other", "none"])
    def test_data_counters_once_per_partition_build(self, store_path, active):
        registry = MetricsRegistry()
        engine = QueryEngine(store_path, metrics=registry)

        def ask(path, **params):
            query = {name: [value] for name, value in params.items()}
            if active == "none":
                status, payload = engine.handle(path, query)
            else:
                with activate_metrics(
                    registry if active == "engine" else MetricsRegistry()
                ):
                    status, payload = engine.handle(path, query)
            assert status == 200
            return payload

        def scanned(scan_filter=None):
            scan = MetricsRegistry()
            reader = TraceStoreReader(store_path)
            rows = len(list(reader.scan(scan_filter, metrics=scan)))
            admitted = len(reader.partitions) - scan.counter(
                "store.partitions.pruned"
            )
            return rows, scan, admitted

        ams1_rows, ams1_scan, ams1_partitions = scanned(ScanFilter(pops="ams1"))
        ask("/v1/quantiles", pop="ams1")
        assert registry.counter("pipeline.samples.read") == ams1_rows
        for name in self.SCANNED:
            assert registry.counter(name) == ams1_scan.counter(name), name

        rows, full_scan, partitions = scanned()
        payload = ask("/v1/quantiles")
        assert registry.counter("pipeline.samples.read") == rows
        assert registry.counter("pipeline.samples.kept") == payload["sessions"]
        for name in self.SCANNED:
            assert registry.counter(name) == full_scan.counter(name), name

        # Every analyze partial exists: a new filter builds nothing.
        before = registry.counters
        _, _, nl_partitions = scanned(ScanFilter(countries="NL"))
        ask("/v1/quantiles", country="NL")
        ask("/v1/degradation", window="0-1")
        after = registry.counters
        assert {
            name: value
            for name, value in after.items()
            if not name.startswith("serve.")
        } == {
            name: value
            for name, value in before.items()
            if not name.startswith("serve.")
        }

        # Routing merges the same partials at hourly windows: it folds
        # nothing and reads every partition's partial once.
        ask("/v1/routing")
        assert registry.counter("pipeline.samples.read") == rows
        assert registry.counter("serve.partials.built") == partitions
        _, _, window_partitions = scanned(
            ScanFilter(min_end_time=0.0, max_end_time=2 * engine.window_seconds)
        )
        assert registry.counter("serve.partials.reused") == (
            ams1_partitions + nl_partitions + window_partitions + partitions
        )
        assert registry.counter("serve.partials.dropped") == 0


class TestByteIdentity:
    def test_cold_vs_warm_byte_identical_all_endpoints(self, store_path):
        engine = QueryEngine(store_path)
        queries = [
            ("/v1/quantiles", {}),
            ("/v1/quantiles", {"pop": ["ams1"]}),
            ("/v1/degradation", {"metric": ["hdratio"]}),
            ("/v1/routing", {}),
        ]
        cold = [render_payload(engine.handle(p, q)[1]) for p, q in queries]
        warm = [render_payload(engine.handle(p, q)[1]) for p, q in queries]
        assert cold == warm
        assert engine.cache.hits >= len(queries)
        for body in cold + [render_payload(engine.handle("/v1/health", {})[1])]:
            assert "engine" not in json.loads(body)

    def test_fresh_engine_byte_identical_to_warm_engine(self, store_path):
        first = QueryEngine(store_path)
        for _ in range(3):
            first.handle("/v1/quantiles", {})
        second = QueryEngine(store_path)
        assert render_payload(first.handle("/v1/quantiles", {})[1]) == (
            render_payload(second.handle("/v1/quantiles", {})[1])
        )


class TestHealthAndErrors:
    def test_health_ok_on_clean_store(self, engine):
        status, payload = get(engine, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["quarantine"]["count"] == 0
        assert payload["generation"]["partitions"] > 0

    def test_health_verify_audits_store(self, engine):
        status, payload = get(engine, "/v1/health", verify="1")
        assert status == 200
        assert payload["verify"]["ok"] is True
        assert payload["verify"]["partitions_corrupt"] == 0

    def test_unknown_parameter_rejected(self, engine):
        status, payload = get(engine, "/v1/quantiles", bogus="1")
        assert status == 400
        assert payload["error"] == "bad_request"
        assert "bogus" in payload["detail"]

    def test_unknown_path_404(self, engine):
        status, payload = get(engine, "/v1/unknown")
        assert status == 404
        assert "/v1/quantiles" in payload["paths"]

    @pytest.mark.parametrize(
        "params",
        [
            {"window": "abc"},
            {"window": "3-1"},
            {"window": "-2"},
            {"metric": "loss"},
            {"threshold": "NaNopes"},
            {"limit": "0"},
            # Non-finite numbers parse as floats but are not JSON, and
            # nan != nan would mint a response memo per request.
            {"threshold": "nan"},
            {"threshold": "-inf"},
            {"slack_ms": "inf"},
            {"minrtt_threshold": "Infinity"},
            # An int no float time can hold: OverflowError out of handle().
            {"window": "1" * 400},
            {"window": "0-" + "9" * 400},
        ],
    )
    def test_bad_values_rejected(self, engine, params):
        if set(params) & {"metric", "threshold", "limit"}:
            path = "/v1/degradation"
        elif set(params) & {"slack_ms", "minrtt_threshold"}:
            path = "/v1/routing"
        else:
            path = "/v1/quantiles"
        status, payload = get(engine, path, **params)
        assert status == 400
        assert payload["error"] == "bad_request"
        counter = engine.metrics.counter
        assert counter("serve.requests") == (
            counter("serve.responses.ok")
            + counter("serve.responses.client_error")
            + counter("serve.responses.server_error")
        )

    def test_repeated_scalar_parameter_rejected(self, engine):
        status, _ = get(engine, "/v1/degradation", metric=["minrtt", "hdratio"])
        assert status == 400

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: "[]",
            lambda text: text[: len(text) // 2],
            lambda text: json.dumps({**json.loads(text), "partitions": None}),
        ],
        ids=["not-an-object", "truncated", "partitions-null"],
    )
    def test_malformed_manifest_is_a_typed_503(
        self, store_path, tmp_path, damage
    ):
        """Regression: the per-request generation check parsed the
        manifest on its own, so a live store whose manifest went bad made
        handle() raise AttributeError / TypeError instead of answering."""
        import shutil

        copy = tmp_path / "golden.store"
        shutil.copytree(store_path, copy)
        engine = QueryEngine(copy)
        assert engine.handle("/v1/quantiles", {})[0] == 200
        manifest_path = copy / "manifest.json"
        manifest_path.write_text(damage(manifest_path.read_text()))
        status, payload = engine.handle("/v1/quantiles", {})
        assert status == 503
        assert payload["error"] == "CorruptManifestError"
        assert "manifest.json" in payload["detail"]
        status, health = engine.handle("/v1/health", {})
        assert status == 200
        assert health["status"] == "degraded"
        assert health["generation"] is None
        assert health["quarantine"]["entries"] == [
            {"partition": None, "column": None, "error": payload["detail"]}
        ]
        assert engine.metrics.counter("serve.responses.server_error") == 1

    def test_counters_account_for_every_request(self, store_path):
        engine = QueryEngine(store_path)
        outcomes = [
            engine.handle("/v1/quantiles", {})[0],
            engine.handle("/v1/quantiles", {})[0],
            engine.handle("/v1/quantiles", {"bogus": ["1"]})[0],
            engine.handle("/v1/nope", {})[0],
        ]
        assert outcomes == [200, 200, 400, 404]
        assert engine.metrics.counter("serve.requests") == 4
        assert engine.metrics.counter("serve.responses.ok") == 2
        assert engine.metrics.counter("serve.responses.client_error") == 2
        assert engine.metrics.counter("serve.responses.server_error") == 0
