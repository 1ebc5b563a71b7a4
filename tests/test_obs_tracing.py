"""Tests for the span/traced stage-timing API (``repro.obs.tracing``)."""

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    activate_tracer,
    active_tracer,
    span,
    traced,
)

pytestmark = pytest.mark.obs


class TestSpanNesting:
    def test_no_active_tracer_is_a_noop(self):
        assert active_tracer() is None
        with span("anything") as record:
            assert record is None

    def test_single_span_records_wall_time(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("ingest") as record:
                assert record.name == "ingest"
        assert len(tracer.records) == 1
        closed = tracer.records[0]
        assert closed.closed
        assert closed.path == "ingest"
        assert closed.depth == 0
        assert closed.wall_seconds >= 0.0

    def test_nested_spans_build_dotted_paths_and_depths(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("cli"):
                with span("ingest"):
                    with span("merge"):
                        pass
                with span("report"):
                    pass
        paths = [(r.path, r.depth) for r in tracer.records]
        assert paths == [
            ("cli", 0),
            ("cli.ingest", 1),
            ("cli.ingest.merge", 2),
            ("cli.report", 1),
        ]
        assert tracer.open_depth == 0

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("boom")
        assert tracer.records[0].closed
        assert tracer.open_depth == 0

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError, match="strictly nest"):
            tracer.end(outer)

    def test_spans_mirror_into_registry_timers(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with activate_tracer(tracer):
            with span("cli"):
                with span("ingest"):
                    pass
        assert registry.timer_stat("stage.cli").count == 1
        assert registry.timer_stat("stage.cli.ingest").count == 1


class TestAggregation:
    def test_aggregate_sums_calls_in_first_entry_order(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("run"):
                for _ in range(3):
                    with span("step"):
                        pass
        totals = tracer.aggregate()
        assert list(totals) == ["run", "run.step"]
        calls, total = totals["run.step"]
        assert calls == 3
        assert total >= 0.0

    def test_aggregate_skips_open_spans(self):
        tracer = Tracer()
        tracer.begin("still_open")
        assert tracer.aggregate() == {}

    def test_stage_table_shape(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with span("run"):
                pass
        (row,) = tracer.stage_table()
        assert set(row) == {"stage", "calls", "wall_seconds"}
        assert row["stage"] == "run"
        assert row["calls"] == 1


class TestTracedDecorator:
    def test_bare_decorator_uses_function_name(self):
        @traced
        def compute():
            return 41 + 1

        tracer = Tracer()
        with activate_tracer(tracer):
            assert compute() == 42
        assert tracer.records[0].path == "compute"
        assert compute.__name__ == "compute"

    def test_named_decorator_overrides(self):
        @traced("pipeline.fig6")
        def fig6():
            return "ok"

        tracer = Tracer()
        with activate_tracer(tracer):
            assert fig6() == "ok"
        assert tracer.records[0].path == "pipeline.fig6"

    def test_traced_without_tracer_passes_through(self):
        @traced("pipeline.fig6")
        def fig6():
            return "ok"

        assert active_tracer() is None
        assert fig6() == "ok"

    def test_traced_nests_under_enclosing_span(self):
        @traced("inner")
        def inner():
            pass

        tracer = Tracer()
        with activate_tracer(tracer):
            with span("outer"):
                inner()
        assert [r.path for r in tracer.records] == ["outer", "outer.inner"]

    def test_traced_propagates_exceptions_and_closes(self):
        @traced("fails")
        def fails():
            raise ValueError("nope")

        tracer = Tracer()
        with activate_tracer(tracer):
            with pytest.raises(ValueError):
                fails()
        assert tracer.records[0].closed


class TestActivation:
    def test_activation_restores_previous_tracer(self):
        first, second = Tracer(), Tracer()
        with activate_tracer(first):
            with activate_tracer(second):
                assert active_tracer() is second
            assert active_tracer() is first
        assert active_tracer() is None
