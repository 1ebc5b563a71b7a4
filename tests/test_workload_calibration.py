"""Tests for the executable calibration contract."""

import pytest

from repro.pipeline.dataset import StudyDataset
from repro.workload.calibration import (
    CalibrationTarget,
    render_report,
    run_calibration,
)
from repro.workload.scenario import EdgeScenario, ScenarioConfig


@pytest.fixture(scope="module")
def dataset():
    config = ScenarioConfig(
        seed=101,
        days=1,
        networks_per_metro=3,
        base_sessions_per_window=4.0,
    )
    ds = StudyDataset(study_windows=config.total_windows)
    ds.ingest(EdgeScenario(config).generate())
    return ds


class TestTargets:
    def test_target_check_mechanics(self):
        target = CalibrationTarget(
            name="demo", paper_value=1.0, low=0.5, high=1.5,
            extract=lambda c: c["value"],
        )
        assert target.check({"value": 1.2}).passed
        assert not target.check({"value": 2.0}).passed

    def test_most_anchors_pass_at_test_scale(self, dataset):
        results = run_calibration(dataset)
        passed = sum(1 for r in results if r.passed)
        # At reduced sampling a couple of per-continent anchors may sit just
        # outside their band; the bulk must hold.
        assert passed >= len(results) - 4, render_report(results)

    def test_workload_anchors_all_pass(self, dataset):
        # The pure-workload anchors (figs 1-3) are scale-insensitive.
        results = [
            r for r in run_calibration(dataset) if r.target.section in ("fig1", "fig2", "fig3")
        ]
        assert results
        assert all(r.passed for r in results), render_report(results)

    def test_render_report(self, dataset):
        results = run_calibration(dataset)
        text = render_report(results)
        assert "anchors within band" in text
        assert "paper" in text

    def test_empty_dataset_fails_every_anchor_and_renders(self):
        """Regression: a missing measurement (no session at all, or none
        from a continent) raised TypeError / KeyError instead of failing."""
        from repro.pipeline import build_dataset
        from repro.workload.calibration import _targets

        results = run_calibration(build_dataset([], study_windows=96))
        assert [r.target.name for r in results] == [t.name for t in _targets()]
        assert not any(r.passed for r in results)
        missing = [r.target.name for r in results if r.measured is None]
        assert "global MinRTT p50 (ms)" in missing
        assert "Africa HDratio=0 share" in missing
        lines = render_report(results).splitlines()
        for result in results:
            (line,) = [line for line in lines if f"  {result.target.name}  " in line]
            assert line.startswith("FAIL")
            assert ("n/a" in line.split()) == (result.measured is None)
        assert lines[-1] == f"0/{len(results)} anchors within band"

    def test_empty_study_reads_no_share_over_a_threshold(self):
        """Regression: ``1 - fraction_at_most`` over zero sessions read 1,
        as if every session lasted over three minutes and sent over 1 MB."""
        from repro.pipeline import build_dataset

        lines = render_report(
            run_calibration(build_dataset([], study_windows=96))
        ).splitlines()
        for name in ("sessions > 180 s", "sessions > 1 MB"):
            (line,) = [line for line in lines if f"  {name}  " in line]
            assert "n/a" in line.split(), line

    def test_custom_target_subset(self, dataset):
        only = [
            CalibrationTarget(
                name="sessions exist", paper_value=1.0, low=1.0, high=float("inf"),
                extract=lambda c: float(len(c["fig1"].duration_all.xs)),
            )
        ]
        results = run_calibration(dataset, targets=only)
        assert len(results) == 1
        assert results[0].passed
