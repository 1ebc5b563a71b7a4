"""Every reader of an aggregation's value lists is order-blind.

Served ``/v1/routing`` merges an hour from its store windows' cells, so
each hourly aggregation holds the batch fold's values window by window
instead of in stream order: the same multisets (DESIGN.md §12). That is
only harmless if nothing downstream reads the lists in order. This file
checks it instead of assuming it: the golden dataset, built at the
routing shape (3600 s) and at the analyze shape (900 s), is compared
with a copy whose every ``min_rtts_ms`` and ``hdratios`` list is shuffled
by a seeded RNG — fig8, fig9, fig10, tables 1 and 2, the §5 and §6
verdicts, and the three data endpoints' rendered bytes must not move.
"""

import json
import pathlib
import random

import pytest

from repro.pipeline import build_dataset
from repro.pipeline.io import convert
from repro.pipeline.routing_analysis import (
    fig8_degradation,
    fig9_opportunity,
    fig10_relationship_comparison,
    table1_temporal_classes,
    table2_opportunity_relationships,
)
from repro.serve import QueryEngine, render_payload
from repro.serve.engine import DEFAULT_ROUTING_WINDOWS, _CacheEntry

pytestmark = pytest.mark.serve

DATA = pathlib.Path(__file__).parent / "data"
TRACE = DATA / "golden_trace.jsonl.gz"
#: study_windows per window size: the golden report's and the routing CLI's.
SHAPES = {
    900.0: json.loads((DATA / "golden_report.json").read_text())["study_windows"],
    3600.0: DEFAULT_ROUTING_WINDOWS,
}


def build(window_seconds, shuffle_seed=None):
    dataset = build_dataset(
        TRACE, study_windows=SHAPES[window_seconds], window_seconds=window_seconds
    )
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        for _, aggregation in dataset.store.items():
            rng.shuffle(aggregation.min_rtts_ms)
            rng.shuffle(aggregation.hdratios)
    return dataset


@pytest.fixture(scope="module", params=sorted(SHAPES))
def pair(request):
    ordered = build(request.param)
    shuffled = build(request.param, shuffle_seed=20190)
    pairs = [
        (a, b)
        for (_, a), (_, b) in zip(ordered.store.items(), shuffled.store.items())
        if len(set(a.min_rtts_ms)) > 1
    ]
    moved = sum(
        a.min_rtts_ms != b.min_rtts_ms or a.hdratios != b.hdratios for a, b in pairs
    )
    # The shuffle reorders most lists that have an order to lose: the
    # checks below are not vacuous.
    assert pairs and moved > len(pairs) // 2
    return ordered, shuffled


def test_figures_and_tables_do_not_read_list_order(pair):
    ordered, shuffled = pair
    for driver in (
        fig8_degradation,
        fig9_opportunity,
        fig10_relationship_comparison,
        table1_temporal_classes,
        table2_opportunity_relationships,
    ):
        assert repr(driver(shuffled)) == repr(driver(ordered)), driver.__name__


def test_verdicts_do_not_read_list_order(pair):
    ordered, shuffled = pair
    for kind in ("degradation", "opportunity"):
        for metric in ("minrtt", "hdratio"):
            assert shuffled.verdicts(metric, kind) == ordered.verdicts(metric, kind)


def test_served_bytes_do_not_read_list_order(tmp_path):
    store = tmp_path / "golden.store"
    convert(TRACE, store)

    def bodies(shuffle_seed):
        engine = QueryEngine(store, study_windows=SHAPES[900.0])
        for profile, window_seconds in (("analyze", 900.0), ("routing", 3600.0)):
            engine.cache.put(
                (profile, None, None, None),
                _CacheEntry(build(window_seconds, shuffle_seed)),
            )
        return [
            render_payload(engine.handle(path, params)[1])
            for path, params in (
                ("/v1/quantiles", {}),
                ("/v1/degradation", {}),
                ("/v1/degradation", {"metric": ["hdratio"]}),
                ("/v1/routing", {}),
            )
        ]

    ordered = bodies(None)
    assert all(b'"error"' not in body for body in ordered)
    assert bodies(20190) == ordered
