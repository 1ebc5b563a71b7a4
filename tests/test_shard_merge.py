"""The one-sort shard merge against its oracle (DESIGN.md §6).

``parallel._merge_results`` concatenates every result's rows and
aggregation triples and sorts each list once; ``tests.helpers.merge_oracle``
is the merge it replaced, which ordered keys by a per-key ``min()`` and
each key's pieces by a per-key ``sorted()``. For random splits of a
store's sessions into shard results — coarsened as served ``/v1/routing``
cells are (``serve.engine._coarsened``), handed over out of plan order,
merged into a fresh dataset or onto a carried one — the two give the same
rows and the same store: key order, value lists and counts. Neither
mutates a result, and a key with one piece installs that piece.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pipeline.dataset import SessionRow, StudyDataset
from repro.pipeline.parallel import _fold, _merge_results
from repro.serve.engine import _coarsened
from repro.store import TraceStoreReader, write_store

from tests.helpers import make_trace_samples, merge_oracle

pytestmark = pytest.mark.serve

STUDY_WINDOWS = 8
KWARGS = dict(study_windows=STUDY_WINDOWS, keep_response_sizes=True)


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    """One column batch per store partition."""
    store = tmp_path_factory.mktemp("merge") / "t.store"
    write_store(store, make_trace_samples(400, seed=5, windows=STUDY_WINDOWS))
    return list(TraceStoreReader(store).read_column_batches())


def split(batches, keep):
    """Each batch's rows whose order key ``keep`` admits; empty ones dropped."""
    parts = []
    for batch in batches:
        rows = [i for i, key in enumerate(batch.order_keys) if keep(key)]
        if rows:
            parts.append(batch.take(rows))
    return parts


def shard_results(batches, assignment, shards, factor):
    results = []
    for ordinal in range(shards):
        mine = [b for b, owner in zip(batches, assignment) if owner == ordinal]
        result = _fold(mine, KWARGS, ordinal)
        results.append(result if factor == 1 else _coarsened(result, factor))
    return results


def snapshot(phases):
    return [
        [
            (first, key, list(a.min_rtts_ms), list(a.hdratios),
             a.session_count, a.traffic_bytes)
            for first, key, a in result.aggregations
        ]
        for results in phases
        for result in results
    ]


def assert_same_store(ours: StudyDataset, theirs: StudyDataset) -> None:
    assert ours.rows == theirs.rows
    assert all(type(row) is SessionRow for row in ours.rows)
    assert [k for k, _ in ours.store.items()] == [k for k, _ in theirs.store.items()]
    for (_, a), (_, b) in zip(ours.store.items(), theirs.store.items()):
        assert a.min_rtts_ms == b.min_rtts_ms
        assert a.hdratios == b.hdratios
        assert a.session_count == b.session_count
        assert a.traffic_bytes == b.traffic_bytes
        assert (a.window, a.route) == (b.window, b.route)
    assert ours.filter_stats == theirs.filter_stats
    assert ours.shard_report == theirs.shard_report
    assert ours.metrics.counters == theirs.metrics.counters


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_one_sort_merge_equals_the_oracle(batches, data):
    shards = data.draw(st.integers(1, 5), label="shards")
    factor = data.draw(st.sampled_from((1, 2, 4)), label="factor")
    total = sum(len(batch) for batch in batches)
    cut = data.draw(st.none() | st.integers(0, total), label="carried below")
    if cut is None:
        pieces = [batches]
    else:
        pieces = [
            split(batches, lambda key: key < cut),
            split(batches, lambda key: key >= cut),
        ]
    phases = []
    for phase in pieces:
        assignment = data.draw(
            st.lists(st.integers(0, shards - 1), min_size=len(phase),
                     max_size=len(phase)),
            label="assignment",
        )
        results = shard_results(phase, assignment, shards, factor)
        phases.append(data.draw(st.permutations(results), label="arrival"))
    before = snapshot(phases)

    ours, theirs = StudyDataset(**KWARGS), StudyDataset(**KWARGS)
    for results in phases:
        _merge_results(ours, results)
        merge_oracle(theirs, results)

    assert_same_store(ours, theirs)
    assert snapshot(phases) == before
    counts = {}
    for results in phases:
        for result in results:
            for _, key, piece in result.aggregations:
                counts.setdefault(key, []).append(piece)
    for key, owners in counts.items():
        if len(owners) == 1:
            assert ours.store.get(*key) is owners[0]
