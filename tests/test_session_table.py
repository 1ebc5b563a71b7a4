"""The per-session table (``repro.pipeline.table``): typed columns, no rows.

- No production path builds a ``SessionRow``. A serial and a sharded
  build, a served cold query, a streaming seal and every figure driver
  leave no ``SessionRow`` alive and never call the row builder behind
  ``StudyDataset.rows``; only ``table.py`` names the class.
- A built dataset's table holds few bytes per kept session.
- A merge shares its results' chunks, and appends them in fold order.
- A streamed dataset's order keys continue from seal to seal.
"""

import ast
import gc
import pathlib
import tracemalloc
from array import array

import pytest

from repro.pipeline import (
    ParallelOptions,
    StreamingIngestor,
    ablation_naive_goodput,
    build_dataset,
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig6_global_performance,
    fig7_rtt_vs_hdratio,
    read_samples,
)
from repro.pipeline.experiments import fig6_global
from repro.pipeline.parallel import _merge_results, _run_shard, _ShardTask
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.io import plan_chunks
from repro.pipeline.table import _WIRE_COLUMNS, SessionChunk, SessionRow
from repro.serve import QueryEngine
from repro.store import write_store

from tests.helpers import make_trace_samples

pytestmark = pytest.mark.kernels

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
KWARGS = dict(study_windows=8, compute_naive=True)
DRIVERS = (
    fig1_session_behaviour,
    fig2_transfer_sizes,
    fig3_transaction_counts,
    fig6_global_performance,
    fig6_global,
    fig7_rtt_vs_hdratio,
    ablation_naive_goodput,
)
#: Bytes a built dataset's table may hold per kept session. Measured on
#: this input: 114 with one typed column per field; 365 when each session
#: was a ``SessionRow`` of boxed values.
TABLE_BYTES_PER_SESSION = 200


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "t.store"
    write_store(path, make_trace_samples(3000, seed=3, windows=8))
    return path


def live_session_rows() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is SessionRow)


def test_no_production_path_builds_a_session_row(store, monkeypatch):
    def refuse(self):
        raise AssertionError("a production path built SessionRows")

    monkeypatch.setattr(SessionChunk, "keyed_rows", refuse)
    before = live_session_rows()  # what other tests still hold
    serial = build_dataset(store, **KWARGS)
    sharded = build_dataset(store, options=ParallelOptions(shards=3), **KWARGS)
    engine = QueryEngine(store)
    status, _ = engine.handle("/v1/quantiles", {})
    streamed = StreamingIngestor(study_windows=8).offer_all(read_samples(store))
    figures = [driver(d) for d in (serial, sharded) for driver in DRIVERS]
    result = streamed.finish()
    assert status == 200 and result.dataset.session_count > 0
    assert serial.session_count == sharded.session_count > 0
    assert len(figures) == 2 * len(DRIVERS)
    assert live_session_rows() == before


def test_only_the_table_module_names_session_row():
    """``SessionRow`` is the rows view's output type: the package re-exports
    it, and no other module under ``src/repro`` uses it."""
    users = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "SessionRow":
                users.add(path.relative_to(SRC).as_posix())
            if isinstance(node, ast.Attribute) and node.attr == "SessionRow":
                users.add(path.relative_to(SRC).as_posix())
    assert users == {"pipeline/table.py"}


def test_a_built_tables_bytes_per_kept_session(store):
    build_dataset(store, study_windows=8)  # first-call imports stay out
    tracemalloc.start()
    try:
        dataset = build_dataset(store, study_windows=8)
        held = tracemalloc.get_traced_memory()[0]
        kept = dataset.session_count
        dataset.table.chunks.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept > 2000
    assert freed / kept < TABLE_BYTES_PER_SESSION


def test_a_merge_shares_its_results_chunks_in_fold_order(store):
    results = [
        _run_shard(_ShardTask(dict(study_windows=8), chunk, ordinal))
        for ordinal, chunk in enumerate(plan_chunks(store, 3))
    ]
    wire = [result.sessions.to_wire() for result in results]
    first = _merge_results(StudyDataset(study_windows=8), results)
    again = _merge_results(StudyDataset(study_windows=8), results)
    for dataset in (first, again):
        assert [id(c) for c in dataset.table.chunks] == [
            id(result.sessions) for result in results
        ]
    assert [result.sessions.to_wire() for result in results] == wire
    assert first.rows == again.rows == build_dataset(store, study_windows=8).rows


def test_streamed_order_keys_continue_from_seal_to_seal(tmp_path):
    samples = make_trace_samples(900, seed=5, windows=8)
    for out_store in (None, tmp_path / "s.store"):
        dataset = (
            StreamingIngestor(study_windows=8, out_store=out_store)
            .offer_all(samples)
            .finish()
            .dataset
        )
        keys = [key for chunk in dataset.table.chunks for key in chunk.keys]
        assert len(dataset.table.chunks) > 1
        assert len(set(keys)) == len(keys)
        # Each seal's keys come after every earlier seal's.
        for before, after in zip(dataset.table.chunks, dataset.table.chunks[1:]):
            if before and after:
                assert max(before.keys) < min(after.keys)


def test_a_chunk_round_trips_its_wire_form(store):
    sessions = build_dataset(store, **KWARGS).table.chunks[0]
    copy = SessionChunk.from_wire(sessions.to_wire())
    assert copy == sessions and copy is not sessions
    assert list(copy.keyed_rows()) == list(sessions.keyed_rows())


@pytest.mark.parametrize(
    "values, typecode",
    [
        ([0, 255], "B"),
        ([256], "H"),
        ([65_535], "H"),
        ([65_536], "I"),
        ([2**32 - 1], "I"),
        ([2**32], "q"),
        ([-1, 5], "q"),
        ([], "q"),
    ],
)
def test_an_integer_column_crosses_in_its_narrowest_typecode(values, typecode):
    chunk = SessionChunk()
    chunk.add(0, 1.0, None, None, 0, 1.0, 1.0, 0, False, "EU", "", (), values)
    columns, _, _ = chunk.to_wire()
    media_typecode, data = dict(zip(_WIRE_COLUMNS, columns))["media"]
    assert media_typecode == typecode
    # Little-endian whatever the host's byte order.
    width, signed = array(typecode).itemsize, typecode == "q"
    assert data == b"".join(v.to_bytes(width, "little", signed=signed) for v in values)
    copy = SessionChunk.from_wire(chunk.to_wire())
    assert copy.media.tolist() == values and copy == chunk
