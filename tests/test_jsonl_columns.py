"""Differential test of the JSONL column assembler (DESIGN.md §8, §10).

``read_column_batches`` fills :class:`ColumnBatch` columns straight from
the parsed JSON of each line; ``read_samples`` builds a ``SessionSample``
per line, which ``batches_from_pairs`` then shreds. Over generated
traces — hosting rows without a route, empty or absent media, null or
absent ``last_byte_write_time``, absent ``coalesced_count`` and
``geo_tag``, blank lines, plain and gzip files, batches of one row up to
the whole trace — the two must give the same batches, field by field,
order keys included, and ``build_dataset`` must never build a sample.
``convert`` to a store fills partition columns the same way: the same
store bytes and counters as ``write_store`` over ``read_samples``, and no
record built.
"""

from __future__ import annotations

import gzip
import json
import pathlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.columns as columns
import repro.kernels.engine as engine
import repro.pipeline.io as io_module
from repro.core.records import SessionSample, TransactionRecord
from repro.kernels.columns import ColumnBatch
from repro.kernels.engine import batches_from_pairs, iter_batches
from repro.obs import MetricsRegistry
from repro.pipeline import build_dataset
from repro.pipeline.io import (
    convert,
    read_column_batches,
    read_samples,
    sample_to_dict,
)
from repro.store import write_store

from tests.helpers import make_trace_samples
from tests.test_pipeline_io import samples_strategy

pytestmark = pytest.mark.io

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_trace.jsonl.gz"


def columns_of(batch: ColumnBatch) -> dict:
    return {name: getattr(batch, name) for name in ColumnBatch.__slots__}


def assert_batches_equal(got, expected) -> None:
    assert [len(batch) for batch in got] == [len(batch) for batch in expected]
    for ours, theirs in zip(got, expected):
        assert columns_of(ours) == columns_of(theirs)


@st.composite
def records(draw) -> dict:
    """One JSONL record, with the optional fields in every spelling a
    trace may carry them."""
    payload = sample_to_dict(draw(samples_strategy()))
    if payload["client_ip_is_hosting"] and draw(st.booleans()):
        payload["route"] = None
    media = draw(st.sampled_from(("kept", "empty", "absent", "several")))
    if media == "empty":
        payload["media_response_sizes"] = []
    elif media == "absent":
        del payload["media_response_sizes"]
    elif media == "several":
        payload["media_response_sizes"] = draw(
            st.lists(st.integers(0, 2**31), min_size=2, max_size=4)
        )
    if draw(st.booleans()):
        del payload["geo_tag"]
    for txn in payload["transactions"]:
        spelling = draw(st.sampled_from(("kept", "null", "absent")))
        if spelling == "null":
            txn["last_byte_write_time"] = None
        elif spelling == "absent":
            del txn["last_byte_write_time"]
        if draw(st.booleans()):
            del txn["coalesced_count"]
    return payload


def write_trace(path, payloads, blank_after, compressed) -> None:
    lines = []
    for index, payload in enumerate(payloads):
        lines.append(json.dumps(payload))
        lines.extend([" \t"] * blank_after.get(index, 0))
    text = "\n".join(lines) + "\n"
    if compressed:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    payloads=st.lists(records(), max_size=12),
    blank_after=st.dictionaries(st.integers(0, 11), st.integers(1, 2)),
    compressed=st.booleans(),
    batch_rows=st.integers(1, 13),
)
def test_column_batches_equal_shredded_samples(
    payloads, blank_after, compressed, batch_rows, tmp_path_factory
):
    path = tmp_path_factory.mktemp("columns") / (
        "trace.jsonl.gz" if compressed else "trace.jsonl"
    )
    write_trace(path, payloads, blank_after, compressed)
    with mock.patch.object(columns, "BATCH_ROWS", batch_rows), \
            mock.patch.object(engine, "BATCH_ROWS", batch_rows):
        got = list(read_column_batches(path))
        expected = list(batches_from_pairs(enumerate(read_samples(path))))
    assert_batches_equal(got, expected)


def test_golden_trace_batches_equal_shredded_samples():
    assert_batches_equal(
        list(iter_batches(GOLDEN)),
        list(batches_from_pairs(enumerate(read_samples(GOLDEN)))),
    )


def test_build_dataset_on_jsonl_builds_no_sample(tmp_path, monkeypatch):
    """``build_dataset`` over a JSONL path equals the build over its
    samples, and no ``SessionSample`` is constructed on the way."""
    path = tmp_path / "trace.jsonl"
    samples = make_trace_samples(300, seed=7, windows=4)
    io_module.write_samples(path, samples)
    expected = build_dataset(samples, study_windows=4)

    constructed = []
    init = SessionSample.__init__

    def counting(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SessionSample, "__init__", counting)
    got = build_dataset(path, study_windows=4)
    assert constructed == []
    assert got.rows == expected.rows
    assert list(got.store.items()) == list(expected.store.items())


def _refuse(self, *args, **kwargs):
    raise AssertionError(f"built a {type(self).__name__}")


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    payloads=st.lists(records(), max_size=12),
    blank_after=st.dictionaries(st.integers(0, 11), st.integers(1, 2)),
    band_windows=st.integers(1, 3),
)
def test_convert_to_a_store_builds_no_record(
    payloads, blank_after, band_windows, tmp_path_factory
):
    """``convert`` JSONL -> store writes ``write_store`` over
    ``read_samples``'s bytes and counters, and constructs no record."""
    root = tmp_path_factory.mktemp("convert")
    path = root / "trace.jsonl"
    write_trace(path, payloads, blank_after, compressed=False)
    expected = MetricsRegistry()
    write_store(
        root / "objects.store", read_samples(path, expected), band_windows,
        metrics=expected,
    )
    got = MetricsRegistry()
    with mock.patch.object(SessionSample, "__init__", _refuse), \
            mock.patch.object(TransactionRecord, "__init__", _refuse):
        assert convert(path, root / "columns.store", band_windows, got) == len(
            payloads
        )
    for name in ("data.bin", "manifest.json"):
        assert (root / "columns.store" / name).read_bytes() == (
            root / "objects.store" / name
        ).read_bytes()
    assert got.counters == expected.counters
