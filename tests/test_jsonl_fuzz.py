"""Byte-level fuzz of the JSONL trace decoder (ROADMAP item 8).

One line loop decodes every JSONL trace, under two assemblers: the object
assembler (``read_samples_stream``, behind ``read_samples`` and ``repro
ingest -``) and the column assembler (``read_column_batches``, behind
``build_dataset`` on a JSONL path, and ``convert`` to a store). Hypothesis
mutates the bytes of real golden-trace lines — a digit replaced by another
digit (the JSON stays valid and a number moves), a decimal point replaced
by an exponent (``1823.27…`` becomes ``1823e27…``, past a float's range:
``inf``), a byte replaced, inserted or deleted, a line truncated — and
feeds the three-line trace through
both. Only a ``ValueError`` may escape a decode, within a bounded time per
example, and both assemblers must reach the same outcome: the same error
message, or the same decoded values. ``convert`` to a store must do what
``write_store`` over ``read_samples`` does: raise the same error, or
write the same data file and manifest.
"""

from __future__ import annotations

import functools
import gzip
import json
import re
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.columns import ColumnBatch
from repro.kernels.engine import batches_from_pairs
from repro.pipeline.io import (
    convert,
    read_column_batches,
    read_samples,
    read_samples_stream,
    sample_from_dict,
)
from repro.store import write_store

pytestmark = pytest.mark.io

GOLDEN = Path(__file__).parent / "data" / "golden_trace.jsonl.gz"
#: Bytes that keep a mutation close to JSON: digits, number syntax and
#: structure. Half the replaced or inserted bytes come from here.
JSON_BYTES = b'0123456789-+.eE"{}[],: '
MUTATIONS = ("digit", "exponent", "byte", "insert", "delete", "truncate")
#: Seconds one example may take through both assemblers (a three-line
#: trace decodes in well under a millisecond).
BUDGET_S = 2.0


@functools.lru_cache(maxsize=1)
def golden_lines() -> tuple:
    with gzip.open(GOLDEN, "rb") as handle:
        return tuple(line.rstrip(b"\n") for line in handle if line.strip())


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory) / "fuzzed.jsonl"


def _mutate(draw, line: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3), label="mutations")):
        kind = draw(st.sampled_from(MUTATIONS), label="kind")
        if kind == "truncate" or not line:
            line = line[: draw(st.integers(0, max(len(line) - 1, 0)))]
            continue
        if kind == "digit":
            digits = [at for at, byte in enumerate(line) if 48 <= byte <= 57]
            if not digits:
                continue
            at = draw(st.sampled_from(digits), label="at")
            value = draw(st.sampled_from(b"0123456789"), label="digit")
        elif kind == "exponent":
            points = [at for at, byte in enumerate(line) if byte == ord(".")]
            if not points:
                continue
            at = draw(st.sampled_from(points), label="at")
            value = ord("e")
        else:
            at = draw(st.integers(0, len(line) - 1), label="at")
            value = draw(
                st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255)),
                label="byte",
            )
        if kind == "delete":
            line = line[:at] + line[at + 1 :]
        else:
            skip = 0 if kind == "insert" else 1
            line = line[:at] + bytes((value,)) + line[at + skip :]
    return line


def _first_bad_line(written: bytes) -> int:
    """The line a bad trace's error must name: the first non-blank line,
    split as the text layer splits (``\\n``, ``\\r``, ``\\r\\n``), that
    is not one valid record. A mutation that writes a line break into a
    record moves the rest of it to the next line."""
    for number, line in enumerate(re.split(rb"\r\n|\r|\n", written), start=1):
        text = line.decode("utf-8").strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
            if type(payload) is not dict:
                return number
            sample_from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return number
    raise AssertionError("every line is a valid record")


def _stored(write, store: Path):
    """``("ok", data file, manifest)`` bytes of the store ``write`` makes
    at ``store``, or the error it raises, as ``(type, message)``."""
    shutil.rmtree(store, ignore_errors=True)
    try:
        write(store)
    except Exception as error:  # not only ValueErrors, on either path
        return type(error).__name__, str(error)
    return (
        "ok",
        (store / "data.bin").read_bytes(),
        (store / "manifest.json").read_bytes(),
    )


def _outcome(decode):
    """``("ok", columns)`` or ``(error type, message)``; anything but a
    ``ValueError`` escapes and fails the test."""
    try:
        batches = decode()
    except ValueError as error:
        return type(error).__name__, str(error)
    return "ok", [
        {name: getattr(batch, name) for name in ColumnBatch.__slots__}
        for batch in batches
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_both_assemblers_agree_on_mutated_lines(scratch, data):
    first, line, last = (
        data.draw(st.sampled_from(golden_lines()), label=label)
        for label in ("first", "line", "last")
    )
    written = b"\n".join([first, _mutate(data.draw, line), last])
    scratch.write_bytes(written)

    def objects():
        with open(scratch, encoding="utf-8") as handle:
            samples = list(read_samples_stream(handle, name=str(scratch)))
        return list(batches_from_pairs(enumerate(samples)))

    started = time.perf_counter()
    via_objects = _outcome(objects)
    via_columns = _outcome(lambda: list(read_column_batches(scratch)))
    assert time.perf_counter() - started < BUDGET_S
    assert via_objects == via_columns
    # A bad line is named; bytes that are not UTF-8 fail in the text
    # layer, a decoded chunk (not a line) ahead of the loop.
    if via_objects[0] == "ValueError":
        line_number = _first_bad_line(written)
        assert via_objects[1].startswith(f"{scratch}:{line_number}: invalid ")
    else:
        assert via_objects[0] in ("ok", "UnicodeDecodeError")

    stores = scratch.parent
    assert _stored(
        lambda store: convert(scratch, store), stores / "columns.store"
    ) == _stored(
        lambda store: write_store(store, read_samples(scratch)),
        stores / "objects.store",
    )
