"""Byte-level fuzz of the JSONL trace decoder (ROADMAP item 8).

One line loop decodes every JSONL trace, under two assemblers: the object
assembler (``read_samples_stream``, behind ``read_samples``, ``convert``
and ``repro ingest -``) and the column assembler (``read_column_batches``,
behind ``build_dataset`` on a JSONL path). Hypothesis mutates the bytes of
real golden-trace lines — a digit replaced by another digit (the JSON
stays valid and a number moves), a byte replaced, inserted or deleted, a
line truncated — and feeds the three-line trace through both. Only a
``ValueError`` may escape, within a bounded time per example, and both
assemblers must reach the same outcome: the same error message, or the
same decoded values.
"""

from __future__ import annotations

import functools
import gzip
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.columns import ColumnBatch
from repro.kernels.engine import batches_from_pairs
from repro.pipeline.io import read_column_batches, read_samples_stream

pytestmark = pytest.mark.io

GOLDEN = Path(__file__).parent / "data" / "golden_trace.jsonl.gz"
#: Bytes that keep a mutation close to JSON: digits, number syntax and
#: structure. Half the replaced or inserted bytes come from here.
JSON_BYTES = b'0123456789-+.eE"{}[],: '
MUTATIONS = ("digit", "byte", "insert", "delete", "truncate")
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
    scratch.write_bytes(b"\n".join([first, _mutate(data.draw, line), last]))

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
        assert via_objects[1].startswith(f"{scratch}:2: invalid ")
    else:
        assert via_objects[0] in ("ok", "UnicodeDecodeError")
