"""Byte-level fuzz of the shard-task decoder (DESIGN.md §13).

``dist.serialization.decode_task`` is the one place a worker daemon reads
what a peer sent it, so it sees whatever arrives on the socket.
Hypothesis mutates a valid task frame — a digit replaced by another digit
(the JSON stays valid and a number moves), a byte replaced, inserted or
deleted, the frame truncated, or one JSON value swapped for a value of
another type, a key dropped or a stray key added — and ``decode_task``
must either return a task or raise
:class:`~repro.dist.protocol.ProtocolError`, within a bounded time. A task
it does return is well typed and re-encodes to exactly the JSON it was
decoded from: nothing in the frame was ignored, nothing was invented.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.protocol import ProtocolError
from repro.dist.serialization import decode_task, encode_task
from repro.pipeline.parallel import _ShardTask
from repro.store import StoreChunk

pytestmark = [pytest.mark.dist, pytest.mark.faults]

VALID = encode_task(
    _ShardTask(
        dataset_kwargs=dict(
            study_windows=96,
            keep_response_sizes=True,
            compute_naive=False,
            window_seconds=900.0,
        ),
        chunk=StoreChunk(
            path="/srv/traces/t.store",
            ordinal=1207,
            partition_ids=(3, 4, 5, 11),
            rows=4821,
        ),
        ordinal=2,
    )
)
#: Bytes that keep a mutation close to JSON: digits, number syntax and
#: structure. Half the replaced or inserted bytes come from here.
JSON_BYTES = b'0123456789-+.eE"{}[],: '
MUTATIONS = ("digit", "byte", "insert", "delete", "truncate", "value")
#: Seconds one decode may take. A frame is a few hundred bytes; a decode
#: that gets anywhere near this is looping or backtracking.
DECODE_BUDGET_SECONDS = 1.0

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container path, key) in a parsed frame, depth first."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix, key
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield prefix, index
            yield from _paths(child, prefix + (index,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _edit_value(draw) -> bytes:
    """One structural edit to the parsed frame: swap a value, drop a key,
    or add one (``kind`` and ``expected_rows`` among the candidates — the
    fields an older client still sent)."""
    fields = json.loads(VALID)
    containers = [fields] + [
        _at(fields, path + (key,))
        for path, key in _paths(fields)
        if isinstance(_at(fields, path + (key,)), dict)
    ]
    edit = draw(st.sampled_from(("swap", "drop", "add")), label="edit")
    if edit == "add":
        target = draw(st.sampled_from(containers), label="container")
        key = draw(
            st.sampled_from(("kind", "expected_rows", "samples"))
            | st.text(max_size=4),
            label="key",
        )
        target[key] = draw(json_values, label="value")
    else:
        path, key = draw(st.sampled_from(list(_paths(fields))), label="at")
        parent = _at(fields, path)
        if edit == "drop":
            del parent[key]
        else:
            parent[key] = draw(json_values, label="value")
    return json.dumps(fields).encode("utf-8")


def _mutate(draw) -> bytes:
    kind = draw(st.sampled_from(MUTATIONS), label="kind")
    if kind == "value":
        return _edit_value(draw)
    if kind == "truncate":
        return VALID[: draw(st.integers(0, len(VALID) - 1))]
    if kind == "digit":
        digits = [at for at, byte in enumerate(VALID) if 48 <= byte <= 57]
        at = draw(st.sampled_from(digits), label="at")
        value = draw(st.sampled_from(b"0123456789"), label="digit")
    else:
        at = draw(st.integers(0, len(VALID) - 1), label="at")
        value = draw(
            st.one_of(st.sampled_from(JSON_BYTES), st.integers(0, 255)),
            label="byte",
        )
    if kind == "delete":
        return VALID[:at] + VALID[at + 1 :]
    skip = 0 if kind == "insert" else 1
    return VALID[:at] + bytes((value,)) + VALID[at + skip :]


def test_the_valid_frame_decodes():
    task = decode_task(VALID)
    assert type(task) is _ShardTask and type(task.chunk) is StoreChunk
    assert encode_task(task) == VALID


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_only_protocol_errors_escape(data):
    frame = _mutate(data.draw)
    start = time.perf_counter()
    try:
        task = decode_task(frame)
    except ProtocolError:
        task = None
    assert time.perf_counter() - start < DECODE_BUDGET_SECONDS
    if task is not None:
        chunk = task.chunk
        assert type(task) is _ShardTask and type(chunk) is StoreChunk
        assert type(task.ordinal) is int and type(chunk.rows) is int
        assert type(chunk.path) is str and type(chunk.partition_ids) is tuple
        assert all(type(i) is int for i in chunk.partition_ids)
        assert json.loads(encode_task(task)) == json.loads(frame)
