"""Byte-level fuzz of the shard-result decoder (DESIGN.md §13).

``dist.serialization.decode_result`` reads the ``MSG_RESULT`` frames a
dispatch client receives. A result is a pickle, so the decoder resolves
only the globals a real result references (``RESULT_GLOBALS``). This file
pins that set against real frames, walking their opcodes with
``pickletools.genops``, and holds the decoder to its contract the way
``tests/test_task_fuzz.py`` holds the task decoder: a mutated frame — a
byte replaced, inserted or deleted, or the frame truncated — and a
hostile one (``os.system`` by ``GLOBAL``, a ``__reduce__`` to any
callable, a frame that is not a result, rows whose field columns
disagree) may only return a
:class:`~repro.pipeline.parallel.ShardResult` or raise
:class:`~repro.dist.protocol.ProtocolError`, within a bounded time, and
never runs what it names.
"""

from __future__ import annotations

import copyreg
import io
import os
import pickle
import pickletools
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import protocol, serialization
from repro.dist.protocol import ProtocolError
from repro.dist.serialization import RESULT_GLOBALS, decode_result, encode_result
from repro.pipeline.io import plan_chunks
from repro.pipeline.parallel import ShardResult, _run_shard, _ShardTask
from repro.store import write_store

from tests.helpers import make_trace_samples

pytestmark = [pytest.mark.dist, pytest.mark.faults]

#: Seconds one decode may take. A frame here is tens of kilobytes; a
#: decode that gets anywhere near this is looping.
DECODE_BUDGET_SECONDS = 1.0
MUTATIONS = ("byte", "insert", "delete", "truncate")
#: Calls a hostile frame must never make.
CALLS = []


def canary(*args):
    CALLS.append(args)


class _Reduces:
    """Pickles as a call to ``target(*args)``."""

    def __init__(self, target, *args):
        self.target, self.args = target, args

    def __reduce__(self):
        return self.target, self.args


def _shapes():
    return (
        dict(study_windows=8, keep_response_sizes=True, compute_naive=True,
             window_seconds=900.0),
        dict(study_windows=48, keep_response_sizes=False, compute_naive=False,
             window_seconds=3600.0),
    )


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    """Real result frames: every shard of a 3-shard plan, at both study
    shapes (the analyze and routing profiles)."""
    store = tmp_path_factory.mktemp("results") / "t.store"
    write_store(store, make_trace_samples(600, seed=1, windows=8))
    return [
        encode_result(_run_shard(_ShardTask(kwargs, chunk, ordinal)))
        for kwargs in _shapes()
        for ordinal, chunk in enumerate(plan_chunks(store, 3))
    ]


def referenced_globals(frame: bytes) -> set:
    """Every ``(module, name)`` a frame's ``GLOBAL`` / ``STACK_GLOBAL``
    opcodes name, following the memo for the strings they pop."""
    found, memo, pushed = set(), {}, []
    for opcode, arg, _ in pickletools.genops(frame):
        name = opcode.name
        if name == "MEMOIZE":
            memo[len(memo)] = pushed[-1]
        elif name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = pushed[-1]
        elif name in ("GET", "BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        elif name == "STACK_GLOBAL":
            found.add((pushed[-2], pushed[-1]))
            pushed.append(None)
        elif name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
            pushed.append(None)
        else:
            pushed.append(arg if "UNICODE" in name else None)
    return found


def decode_within_budget(frame: bytes):
    start = time.perf_counter()
    try:
        result = decode_result(frame)
    except ProtocolError:
        result = None
    assert time.perf_counter() - start < DECODE_BUDGET_SECONDS
    return result


def test_a_result_references_exactly_the_allowed_globals(frames):
    seen = set()
    for frame in frames:
        seen |= referenced_globals(frame)
        result = decode_result(frame)
        assert type(result) is ShardResult and result.rows
        assert encode_result(result) == frame
    assert seen == RESULT_GLOBALS
    assert len(RESULT_GLOBALS) == 7


@pytest.mark.parametrize(
    "frame",
    [
        b"cos\nsystem\n(S'echo pwned'\ntR.",
        b"cbuiltins\neval\n(S'1+1'\ntR.",
        pickle.dumps(_Reduces(os.getpid)),
        pickle.dumps(_Reduces(canary, "ran")),
        pickle.dumps(_Reduces(_run_shard, None)),
        pickle.dumps({}),
        pickle.dumps([ShardResult()] * 0),
        pickle.dumps(None),
        b"\x80\x04garbage",
        b"",
    ],
    ids=[
        "GLOBAL-os-system",
        "GLOBAL-builtins-eval",
        "reduce-os-getpid",
        "reduce-canary",
        "reduce-allowed-module-other-name",
        "a-dict",
        "a-list",
        "none",
        "garbage",
        "empty",
    ],
)
def test_hostile_frames_are_protocol_errors(frame):
    with pytest.raises(ProtocolError):
        decode_result(frame)
    assert CALLS == []


@pytest.mark.parametrize(
    "memo_write",
    [b"p4294967295\n", b"q\x00", b"r\xff\xff\xff\xff"],
    ids=["PUT", "BINPUT", "LONG_BINPUT"],
)
def test_a_memo_write_is_refused_before_the_memo_grows(memo_write):
    # Protocol 4 memoizes with MEMOIZE only. One inserted byte once made a
    # LONG_BINPUT that sized the unpickler's memo to twice its index.
    with pytest.raises(ProtocolError, match="memo write at byte 3"):
        decode_result(b"\x80\x04N" + memo_write + b".")


def test_the_walk_reads_alike_without_a_possessive_repeat(frames, monkeypatch):
    # Python before 3.11 has no possessive ``*+``; the greedy run it gets
    # instead must end where the possessive one does, from every opcode.
    with monkeypatch.context() as patched:
        patched.setattr(serialization.sys, "version_info", (3, 9, 0))
        greedy, _ = serialization._opcode_tables()
    assert greedy.pattern.endswith(b")*")
    for frame in frames:
        for _, _, pos in list(pickletools.genops(frame))[::25]:
            assert (
                greedy.match(frame, pos).end()
                == serialization._OPCODE_RUN.match(frame, pos).end()
            )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_only_protocol_errors_escape(frames, data):
    frame = data.draw(st.sampled_from(frames), label="frame")
    kind = data.draw(st.sampled_from(MUTATIONS), label="kind")
    at = data.draw(st.integers(0, len(frame) - 1), label="at")
    if kind == "truncate":
        mutated = frame[:at]
    elif kind == "delete":
        mutated = frame[:at] + frame[at + 1 :]
    else:
        value = data.draw(st.integers(0, 255), label="byte")
        skip = 0 if kind == "insert" else 1
        mutated = frame[:at] + bytes((value,)) + frame[at + skip :]
    result = decode_within_budget(mutated)
    assert result is None or type(result) is ShardResult
    assert CALLS == []


def frame_with_state(result: ShardResult, state: dict) -> bytes:
    """``result``'s frame carrying ``state`` as its wire form (NEWOBJ, then
    BUILD), as a peer's frame would."""

    class Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is result:
                return copyreg.__newobj__, (ShardResult,), state
            return NotImplemented

    buffer = io.BytesIO()
    Pickler(buffer, protocol=4).dump(result)
    return buffer.getvalue()


#: Manglings of a result's row columns (order keys, one list per field).
ROW_MANGLES = {
    "as-sent": lambda keys, columns: (keys, columns),
    "a-column-one-short": lambda keys, columns: (
        keys, [*columns[:-1], columns[-1][:-1]]
    ),
    "11-fields": lambda keys, columns: (keys, columns[:11]),
    "13-fields": lambda keys, columns: (keys, [*columns, columns[0]]),
    "more-keys-than-rows": lambda keys, columns: (
        [*keys, keys[-1] + 1], columns
    ),
}


@pytest.mark.parametrize("mangle", sorted(ROW_MANGLES))
def test_rows_whose_columns_disagree_are_refused(frames, mangle):
    result = decode_result(frames[0])
    state = result.__getstate__()
    keys, columns = state["rows"]
    state["rows"] = ROW_MANGLES[mangle](list(keys), [list(c) for c in columns])
    frame = frame_with_state(result, state)
    assert referenced_globals(frame) == {
        ("repro.pipeline.parallel", "ShardResult")
    } | referenced_globals(frames[0])
    if mangle == "as-sent":
        assert decode_result(frame).rows == result.rows
        return
    with pytest.raises(ProtocolError, match="does not decode"):
        decode_result(frame)


@pytest.mark.parametrize("fields", [11, 13])
def test_a_result_with_rows_of_the_wrong_arity_does_not_decode(frames, fields):
    # Once decoded silently into SessionRows of the wrong length.
    result = decode_result(frames[0])
    result.rows = [
        (key, (tuple(row) + (None,))[:fields]) for key, row in result.rows
    ]
    with pytest.raises(ProtocolError, match="field columns"):
        decode_result(encode_result(result))


def test_a_peer_on_the_previous_wire_fails_at_its_first_frame():
    # The result frame changed shape with the magic: an RDW1 peer is
    # refused at its header, never half-read.
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack(">4sBI", b"RDW1", protocol.MSG_RESULT, 0))
        with pytest.raises(ProtocolError, match="bad frame magic"):
            protocol.recv_frame(right)
