"""Byte-level fuzz of the shard-result decoder (DESIGN.md §13).

``dist.serialization.decode_result`` reads the ``MSG_RESULT`` frames a
dispatch client receives. A result is a pickle, so the decoder resolves
only the globals a real result references (``RESULT_GLOBALS``). This file
pins that set against real frames, walking their opcodes with
``pickletools.genops``, and holds the decoder to its contract the way
``tests/test_task_fuzz.py`` holds the task decoder: a mutated frame — a
byte replaced, inserted or deleted, or the frame truncated — and a
hostile one (``os.system`` by ``GLOBAL``, a ``__reduce__`` to any
callable, a frame that is not a result, session columns whose lengths
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
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import protocol, serialization
from repro.dist.protocol import ProtocolError
from repro.dist.serialization import RESULT_GLOBALS, decode_result, encode_result
from repro.pipeline.io import plan_chunks
from repro.pipeline.parallel import ShardResult, _run_shard, _ShardTask
from repro.pipeline.table import RAGGED_COLUMNS, ROW_COLUMNS
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
        assert type(result) is ShardResult and result.sessions
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


def _columns(state: dict) -> dict:
    """A wire state's session columns by name, as arrays."""
    columns, _, _ = state["sessions"]
    names = [name for name, _ in ROW_COLUMNS] + [flat for flat, _ in RAGGED_COLUMNS]
    return {
        name: array(typecode, data) for name, (typecode, data) in zip(names, columns)
    }


def _with_columns(state: dict, **replaced) -> tuple:
    _, continents, geo_tags = state["sessions"]
    arrays = _columns(state)
    arrays.update(replaced)
    raw = tuple(
        column if isinstance(column, tuple) else (column.typecode, column.tobytes())
        for column in arrays.values()
    )
    return (raw, continents, geo_tags)


def _negative_length(state: dict) -> tuple:
    # Sums as before: only the sign of one length is wrong.
    lens = array("q", _columns(state)["size_lens"])
    lens[0], lens[1] = -1, lens[0] + lens[1] + 1
    return _with_columns(state, size_lens=lens)


def _negative_code(state: dict) -> tuple:
    # A signed column is the only way to send one: -1 would decode as the
    # dictionary's last value.
    codes = array("q", _columns(state)["continent"])
    codes[0] = -1
    return _with_columns(state, continent=codes)


#: Manglings of a result's session columns (raw bytes in wire order, then
#: the two dictionaries).
SESSION_MANGLES = {
    "as-sent": lambda state: state["sessions"],
    "a-column-one-short": lambda state: _with_columns(
        state, min_rtt_ms=_columns(state)["min_rtt_ms"][:-1]
    ),
    "an-odd-byte-length": lambda state: _with_columns(
        state, keys=("q", array("q", _columns(state)["keys"]).tobytes()[:-3])
    ),
    "a-float-typecode-for-an-integer-column": lambda state: _with_columns(
        state, bytes_sent=array("d", _columns(state)["bytes_sent"])
    ),
    "lengths-disagree-with-values": lambda state: _with_columns(
        state, sizes=_columns(state)["sizes"][:-1]
    ),
    "a-negative-length": _negative_length,
    "a-column-missing": lambda state: (
        state["sessions"][0][:-1], *state["sessions"][1:]
    ),
    "an-extra-column": lambda state: (
        state["sessions"][0] + (b"",), *state["sessions"][1:]
    ),
    "a-negative-code": _negative_code,
    "a-code-past-its-dictionary": lambda state: (
        state["sessions"][0], state["sessions"][1][:-1], state["sessions"][2]
    ),
    "a-dictionary-repeats-a-value": lambda state: (
        state["sessions"][0],
        state["sessions"][1] + state["sessions"][1][:1],
        state["sessions"][2],
    ),
}


@pytest.mark.parametrize("mangle", sorted(SESSION_MANGLES))
def test_sessions_whose_columns_disagree_are_refused(frames, mangle):
    result = decode_result(frames[0])
    state = result.__getstate__()
    state["sessions"] = SESSION_MANGLES[mangle](state)
    frame = frame_with_state(result, state)
    assert referenced_globals(frame) == {
        ("repro.pipeline.parallel", "ShardResult")
    } | referenced_globals(frames[0])
    if mangle == "as-sent":
        assert decode_result(frame).sessions == result.sessions
        return
    with pytest.raises(ProtocolError, match="does not decode: ValueError"):
        decode_result(frame)


@pytest.mark.parametrize("magic", [b"RDW1", b"RDW2"])
def test_a_peer_on_a_previous_wire_fails_at_its_first_frame(magic):
    # The result frame changed shape with the magic (RDW2: rows as field
    # tuples; RDW3: session column bytes): an older peer is refused at its
    # header, never half-read.
    left, right = socket.socketpair()
    with left, right:
        left.sendall(struct.pack(">4sBI", magic, protocol.MSG_RESULT, 0))
        with pytest.raises(ProtocolError, match="bad frame magic"):
            protocol.recv_frame(right)
