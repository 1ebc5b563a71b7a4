"""Byte-level fuzz of the shard-result decoder (DESIGN.md §13).

``dist.serialization.decode_result`` reads the ``MSG_RESULT`` frames a
dispatch client receives. A result is a pickle, so the decoder resolves
only the globals a real result references (``RESULT_GLOBALS``). This file
pins that set against real frames, walking their opcodes with
``pickletools.genops``, and holds the decoder to its contract the way
``tests/test_task_fuzz.py`` holds the task decoder: a mutated frame — a
byte replaced, inserted or deleted, or the frame truncated — and a
hostile one (``os.system`` by ``GLOBAL``, a ``__reduce__`` to any
callable, a frame that is not a result) may only return a
:class:`~repro.pipeline.parallel.ShardResult` or raise
:class:`~repro.dist.protocol.ProtocolError`, within a bounded time, and
never runs what it names.
"""

from __future__ import annotations

import os
import pickle
import pickletools
import time

import pytest
from hypothesis import given, settings, strategies as st

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
