"""Transport encoding for shard tasks, results, and failures.

A **task is JSON**: it names bytes on disk (four ``dataset_kwargs``
scalars, an ordinal and a ``StoreChunk`` of scalars), and
:func:`decode_task` rebuilds the dataclasses field by field — exact key
set, exact types — raising
:class:`~repro.dist.protocol.ProtocolError` on anything else, so the
daemon, the only reader of task frames, never unpickles what a peer sent.

**Results are pickles** — ``ShardResult``'s own wire form, the one the
process pool pickles back from its children (sessions as raw column
bytes, every length checked before an array is built) — read only by
the client, from daemons it chose to dial (DESIGN.md §13), and
only through an unpickler that resolves the seven globals a result
references (:data:`RESULT_GLOBALS`): a frame naming any other raises
:class:`~repro.dist.protocol.ProtocolError`, as does any frame that does
not decode, so a result frame cannot run code. A frame is walked for
memo writes before it is unpickled (protocol 4 writes none), so a mangled
one cannot make the unpickler allocate gigabytes either.
**Failures are JSON**: a worker's exception can hold anything, so it is
stringified to ``{"type", "message"}`` at the worker and a failure reply
cannot itself fail to decode; the client
rehydrates it as :class:`~repro.pipeline.parallel.RemoteCause`, which
feeds the standard retry/quarantine path like any local exception.
"""

from __future__ import annotations

import dataclasses
import io
import json
import pickle
import pickletools
import re
import struct
import sys

from repro.dist.protocol import ProtocolError
from repro.pipeline.parallel import RemoteCause, ShardResult, _ShardTask
from repro.store import StoreChunk

__all__ = [
    "decode_failure",
    "decode_result",
    "decode_task",
    "encode_failure",
    "encode_result",
    "encode_task",
]

#: Protocol 4: the floor for efficient large-bytes framing, available on
#: every Python this repo supports (3.8+), and stable across minor bumps
#: so mixed-version client/daemon pairs interoperate.
_PICKLE_PROTOCOL = 4

#: Every global a result frame references, as ``(module, name)``: the
#: result, its aggregations and their keys and routes, and its registry
#: and filter stats (``tests/test_result_fuzz.py`` pins the set against
#: real frames).
RESULT_GLOBALS = frozenset(
    {
        ("repro.pipeline.parallel", "ShardResult"),
        ("repro.core.aggregation", "Aggregation"),
        ("repro.core.records", "UserGroupKey"),
        ("repro.core.records", "RouteInfo"),
        ("repro.core.records", "Relationship"),
        ("repro.obs.registry", "MetricsRegistry"),
        ("repro.pipeline.filters", "FilterStats"),
    }
)

#: Field -> the exact JSON types it may have.
_TASK_FIELDS = {
    "dataset_kwargs": (dict,),
    "chunk": (dict,),
    "ordinal": (int,),
}
_KWARGS_FIELDS = {
    "study_windows": (int,),
    "keep_response_sizes": (bool,),
    "compute_naive": (bool,),
    "window_seconds": (int, float),
}
_CHUNK_FIELDS = {
    "path": (str,),
    "ordinal": (int,),
    "partition_ids": (list,),
    "rows": (int,),
}


def _check(obj, fields: dict, what: str) -> None:
    """Raise unless ``obj`` is a dict of exactly ``fields``, each of its type
    (exactly: ``bool`` is an ``int`` to isinstance, never to a task)."""
    if type(obj) is not dict or set(obj) != set(fields):
        raise ProtocolError(f"{what} must be an object of {sorted(fields)}")
    for name, kinds in fields.items():
        if type(obj[name]) not in kinds:
            raise ProtocolError(
                f"{what} field {name!r} has type {type(obj[name]).__name__}"
            )


def encode_task(task: _ShardTask) -> bytes:
    fields = dataclasses.asdict(task)
    return json.dumps(fields, separators=(",", ":")).encode("utf-8")


def decode_task(payload: bytes) -> _ShardTask:
    """Rebuild a task from its JSON frame; :class:`ProtocolError` if it
    is anything but a well-formed task (this input comes off a socket)."""
    try:
        fields = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"task frame is not JSON: {error}") from None
    _check(fields, _TASK_FIELDS, "task")
    _check(fields["dataset_kwargs"], _KWARGS_FIELDS, "task dataset_kwargs")
    chunk = fields["chunk"]
    _check(chunk, _CHUNK_FIELDS, "task chunk")
    if not all(type(item) is int for item in chunk["partition_ids"]):
        raise ProtocolError("task chunk partition_ids must be integers")
    chunk["partition_ids"] = tuple(chunk["partition_ids"])
    fields["chunk"] = StoreChunk(**chunk)
    return _ShardTask(**fields)


def encode_result(result: ShardResult) -> bytes:
    return pickle.dumps(result, protocol=_PICKLE_PROTOCOL)


#: The opcodes PUT, BINPUT and LONG_BINPUT.
_MEMO_WRITES = frozenset(b"pqr")


def _opcode_tables():
    """A regex matching a run of opcodes whose argument ends where the
    opcode says (fixed width, or up to one or two newlines), and the
    length prefix of every other opcode but ``STOP`` and the memo writes."""
    lines = {
        "stringnl_noescape_pair": rb"[^\n]*\n[^\n]*\n",  # GLOBAL, INST
    }
    prefixes = {
        pickletools.TAKEN_FROM_ARGUMENT1: struct.Struct("<B"),
        pickletools.TAKEN_FROM_ARGUMENT4: struct.Struct("<i"),
        pickletools.TAKEN_FROM_ARGUMENT4U: struct.Struct("<I"),
        pickletools.TAKEN_FROM_ARGUMENT8U: struct.Struct("<Q"),
    }
    runs: dict = {}
    prefixed: dict = {}
    for op in pickletools.opcodes:
        if op.name == "STOP" or ord(op.code) in _MEMO_WRITES:
            continue
        width = op.arg.n if op.arg is not None else 0
        if width in prefixes:
            prefixed[ord(op.code)] = prefixes[width]
            continue
        if width == pickletools.UP_TO_NEWLINE:
            argument = lines.get(op.arg.name, rb"[^\n]*\n")
        else:
            argument = rb"[\s\S]{%d}" % width if width else b""
        runs.setdefault(argument, []).append(re.escape(op.code.encode("latin-1")))
    alternatives = [
        b"[" + b"".join(codes) + b"]" + argument for argument, codes in runs.items()
    ]
    # Possessive (3.11+) keeps no backtracking state: greedy matches the
    # same end, as the alternatives start with disjoint opcodes.
    repeat = b"*+" if sys.version_info >= (3, 11) else b"*"
    return re.compile(b"(?:" + b"|".join(alternatives) + b")" + repeat), prefixed


_OPCODE_RUN, _LENGTH_PREFIXED = _opcode_tables()


def _refuse_memo_writes(payload: bytes) -> None:
    """Walk ``payload``'s opcodes up to ``STOP``, raising
    :class:`pickle.UnpicklingError` at a memo write (``PUT``, ``BINPUT``,
    ``LONG_BINPUT``), an unknown opcode, a length past the end of the
    frame, or that end.

    Protocol 4 memoizes with ``MEMOIZE`` only, so a result frame holds no
    memo write; in a mangled one, the C unpickler sizes its memo to twice
    the index written — a five-byte ``LONG_BINPUT`` asks for gigabytes.
    Runs of fixed-width opcodes (most of a frame: the aggregations) are
    skipped by one regex match."""
    pos, end = 0, len(payload)
    while True:
        pos = _OPCODE_RUN.match(payload, pos).end()
        if pos >= end:
            raise pickle.UnpicklingError("result frame ends before STOP")
        code = payload[pos]
        if code == pickle.STOP[0]:
            return
        if code in _MEMO_WRITES:
            raise pickle.UnpicklingError(f"memo write at byte {pos}")
        prefix = _LENGTH_PREFIXED.get(code)
        if prefix is None:
            raise pickle.UnpicklingError(f"unreadable opcode at byte {pos}")
        try:
            (length,) = prefix.unpack_from(payload, pos + 1)
        except struct.error:
            length = -1
        if not 0 <= length <= end - pos:
            raise pickle.UnpicklingError(f"bad argument length at byte {pos}")
        pos += 1 + prefix.size + length


class _ResultUnpickler(pickle.Unpickler):
    """Unpickles a result frame, resolving only :data:`RESULT_GLOBALS`: a
    frame that names any other global (``os.system``, ``builtins.eval``,
    ...) is refused before anything is called."""

    def find_class(self, module: str, name: str):
        if (module, name) not in RESULT_GLOBALS:
            raise pickle.UnpicklingError(
                f"result frame references {module}.{name}, which is not "
                "part of a shard result"
            )
        return super().find_class(module, name)


def decode_result(payload: bytes) -> ShardResult:
    """Rebuild a shard result; :class:`ProtocolError` if the frame does not
    decode (session columns whose lengths disagree included), names a
    global outside :data:`RESULT_GLOBALS`, or decodes to anything but a
    :class:`ShardResult`."""
    try:
        _refuse_memo_writes(payload)
        result = _ResultUnpickler(io.BytesIO(payload)).load()
    except Exception as error:  # noqa: BLE001 — whatever a mangled frame raises
        raise ProtocolError(
            f"result frame does not decode: {type(error).__name__}: {error}"
        ) from None
    if type(result) is not ShardResult:
        raise ProtocolError(
            f"result frame decoded to {type(result).__name__}, "
            "not a shard result"
        )
    return result


def encode_failure(error: BaseException) -> bytes:
    return json.dumps(
        {"type": type(error).__name__, "message": str(error)}
    ).encode("utf-8")


def decode_failure(payload: bytes) -> RemoteCause:
    try:
        fields = json.loads(payload.decode("utf-8"))
        return RemoteCause(str(fields["type"]), str(fields["message"]))
    except Exception:  # noqa: BLE001 — even a mangled failure must decode
        return RemoteCause(
            "UnknownRemoteError", payload.decode("utf-8", "replace")
        )
