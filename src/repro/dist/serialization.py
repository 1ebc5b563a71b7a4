"""Transport encoding for shard tasks, results, and failures.

A **task is JSON**: it names bytes on disk (four ``dataset_kwargs``
scalars, an ordinal, ``expected_rows``, a ``StoreChunk`` / ``TraceChunk`` of
scalars), and :func:`decode_task` rebuilds the dataclasses field by field
— exact key set, exact types, a known chunk kind — raising
:class:`~repro.dist.protocol.ProtocolError` on anything else, so the
daemon, the only reader of task frames, never unpickles what a peer sent.

**Results are pickles** — ``ShardResult``'s own wire form, the one the
process pool pickles back from its children (rows as plain tuples) — read
only by the client, from daemons it chose to dial (DESIGN.md §13).
**Failures are JSON**: a worker's exception can hold anything, so it is
stringified to ``{"type", "message"}`` at the worker and a failure reply
cannot itself fail to decode; the client
rehydrates it as :class:`~repro.pipeline.parallel.RemoteCause`, which
feeds the standard retry/quarantine path like any local exception.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import typing

from repro.dist.protocol import ProtocolError
from repro.pipeline.io import StoreChunk, TraceChunk
from repro.pipeline.parallel import RemoteCause, ShardResult, _ShardTask

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

_CHUNK_KINDS = {"store": StoreChunk, "trace": TraceChunk}
#: Field -> the exact JSON types it may have.
_TASK_FIELDS = {
    "dataset_kwargs": (dict,),
    "chunk": (dict,),
    "ordinal": (int,),
    "expected_rows": (int, type(None)),
}
_KWARGS_FIELDS = {
    "study_windows": (int,),
    "keep_response_sizes": (bool,),
    "compute_naive": (bool,),
    "window_seconds": (int, float),
}


def _chunk_fields(chunk_cls) -> dict:
    """A chunk dataclass's fields and their JSON types (a tuple is a list)."""
    hints = typing.get_type_hints(chunk_cls)
    return {
        name: (list if typing.get_origin(kind) is tuple else kind,)
        for name, kind in hints.items()
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
    fields["chunk"]["kind"] = (
        "store" if isinstance(task.chunk, StoreChunk) else "trace"
    )
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
    kind = chunk.pop("kind", None)
    if not isinstance(kind, str) or kind not in _CHUNK_KINDS:
        raise ProtocolError(f"task chunk has unknown kind {kind!r}")
    chunk_cls = _CHUNK_KINDS[kind]
    _check(chunk, _chunk_fields(chunk_cls), f"{kind} chunk")
    for name, value in chunk.items():
        if type(value) is list:  # StoreChunk.partition_ids
            if not all(type(item) is int for item in value):
                raise ProtocolError(f"{kind} chunk {name} must be integers")
            chunk[name] = tuple(value)
    fields["chunk"] = chunk_cls(**chunk)
    return _ShardTask(**fields)


def encode_result(result: ShardResult) -> bytes:
    return pickle.dumps(result, protocol=_PICKLE_PROTOCOL)


def decode_result(payload: bytes) -> ShardResult:
    result = pickle.loads(payload)
    if not isinstance(result, ShardResult):
        raise TypeError(
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
