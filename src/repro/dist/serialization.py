"""Transport encoding for shard tasks, results, and failures.

A **task is JSON**: it names bytes on disk (four ``dataset_kwargs``
scalars, an ordinal and a ``StoreChunk`` of scalars), and
:func:`decode_task` rebuilds the dataclasses field by field — exact key
set, exact types — raising
:class:`~repro.dist.protocol.ProtocolError` on anything else, so the
daemon, the only reader of task frames, never unpickles what a peer sent.

**Results are pickles** — ``ShardResult``'s own wire form, the one the
process pool pickles back from its children (rows as plain tuples) — read
only by the client, from daemons it chose to dial (DESIGN.md §13), and
only through an unpickler that resolves the seven globals a result
references (:data:`RESULT_GLOBALS`): a frame naming any other raises
:class:`~repro.dist.protocol.ProtocolError`, as does any frame that does
not decode, so a result frame cannot run code.
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
    decode, names a global outside :data:`RESULT_GLOBALS`, or decodes to
    anything but a :class:`ShardResult`."""
    try:
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
