"""Transport encoding for shard tasks, results, and failures.

Tasks and results ride as pickles: they are the exact dataclasses the
process pool already pickles to its children, so the dispatch
wire inherits the same (trusted-cluster) serialization contract rather
than inventing a second one. Decoders type-check what they load — a
frame that unpickles to the wrong type is a protocol violation, not a
latent ``AttributeError`` three stack frames later.

Failures are JSON, never pickle. A worker's exception can hold anything
(third-party types, open sockets); stringifying to ``{"type", "message"}``
at the worker guarantees the failure reply itself cannot fail to decode.
The client rehydrates it as :class:`RemoteShardFailure`, which feeds the
standard retry/quarantine path like any local exception.

Security note: pickle is code execution, so this wire trusts its peers
by construction — same trust model as a process pool on one host,
documented in DESIGN.md §13. Bind daemons to loopback or a private
network, never the open internet.
"""

from __future__ import annotations

import json
import pickle

from repro.pipeline.parallel import ShardResult, _ShardTask

__all__ = [
    "RemoteShardFailure",
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


class RemoteShardFailure(RuntimeError):
    """A worker daemon reported a shard failure (already stringified).

    ``type_name`` names the original exception class on the worker;
    ``str()`` is its message — so ledger entries read
    ``RemoteShardFailure: <original message>`` with the original type
    preserved in the entry via :func:`format` below.
    """

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.message = message

    def __reduce__(self):
        return (type(self), (self.type_name, self.message))


def encode_task(task: _ShardTask) -> bytes:
    return pickle.dumps(task, protocol=_PICKLE_PROTOCOL)


def decode_task(payload: bytes) -> _ShardTask:
    task = pickle.loads(payload)
    if not isinstance(task, _ShardTask):
        raise TypeError(
            f"task frame decoded to {type(task).__name__}, not a shard task"
        )
    return task


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


def decode_failure(payload: bytes) -> RemoteShardFailure:
    try:
        fields = json.loads(payload.decode("utf-8"))
        return RemoteShardFailure(
            str(fields["type"]), str(fields["message"])
        )
    except Exception:  # noqa: BLE001 — even a mangled failure must decode
        return RemoteShardFailure(
            "UnknownRemoteError", payload.decode("utf-8", "replace")
        )
