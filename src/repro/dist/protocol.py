"""Length-prefixed socket framing for the dispatch wire (DESIGN.md §13).

Every message on a worker connection is one *frame*:

``
+------+------+----------+-----------------+
| RDW3 | type | length   | payload         |
| 4 B  | 1 B  | 4 B (BE) | ``length`` bytes|
+------+------+----------+-----------------+
``

The magic makes a stray client (or a version-skewed peer) fail loudly at
the first frame instead of desynchronizing mid-stream; the length prefix
makes message boundaries explicit so a reader never guesses. Frames are
capped at :data:`MAX_FRAME_BYTES` — a corrupt length field must not turn
into a multi-gigabyte allocation — or at the lower ``limit`` a reader of
small frames only (the daemon) passes :func:`recv_frame`.

Message types:

- ``MSG_PING`` / ``MSG_PONG`` — health check; empty payloads.
- ``MSG_TASK`` — a shard task as JSON (client → worker; never unpickled).
- ``MSG_RESULT`` — a pickled shard result (worker → client).
- ``MSG_FAILURE`` — a JSON-encoded worker exception (worker → client).
  JSON, not pickle: a failure reply must never itself fail to decode.
- ``MSG_SHUTDOWN`` — ask the daemon to stop after this connection.

Transport errors surface as :class:`ProtocolError`, a ``ConnectionError``
subclass — the dispatch client treats a malformed peer exactly like a
dead one (the task is reassigned), because from the plan's point of view
they are the same event: this worker cannot be trusted with shards.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional, Tuple

__all__ = [
    "HEADER_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MSG_FAILURE",
    "MSG_PING",
    "MSG_PONG",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MSG_TASK",
    "ProtocolError",
    "recv_frame",
    "send_frame",
]

MAGIC = b"RDW3"
_HEADER = struct.Struct(">4sBI")
#: Wire size of one frame header (magic + type + length).
HEADER_BYTES = _HEADER.size

MSG_PING = 1
MSG_PONG = 2
MSG_TASK = 3
MSG_RESULT = 4
MSG_FAILURE = 5
MSG_SHUTDOWN = 6

_KNOWN_TYPES = frozenset(
    (MSG_PING, MSG_PONG, MSG_TASK, MSG_RESULT, MSG_FAILURE, MSG_SHUTDOWN)
)

#: Hard ceiling on one frame's payload. Shard results scale with rows per
#: shard, which the planner bounds well below this; anything larger is a
#: corrupt or hostile length field.
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(ConnectionError):
    """The peer broke the framing contract (bad magic, type, or length)."""


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b"") -> int:
    """Send one frame; returns the bytes put on the wire."""
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"refusing to send unknown message type {msg_type}")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    header = _HEADER.pack(MAGIC, msg_type, len(payload))
    sock.sendall(header + payload)
    return len(header) + len(payload)


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at a boundary.

    EOF *inside* a frame is never clean — that's a peer dying mid-send,
    reported as :class:`ProtocolError` regardless of ``allow_eof``.
    """
    chunks = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if allow_eof and received == 0:
                return None
            raise ProtocolError(
                f"peer closed mid-frame ({received}/{count} bytes read)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, allow_eof: bool = False, limit: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, bytes]]:
    """Read one ``(msg_type, payload)`` frame of at most ``limit`` bytes.

    With ``allow_eof`` a clean close *between* frames returns ``None``
    (how a daemon notices a client is done); any other truncation or
    malformation raises :class:`ProtocolError` (a length over ``limit``
    before any payload byte is read).
    """
    header = _recv_exact(sock, _HEADER.size, allow_eof)
    if header is None:
        return None
    magic, msg_type, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {msg_type}")
    if length > limit:
        raise ProtocolError(
            f"frame length {length} exceeds the {limit}-byte limit"
        )
    payload = _recv_exact(sock, length, allow_eof=False) if length else b""
    return msg_type, payload or b""
