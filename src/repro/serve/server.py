"""HTTP front-end for the query engine: a minimal HTTP/1.1 keep-alive loop.

The server layer owns *only* transport: request-line and header parsing,
status codes and byte rendering. It hands each raw request target to
:meth:`~repro.serve.engine.QueryEngine.handle_target`; every decision —
URL parsing, routing, validation, caching, error mapping — lives in the
engine, which the tests drive both directly (in-process) and through a
real socket; the two must be indistinguishable.

Rendering is deterministic by construction: :func:`render_payload` emits
``json.dumps(payload, sort_keys=True)`` + newline, so a byte-equality
assertion between any two responses is meaningful (cold vs warm cache,
serial vs threaded — the contract in ``tests/test_serve_api.py``). It is
the only renderer: a payload the engine memoized on a cache entry
(:class:`~repro.serve.engine.MemoizedPayload`) keeps the bytes of its
first rendering, so a warm response reuses them instead of re-serializing.

The transport is a :class:`socketserver.ThreadingTCPServer` (one daemon
thread per connection) whose handler reads a request line and its header
lines and answers with one ``sendall`` of status line, headers and body.
It keeps ``http.server``'s observable contract (DESIGN.md §12): GET only
(any other method is a 501), lines of at most 65,536 bytes (a longer
request line is a 414, a longer header line a 431), at most 100 header
fields (431), a leading ``//`` in the target collapsed to ``/``
(gh-87389), HTTP/1.1 keep-alive unless the client sends
``Connection: close``, and HTTP/1.0 closed unless it sends
``Connection: keep-alive``; any other HTTP version is a 505. Anything
else malformed — a request line that is not ``METHOD TARGET HTTP/x.y``,
a header line without a colon, a request carrying a body — is a 400.
A request the transport rejects never reaches the engine; it counts as
``serve.responses.protocol_error``, and its connection is closed after
the response. The engine serializes request handling under its own
lock, so connection threads overlap only socket reads and writes, which
keeps the counter accounting exact.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Optional, Tuple

from repro.serve.engine import MemoizedPayload, QueryEngine

__all__ = ["TraceStoreHTTPServer", "make_server", "render_payload"]

SERVER_NAME = b"repro-serve/1"
#: ``http.server``'s limits: the longest request or header line, and the
#: most header fields one request may carry.
MAX_LINE = 65536
MAX_HEADERS = 100
_END_OF_HEADERS = (b"\r\n", b"\n")
#: The protocol versions served, and whether each keeps a connection open
#: unless its ``Connection`` header says otherwise.
_KEEP_ALIVE = {"HTTP/1.1": True, "HTTP/1.0": False}
#: ``{status: status line}`` for every status a response can carry.
_STATUS_LINES = {
    status.value: b"HTTP/1.1 %d %s\r\n" % (status.value, status.phrase.encode())
    for status in HTTPStatus
}
#: How long a rejected connection waits for its client to stop sending.
LINGER_SECONDS = 1.0


def render_payload(payload: dict) -> bytes:
    """Canonical response bytes: sorted-key JSON + trailing newline.

    Sorted keys make rendering order-independent of dict construction
    order, which is what lets the test suite assert *byte* identity
    between cold/warm and serial/threaded responses. A
    :class:`~repro.serve.engine.MemoizedPayload` is rendered once: its
    bytes are kept on it and returned by every later call.
    """
    body = getattr(payload, "body", None)
    if body is None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        if isinstance(payload, MemoizedPayload):
            payload.body = body
    return body


class _Reject(Exception):
    """A request the transport refuses before it reaches the engine."""

    def __init__(self, status: HTTPStatus, detail: str) -> None:
        super().__init__(detail)
        self.status = status


def _read_request(rfile) -> Optional[Tuple[str, bool]]:
    """Read one request from ``rfile``: ``(target, keep_alive)``.

    Returns ``None`` when the peer closed the connection before a whole
    request arrived; raises :class:`_Reject` for a request to refuse.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise _Reject(
            HTTPStatus.REQUEST_URI_TOO_LONG,
            f"request line longer than {MAX_LINE} bytes",
        )
    # Decoded and split exactly as http.server does, so a target means
    # what it meant there.
    words = str(line, "iso-8859-1").rstrip("\r\n").split()
    if len(words) != 3:
        raise _Reject(HTTPStatus.BAD_REQUEST, f"bad request line {line[:200]!r}")
    method, target, version = words
    keep_alive = _KEEP_ALIVE.get(version)
    if keep_alive is None:
        raise _Reject(
            HTTPStatus.HTTP_VERSION_NOT_SUPPORTED
            if re.fullmatch(r"HTTP/\d+\.\d+", version)
            else HTTPStatus.BAD_REQUEST,
            f"unsupported HTTP version {version!r}",
        )
    has_body = False
    fields = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if not line:
            return None
        if len(line) > MAX_LINE:
            raise _Reject(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                f"header line longer than {MAX_LINE} bytes",
            )
        if line in _END_OF_HEADERS:
            break
        fields += 1
        if fields > MAX_HEADERS:
            raise _Reject(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                f"more than {MAX_HEADERS} header fields",
            )
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise _Reject(HTTPStatus.BAD_REQUEST, f"bad header line {line[:200]!r}")
        name = name.lower()
        if name == b"connection":
            value = value.strip().lower()
            if value == b"close":
                keep_alive = False
            elif value == b"keep-alive":
                keep_alive = True
        elif name == b"transfer-encoding" or (
            name == b"content-length" and value.strip() != b"0"
        ):
            has_body = True
    if method != "GET":
        raise _Reject(HTTPStatus.NOT_IMPLEMENTED, f"unsupported method {method!r}")
    if has_body:
        raise _Reject(HTTPStatus.BAD_REQUEST, "a GET request carries no body")
    if target.startswith("//"):
        target = "/" + target.lstrip("/")
    return target, keep_alive


def _response(status: int, body: bytes, keep_alive: bool, date: bytes) -> bytes:
    """Status line, headers and body, as the one buffer a request costs."""
    return b"".join((
        _STATUS_LINES[status],
        b"Server: %s\r\nDate: %s\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n%s\r\n"
        % (
            SERVER_NAME, date, len(body),
            b"" if keep_alive else b"Connection: close\r\n",
        ),
        body,
    ))


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: requests in, one ``sendall`` each out."""

    # A response is one segment, and the next request waits for it: flush
    # it now, not after the client's delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: TraceStoreHTTPServer = self.server
        engine = server.engine
        keep_alive, rejected = True, False
        while keep_alive:
            try:
                request = _read_request(self.rfile)
            except _Reject as reject:
                engine.note_protocol_error()
                keep_alive, rejected = False, True
                status, payload = reject.status, {
                    "error": reject.status.name.lower(),
                    "detail": str(reject),
                }
            except OSError:
                return  # the peer reset the connection
            else:
                if request is None:
                    return
                target, keep_alive = request
                status, payload = engine.handle_target(target)
            response = _response(
                status, render_payload(payload), keep_alive, server.date()
            )
            try:
                self.request.sendall(response)
            except OSError:
                return  # the peer went away mid-response
            server.note_request()
        if rejected:
            self._drain()

    def _drain(self) -> None:
        """After a rejection, read what the client still sends until it
        closes (or ``LINGER_SECONDS`` pass): closing a socket with unread
        bytes resets the connection, which can destroy the response
        before the client reads it."""
        deadline = time.monotonic() + LINGER_SECONDS
        try:
            self.request.shutdown(socket.SHUT_WR)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self.request.settimeout(remaining)
                if not self.request.recv(65536):
                    return
        except OSError:
            return


class TraceStoreHTTPServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP server bound to one :class:`QueryEngine`.

    ``max_requests`` (optional) shuts the server down after N responses
    have been written — the hook that makes ``repro serve`` end-to-end
    testable without signals.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        engine: QueryEngine,
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(address, _Connection)
        self.engine = engine
        self.max_requests = max_requests
        self._served = 0
        self._served_lock = threading.Lock()
        self._date = (-1, b"")

    def date(self) -> bytes:
        """The ``Date`` header value, formatted at most once a second."""
        second, value = self._date
        now = int(time.time())
        if now != second:
            # Threads racing here format the same second; either may win.
            value = formatdate(now, usegmt=True).encode("ascii")
            self._date = (now, value)
        return value

    def note_request(self) -> None:
        """Count a completed response; trigger shutdown at the cap.

        ``shutdown()`` blocks until ``serve_forever`` exits, so it must
        run off the handler thread.
        """
        with self._served_lock:
            self._served += 1
            reached_cap = (
                self.max_requests is not None
                and self._served >= self.max_requests
            )
        if reached_cap:
            threading.Thread(target=self.shutdown, daemon=True).start()


def make_server(
    store_path,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: Optional[int] = None,
    **engine_kwargs,
) -> TraceStoreHTTPServer:
    """Build a server over ``store_path``; ``port=0`` picks a free port.

    Engine keyword arguments (``study_windows=``, ``cache_capacity=``,
    ``metrics=``) pass through to :class:`QueryEngine`. The caller owns
    the serve loop::

        server = make_server(store, port=8321)
        print(server.server_address)
        server.serve_forever()
    """
    engine = QueryEngine(store_path, **engine_kwargs)
    return TraceStoreHTTPServer((host, port), engine, max_requests=max_requests)
