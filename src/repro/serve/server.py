"""HTTP front-end for the query engine: a thin, deterministic renderer.

The server layer owns *only* transport: URL parsing, status codes, and
byte rendering. Every decision — routing, validation, caching, error
mapping — lives in :class:`~repro.serve.engine.QueryEngine`, which the
tests drive both directly (in-process) and through a real socket; the two
must be indistinguishable.

Rendering is deterministic by construction: :func:`render_payload` emits
``json.dumps(payload, sort_keys=True)`` + newline, so a byte-equality
assertion between any two responses is meaningful (cold vs warm cache,
serial vs threaded — the contract in ``tests/test_serve_api.py``).

:class:`ThreadingHTTPServer` gives one thread per connection; since the
engine serializes request handling under its own lock, concurrency here
buys connection parallelism (accept/read/write overlap) while keeping the
counter accounting exact. Threads are daemonic so a ``repro serve``
process dies cleanly on SIGINT.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.engine import QueryEngine

__all__ = ["TraceStoreHTTPServer", "make_server", "render_payload"]


def render_payload(payload: dict) -> bytes:
    """Canonical response bytes: sorted-key JSON + trailing newline.

    Sorted keys make rendering order-independent of dict construction
    order, which is what lets the test suite assert *byte* identity
    between cold/warm and serial/threaded responses.
    """
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """One GET request in, one canonical JSON response out."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Responses are written in two pieces (header block, then body); with
    # Nagle on, the body segment can sit behind the client's delayed ACK
    # for ~40ms per request on keep-alive connections. Serving is strict
    # request/response, so flush segments immediately.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urlsplit(self.path)
        params = parse_qs(split.query, keep_blank_values=True)
        status, payload = self.server.engine.handle(split.path, params)
        body = render_payload(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.note_request()

    def log_message(self, format: str, *args) -> None:
        """Access logging is the metrics registry's job, not stderr's."""


class TraceStoreHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`QueryEngine`.

    ``max_requests`` (optional) shuts the server down after N responses
    have been written — the hook that makes ``repro serve`` end-to-end
    testable without signals.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        engine: QueryEngine,
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.engine = engine
        self.max_requests = max_requests
        self._served = 0
        self._served_lock = threading.Lock()

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
