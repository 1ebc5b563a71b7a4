"""Transport conformance: the serve loop over raw sockets.

``repro serve`` owns its HTTP/1.1 request parser (``serve/server.py``), so
what ``http.server`` used to guarantee is pinned here, byte by byte:

- **Rejections.** A malformed request line is a 400, a method other than
  GET a 501, an over-long line a 414 (request line) or 431 (header line),
  more than 100 header fields a 431, a request with a body a 400. Each is
  answered, then the connection is closed; none reaches the engine, and
  each counts as ``serve.responses.protocol_error`` (shown by
  ``/v1/health``) while ``serve.requests`` still equals the engine's
  three outcome counters summed.
- **Connection lifetime.** HTTP/1.1 keeps the connection unless the
  client sends ``Connection: close``; HTTP/1.0 closes it unless the
  client sends ``Connection: keep-alive``; pipelined requests are
  answered in order on one socket.
- **Slow and vanishing clients.** A client stalled mid-request delays no
  other connection, and one that disconnects mid-response leaves the
  server serving, with no traceback.
- **Same answers as ``http.server``.** A Hypothesis fuzz of request
  targets — percent-escapes, repeated and blank parameters, absolute
  form, a leading ``//``, non-ASCII bytes — sends each target to this
  transport and to a ``BaseHTTPRequestHandler`` oracle kept here (the
  oracle belongs to the tests): same status, same body bytes, only
  200/400/404, never a dropped connection, within a bounded time.
"""

import json
import socket
import struct
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.serve import QueryEngine, make_server, render_payload
from repro.serve.engine import MemoizedPayload
from repro.store import write_store

from tests.helpers import make_trace_samples

pytestmark = pytest.mark.serve

#: Every socket read in this file gives up after this long: a hang is a
#: failure, not a stuck test run.
TIMEOUT = 10.0

DASHBOARD = [
    "/v1/quantiles",
    "/v1/quantiles?pop=ams1",
    "/v1/quantiles?pop=ams1&country=NL",
    "/v1/quantiles?country=NL&country=BR",
    "/v1/quantiles?window=0-3",
    "/v1/degradation",
    "/v1/degradation?metric=hdratio",
    "/v1/routing",
]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve_http") / "served.store"
    write_store(path, make_trace_samples(400, seed=11, windows=8))
    return path


class Serving:
    """A server on a daemon thread, stopped and closed on exit."""

    def __init__(self, server) -> None:
        self.server = server
        self.port = server.server_address[1]
        self.thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=TIMEOUT)
        assert not self.thread.is_alive()

    def connect(self) -> socket.socket:
        return socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT)

    def counter(self, name: str) -> int:
        return self.server.engine.metrics.counter(name)


@pytest.fixture()
def serving(store):
    with Serving(make_server(store, port=0)) as running:
        yield running


def request(target: str, version: str = "HTTP/1.1", headers=()) -> bytes:
    lines = [f"GET {target} {version}", "Host: localhost", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


def read_response(rfile):
    """One response off ``rfile``: ``(status, headers, body)``, or ``None``
    at end of stream. Header names are lower-cased."""
    status_line = rfile.readline()
    if not status_line:
        return None
    version, status, _ = status_line.split(b" ", 2)
    assert version == b"HTTP/1.1", status_line
    headers = {}
    while True:
        line = rfile.readline()
        assert line, "connection closed inside a header block"
        if line == b"\r\n":
            break
        name, _, value = line.partition(b":")
        headers[name.decode().lower()] = value.strip().decode()
    body = rfile.read(int(headers["content-length"]))
    return int(status), headers, body


def closed_by_server(sock, rfile) -> bool:
    """Whether the server has closed this connection: one more request
    gets end of stream (or a reset) instead of an answer."""
    try:
        sock.sendall(request("/v1/health"))
        return read_response(rfile) is None
    except (BrokenPipeError, ConnectionResetError):
        return True


def exchange(running, raw: bytes, responses: int = 1, probe: bool = True):
    """Send ``raw`` on a fresh connection and read ``responses`` responses;
    with ``probe``, also whether the server then closed the connection."""
    with running.connect() as sock, sock.makefile("rb") as rfile:
        sock.sendall(raw)
        answers = [read_response(rfile) for _ in range(responses)]
        closed = closed_by_server(sock, rfile) if probe else None
    return answers, closed


def expected_body(store, target: str) -> bytes:
    """What a fresh engine renders for ``target``."""
    split = urlsplit(target)
    _, payload = QueryEngine(store).handle(
        split.path, parse_qs(split.query, keep_blank_values=True)
    )
    return render_payload(payload)


def assert_exact_accounting(running) -> None:
    assert running.counter("serve.requests") == sum(
        running.counter(f"serve.responses.{outcome}")
        for outcome in ("ok", "client_error", "server_error")
    )


# --------------------------------------------------------------------- #
# Rejections
# --------------------------------------------------------------------- #
REJECTED = {
    "no version": (b"GET /v1/health\r\n\r\n", 400),
    "four words": (b"GET /v1/health HTTP/1.1 extra\r\n\r\n", 400),
    "garbage": (b"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\r\n\r\n", 400),
    "blank line": (b"\r\n", 400),
    "bad version": (b"GET /v1/health HTTP/1.x\r\n\r\n", 400),
    "not http": (b"GET /v1/health SPDY/3\r\n\r\n", 400),
    "http/2": (b"GET /v1/health HTTP/2.0\r\n\r\n", 505),
    "http/1.2": (b"GET /v1/health HTTP/1.2\r\n\r\n", 505),
    "header without colon": (b"GET /v1/health HTTP/1.1\r\nHost\r\n\r\n", 400),
    "folded header": (
        b"GET /v1/health HTTP/1.1\r\nHost: a\r\n  folded\r\n\r\n", 400
    ),
    "post": (b"POST /v1/quantiles HTTP/1.1\r\nHost: a\r\n\r\n", 501),
    "head": (b"HEAD /v1/quantiles HTTP/1.1\r\nHost: a\r\n\r\n", 501),
    "lower-case get": (b"get /v1/quantiles HTTP/1.1\r\n\r\n", 501),
    "content-length body": (
        b"GET /v1/quantiles HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 400
    ),
    "chunked body": (
        b"GET /v1/quantiles HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n",
        400,
    ),
    "long request line": (
        b"GET /v1/quantiles?pop=" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414
    ),
    "long header line": (
        b"GET /v1/quantiles HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        431,
    ),
    "101 header fields": (
        b"GET /v1/quantiles HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % index for index in range(101))
        + b"\r\n",
        431,
    ),
}


class TestRejections:
    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_answered_then_closed(self, serving, name):
        raw, status = REJECTED[name]
        # The probe request after the rejected one is never answered.
        [(got, headers, body)], closed = exchange(serving, raw)
        assert got == status
        assert closed
        assert headers["connection"] == "close"
        payload = json.loads(body)
        assert set(payload) == {"error", "detail"}
        assert payload["error"] == HTTPStatus(status).name.lower()
        assert body == render_payload(payload)
        assert serving.counter("serve.responses.protocol_error") == 1
        assert serving.counter("serve.requests") == 0

    def test_a_rejected_body_is_read_before_the_close(self, serving):
        """The client of a rejected upload sends its whole body, then reads
        the 400: closing with the body unread would reset the connection
        under the client's send."""
        body = b"x" * 4_000_000
        with serving.connect() as sock, sock.makefile("rb") as rfile:
            sock.sendall(
                b"GET /v1/quantiles HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body)
            )
            sock.sendall(body)
            status, headers, _ = read_response(rfile)
            assert read_response(rfile) is None
        assert (status, headers["connection"]) == (400, "close")

    def test_limits_are_inclusive(self, serving):
        """A 65,536-byte request line and 100 header fields are accepted."""
        prefix, suffix = b"GET /v1/quantiles?pop=", b" HTTP/1.1\r\n"
        long_line = prefix + b"a" * (65_536 - len(prefix) - len(suffix)) + suffix
        assert len(long_line) == 65_536
        fields = b"".join(b"X-H%d: v\r\n" % index for index in range(100))
        for raw in (
            long_line + b"\r\n",
            b"GET /v1/health HTTP/1.1\r\n" + fields + b"\r\n",
        ):
            [(status, _, _)], closed = exchange(serving, raw)
            assert status == 200
            assert not closed
        assert serving.counter("serve.responses.protocol_error") == 0

    def test_zero_content_length_is_not_a_body(self, serving):
        [(status, _, _)], closed = exchange(
            serving, request("/v1/health", headers=["Content-Length: 0"])
        )
        assert status == 200 and not closed

    def test_health_counts_protocol_errors_apart_from_requests(self, serving):
        for raw in (b"BREW /pot HTTP/1.1\r\n\r\n", b"nonsense\r\n\r\n"):
            exchange(serving, raw, probe=False)
        exchange(serving, request("/v1/nope"), probe=False)
        [(status, _, body)], _ = exchange(
            serving, request("/v1/health"), probe=False
        )
        assert status == 200
        health = json.loads(body)
        assert health["protocol_errors"] == 2
        # /v1/nope and this /v1/health reached the engine; the two
        # rejections did not.
        assert health["requests"] == 2
        assert serving.counter("serve.responses.protocol_error") == 2
        assert serving.counter("serve.responses.client_error") == 1
        assert_exact_accounting(serving)


# --------------------------------------------------------------------- #
# Connection lifetime
# --------------------------------------------------------------------- #
class TestConnectionLifetime:
    @pytest.mark.parametrize(
        "version, headers, closes",
        [
            ("HTTP/1.1", [], False),
            ("HTTP/1.1", ["Connection: close"], True),
            ("HTTP/1.1", ["Connection: CLOSE"], True),
            ("HTTP/1.0", [], True),
            ("HTTP/1.0", ["Connection: keep-alive"], False),
            ("HTTP/1.0", ["Connection: Keep-Alive"], False),
        ],
    )
    def test_keep_alive_rules(self, serving, version, headers, closes):
        [(status, reply_headers, _)], closed = exchange(
            serving, request("/v1/quantiles", version, headers)
        )
        assert status == 200
        assert closed == closes
        assert ("connection" in reply_headers) == closes

    def test_response_headers(self, serving):
        [(_, headers, body)], _ = exchange(serving, request("/v1/quantiles"))
        assert set(headers) == {"server", "date", "content-type", "content-length"}
        assert headers["content-type"] == "application/json"
        assert headers["server"] == "repro-serve/1"
        assert headers["date"].endswith(" GMT")
        assert int(headers["content-length"]) == len(body)

    def test_pipelined_requests_answered_in_order(self, serving, store):
        targets = ["/v1/quantiles?pop=ams1", "/v1/routing", "/v1/quantiles"]
        raw = b"".join(request(target) for target in targets)
        raw += request("/v1/quantiles?pop=ams1", headers=["Connection: close"])
        answers, closed = exchange(serving, raw, responses=4)
        assert closed
        assert [status for status, _, _ in answers] == [200] * 4
        assert [body for _, _, body in answers] == [
            expected_body(store, target) for target in targets + targets[:1]
        ]

    def test_double_slash_collapses(self, serving, store):
        for target in ("//v1/quantiles", "///v1/quantiles?pop=ams1"):
            [(status, _, body)], _ = exchange(serving, request(target))
            assert status == 200
            assert body == expected_body(store, "/" + target.lstrip("/"))

    def test_served_bodies_equal_a_fresh_engine_cold_and_warm(self, serving, store):
        cache = serving.server.engine.cache
        with serving.connect() as sock, sock.makefile("rb") as rfile:
            for warm in (False, True):
                misses = cache.misses
                for target in DASHBOARD:
                    sock.sendall(request(target))
                    status, _, body = read_response(rfile)
                    assert status == 200
                    assert body == expected_body(store, target), target
                assert (cache.misses == misses) == warm


class TestMemoizedBody:
    def test_a_memoized_payload_is_rendered_once(self, store):
        engine = QueryEngine(store)
        _, cold = engine.handle("/v1/quantiles", {})
        assert isinstance(cold, MemoizedPayload)
        body = render_payload(cold)
        _, warm = engine.handle("/v1/quantiles", {})
        assert warm is cold
        assert render_payload(warm) is body
        assert body == render_payload(dict(cold))

    def test_health_and_errors_are_rendered_per_request(self, store):
        engine = QueryEngine(store)
        for path, params in (("/v1/health", {}), ("/v1/quantiles", {"x": ["1"]})):
            _, payload = engine.handle(path, params)
            assert type(payload) is dict


# --------------------------------------------------------------------- #
# Slow and vanishing clients
# --------------------------------------------------------------------- #
class TestSlowAndVanishingClients:
    def test_a_stalled_client_delays_no_other_connection(self, serving, store):
        with serving.connect() as stalled, stalled.makefile("rb") as stalled_in:
            stalled.sendall(b"GET /v1/quantiles?pop=ams1 HTTP/1.1\r\nHost: a")
            time.sleep(0.1)
            start = time.perf_counter()
            [(status, _, body)], _ = exchange(serving, request("/v1/quantiles"))
            assert status == 200
            assert body == expected_body(store, "/v1/quantiles")
            assert time.perf_counter() - start < TIMEOUT / 2
            # The stalled request completes once its client resumes.
            stalled.sendall(b"\r\n\r\n")
            status, _, body = read_response(stalled_in)
            assert status == 200
            assert body == expected_body(store, "/v1/quantiles?pop=ams1")

    def test_a_client_gone_mid_response_leaves_the_server_serving(
        self, serving, store, capfd
    ):
        # Pipelined requests and no reads, until the server stops reading
        # because its writes are stuck on the full socket; then a reset:
        # the server's write fails part-way through a response.
        chunk = request("/v1/quantiles") * 100
        for _ in range(3):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(TIMEOUT)
            sock.connect(("127.0.0.1", serving.port))
            sock.setblocking(False)
            deadline, blocked_since = time.monotonic() + TIMEOUT, None
            while time.monotonic() < deadline:
                try:
                    sock.send(chunk)
                    blocked_since = None
                except BlockingIOError:
                    blocked_since = blocked_since or time.monotonic()
                    if time.monotonic() - blocked_since > 0.3:
                        break
                    time.sleep(0.01)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        [(status, _, body)], _ = exchange(serving, request("/v1/quantiles"))
        assert status == 200
        assert body == expected_body(store, "/v1/quantiles")
        assert_exact_accounting(serving)
        assert "Traceback" not in capfd.readouterr().err

    def test_a_client_gone_mid_request_is_not_answered(self, serving):
        with serving.connect() as sock:
            sock.sendall(b"GET /v1/quantiles HTTP/1.1\r\nHost: a\r\n")
        [(status, _, _)], _ = exchange(serving, request("/v1/health"), probe=False)
        assert status == 200
        # Only the /v1/health reached the engine; nothing was rejected.
        assert serving.counter("serve.requests") == 1
        assert serving.counter("serve.responses.protocol_error") == 0


# --------------------------------------------------------------------- #
# Differential fuzz against an http.server oracle
# --------------------------------------------------------------------- #
class _Oracle(BaseHTTPRequestHandler):
    """The transport this package used to ship: ``http.server`` around the
    same engine call and the same renderer."""

    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urlsplit(self.path)
        status, payload = self.server.engine.handle(
            split.path, parse_qs(split.query, keep_blank_values=True)
        )
        body = render_payload(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass


#: Bytes that split a request line under ``str.split()`` once decoded as
#: ISO-8859-1: a target containing one is no longer one target.
_SEPARATORS = {byte for byte in range(256) if chr(byte).isspace()}
_raw_bytes = st.binary(min_size=1, max_size=6).map(
    lambda raw: bytes(byte for byte in raw if byte not in _SEPARATORS) or b"x"
)
_escape = st.integers(0, 255).map(lambda byte: b"%%%02X" % byte) | st.sampled_from(
    [b"%", b"%4", b"%zz", b"%25", b"%2F", b"%26", b"%3D", b"%C3%A9", b"%FF"]
)
_text = st.lists(
    st.sampled_from([b"ams1", b"NL", b"BR", b"0-3", b"2-5", b"nan", b"inf",
                     b"-1", b"1e999", b"hdratio", b"1", b"+", b"="])
    | _escape
    | _raw_bytes,
    max_size=3,
).map(b"".join)
_name = st.sampled_from([
    b"pop", b"country", b"window", b"metric", b"threshold", b"limit",
    b"slack_ms", b"minrtt_threshold", b"verify", b"bogus", b"", b"p%6Fp",
])
_param = st.one_of(
    st.tuples(_name, _text).map(lambda pair: pair[0] + b"=" + pair[1]),
    _name,
    st.just(b""),
)
_path = st.sampled_from([
    b"/v1/quantiles", b"/v1/degradation", b"/v1/routing", b"/v1/health",
    b"/v1/quantiles/", b"/v1/%71uantiles", b"/", b"/v1", b"/v1/nope",
    b"/v1/quantiles;x=1",
])
_prefix = st.sampled_from([b"", b"/", b"//", b"http://localhost", b"http://h:1"])
_suffix = st.sampled_from([b"", b"#frag", b"#", b"?"])


@st.composite
def targets(draw) -> bytes:
    path = draw(_prefix) + draw(_path)
    params = draw(st.lists(_param, max_size=5))
    if params or draw(st.booleans()):
        path += b"?" + b"&".join(params)
    return path + draw(_suffix)


@pytest.fixture(scope="module")
def both_transports(store):
    """This transport and the oracle, each over its own engine on the
    same store; every example asks both the same thing, so the engines'
    caches and counters (which ``/v1/health`` reports) stay in step."""
    oracle = ThreadingHTTPServer(("127.0.0.1", 0), _Oracle)
    oracle.engine = QueryEngine(store)
    with Serving(make_server(store, port=0)) as ours, Serving(oracle) as theirs:
        yield ours, theirs


def _ask(running, target: bytes):
    with running.connect() as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"GET " + target + b" HTTP/1.1\r\nHost: localhost\r\n\r\n")
        answer = read_response(rfile)
    assert answer is not None, f"connection dropped on {target!r}"
    return answer


class TestDifferentialFuzz:
    @settings(max_examples=150, deadline=None)
    @given(target=targets())
    def test_same_status_and_body_as_http_server(self, both_transports, target):
        ours, theirs = both_transports
        start = time.perf_counter()
        status, _, body = _ask(ours, target)
        expected_status, _, expected = _ask(theirs, target)
        assert time.perf_counter() - start < TIMEOUT
        event(f"status {status}")
        assert status in (200, 400, 404), (target, body)
        assert (status, body) == (expected_status, expected), target
        assert ours.counter("serve.responses.protocol_error") == 0
        assert ours.counter("serve.requests") == theirs.counter("serve.requests")
        assert_exact_accounting(ours)
