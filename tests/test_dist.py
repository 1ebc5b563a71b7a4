"""The multi-node dispatch subsystem (``repro.dist``, DESIGN.md §13).

Four layers, each tested against its own contract:

1. **Wire protocol** — length-prefixed frames with magic and type
   validation; truncation and malformation always surface as
   :class:`ProtocolError`, never as a hang or a mis-framed read.
2. **Serialization** — a task is a JSON chunk descriptor rebuilt field
   by field (anything else is a :class:`ProtocolError`; the daemon never
   unpickles); results pickle round-trip with type-checked decode;
   failures are JSON and can *never* fail to decode.
3. **Worker daemon** — PING/PONG health checks, task execution through
   the same ``_run_shard`` the local pools use, failure replies, budgeted
   lifetime, and the injected-death path (connection severed, no reply).
4. **Dispatch backend** — the ISSUE's acceptance bar: dispatch over two
   daemons is byte-identical to serial on the golden trace; a worker killed mid-run degrades into reassignment (or the
   quarantine ledger when no worker survives) instead of crashing.
"""

from __future__ import annotations

import contextlib
import json
import logging
import pathlib
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro import faultinject
from repro.dist import DispatchError, ProtocolError, WorkerDaemon
from repro.dist import protocol
from repro.dist.client import parse_addr
from repro.dist.serialization import (
    decode_failure,
    decode_result,
    decode_task,
    encode_failure,
    encode_result,
    encode_task,
)
from repro.faultinject import FaultPlan
from repro.obs import MetricsRegistry, RunManifest, activate_metrics
from repro.pipeline import (
    ParallelOptions,
    ShardError,
    StudyDataset,
    build_dataset,
)
from repro.pipeline.io import convert, plan_chunks
from repro.pipeline.parallel import (
    RemoteCause,
    ShardResult,
    _run_shard,
    _ShardTask,
)
from repro.store import StoreChunk, TraceStoreReader

from tests.helpers import make_trace_samples, request_shutdown, write_trace_paths
from tests.test_pipeline_parallel import assert_datasets_equal

pytestmark = pytest.mark.dist

STUDY_WINDOWS = 8
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_TRACE = DATA / "golden_trace.jsonl.gz"


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    faultinject.reset()
    yield
    faultinject.reset()


@pytest.fixture(scope="module")
def samples():
    return make_trace_samples(600, seed=31, windows=STUDY_WINDOWS)


@pytest.fixture(scope="module")
def serial_dataset(samples):
    return StudyDataset(study_windows=STUDY_WINDOWS).ingest(iter(samples))


@pytest.fixture(scope="module")
def trace_store(samples, tmp_path_factory):
    root = tmp_path_factory.mktemp("dist-traces")
    return write_trace_paths(root, samples)["store"]


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """The golden trace, converted: a sharded plan reads a store."""
    store = tmp_path_factory.mktemp("dist-golden") / "golden.store"
    convert(GOLDEN_TRACE, store)
    return store


@pytest.fixture()
def two_daemons():
    with WorkerDaemon() as first, WorkerDaemon() as second:
        yield (first.address, second.address)


def _dispatch_options(addrs, **kwargs) -> ParallelOptions:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("retry_backoff", 0.0)
    options = ParallelOptions(worker_addrs=tuple(addrs), **kwargs)
    assert options.backend == "dispatch"
    return options


@contextlib.contextmanager
def _worker_subprocess():
    """`repro worker` in its own process, rooted at the repo; yields
    ``(proc, addr)`` and kills the process if the test left it running."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--listen", "127.0.0.1:0"],
        cwd=str(pathlib.Path(__file__).parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on" in banner
        yield proc, banner.strip().rpartition(" ")[2]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _make_task(path, ordinal=0) -> _ShardTask:
    """The first chunk of a 4-shard plan over ``path``, as
    ``build_dataset`` would task it (under a chosen ``ordinal``)."""
    return _ShardTask(
        dataset_kwargs=dict(
            study_windows=STUDY_WINDOWS,
            keep_response_sizes=True,
            compute_naive=False,
            window_seconds=900.0,
        ),
        chunk=plan_chunks(path, 4)[0],
        ordinal=ordinal,
    )


# --------------------------------------------------------------------- #
# 1. Wire protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    @pytest.fixture()
    def pair(self):
        left, right = socket.socketpair()
        yield left, right
        left.close()
        right.close()

    def test_frame_round_trip(self, pair):
        left, right = pair
        sent = protocol.send_frame(left, protocol.MSG_TASK, b"payload")
        assert sent == protocol.HEADER_BYTES + len(b"payload")
        assert protocol.recv_frame(right) == (protocol.MSG_TASK, b"payload")

    def test_empty_payload(self, pair):
        left, right = pair
        protocol.send_frame(left, protocol.MSG_PING)
        assert protocol.recv_frame(right) == (protocol.MSG_PING, b"")

    def test_bad_magic_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">4sBI", b"XXXX", protocol.MSG_PING, 0))
        with pytest.raises(ProtocolError, match="magic"):
            protocol.recv_frame(right)

    def test_unknown_type_rejected_on_receive(self, pair):
        left, right = pair
        left.sendall(struct.pack(">4sBI", protocol.MAGIC, 99, 0))
        with pytest.raises(ProtocolError, match="unknown message type 99"):
            protocol.recv_frame(right)

    def test_unknown_type_refused_on_send(self, pair):
        left, _ = pair
        with pytest.raises(ProtocolError, match="refusing to send"):
            protocol.send_frame(left, 99, b"")

    def test_oversized_length_rejected_without_allocating(self, pair):
        left, right = pair
        left.sendall(
            struct.pack(
                ">4sBI",
                protocol.MAGIC,
                protocol.MSG_TASK,
                protocol.MAX_FRAME_BYTES + 1,
            )
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.recv_frame(right)

    def test_limit_refuses_announced_length_before_reading_payload(self, pair):
        # What the daemon passes: a header announcing 2 MiB against a
        # 1 MiB limit is refused on the header alone — the payload bytes
        # that did arrive are still unread on the socket.
        left, right = pair
        header = struct.pack(
            ">4sBI", protocol.MAGIC, protocol.MSG_TASK, 2 << 20
        )
        left.sendall(header + b"first payload bytes")
        with pytest.raises(ProtocolError, match="exceeds the 1048576-byte"):
            protocol.recv_frame(right, limit=1 << 20)
        assert right.recv(64) == b"first payload bytes"

    def test_daemon_refuses_a_two_mebibyte_frame(self, caplog):
        header = struct.pack(
            ">4sBI", protocol.MAGIC, protocol.MSG_TASK, 2 << 20
        )
        with caplog.at_level(logging.WARNING, logger="repro.dist.daemon"):
            with WorkerDaemon() as daemon:
                with socket.create_connection(
                    parse_addr(daemon.address)
                ) as sock:
                    sock.sendall(header)
                    # Dropped on the header: EOF, not a wait for 2 MiB.
                    sock.settimeout(10)
                    assert sock.recv(1) == b""
            # (shutdown() has joined the connection thread: it has logged)
        assert any(
            "exceeds the 1048576-byte limit" in record.getMessage()
            for record in caplog.records
        )

    def test_clean_eof_between_frames(self, pair):
        left, right = pair
        left.close()
        assert protocol.recv_frame(right, allow_eof=True) is None
        # Without allow_eof, a close is a protocol error.
        other_left, other_right = socket.socketpair()
        other_left.close()
        with pytest.raises(ProtocolError):
            protocol.recv_frame(other_right)
        other_right.close()

    def test_eof_mid_frame_is_never_clean(self, pair):
        left, right = pair
        header = struct.pack(">4sBI", protocol.MAGIC, protocol.MSG_TASK, 100)
        left.sendall(header + b"only-part")
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.recv_frame(right, allow_eof=True)

    def test_protocol_error_is_a_connection_error(self):
        # The client treats a malformed peer exactly like a dead one; a
        # single `except (OSError, ProtocolError)` must catch both.
        assert issubclass(ProtocolError, ConnectionError)


# --------------------------------------------------------------------- #
# 2. Serialization
# --------------------------------------------------------------------- #
class TestSerialization:
    def test_task_round_trip(self, trace_store):
        for ordinal, chunk in enumerate(plan_chunks(trace_store, 3)):
            task = _ShardTask(
                dataset_kwargs=dict(
                    study_windows=STUDY_WINDOWS,
                    keep_response_sizes=False,
                    compute_naive=True,
                    window_seconds=3600.0,
                ),
                chunk=chunk,
                ordinal=ordinal,
            )
            decoded = decode_task(encode_task(task))
            assert decoded == task
            assert type(decoded.chunk) is StoreChunk

    def test_task_decode_type_checked(self):
        # What used to unpickle to "not a shard task" is now not even read
        # as a pickle: a task frame is JSON or it is a protocol violation.
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_task(pickle.dumps(["not", "a", "task"]))
        with pytest.raises(ProtocolError, match="must be an object of"):
            decode_task(b'["not", "a", "task"]')

    def test_task_frame_is_a_small_json_descriptor(self, trace_store):
        task = _make_task(trace_store)
        wide = _ShardTask(
            dataset_kwargs=task.dataset_kwargs,
            chunk=StoreChunk(
                path=task.chunk.path,
                ordinal=0,
                partition_ids=tuple(range(2000)),
                rows=1_000_000,
            ),
            ordinal=7,
        )
        payload = encode_task(wide)
        assert len(payload) < 32 * 1024
        # One wire shape: the task's three fields and the chunk's four.
        fields = json.loads(payload)
        assert set(fields) == {"dataset_kwargs", "chunk", "ordinal"}
        assert set(fields["chunk"]) == {
            "path", "ordinal", "partition_ids", "rows",
        }
        assert decode_task(payload) == wide

    def test_result_round_trip(self, trace_store):
        result = _run_shard(_make_task(trace_store, ordinal=1))
        decoded = decode_result(encode_result(result))
        assert isinstance(decoded, ShardResult)
        assert decoded.ordinal == 1
        assert decoded.sessions == result.sessions
        assert decoded.filter_stats == result.filter_stats

    def test_result_decode_type_checked(self):
        with pytest.raises(ProtocolError, match="not a shard result"):
            decode_result(pickle.dumps({"ordinal": 0}))

    def test_failure_round_trip_preserves_type_and_message(self):
        failure = decode_failure(encode_failure(ValueError("bad route")))
        assert type(failure) is RemoteCause
        assert failure.type_name == "ValueError"
        assert failure.message == "bad route"
        assert str(failure) == "ValueError: bad route"

    def test_mangled_failure_payload_still_decodes(self):
        # The whole point of JSON failures: a failure reply can never
        # itself fail to decode, whatever bytes arrive.
        failure = decode_failure(b"\xff\xfenot json at all")
        assert type(failure) is RemoteCause
        assert failure.type_name == "UnknownRemoteError"

    def test_remote_failure_pickles(self):
        original = RemoteCause("TypeError", "arity mismatch")
        clone = pickle.loads(pickle.dumps(original))
        assert clone.type_name == "TypeError"
        assert clone.message == "arity mismatch"
        assert str(clone) == str(original)


# --------------------------------------------------------------------- #
# 3. Worker daemon
# --------------------------------------------------------------------- #
class TestWorkerDaemon:
    def test_ping_pong(self):
        with WorkerDaemon() as daemon:
            with socket.create_connection(parse_addr(daemon.address)) as sock:
                protocol.send_frame(sock, protocol.MSG_PING)
                assert protocol.recv_frame(sock) == (protocol.MSG_PONG, b"")

    def test_executes_task_like_local_run(self, trace_store):
        task = _make_task(trace_store)
        expected = _run_shard(task)
        with WorkerDaemon() as daemon:
            with socket.create_connection(parse_addr(daemon.address)) as sock:
                protocol.send_frame(sock, protocol.MSG_TASK, encode_task(task))
                msg_type, payload = protocol.recv_frame(sock)
        assert msg_type == protocol.MSG_RESULT
        result = decode_result(payload)
        assert result.sessions == expected.sessions and result.sessions
        assert result.aggregations == expected.aggregations
        assert result.metrics.counters == expected.metrics.counters

    def test_shard_failure_becomes_failure_reply(self, trace_store):
        # A failing shard is the client's retry problem: the daemon
        # replies MSG_FAILURE and stays alive for the next task.
        task = _make_task(trace_store, ordinal=2)
        plan = FaultPlan(kill_shard={"ordinal": 2, "times": 1})
        with WorkerDaemon() as daemon:
            with faultinject.inject(plan):
                with socket.create_connection(
                    parse_addr(daemon.address)
                ) as sock:
                    protocol.send_frame(
                        sock, protocol.MSG_TASK, encode_task(task)
                    )
                    msg_type, payload = protocol.recv_frame(sock)
                    assert msg_type == protocol.MSG_FAILURE
                    failure = decode_failure(payload)
                    assert failure.type_name == "RuntimeError"
                    assert "injected fault" in failure.message
                    # Same connection, same task: the fault budget is
                    # spent, so the retry succeeds on this daemon.
                    protocol.send_frame(
                        sock, protocol.MSG_TASK, encode_task(task)
                    )
                    msg_type, _ = protocol.recv_frame(sock)
                    assert msg_type == protocol.MSG_RESULT

    def test_request_shutdown(self):
        daemon = WorkerDaemon().start()
        try:
            assert request_shutdown(daemon.address) is True
        finally:
            daemon.shutdown()
        assert request_shutdown(daemon.address) is False  # already gone

    def test_max_tasks_bounds_lifetime(self, trace_store):
        task = _make_task(trace_store)
        with WorkerDaemon(max_tasks=1) as daemon:
            with socket.create_connection(parse_addr(daemon.address)) as sock:
                protocol.send_frame(sock, protocol.MSG_TASK, encode_task(task))
                msg_type, _ = protocol.recv_frame(sock)
                assert msg_type == protocol.MSG_RESULT
            assert daemon.tasks_served == 1

    def test_max_tasks_validation(self):
        with pytest.raises(ValueError, match="max_tasks"):
            WorkerDaemon(max_tasks=0)

    def test_double_start_rejected(self):
        with WorkerDaemon() as daemon:
            with pytest.raises(RuntimeError, match="already started"):
                daemon.start()

    def test_port_requires_start(self):
        with pytest.raises(RuntimeError, match="not started"):
            WorkerDaemon().port


# --------------------------------------------------------------------- #
# 3b. A daemon reads task frames off a socket: nothing malformed gets in
# --------------------------------------------------------------------- #
_canary_calls = []


def _canary():
    _canary_calls.append("called")


class _Bomb:
    """Unpickling this calls :func:`_canary` — in whoever unpickles it."""

    def __reduce__(self):
        return (_canary, ())


def _edited(edit):
    """A malformed-frame builder: a valid task's JSON, after ``edit``."""

    def build(valid: bytes) -> bytes:
        fields = json.loads(valid)
        edit(fields)
        return json.dumps(fields).encode("utf-8")

    return build


def _set(fields, *path_and_value):
    *path, key, value = path_and_value
    for step in path:
        fields = fields[step]
    fields[key] = value


MALFORMED_TASKS = {
    # The three probes that, at the parent, each left an uncaught
    # exception on a daemon thread — the third after running the callable.
    "garbage": lambda valid: b"garbage",
    "pickled-dict": lambda valid: pickle.dumps({"ordinal": 0}),
    "pickle-that-calls": lambda valid: pickle.dumps(_Bomb()),
    "truncated-json": lambda valid: valid[:-5],
    "json-not-an-object": lambda valid: b"[1, 2, 3]",
    "ordinal-is-a-string": _edited(lambda f: _set(f, "ordinal", "0")),
    "ordinal-is-a-bool": _edited(lambda f: _set(f, "ordinal", True)),
    "study-windows-is-a-float": _edited(
        lambda f: _set(f, "dataset_kwargs", "study_windows", 8.0)
    ),
    "flag-is-an-int": _edited(
        lambda f: _set(f, "dataset_kwargs", "compute_naive", 0)
    ),
    "path-is-a-list": _edited(lambda f: _set(f, "chunk", "path", ["/etc"])),
    "partition-id-is-a-string": _edited(
        lambda f: _set(f, "chunk", "partition_ids", [0, "1"])
    ),
    "chunk-is-a-string": _edited(lambda f: _set(f, "chunk", "t.store")),
    "rows-is-a-float": _edited(lambda f: _set(f, "chunk", "rows", 10.0)),
    "extra-chunk-key": _edited(lambda f: _set(f, "chunk", "start_byte", 0)),
    "extra-task-key": _edited(lambda f: _set(f, "indexed_samples", [])),
    "extra-kwarg": _edited(
        lambda f: _set(f, "dataset_kwargs", "engine", "row")
    ),
    "missing-key": _edited(lambda f: f.pop("ordinal")),
    "missing-chunk-key": _edited(lambda f: f["chunk"].pop("rows")),
    # What an older client still sent: a chunk kind tag, a row estimate.
    "older-client-chunk-kind": _edited(
        lambda f: _set(f, "chunk", "kind", "store")
    ),
    "older-client-expected-rows": _edited(
        lambda f: _set(f, "expected_rows", 100)
    ),
}


class TestMalformedTaskFrame:
    @pytest.fixture(scope="class")
    def daemon(self):
        with WorkerDaemon() as daemon:
            yield daemon

    @pytest.mark.parametrize("name", sorted(MALFORMED_TASKS))
    def test_dropped_with_a_warning_and_the_daemon_keeps_serving(
        self, name, daemon, trace_store, caplog, monkeypatch
    ):
        valid = encode_task(_make_task(trace_store))
        payload = MALFORMED_TASKS[name](valid)
        _canary_calls.clear()
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)

        with pytest.raises(ProtocolError):
            decode_task(payload)

        with caplog.at_level(logging.WARNING, logger="repro.dist.daemon"):
            with socket.create_connection(parse_addr(daemon.address)) as sock:
                sock.settimeout(10)
                protocol.send_frame(sock, protocol.MSG_TASK, payload)
                # No reply of any kind: the connection is dropped.
                assert protocol.recv_frame(sock, allow_eof=True) is None
                # The daemon closes the socket, then logs; give its
                # thread a moment to get from one to the other.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline and not any(
                    "dropping connection" in record.getMessage()
                    for record in caplog.records
                ):
                    time.sleep(0.01)
        assert [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.dist.daemon"
            and "dropping connection" in record.getMessage()
        ]
        assert uncaught == []
        assert _canary_calls == []

        # Same daemon, fresh connection, valid task: still in business.
        with socket.create_connection(parse_addr(daemon.address)) as sock:
            protocol.send_frame(sock, protocol.MSG_TASK, valid)
            msg_type, reply = protocol.recv_frame(sock)
        assert msg_type == protocol.MSG_RESULT
        assert decode_result(reply).sessions


# --------------------------------------------------------------------- #
# 4a. Dispatch equivalence (the acceptance bar)
# --------------------------------------------------------------------- #
class TestDispatchEquivalence:
    def test_dispatch_matches_serial_exactly(
        self, trace_store, serial_dataset, two_daemons
    ):
        dataset = build_dataset(
            trace_store,
            study_windows=STUDY_WINDOWS,
            options=_dispatch_options(two_daemons),
        )
        assert_datasets_equal(dataset, serial_dataset)
        assert dataset.degraded is None

    def test_data_counters_and_gauges_match_serial(
        self, trace_store, two_daemons
    ):
        serial = build_dataset(trace_store, study_windows=STUDY_WINDOWS)
        dataset = build_dataset(
            trace_store,
            study_windows=STUDY_WINDOWS,
            options=_dispatch_options(two_daemons),
        )
        assert dataset.metrics.counters == serial.metrics.counters
        assert dataset.metrics.gauges == serial.metrics.gauges

    def test_golden_trace_byte_identical_vs_serial(
        self, golden_store, two_daemons
    ):
        snapshot = json.loads((DATA / "golden_report.json").read_text())
        windows = snapshot["study_windows"]
        serial = build_dataset(golden_store, study_windows=windows)
        dispatched = build_dataset(
            golden_store,
            study_windows=windows,
            options=_dispatch_options(two_daemons),
        )
        jsonl = build_dataset(GOLDEN_TRACE, study_windows=windows)
        assert dispatched.rows == serial.rows == jsonl.rows
        assert [k for k, _ in dispatched.store.items()] == [
            k for k, _ in serial.store.items()
        ]
        assert dispatched.metrics.counters == serial.metrics.counters
        assert dispatched.metrics.gauges == serial.metrics.gauges

    def test_manifest_dist_section(self, trace_store, two_daemons):
        registry = MetricsRegistry()
        with activate_metrics(registry):
            build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(two_daemons),
            )
        manifest = RunManifest.collect(command="analyze", registry=registry)
        assert manifest.dist["workers_connected"] == 2
        assert manifest.dist["tasks_dispatched"] == 4
        assert manifest.dist["tasks_completed"] == 4
        assert manifest.dist["tasks_reassigned"] == 0
        # Four descriptors out, four partial states back.
        assert 0 < manifest.dist["bytes_sent"] < 4096
        assert manifest.dist["bytes_received"] > manifest.dist["bytes_sent"]
        # dist.* counters are execution facts, never sample accounting.
        assert not [
            name
            for name in manifest.sample_accounting()
            if name.startswith("dist.")
        ]

    def test_unreachable_worker_skipped_not_fatal(
        self, trace_store, serial_dataset, two_daemons
    ):
        registry = MetricsRegistry()
        addrs = (two_daemons[0], "127.0.0.1:1")  # port 1: nothing listens
        with activate_metrics(registry):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(addrs),
            )
        assert_datasets_equal(dataset, serial_dataset)
        assert registry.counter("dist.workers.unreachable") == 1
        assert registry.counter("dist.workers.connected") == 1

    def test_no_reachable_workers_raises(self, trace_store):
        with pytest.raises(DispatchError, match="no dispatch workers"):
            build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(("127.0.0.1:1", "127.0.0.1:2")),
            )

    def test_options_validation(self):
        # The addresses alone select dispatch, so they are vetted up front
        # rather than at connect time, after the shard plan is built.
        with pytest.raises(ValueError, match="not host:port"):
            ParallelOptions(worker_addrs=("a:1", "nonsense"))
        options = _dispatch_options(("a:1", "b:2", "c:3"), shards=None, workers=1)
        assert options.effective_shards == 3  # one shard per daemon minimum

    @pytest.mark.parametrize(
        "bad", ["nohost", "host:", ":123", "host:abc", "host:0", "host:70000"]
    )
    def test_malformed_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_addr(bad)

    def test_parse_addr_accepts_host_port(self):
        assert parse_addr("127.0.0.1:8421") == ("127.0.0.1", 8421)


# --------------------------------------------------------------------- #
# 4b. Worker death mid-run (the graceful-degradation acceptance bar)
# --------------------------------------------------------------------- #
class TestDispatchFaults:
    def test_killed_worker_reassigns_to_survivor(
        self, trace_store, serial_dataset, two_daemons
    ):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_worker={"ordinal": 1, "times": 1})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(two_daemons),
            )
        # The run is clean, not degraded: the survivor absorbed the shard.
        assert dataset.degraded is None
        assert_datasets_equal(dataset, serial_dataset)
        assert registry.counter("fault.injected.worker_kills") == 1
        assert registry.counter("dist.workers.lost") == 1
        assert registry.counter("dist.tasks.reassigned") == 1
        assert registry.counter("fault.shard_retries") == 1

    def test_dropped_connection_reassigns(
        self, trace_store, serial_dataset, two_daemons
    ):
        registry = MetricsRegistry()
        first_port = two_daemons[0].rpartition(":")[2]
        plan = FaultPlan(
            drop_connection={"addr_substr": f":{first_port}", "times": 1}
        )
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(two_daemons),
            )
        assert dataset.degraded is None
        assert_datasets_equal(dataset, serial_dataset)
        assert registry.counter("fault.injected.connection_drops") == 1
        assert registry.counter("dist.tasks.reassigned") == 1

    def test_sole_worker_death_quarantines_instead_of_crashing(self, trace_store):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_worker={"ordinal": 0, "times": 1})
        with WorkerDaemon() as daemon:
            with activate_metrics(registry), faultinject.inject(plan):
                dataset = build_dataset(
                    trace_store,
                    study_windows=STUDY_WINDOWS,
                    options=_dispatch_options((daemon.address,)),
                )
        # Every shard lands in the ledger with a DispatchError naming the
        # situation; the run itself completes.
        ledger = dataset.degraded
        assert ledger is not None
        assert ledger.shards_lost == 4
        assert all(
            "DispatchError" in entry["error"] for entry in ledger.shards
        )
        assert registry.counter("dist.tasks.stranded") == 4
        assert registry.counter("fault.shards_quarantined") == 4
        assert dataset.session_count == 0
        # A store plan knows what each lost shard held.
        chunks = plan_chunks(trace_store, 4)
        assert {
            entry["ordinal"]: entry["samples_lost"] for entry in ledger.shards
        } == dict(enumerate(chunk.rows for chunk in chunks))
        assert ledger.samples_lost == sum(chunk.rows for chunk in chunks) == 600

    def test_sole_worker_death_under_strict_raises(self, trace_store):
        plan = FaultPlan(kill_worker={"ordinal": 0, "times": 1})
        with WorkerDaemon() as daemon:
            with faultinject.inject(plan):
                with pytest.raises(ShardError) as excinfo:
                    build_dataset(
                        trace_store,
                        study_windows=STUDY_WINDOWS,
                        options=_dispatch_options(
                            (daemon.address,), strict=True
                        ),
                    )
        assert isinstance(excinfo.value.cause, DispatchError)

    def test_remote_transient_failure_retried_to_clean_result(
        self, trace_store, serial_dataset, two_daemons
    ):
        registry = MetricsRegistry()
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": 2})
        with activate_metrics(registry), faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(two_daemons),
            )
        assert dataset.degraded is None
        assert_datasets_equal(dataset, serial_dataset)
        assert registry.counter("dist.remote_failures") == 2
        assert registry.counter("fault.shard_retries") == 2
        # The workers stayed up throughout: failures were replies.
        assert registry.counter("dist.workers.lost") == 0

    def test_remote_permanent_failure_quarantines_with_remote_type(
        self, trace_store, two_daemons
    ):
        plan = FaultPlan(kill_shard={"ordinal": 1, "times": None})
        with faultinject.inject(plan):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options(two_daemons),
            )
        ledger = dataset.degraded
        assert ledger is not None and ledger.shards_lost == 1
        entry = ledger.shards[0]
        assert entry["ordinal"] == 1
        assert entry["attempts"] == 3  # 1 try + 2 retries (default)
        # The loss is exact: the lost chunk's manifest row count.
        chunk = plan_chunks(trace_store, 4)[1]
        assert entry["samples_lost"] == ledger.samples_lost == chunk.rows > 0
        # The remote failure keeps the original worker-side type name.
        assert entry["error"].startswith("RemoteCause: RuntimeError: ")
        assert "RuntimeError" in entry["error"]
        assert "injected fault" in entry["error"]


@contextlib.contextmanager
def _undecodable_daemon(payload: bytes):
    """A daemon that answers PING and replies ``MSG_RESULT`` carrying
    ``payload`` to every task; yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve(conn):
        with conn:
            try:
                while (frame := protocol.recv_frame(conn, allow_eof=True)):
                    reply = protocol.MSG_PONG, b""
                    if frame[0] == protocol.MSG_TASK:
                        reply = protocol.MSG_RESULT, payload
                    protocol.send_frame(conn, *reply)
            except (OSError, ProtocolError):
                pass

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()


def _build_on_a_thread(store, options, registry):
    """``build_dataset`` on a daemon thread, so a hang fails the test
    after 60 s instead of wedging the suite."""
    outcome = {}

    def build():
        try:
            with activate_metrics(registry):
                outcome["dataset"] = build_dataset(
                    store, study_windows=STUDY_WINDOWS, options=options
                )
        except BaseException as error:  # noqa: BLE001 — re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=build, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "build_dataset did not return in 60 s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["dataset"]


@pytest.mark.parametrize(
    "payload",
    [pickle.dumps({}), b"\x80\x04garbage"],
    ids=["not-a-result", "not-a-pickle"],
)
class TestUndecodableResult:
    """A worker whose ``MSG_RESULT`` does not decode is a dead worker: its
    in-flight task is reassigned (or stranded), never left unresolved."""

    def test_sole_bad_worker_strands_every_shard(self, trace_store, payload):
        registry = MetricsRegistry()
        with _undecodable_daemon(payload) as addr:
            dataset = _build_on_a_thread(
                trace_store, _dispatch_options((addr,)), registry
            )
        ledger = dataset.degraded
        assert ledger is not None
        assert [entry["ordinal"] for entry in ledger.shards] == [0, 1, 2, 3]
        assert ledger.samples_lost == TraceStoreReader(trace_store).row_count
        assert dataset.session_count == 0
        assert registry.counter("dist.workers.lost") == 1

    def test_bad_worker_beside_a_healthy_one_is_reassigned(
        self, trace_store, serial_dataset, payload
    ):
        registry = MetricsRegistry()
        with _undecodable_daemon(payload) as bad, WorkerDaemon() as good:
            dataset = _build_on_a_thread(
                trace_store, _dispatch_options((bad, good.address)), registry
            )
        assert dataset.degraded is None
        assert_datasets_equal(dataset, serial_dataset)
        assert registry.counter("dist.workers.lost") == 1
        assert registry.counter("dist.tasks.reassigned") == 1

    def test_three_bad_workers_among_two_good_under_fast_switching(
        self, trace_store, serial_dataset, payload
    ):
        # Five pullers share one queue, one orphan set and one live count;
        # a lost update would lose a task, a reassignment or a count.
        registry = MetricsRegistry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with contextlib.ExitStack() as stack:
                bad = [
                    stack.enter_context(_undecodable_daemon(payload))
                    for _ in range(3)
                ]
                good = [
                    stack.enter_context(WorkerDaemon()).address
                    for _ in range(2)
                ]
                dataset = _build_on_a_thread(
                    trace_store,
                    _dispatch_options((*bad, *good), shards=12),
                    registry,
                )
        finally:
            sys.setswitchinterval(interval)
        assert dataset.degraded is None
        assert_datasets_equal(dataset, serial_dataset)
        lost = registry.counter("dist.workers.lost")
        assert 0 <= lost <= 3
        assert registry.counter("dist.tasks.reassigned") == lost
        assert registry.counter("fault.shard_retries") == lost
        assert registry.counter("dist.tasks.completed") == 12


# --------------------------------------------------------------------- #
# 5. CLI integration
# --------------------------------------------------------------------- #
class TestDistCLI:
    def test_analyze_dispatch_end_to_end(
        self, trace_store, tmp_path, capsys, two_daemons
    ):
        from repro.cli import main

        trace = trace_store
        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "analyze",
                str(trace),
                "--workers", "2",
                "--workers-addr", ",".join(two_daemons),
                "--metrics-out", str(manifest_path),
            ]
        )
        assert code == 0
        payload = json.loads(manifest_path.read_text())
        assert payload["shard_plan"]["executor"] == "dispatch"
        assert payload["shard_plan"]["worker_addrs"] == list(two_daemons)
        assert payload["dist"]["workers_connected"] == 2
        assert payload["dist"]["tasks_completed"] == payload["dist"][
            "tasks_dispatched"
        ]

    def test_dispatch_requires_workers_addr(self, tmp_path, capsys):
        # A --workers-addr that names no daemon (or trails an empty one)
        # must not fall back to a local run without saying so.
        from repro.cli import main

        for addrs in ("", ",", "127.0.0.1:9,"):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", str(tmp_path / "t.jsonl"),
                      "--workers-addr", addrs])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "worker address '' is not host:port" in err

    def test_worker_rejects_non_numeric_port(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--listen", "127.0.0.1:abc"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "repro: error: --listen must be HOST:PORT with a port in 0-65535"
        )

    def test_worker_subprocess_serves_dispatch_run(
        self, trace_store, serial_dataset
    ):
        # The real deployment shape: `repro worker` in its own process,
        # the dispatch client in this one.
        with _worker_subprocess() as (proc, addr):
            dataset = build_dataset(
                trace_store,
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options((addr,), shards=2),
            )
            assert_datasets_equal(dataset, serial_dataset)
            assert request_shutdown(addr) is True
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "served 2 task(s)" in out

    def test_workers_addr_alone_selects_dispatch(
        self, golden_store, tmp_path, capsys
    ):
        # Nothing but the addresses asks for dispatch, and the report is
        # the serial one byte for byte.
        from repro.cli import main

        assert main(["analyze", str(golden_store)]) == 0
        serial_report = capsys.readouterr().out
        manifest_path = tmp_path / "m.json"
        with _worker_subprocess() as (proc, addr):
            code = main(["analyze", str(golden_store), "--workers-addr", addr,
                         "--metrics-out", str(manifest_path)])
            dispatched = capsys.readouterr().out
            request_shutdown(addr)
            worker_out, _ = proc.communicate(timeout=30)
        assert code == 0
        assert dispatched.splitlines()[:-1] == serial_report.splitlines()
        assert "served 1 task(s)" in worker_out
        payload = json.loads(manifest_path.read_text())
        assert payload["shard_plan"]["executor"] == "dispatch"
        assert payload["dist"]["tasks_completed"] == 1

    def test_relative_trace_path_survives_worker_cwd(
        self, trace_store, serial_dataset, monkeypatch
    ):
        # Regression: file-backed shard tasks used to carry the trace
        # path as given. A relative path resolves against the *worker's*
        # working directory — here a daemon subprocess rooted somewhere
        # else entirely — so every shard failed with FileNotFoundError
        # and the run silently degraded to zero rows. plan_chunks now
        # pins the resolved path client-side.
        with _worker_subprocess() as (proc, addr):
            monkeypatch.chdir(trace_store.parent)
            dataset = build_dataset(
                "trace.store",
                study_windows=STUDY_WINDOWS,
                options=_dispatch_options((addr,), shards=2),
            )
            assert dataset.degraded is None
            assert_datasets_equal(dataset, serial_dataset)
            request_shutdown(addr)
            proc.communicate(timeout=30)
