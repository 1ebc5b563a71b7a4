"""The ``repro worker`` daemon: executes shard tasks for remote clients.

One daemon per worker host (or several per host, one per core — the
fan-out shape SNIPPETS.md §3 uses for its per-worker router daemons).
The daemon is deliberately thin: it accepts connections, and for every
``MSG_TASK`` frame (a JSON chunk descriptor; nothing here unpickles) runs
:func:`repro.pipeline.parallel._run_shard` — the *same* function the
process/thread pools execute — and replies ``MSG_RESULT`` or
``MSG_FAILURE``. All retry, quarantine, and merge policy stays
client-side, so dispatch runs account failures exactly like every other
backend.

Failure semantics (DESIGN.md §13):

- a shard that raises inside ``_run_shard`` produces a ``MSG_FAILURE``
  reply (JSON-stringified); the daemon stays up — shard bugs are the
  client's retry problem, not a reason to lose the worker;
- a frame over :data:`_MAX_REQUEST_BYTES` or a malformed task descriptor
  drops that connection with a logged warning; the daemon keeps serving;
- a :class:`~repro.faultinject.WorkerKilled` injection (and only that)
  makes the daemon drop the connection without replying and stop —
  from the client's side, indistinguishable from the worker host dying
  mid-task, which is exactly what it rehearses.

``start()`` runs the accept loop on a background thread, so tests embed
daemons in-process (``port=0`` picks a free port); ``serve_forever()``
is the CLI entry point. ``max_tasks`` lets a scripted run bound the
daemon's lifetime deterministically.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import List, Optional

from repro import faultinject
from repro.dist import protocol
from repro.dist.serialization import encode_failure, encode_result, decode_task
from repro.obs import active_metrics
from repro.pipeline.parallel import _run_shard

__all__ = ["WorkerDaemon"]

_LOG = logging.getLogger("repro.dist.daemon")

#: Listener accept timeout: how often the accept loop rechecks shutdown.
_ACCEPT_POLL_SECONDS = 0.1
#: Per-connection receive timeout. Generous — a slow client keeping a
#: connection open is normal; only a wedged peer should trip this.
_CONN_TIMEOUT_SECONDS = 600.0
#: Largest frame a client may send: requests are pings, shutdowns and task
#: descriptors (a 10,000-partition store chunk is ~59 KB).
_MAX_REQUEST_BYTES = 1 << 20


def _count(name: str, value: int = 1) -> None:
    registry = active_metrics()
    if registry is not None:
        registry.inc(name, value)


class WorkerDaemon:
    """A socket server executing shard tasks (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_tasks: Optional[int] = None,
    ) -> None:
        if max_tasks is not None and max_tasks < 1:
            raise ValueError("max_tasks must be >= 1 when given")
        self.host = host
        self.requested_port = port
        self.max_tasks = max_tasks
        self.tasks_served = 0
        self._bound_port: Optional[int] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick).

        Cached at bind time, so the address stays printable after
        shutdown closes the listener.
        """
        if self._bound_port is None:
            raise RuntimeError("daemon is not started")
        return self._bound_port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "WorkerDaemon":
        """Bind, listen, and serve on a background thread; returns self."""
        if self._listener is not None:
            raise RuntimeError("daemon already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.requested_port))
        listener.listen(16)
        listener.settimeout(_ACCEPT_POLL_SECONDS)
        self._listener = listener
        self._bound_port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept", daemon=True
        )
        self._accept_thread.start()
        _LOG.info("worker daemon listening on %s", self.address)
        return self

    def serve_forever(self) -> None:
        """Run until shutdown (CLI entry point; blocks)."""
        if self._listener is None:
            self.start()
        try:
            while not self._stop.wait(timeout=_ACCEPT_POLL_SECONDS):
                pass
        except KeyboardInterrupt:
            _LOG.info("worker daemon interrupted; shutting down")
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting, wait for connection threads, close the socket."""
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            threads = list(self._conn_threads)
        for thread in threads:
            thread.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()

    def __enter__(self) -> "WorkerDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ----------------------------------------------------------------- #
    # Serving
    # ----------------------------------------------------------------- #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us during shutdown
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, peer),
                name=f"repro-worker-conn-{peer[1]}",
                daemon=True,
            )
            with self._lock:
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        conn.settimeout(_CONN_TIMEOUT_SECONDS)
        try:
            with conn:
                while not self._stop.is_set():
                    frame = protocol.recv_frame(
                        conn, allow_eof=True, limit=_MAX_REQUEST_BYTES
                    )
                    if frame is None:
                        break
                    msg_type, payload = frame
                    if msg_type == protocol.MSG_PING:
                        protocol.send_frame(conn, protocol.MSG_PONG)
                        continue
                    if msg_type == protocol.MSG_SHUTDOWN:
                        protocol.send_frame(conn, protocol.MSG_PONG)
                        self._stop.set()
                        break
                    if msg_type != protocol.MSG_TASK:
                        raise protocol.ProtocolError(
                            f"unexpected message type {msg_type} from client"
                        )
                    if not self._serve_task(conn, payload):
                        break
        except faultinject.WorkerKilled as fault:
            # The injected death: sever the connection with no reply and
            # take the whole daemon down, like the host vanishing.
            _LOG.warning("worker daemon dying: %s", fault)
            self._stop.set()
        except protocol.ProtocolError as error:
            _LOG.warning("dropping connection from %s: %s", peer, error)
        except OSError as error:
            _LOG.warning("connection from %s failed: %s", peer, error)
        finally:
            with self._lock:
                self._conn_threads = [
                    t
                    for t in self._conn_threads
                    if t is not threading.current_thread()
                ]

    def _serve_task(self, conn: socket.socket, payload: bytes) -> bool:
        """Run one task and reply; False when the task budget is spent."""
        task = decode_task(payload)
        # May raise WorkerKilled, which _serve_connection turns into death.
        faultinject.check_worker(task.ordinal)
        # Counted before the reply goes out, so a client that just
        # received its result observes the updated count.
        self.tasks_served += 1
        try:
            result = _run_shard(task)
        except Exception as error:  # noqa: BLE001 — every failure must reply
            _count("dist.worker.failures_reported")
            _LOG.warning(
                "shard %d failed on worker: %s: %s",
                task.ordinal,
                type(error).__name__,
                error,
            )
            protocol.send_frame(
                conn, protocol.MSG_FAILURE, encode_failure(error)
            )
        else:
            _count("dist.worker.tasks_served")
            protocol.send_frame(
                conn, protocol.MSG_RESULT, encode_result(result)
            )
        if self.max_tasks is not None and self.tasks_served >= self.max_tasks:
            _LOG.info(
                "worker daemon served %d task(s); stopping", self.tasks_served
            )
            self._stop.set()
            return False
        return True
