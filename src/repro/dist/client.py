"""The ``dispatch`` backend: fan shard tasks out across worker daemons.

:class:`DispatchPool` is a ``concurrent.futures`` executor over a fleet
of :class:`~repro.dist.daemon.WorkerDaemon`s, driven by the same retry
loop as the local backends (:func:`repro.pipeline.parallel._execute`).
The shape mirrors the one-daemon-per-worker fan-out in SNIPPETS.md §3:
the pool health-checks every address up front (``MSG_PING``), keeps one
connection per live worker, and runs one puller thread per connection
that draws tasks from a shared queue — so a slow worker simply pulls
less, and shard→worker assignment never needs to be decided up front.

A puller resolves every future it takes, so accounting stays with the
standard :func:`~repro.pipeline.parallel._on_shard_failure` policy:

- **remote shard failure** (``MSG_FAILURE``): the worker is healthy, the
  shard raised. The future fails with the :class:`RemoteCause`; the loop
  retries it (any worker may run the retry) or quarantines it.
- **worker death** (connection error, EOF mid-frame, protocol violation,
  a reply that does not decode, or an injected ``drop_connection``): the
  future fails with that error, costing the in-flight task one attempt,
  and the link retires. The task's resubmission is *reassigned* to the
  survivors. ``dist.workers.lost`` and ``dist.tasks.reassigned`` record
  the event.
- **no survivors**: once the last link retires, every queued future and
  every later-submitted one fails with :class:`DispatchError`, a
  :class:`~repro.pipeline.parallel.NoBackendError` — quarantined at its
  current attempt without a retry (or raised as ``ShardError`` under
  ``strict``), counted once in ``dist.tasks.stranded``.

``dist.*`` counters are execution facts (like ``fault.*`` and
``stage.*``): they land in the *active* registry and the manifest's
``dist`` section, never in the dataset's data counters — so the
serial-equality invariant is untouched by how the run was dispatched.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
from concurrent.futures import Executor, Future
from typing import List, Sequence, Set, Tuple, Union

from repro import faultinject
from repro.dist import protocol
from repro.dist.serialization import (
    decode_failure,
    decode_result,
    encode_task,
)
from repro.obs import active_metrics
from repro.pipeline.parallel import (
    NoBackendError,
    RemoteCause,
    ShardResult,
    _ShardTask,
)

__all__ = ["DispatchError", "DispatchPool", "parse_addr"]

_LOG = logging.getLogger("repro.dist.client")

#: Connect + health-check budget per worker. Short: an unreachable daemon
#: should cost seconds at startup, not a hung run.
_CONNECT_TIMEOUT_SECONDS = 5.0
#: Per-reply budget once a task is in flight. Generous — shards can be
#: large — but bounded, so a wedged worker becomes a reassignment, not a
#: hung run.
_REPLY_TIMEOUT_SECONDS = 600.0


class DispatchError(NoBackendError):
    """The dispatch fleet cannot run the plan: no worker is reachable, or
    every worker has died."""


def parse_addr(addr: str) -> Tuple[str, int]:
    """Split ``host:port``; raises ``ValueError`` on malformed input."""
    host, sep, port_text = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address {addr!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"worker address {addr!r} has a non-numeric port")
    if not 0 < port < 65536:
        raise ValueError(f"worker address {addr!r} port out of range")
    return host, port


class _WorkerLink:
    """One live connection to a worker daemon."""

    def __init__(self, addr: str, timeout: float = _CONNECT_TIMEOUT_SECONDS):
        self.addr = addr
        self.sock = socket.create_connection(parse_addr(addr), timeout=timeout)
        self.sock.settimeout(_REPLY_TIMEOUT_SECONDS)

    def ping(self) -> None:
        """Health check; raises on anything but a prompt PONG."""
        protocol.send_frame(self.sock, protocol.MSG_PING)
        frame = protocol.recv_frame(self.sock)
        if frame is None or frame[0] != protocol.MSG_PONG:
            raise protocol.ProtocolError(
                f"worker {self.addr} answered health check with "
                f"{frame[0] if frame else 'EOF'}"
            )

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class DispatchPool(Executor):
    """Ship shard tasks to worker daemons (see module docstring).

    ``submit(fn, task)`` queues ``task`` for whichever daemon pulls it
    next; the daemon runs :func:`~repro.pipeline.parallel._run_shard` on
    it, so ``fn`` (always ``_run_shard`` under ``_execute``) is not
    shipped.
    """

    def __init__(self, worker_addrs: Sequence[str]) -> None:
        self._lock = threading.Lock()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        #: Ordinals whose worker died with them in flight: their next
        #: submission is a reassignment.
        self._orphaned: Set[int] = set()
        self._links = self._connect(worker_addrs)
        self._live = len(self._links)
        self._threads = [
            threading.Thread(
                target=self._pull,
                args=(link,),
                name=f"repro-dispatch-{link.addr}",
                daemon=True,
            )
            for link in self._links
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn, task: _ShardTask) -> Future:
        future: Future = Future()
        with self._lock:
            reassigned = task.ordinal in self._orphaned
            self._orphaned.discard(task.ordinal)
            live = self._live > 0
            if live:
                self._queue.put((future, task))
        if reassigned:
            self._count("dist.tasks.reassigned")
        if not live:
            self._strand(future, task)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
        for link in self._links:
            link.close()

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #
    def _connect(self, worker_addrs: Sequence[str]) -> List[_WorkerLink]:
        """Health-check every address; returns the live links.

        Unreachable daemons are logged and skipped — the plan runs on the
        survivors. Zero survivors is a :class:`DispatchError`: there is
        no backend to degrade onto.
        """
        links: List[_WorkerLink] = []
        for addr in worker_addrs:
            try:
                link = _WorkerLink(addr)
                link.ping()
            except (OSError, protocol.ProtocolError) as error:
                self._count("dist.workers.unreachable")
                _LOG.warning("worker %s failed health check: %s", addr, error)
                continue
            links.append(link)
            self._count("dist.workers.connected")
        if not links:
            raise DispatchError(
                f"no dispatch workers reachable among {', '.join(worker_addrs)}"
            )
        return links

    def _pull(self, link: _WorkerLink) -> None:
        """Run queued tasks on ``link`` until shutdown or its death."""
        while True:
            item = self._queue.get()
            if item is None:
                return
            future, task = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                outcome = self._ship(link, task)
            except Exception as error:  # noqa: BLE001 — any of it kills the link
                # socket.timeout is an OSError, so a wedged worker lands
                # here too.
                self._count("dist.workers.lost")
                _LOG.warning(
                    "worker %s lost with shard %d in flight: %s",
                    link.addr,
                    task.ordinal,
                    error,
                )
                self._retire(link, task)
                future.set_exception(error)
                return
            if isinstance(outcome, RemoteCause):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _ship(
        self, link: _WorkerLink, task: _ShardTask
    ) -> Union[ShardResult, RemoteCause]:
        """One task over ``link``: its result, or its remote failure."""
        faultinject.check_connection(link.addr)
        sent = protocol.send_frame(link.sock, protocol.MSG_TASK, encode_task(task))
        self._count("dist.tasks.dispatched")
        self._count("dist.bytes.sent", sent)
        msg_type, payload = protocol.recv_frame(link.sock)
        self._count("dist.bytes.received", protocol.HEADER_BYTES + len(payload))
        if msg_type == protocol.MSG_FAILURE:
            self._count("dist.remote_failures")
            return decode_failure(payload)
        if msg_type != protocol.MSG_RESULT:
            raise protocol.ProtocolError(
                f"worker {link.addr} sent unexpected reply type {msg_type}"
            )
        result = decode_result(payload)
        self._count("dist.tasks.completed")
        return result

    def _retire(self, link: _WorkerLink, task: _ShardTask) -> None:
        """``link`` died with ``task`` in flight; the last death strands
        everything still queued."""
        link.close()
        stranded = []
        with self._lock:
            self._orphaned.add(task.ordinal)
            self._live -= 1
            while not self._live and not self._queue.empty():
                item = self._queue.get_nowait()
                if item is not None:
                    stranded.append(item)
        for future, queued in stranded:
            if future.set_running_or_notify_cancel():
                self._strand(future, queued)

    def _strand(self, future: Future, task: _ShardTask) -> None:
        self._count("dist.tasks.stranded")
        _LOG.warning(
            "shard %d stranded: every dispatch worker is gone", task.ordinal
        )
        future.set_exception(
            DispatchError("no surviving dispatch workers to run this shard")
        )

    def _count(self, name: str, value: int = 1) -> None:
        registry = active_metrics()
        if registry is not None:
            with self._lock:
                registry.inc(name, value)
