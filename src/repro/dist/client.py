"""The ``dispatch`` backend: fan shard tasks out across worker daemons.

:class:`DispatchExecutor` implements the
:class:`~repro.pipeline.parallel.ShardExecutor` contract over a fleet of
:class:`~repro.dist.daemon.WorkerDaemon`s. The shape mirrors the
one-daemon-per-worker fan-out in SNIPPETS.md §3: the client health-checks
every address up front (``MSG_PING``), keeps one connection per live
worker, and runs one puller thread per connection that draws tasks from a
shared queue — so a slow worker simply pulls less, and shard→worker
assignment never needs to be decided up front.

Failure semantics, all through the standard
:func:`~repro.pipeline.parallel._on_shard_failure` policy so accounting
is byte-identical to the local backends:

- **remote shard failure** (``MSG_FAILURE``): the worker is healthy, the
  shard raised. Counts one attempt; the task is requeued (any worker may
  retry it) or quarantined when spent.
- **worker death** (connection error, EOF mid-frame, protocol violation,
  or an injected ``drop_connection``): the in-flight task counts one
  attempt and is *reassigned* — requeued for the surviving workers — and
  the dead worker's puller thread exits. ``dist.tasks.reassigned`` and
  ``dist.workers.lost`` record the event.
- **no survivors**: tasks still queued when every worker is gone are
  quarantined into the ledger (or raise :class:`ShardError` under
  ``strict``) with a :class:`DispatchError` cause naming the situation.

``dist.*`` counters are execution facts (like ``fault.*`` and
``stage.*``): they land in the *active* registry and the manifest's
``dist`` section, never in the dataset's data counters — so the
serial-equality invariant is untouched by how the run was dispatched.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro import faultinject
from repro.dist import protocol
from repro.dist.serialization import (
    decode_failure,
    decode_result,
    encode_task,
)
from repro.obs import active_metrics
from repro.pipeline.parallel import (
    DegradedLedger,
    ParallelOptions,
    ShardError,
    ShardExecutor,
    ShardResult,
    _on_shard_failure,
    _ShardTask,
)

__all__ = ["DispatchError", "DispatchExecutor", "parse_addr"]

_LOG = logging.getLogger("repro.dist.client")

#: Connect + health-check budget per worker. Short: an unreachable daemon
#: should cost seconds at startup, not a hung run.
_CONNECT_TIMEOUT_SECONDS = 5.0
#: Per-reply budget once a task is in flight. Generous — shards can be
#: large — but bounded, so a wedged worker becomes a reassignment, not a
#: hung run.
_REPLY_TIMEOUT_SECONDS = 600.0


class DispatchError(RuntimeError):
    """The dispatch fleet cannot run the plan (no reachable workers)."""


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


class DispatchExecutor(ShardExecutor):
    """Fan shard tasks across worker daemons (see module docstring)."""

    def __init__(self, options: ParallelOptions) -> None:
        super().__init__(options)
        self._lock = threading.Lock()
        # Signals queue/outstanding changes to idle puller threads: a
        # worker with nothing queued must keep waiting while tasks are in
        # flight elsewhere — a dying peer may requeue its task any moment.
        self._cond = threading.Condition(self._lock)
        #: Tasks not yet resolved (completed, quarantined, or fatal).
        self._outstanding = 0
        self._links: List[_WorkerLink] = []

    # ----------------------------------------------------------------- #
    # ShardExecutor contract
    # ----------------------------------------------------------------- #
    def run(
        self, tasks: Sequence[_ShardTask], ledger: DegradedLedger
    ) -> List[ShardResult]:
        queue: Deque[Tuple[_ShardTask, int]] = deque(
            (task, 1) for task in tasks
        )
        results: List[ShardResult] = []
        fatal: List[ShardError] = []
        stop = threading.Event()
        self._outstanding = len(queue)
        links = self._connect()
        threads = [
            threading.Thread(
                target=self._pull_loop,
                args=(link, queue, results, ledger, fatal, stop),
                name=f"repro-dispatch-{link.addr}",
                daemon=True,
            )
            for link in links
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if fatal:
            raise fatal[0]
        self._drain_leftovers(queue, ledger)
        results.sort(key=lambda result: result.ordinal)
        return results

    def close(self) -> None:
        with self._lock:
            links, self._links = self._links, []
        for link in links:
            link.close()

    # ----------------------------------------------------------------- #
    # Internals
    # ----------------------------------------------------------------- #
    def _connect(self) -> List[_WorkerLink]:
        """Health-check every address; returns the live links.

        Unreachable daemons are logged and skipped — the plan runs on the
        survivors. Zero survivors is a :class:`DispatchError`: there is
        no backend to degrade onto.
        """
        links: List[_WorkerLink] = []
        for addr in self.options.worker_addrs:
            try:
                link = _WorkerLink(addr)
                link.ping()
            except (OSError, protocol.ProtocolError, ValueError) as error:
                if isinstance(error, ValueError):
                    raise  # malformed address: a config bug, not a dead host
                self._count("dist.workers.unreachable")
                _LOG.warning("worker %s failed health check: %s", addr, error)
                continue
            links.append(link)
            self._count("dist.workers.connected")
        if not links:
            raise DispatchError(
                "no dispatch workers reachable among "
                f"{', '.join(self.options.worker_addrs)}"
            )
        with self._lock:
            self._links.extend(links)
        return links

    def _pull_loop(
        self,
        link: _WorkerLink,
        queue: Deque[Tuple[_ShardTask, int]],
        results: List[ShardResult],
        ledger: DegradedLedger,
        fatal: List[ShardError],
        stop: threading.Event,
    ) -> None:
        while not stop.is_set():
            with self._cond:
                # An empty queue is not "done": a task in flight on a
                # dying peer may be requeued for reassignment. Exit only
                # when every task is resolved (or on fatal stop).
                while (
                    not queue
                    and self._outstanding > 0
                    and not stop.is_set()
                ):
                    self._cond.wait(timeout=0.05)
                if stop.is_set() or not queue:
                    return
                task, attempt = queue.popleft()
            try:
                faultinject.check_connection(link.addr)
                sent = protocol.send_frame(
                    link.sock, protocol.MSG_TASK, encode_task(task)
                )
                self._count("dist.tasks.dispatched")
                self._count("dist.bytes.sent", sent)
                frame = protocol.recv_frame(link.sock)
                msg_type, payload = frame
                self._count(
                    "dist.bytes.received", protocol.HEADER_BYTES + len(payload)
                )
            except (OSError, protocol.ProtocolError) as error:
                # Worker death: reassign the in-flight task, retire the
                # link. socket.timeout is an OSError, so a wedged worker
                # lands here too.
                self._count("dist.workers.lost")
                _LOG.warning(
                    "worker %s lost with shard %d in flight: %s",
                    link.addr,
                    task.ordinal,
                    error,
                )
                self._handle_failure(
                    task, attempt, error, queue, ledger, fatal, stop,
                    reassigned=True,
                )
                link.close()
                return
            if msg_type == protocol.MSG_RESULT:
                result = decode_result(payload)
                with self._cond:
                    results.append(result)
                    self._outstanding -= 1
                    self._cond.notify_all()
                self._count("dist.tasks.completed")
                continue
            if msg_type == protocol.MSG_FAILURE:
                failure = decode_failure(payload)
                self._count("dist.remote_failures")
                self._handle_failure(
                    task, attempt, failure, queue, ledger, fatal, stop,
                    reassigned=False,
                )
                continue
            # An unexpected reply type is a protocol violation: treat the
            # worker as dead and reassign.
            self._count("dist.workers.lost")
            self._handle_failure(
                task,
                attempt,
                protocol.ProtocolError(
                    f"worker {link.addr} sent unexpected reply type {msg_type}"
                ),
                queue,
                ledger,
                fatal,
                stop,
                reassigned=True,
            )
            link.close()
            return

    def _handle_failure(
        self,
        task: _ShardTask,
        attempt: int,
        error: BaseException,
        queue: Deque[Tuple[_ShardTask, int]],
        ledger: DegradedLedger,
        fatal: List[ShardError],
        stop: threading.Event,
        reassigned: bool,
    ) -> None:
        """Route one failed attempt through the standard policy."""
        with self._cond:
            try:
                delay = _on_shard_failure(
                    task, attempt, error, self.options, ledger
                )
            except ShardError as exc:
                fatal.append(exc)
                stop.set()
                self._cond.notify_all()
                return
            if delay is None:  # quarantined: the task is resolved
                self._outstanding -= 1
                self._cond.notify_all()
                return
        if delay > 0:
            time.sleep(delay)
        with self._cond:
            queue.append((task, attempt + 1))
            self._cond.notify_all()
        if reassigned:
            self._count("dist.tasks.reassigned")

    def _drain_leftovers(
        self, queue: Deque[Tuple[_ShardTask, int]], ledger: DegradedLedger
    ) -> None:
        """Account tasks stranded by the death of every worker."""
        while queue:
            task, attempt = queue.popleft()
            error = DispatchError(
                "no surviving dispatch workers to run this shard"
            )
            if self.options.strict:
                raise ShardError(task.ordinal, error, attempt)
            ledger.quarantine(task, error, attempt)
            self._count("dist.tasks.stranded")
            _LOG.warning(
                "shard %d stranded: every dispatch worker is gone",
                task.ordinal,
            )

    def _count(self, name: str, value: int = 1) -> None:
        registry = active_metrics()
        if registry is not None:
            with self._lock:
                registry.inc(name, value)
