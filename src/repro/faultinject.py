"""Fault-injection harness for the pipeline's failure-model tests.

The paper's methodology (§3.3–3.4) is built to produce *partial but
honest* results when a window's data is missing; this module is how the
reproduction proves it does the same. A :class:`FaultPlan` describes
deterministic faults to inject at the pipeline's I/O and execution
boundaries, and the store reader / shard workers consult it through the
hook functions below. With no plan active every hook is a cheap no-op, so
the instrumentation stays in the hot paths permanently.

Activation, two ways:

- **programmatic** — ``with faultinject.inject(plan): ...`` installs the
  plan for the current process (threads included). This is what the test
  matrix uses with the inline backend, and with the pool's retry loop
  patched onto threads (``tests.helpers.in_process_pool``).
- **environment** — ``REPRO_FAULTS='{"kill_shard": {...}}'`` (the plan's
  JSON form). Child processes inherit the environment, which is how
  ``ProcessPoolExecutor`` shard workers pick a plan up. Count-limited
  ("times") faults keep their budget *per process* under this mode — a
  transient fault may fire once in every pool worker — so transient-fault
  tests should prefer programmatic activation with an in-process backend.

Fault kinds (each an optional field of :class:`FaultPlan`; all are dicts
so the JSON form is the API):

- ``flip_byte`` — ``{"partition": id, "offset": n, "xor": mask,
  "times": k|null}``: XOR the byte ``offset`` bytes into the named store
  partition's frame (clamped to its last byte) as the frame leaves the
  disk read. ``times`` defaults to null (persistent corruption, like a
  bad sector).
- ``kill_shard`` — ``{"ordinal": n, "times": k|null, "error":
  "runtime"|"os"}``: raise at shard-worker entry. ``times: k`` makes the
  fault transient (first ``k`` attempts fail, then the shard succeeds —
  the retry path's test); ``times: null`` makes it permanent (the
  quarantine path's test).
- ``io_delay`` — ``{"seconds": s, "path_substr": sub|null}``: sleep
  before opening a matching trace/store file for reading.
- ``io_error`` — ``{"times": k, "path_substr": sub|null}``: raise a
  transient ``OSError`` at a matching read boundary for the first ``k``
  opens.
- ``kill_worker`` — ``{"ordinal": n, "times": k|null}``: raise
  :class:`WorkerKilled` inside a dispatch worker daemon
  (:mod:`repro.dist.daemon`) when it receives the shard task with that
  ordinal. The daemon treats it as its own death: the connection is
  severed without a reply and the daemon stops, so the client must
  reassign the task to a surviving worker (or quarantine it when none
  remain). ``times: k`` limits how many workers die this way.
- ``drop_connection`` — ``{"addr_substr": sub|null, "times": k}``: raise
  ``ConnectionResetError`` in the dispatch *client* just before a task is
  sent to a matching worker address, simulating a network partition. The
  client treats it exactly like a worker death.

Every fired fault increments a ``fault.injected.*`` counter in the
*active* registry (:func:`repro.obs.active_metrics`). These are execution
facts about this run, never data facts — they live outside the
serial-vs-parallel counter-equality invariant, like ``stage.*`` timings.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.obs import active_metrics

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "WorkerKilled",
    "check_connection",
    "check_io",
    "check_shard",
    "check_worker",
    "corrupt_block_payload",
    "current_plan",
    "inject",
    "reset",
]

ENV_VAR = "REPRO_FAULTS"

_ERROR_KINDS = ("runtime", "os")


class WorkerKilled(RuntimeError):
    """A ``kill_worker`` fault fired: the daemon must die, not reply."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject (see module docstring)."""

    flip_byte: Optional[dict] = None
    kill_shard: Optional[dict] = None
    io_delay: Optional[dict] = None
    io_error: Optional[dict] = None
    kill_worker: Optional[dict] = None
    drop_connection: Optional[dict] = None

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(
            {
                field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
                if getattr(self, field.name) is not None
            }
        )


# --------------------------------------------------------------------- #
# Activation state (process-local; env var crosses process boundaries)
# --------------------------------------------------------------------- #
_PLAN: Optional[FaultPlan] = None
#: (raw env string, parsed plan) — re-parsed only when the env changes.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)
#: Budget already consumed per count-limited fault key.
_SPENT: Dict[tuple, int] = {}


def current_plan() -> Optional[FaultPlan]:
    """The active plan: programmatic first, then ``REPRO_FAULTS``."""
    global _ENV_CACHE
    if _PLAN is not None:
        return _PLAN
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    if _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the current process; restores on exit.

    Count-limited budgets reset on entry and on exit, so nested or
    sequential injections never leak consumed counts into each other.
    """
    global _PLAN
    previous = _PLAN
    previous_spent = dict(_SPENT)
    _PLAN = plan
    _SPENT.clear()
    try:
        yield plan
    finally:
        _PLAN = previous
        _SPENT.clear()
        _SPENT.update(previous_spent)


def reset() -> None:
    """Forget consumed fault budgets and the env-plan cache (test hook)."""
    global _ENV_CACHE
    _SPENT.clear()
    _ENV_CACHE = (None, None)


def _consume(key: tuple, times: Optional[int]) -> bool:
    """True when the fault keyed by ``key`` should fire this call."""
    if times is None:
        return True
    spent = _SPENT.get(key, 0)
    if spent >= times:
        return False
    _SPENT[key] = spent + 1
    return True


def _count(name: str) -> None:
    registry = active_metrics()
    if registry is not None:
        registry.inc(name)


def _matches_path(spec: dict, path) -> bool:
    substr = spec.get("path_substr")
    return substr is None or substr in str(path)


# --------------------------------------------------------------------- #
# Hooks (called from the store reader / trace readers / shard workers)
# --------------------------------------------------------------------- #
def corrupt_block_payload(payload: bytes, partition: dict) -> bytes:
    """Apply the plan's ``flip_byte`` fault to one partition frame."""
    plan = current_plan()
    if plan is None or plan.flip_byte is None:
        return payload
    spec = plan.flip_byte
    if spec.get("partition") != partition["id"] or not payload:
        return payload
    if not _consume(("flip_byte", partition["id"]), spec.get("times")):
        return payload
    offset = min(int(spec.get("offset", 0)), len(payload) - 1)
    mutated = bytearray(payload)
    # A zero mask would be a silent no-op; force a real flip instead.
    mutated[offset] ^= (int(spec.get("xor", 0xFF)) & 0xFF) or 0xFF
    _count("fault.injected.byte_flips")
    return bytes(mutated)


def check_shard(ordinal: int) -> None:
    """Raise the plan's ``kill_shard`` fault at shard-worker entry."""
    plan = current_plan()
    if plan is None or plan.kill_shard is None:
        return
    spec = plan.kill_shard
    if spec.get("ordinal") != ordinal:
        return
    if not _consume(("kill_shard", ordinal), spec.get("times")):
        return
    _count("fault.injected.shard_kills")
    kind = spec.get("error", "runtime")
    if kind not in _ERROR_KINDS:
        raise ValueError(f"kill_shard error kind must be one of {_ERROR_KINDS}")
    message = f"injected fault: shard {ordinal} worker killed"
    if kind == "os":
        raise OSError(message)
    raise RuntimeError(message)


def check_worker(ordinal: int) -> None:
    """Raise the plan's ``kill_worker`` fault at daemon task receipt.

    Called by :class:`repro.dist.daemon.WorkerDaemon` after decoding a
    shard task; a raised :class:`WorkerKilled` makes the daemon sever the
    connection and stop — from the client's side, indistinguishable from
    the worker host dying mid-task.
    """
    plan = current_plan()
    if plan is None or plan.kill_worker is None:
        return
    spec = plan.kill_worker
    if spec.get("ordinal") != ordinal:
        return
    if not _consume(("kill_worker", ordinal), spec.get("times")):
        return
    _count("fault.injected.worker_kills")
    raise WorkerKilled(
        f"injected fault: worker killed while handling shard {ordinal}"
    )


def check_connection(addr: str) -> None:
    """Raise the plan's ``drop_connection`` fault before a task send."""
    plan = current_plan()
    if plan is None or plan.drop_connection is None:
        return
    spec = plan.drop_connection
    substr = spec.get("addr_substr")
    if substr is not None and substr not in str(addr):
        return
    if not _consume(("drop_connection",), spec.get("times", 1)):
        return
    _count("fault.injected.connection_drops")
    raise ConnectionResetError(
        f"injected fault: connection to worker {addr} dropped"
    )


def check_io(path) -> None:
    """Apply ``io_delay`` / ``io_error`` faults at a read boundary."""
    plan = current_plan()
    if plan is None:
        return
    delay = plan.io_delay
    if delay is not None and _matches_path(delay, path):
        if _consume(("io_delay",), delay.get("times")):
            _count("fault.injected.io_delays")
            time.sleep(float(delay.get("seconds", 0.0)))
    error = plan.io_error
    if error is not None and _matches_path(error, path):
        if _consume(("io_error",), error.get("times", 1)):
            _count("fault.injected.io_errors")
            raise OSError(f"injected fault: transient I/O error opening {path}")
