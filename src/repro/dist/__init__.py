"""Distributed shard execution over worker daemons (DESIGN.md §13).

The paper's setting — measurement over millions of sessions from every
edge load balancer — outgrows a single host's pools. This package adds
the multi-node backend without touching the math:

- :mod:`repro.dist.protocol` — a length-prefixed socket framing layer
  (magic + message type + payload length) with hard frame-size limits.
- :mod:`repro.dist.serialization` — shard task/result transport encoding
  (a task is a JSON chunk descriptor, type-checked field by field, so a
  daemon never unpickles; results are pickles only the client reads;
  failures are JSON, so a worker's error can never poison the wire).
- :mod:`repro.dist.daemon` — :class:`WorkerDaemon`, the ``repro worker``
  process: accepts connections, executes :func:`repro.pipeline.parallel.
  _run_shard` per task, replies result-or-failure.
- :mod:`repro.dist.client` — :class:`DispatchPool`, the
  ``concurrent.futures`` executor :func:`repro.pipeline.parallel.
  build_dataset` runs its shard plan on whenever
  ``ParallelOptions.worker_addrs`` is non-empty (nothing else selects
  it): health-checks the daemons and fans tasks across them; the shared
  retry loop reassigns a dead worker's task to the survivors through the
  standard retry/quarantine policy.

The acceptance bar is the same one every backend honors: datasets,
data counters, figures, and manifests byte-identical to the serial pass
(``tests/test_executor_contract.py``, ``tests/test_dist.py``).
"""

from repro.dist.client import DispatchError, DispatchPool
from repro.dist.daemon import WorkerDaemon
from repro.dist.protocol import ProtocolError

__all__ = [
    "DispatchError",
    "DispatchPool",
    "ProtocolError",
    "WorkerDaemon",
]
