"""Discrete-event simulation engine.

A minimal but complete event loop: events are (time, sequence, callback)
tuples in a binary heap; ties in time break by insertion order so the
simulation is fully deterministic. Cancellation is handled with tombstones
(the pattern recommended by the ``heapq`` docs) because timer cancellation
(e.g. TCP RTO restarts) vastly outnumbers expiry.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """Handle to a scheduled event; supports cancellation."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Event queue with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, EventHandle, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._cancelled_reaped = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def events_cancelled(self) -> int:
        """Tombstoned events reaped from the queue so far."""
        return self._cancelled_reaped

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        handle = EventHandle()
        heapq.heappush(
            self._queue, (self._now + delay, next(self._sequence), handle, callback)
        )
        return handle

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when``."""
        return self.schedule(when - self._now, callback)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run events until the queue drains, ``until`` passes, or the
        event budget is exhausted (a guard against runaway simulations)."""
        processed_before = self._processed
        cancelled_before = self._cancelled_reaped
        try:
            while self._queue:
                when, _, handle, callback = self._queue[0]
                if until is not None and when > until:
                    self._now = until
                    return
                heapq.heappop(self._queue)
                if handle.cancelled:
                    self._cancelled_reaped += 1
                    continue
                if self._processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; likely a bug"
                    )
                self._now = when
                self._processed += 1
                callback()
        finally:
            self._publish_metrics(processed_before, cancelled_before)

    def _publish_metrics(self, processed_before: int, cancelled_before: int) -> None:
        """Count this run's event-loop work into the active obs registry."""
        from repro.obs import active_metrics

        registry = active_metrics()
        if registry is None:
            return
        registry.inc("netsim.events_processed", self._processed - processed_before)
        registry.inc(
            "netsim.events_cancelled", self._cancelled_reaped - cancelled_before
        )
        registry.inc("netsim.runs")
        registry.set_gauge("netsim.sim_time_seconds", self._now)

    @property
    def pending_events(self) -> int:
        return sum(1 for _, _, handle, _ in self._queue if not handle.cancelled)
