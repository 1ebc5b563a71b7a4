"""The benchmark's own span recorder.

Spans are recorded around the calls the benchmark makes into each layer,
kept in memory, and written out when the run ends. This deliberately does
not activate ``repro.obs.Tracer``: that would switch on ``span()`` inside
the program and change what is being measured. Spans inside the program
are a later change.

A span is ``(id, parent id, name, start, end)`` on ``perf_counter``; all
spans of one recorder share its ``run_id``. Counts are recorded at the
same boundaries with :meth:`Recorder.count`. A span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [id, parent, name, start, end]; the id is the list index.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [index, parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def timed_iter(self, name: str, iterable) -> Iterator:
        """Yield from ``iterable``, one span per ``next()``: a generator's
        work interleaves with its consumer's, so only the time spent
        inside it counts as its own."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (its name was only known afterwards),
        as a child of whatever span is open."""
        parent = self._open[-1] if self._open else None
        self.spans.append([len(self.spans), parent, name, start, end])

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, summed over spans of that name."""
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for index, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - covered[index]
        return out

    def layer_shares(self, root: str) -> Dict[str, float]:
        """Self time by layer (the part of a span name before its first
        dot) as shares of the ``root`` spans' duration. Self time of
        ``root`` and of ``root.*`` spans — glue between layer calls — is
        ``unattributed``."""
        whole = self.total(root)
        shares: Dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer == root:
                layer = "unattributed"
            shares[layer] = shares.get(layer, 0.0) + seconds / whole
        return shares

    def dump(self, path, extra: Optional[dict] = None) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        payload = {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                }
                for index, parent, name, start, end in self.spans
            ],
            "self_seconds": self.self_times(),
            "counts": self.counts,
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
