"""Hot-aggregation LRU cache for the query-serving layer.

:class:`LruCache` is a deliberately small, exactly-accounted LRU map. The
serving engine (:mod:`repro.serve.engine`) keys it by the normalized query
coordinates — (profile, PoPs, countries, window band) — and stores the
:class:`~repro.pipeline.dataset.StudyDataset` merged for that slice of
the store plus its rendered response memo as the value, the same shape
the lazy spatial caches the ROADMAP points at use for repeated-key
workloads.

Accounting is part of the contract, not a nicety: every ``get`` is exactly
one hit or one miss, every capacity overflow is exactly one eviction of the
least-recently-used entry, and every ``invalidate_all`` counts the entries
it dropped. ``tests/test_serve_cache.py`` holds a Hypothesis model against
these semantics, and the benchmark's ``serve.cache_hit_ratio`` is computed
from these counters — so they must never drift from the true behaviour.

A generation change that only *appends* to the store carries entries
instead of dropping them (``invalidate_all(carry=True)``): a carried entry
is never returned by ``get`` — its lookup is a miss — but
:meth:`LruCache.carried` hands it to the engine, which extends it with the
appended data instead of rebuilding it and ``put``s the result, retiring
the carried entry. Carried and live entries together stay within
``capacity``; carried ones, older than any live entry, make room first.

The cache itself is **not** thread-safe; the engine serializes access
under its request lock (which is also what makes hit/miss totals exact
under a concurrent client fleet — see ``tests/test_serve_concurrency.py``).

Counters (mirrored into a :class:`repro.obs.MetricsRegistry` when one is
supplied): ``serve.cache.hits`` / ``serve.cache.misses`` /
``serve.cache.evictions`` / ``serve.cache.invalidations``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Optional, Tuple

__all__ = ["LruCache"]


class LruCache:
    """Least-recently-used map with exact hit/miss/eviction accounting.

    ``capacity`` is the maximum number of entries ever held, carried ones
    included (must be positive); a ``put`` that would exceed it drops
    carried entries, oldest first, then evicts least-recently-used live
    entries. Both ``get`` hits and ``put`` updates refresh recency.
    """

    def __init__(self, capacity: int, metrics=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Entries of earlier generations kept for extension, oldest first.
        self._carried: "OrderedDict[Hashable, Any]" = OrderedDict()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Live entries (carried ones are not servable, so not counted)."""
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching recency or accounting."""
        return key in self._entries

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used."""
        return list(self._entries)

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None``.

        Exactly one of ``hits``/``misses`` advances per call.
        """
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            if self.metrics is not None:
                self.metrics.inc("serve.cache.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self.metrics is not None:
            self.metrics.inc("serve.cache.hits")
        return value

    def put(self, key: Hashable, value: Any) -> List[Tuple[Hashable, Any]]:
        """Insert/update ``key``; returns the ``(key, value)`` pairs evicted.

        An update refreshes recency without evicting. At most one entry is
        ever evicted per put (capacity is enforced after every insert). A
        carried entry dropped to make room is not an eviction: it was
        counted when it was invalidated.
        """
        self._carried.pop(key, None)
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return []
        self._entries[key] = value
        evicted: List[Tuple[Hashable, Any]] = []
        while len(self._entries) + len(self._carried) > self.capacity:
            if self._carried:
                self._carried.popitem(last=False)
                continue
            evicted.append(self._entries.popitem(last=False))
            self.evictions += 1
            if self.metrics is not None:
                self.metrics.inc("serve.cache.evictions")
        return evicted

    def invalidate_all(self, carry: bool = False) -> int:
        """Drop every live entry; returns how many were dropped.

        The engine calls this when the store's generation changes: every
        cached aggregation describes the previous generation and must never
        be served again. ``invalidations`` counts *live entries dropped*,
        so a no-op flush of an empty cache is free and uncounted.

        With ``carry`` (the change only appended), the dropped entries join
        the carried ones, for :meth:`carried`; without it, carried entries
        are dropped too.
        """
        dropped = len(self._entries)
        if carry:
            self._carried.update(self._entries)
        else:
            self._carried.clear()
        self._entries.clear()
        if dropped:
            self.invalidations += dropped
            if self.metrics is not None:
                self.metrics.inc("serve.cache.invalidations", dropped)
        return dropped

    def carried(self, key: Hashable) -> Optional[Any]:
        """The carried entry under ``key``, or ``None``; a ``put`` of
        ``key`` retires it.

        No accounting and no recency: the ``get`` that missed before it
        already counted the lookup.
        """
        return self._carried.get(key)
