"""Query engine: the serving layer's store-backed resolver.

:class:`QueryEngine` answers the four ``/v1`` endpoints over a sealed
columnar store (:mod:`repro.store`). Every query resolves through the
batch pipeline's own pieces — the column kernels and the sharded merge of
:mod:`repro.pipeline.parallel`, then
:func:`~repro.pipeline.experiments.fig6_global`,
:func:`~repro.pipeline.routing_analysis.fig9_opportunity`, the §5
verdict/classification stack — so a served number is *defined* to be the
batch number (the serving layer inherits the equivalence-to-serial
contract; ``tests/test_serve_api.py`` pins it byte-for-byte).

A request is first *resolved*: its target's text alone decides the
endpoint, the cache key (step 2) and the response memo key (step 4), or a
400/404. Resolution is pure, so :meth:`QueryEngine.handle_target`, the
server's entry, memoizes it per raw target for targets that answered 200,
up to :data:`TARGET_MEMO_CHARS` target characters (then it starts over);
no generation change clears it. :meth:`QueryEngine.handle` takes a parsed
path and parameters and resolves every time. Both then answer through the
same steps:

1. **Generation check.** The manifest's ``(row_count, data_bytes,
   partitions)`` triple is the store's *generation*; an append, a
   rewrite or a compaction moves it or a partition's key (step 3), which
   flushes the query cache — an append, whose partition keys extend the
   previous list with the same ``window_seconds``, *carries* the flushed
   results instead, for step 3 to extend. Each request
   ``stat``s the manifest (:func:`~repro.store.writer.manifest_identity`,
   the appender's rule) and re-parses it only when that identity moved,
   read before the parse so a racing publish shows next request. Appends
   only add bytes past the previous manifest's range, so a concurrent
   reader always observes a consistent snapshot. The parse also opens the
   generation's one :class:`~repro.store.TraceStoreReader` and re-derives
   the study shape (``window_seconds``, and ``study_windows`` unless
   pinned).
2. **Cache lookup.** Query results are cached in an :class:`~repro.serve.cache.LruCache`
   keyed by the normalized query coordinates — (profile, PoPs,
   countries, window band) — with exact hit/miss/eviction accounting. A
   carried result is never a hit.
3. **Merge on miss.** The engine keeps one *partial* per store
   partition: the partition decoded once and folded through the column
   kernels at the store's own window, split by *cell* — (PoP, country,
   window), the coordinates every filter names — into one
   :class:`~repro.pipeline.parallel.ShardResult` per cell. A cold query
   prunes partitions on the manifest with a :class:`ScanFilter`, builds
   the partials it lacks, keeps the cells its filters admit and merges
   them with the sharded pipeline's merger, so its dataset is the one
   ``build_dataset`` folds from the filtered stream: sessions,
   aggregations, filter stats and data counters. The dataset's table
   holds the cells' own session chunks, which no merge mutates.
   ``/v1/routing`` merges the same cells at one-hour windows: a store window that tiles an hour ``k`` times
   puts cell window ``w`` in hour ``w // k``, so each cell's aggregations
   are re-keyed to their hour before the merge. Its value lists then
   hold the hour's values window by window rather than in stream order —
   the same multisets, and every reader sorts them first. A store window
   that does not tile an hour answers ``/v1/routing`` with a 400. A
   partial is keyed by the data file's ``(st_dev, st_ino)`` and the
   partition's byte range, row count, frame CRC, codec and column
   lengths: an append keeps every earlier partial, an in-place rewrite or
   a compaction swap drops them all. A partial's data counters
   (``pipeline.*``, ``store.*``, ...) land in the engine's registry once,
   when it is built. A miss whose query has a carried
   result merges only the appended partitions' admitted cells into the
   carried dataset, provided each comes after everything that dataset
   holds in order-key order; the merge is the same one, so the dataset is
   the full merge's (``serve.merges.extended``). Anything else merges
   every admitted cell into a fresh dataset (``serve.merges.full``).
4. **Render.** Responses are JSON-ready :class:`MemoizedPayload` dicts
   memoized per (endpoint, params) on the cache entry; the server's one
   renderer keeps each one's bytes on it the first time, so a warm
   response is the cold one's bytes by construction.

Failure semantics (§9 failure model, extended to serving): a typed
:class:`~repro.store.errors.StoreError` raised under a query is mapped to
a 503 payload naming the damaged partition/column/byte-range, recorded in
the engine's quarantine ledger, and surfaced by ``/v1/health`` as a
``degraded`` status. No crash, and never silently-zero numbers.

Thread safety: one re-entrant lock serializes request handling, which is
what makes ``serve.*`` counters sum exactly to per-client totals under a
concurrent fleet (``tests/test_serve_concurrency.py``). A warm request
costs a target-memo lookup, a ``stat`` and two dict lookups (cache entry,
then memoized response) under the lock; a cold query merges partials and
decodes only partitions no earlier query built, and after an append
merges only the appended cells. Extending a carried dataset mutates it in place, which
is safe because only the lock holder can reach it: a carried entry is
never served, and it is retired the moment its extension is cached.
"""

from __future__ import annotations

import math
import os
import pathlib
import threading
from dataclasses import replace
from typing import Collection, Dict, List, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.core.aggregation import window_index
from repro.core.classification import classify_group
from repro.core.constants import (
    DEFAULT_HDRATIO_THRESHOLD,
    DEFAULT_MINRTT_THRESHOLD_MS,
)
from repro.obs import MetricsRegistry
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.experiments import fig6_global
from repro.pipeline.parallel import ShardResult, _fold, _merge_results
from repro.pipeline.report import format_metric, format_percent
from repro.pipeline.routing_analysis import (
    WeightedDifferenceCdf,
    fig9_opportunity,
)
from repro.store import ScanFilter, TraceStoreReader, verify_store
from repro.store.errors import StoreError
from repro.store.schema import gc_paused
from repro.store.writer import load_manifest, manifest_identity
from repro.serve.cache import LruCache

__all__ = [
    "BadRequest",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_ROUTING_WINDOWS",
    "MemoizedPayload",
    "QUANTILE_POINTS",
    "QueryEngine",
]

PathLike = Union[str, pathlib.Path]
#: (PoP, country, window index in the store's units): the finest slice of
#: a partial a query's filters can select.
Cell = Tuple[str, str, int]

#: Default LRU capacity: a dashboard fleet's working set is its hot
#: (PoP, country) pairs; 64 sealed-window aggregations cover that with
#: room while bounding resident datasets.
DEFAULT_CACHE_CAPACITY = 64

#: `repro routing` audits a trace at one-hour windows over a default
#: two-day study (``--days 2`` → 48 windows); ``/v1/routing`` matches that
#: so served numbers equal the batch CLI's by default.
DEFAULT_ROUTING_WINDOWS = 48

#: MinRTT quantiles served by ``/v1/quantiles`` (fig6's headline points).
QUANTILE_POINTS = (0.5, 0.8, 0.9, 0.99)

#: The most request-target characters :meth:`QueryEngine.handle_target`
#: keeps resolved. A dashboard fleet repeats tens of targets; past the
#: bound the memo starts over, so a flood of distinct targets costs at
#: most this much memory, not one entry per request.
TARGET_MEMO_CHARS = 1 << 20


class BadRequest(ValueError):
    """A malformed query: unknown parameter, bad value, bad combination."""


def _coarsened(result: ShardResult, factor: int) -> ShardResult:
    """``result`` with each aggregation re-keyed to the window ``factor``
    of its windows tile. The value lists are shared, not copied: the
    merge's copy-on-merge never mutates a piece."""
    aggregations = []
    for first, (group, rank, window), aggregation in result.aggregations:
        window //= factor
        aggregations.append(
            (first, (group, rank, window), replace(aggregation, window=window))
        )
    return replace(result, aggregations=aggregations)


def _max_order_key(results: List[ShardResult], floor: int) -> int:
    """The largest of ``floor`` and the order keys of ``results``' sessions."""
    return max([floor] + [max(r.sessions.keys) for r in results if r.sessions])


class MemoizedPayload(dict):
    """A response payload memoized on a cache entry.

    :func:`~repro.serve.server.render_payload`, the one renderer, keeps
    the payload's canonical bytes in ``body`` the first time it renders
    it, so a warm response is the cold response's bytes, and the bytes
    live and die with the entry. A memoized payload is never mutated.
    """

    __slots__ = ("body",)


class _CacheEntry:
    """One cached query: its merged dataset plus its memoized responses.

    ``partitions`` is how many of the generation's partitions, in manifest
    order, the dataset was merged over, and ``max_order_key`` the largest
    order key it holds (-1 for none): what extending it after an append
    needs to know.
    """

    __slots__ = ("dataset", "responses", "partitions", "max_order_key")

    def __init__(
        self, dataset: StudyDataset, partitions: int = 0, max_order_key: int = -1
    ) -> None:
        self.dataset = dataset
        self.partitions = partitions
        self.max_order_key = max_order_key
        #: (endpoint, extra-params) -> payload, rendered at most once.
        #: Memoizing the response makes warm responses byte-identical to
        #: cold ones by construction and O(1) under the request lock.
        self.responses: Dict[tuple, MemoizedPayload] = {}


# ---------------------------------------------------------------------- #
# Resolve step: a request target's text -> a _Request (pure: no store, no
# counters, so a resolution can be memoized on the target alone)
# ---------------------------------------------------------------------- #
class _Request(NamedTuple):
    """A resolved request: everything its target's text decides.

    ``key`` is the LRU cache key — (profile, sorted PoPs, sorted
    countries, window band) — or ``None`` for ``/v1/health``, which is
    answered fresh every time. ``memo_key`` is ``(endpoint, *args)``: the
    key of the response memoized on the cache entry, and the arguments
    of the endpoint's payload builder.
    """

    key: Optional[tuple]
    memo_key: tuple


#: The parameters every data endpoint takes: the query's filters.
_FILTERS = ("pop", "country", "window")


def _resolve_quantiles(params: Dict[str, List[str]]) -> _Request:
    return _Request(_query_key("analyze", params, _FILTERS), ("quantiles",))


def _resolve_degradation(params: Dict[str, List[str]]) -> _Request:
    key = _query_key("analyze", params, _FILTERS + ("metric", "threshold", "limit"))
    metric = _one(params, "metric", "minrtt")
    if metric not in ("minrtt", "hdratio"):
        raise BadRequest("metric must be 'minrtt' or 'hdratio'")
    default = (
        DEFAULT_MINRTT_THRESHOLD_MS if metric == "minrtt" else DEFAULT_HDRATIO_THRESHOLD
    )
    threshold = _float(params, "threshold", default)
    limit = _int(params, "limit", 100, minimum=1)
    return _Request(key, ("degradation", metric, threshold, limit))


def _resolve_routing(params: Dict[str, List[str]]) -> _Request:
    key = _query_key(
        "routing",
        params,
        _FILTERS + ("slack_ms", "minrtt_threshold", "hdratio_threshold"),
    )
    slack_ms = _float(params, "slack_ms", 3.0)
    minrtt_threshold = _float(params, "minrtt_threshold", 5.0)
    hdratio_threshold = _float(params, "hdratio_threshold", 0.05)
    return _Request(key, ("routing", slack_ms, minrtt_threshold, hdratio_threshold))


def _resolve_health(params: Dict[str, List[str]]) -> _Request:
    _reject_unknown(params, allowed=("verify",))
    verify = _one(params, "verify", "") in ("1", "true", "yes")
    return _Request(None, ("health", verify))


#: Path -> its resolve step.
_RESOLVERS = {
    "/v1/quantiles": _resolve_quantiles,
    "/v1/degradation": _resolve_degradation,
    "/v1/routing": _resolve_routing,
    "/v1/health": _resolve_health,
}


def _query_key(
    profile: str, params: Dict[str, List[str]], allowed: Tuple[str, ...]
) -> tuple:
    """The cache key of a query's filters: (profile, sorted PoPs, sorted
    countries, window band), ``None`` for each filter not given."""
    _reject_unknown(params, allowed)
    pops = tuple(sorted(set(params["pop"]))) if params.get("pop") else None
    countries = (
        tuple(sorted(set(params["country"]))) if params.get("country") else None
    )
    return profile, pops, countries, _window_range(params)


def _reject_unknown(params: Dict[str, List[str]], allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise BadRequest(
            f"unknown parameter(s) {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _one(params: Dict[str, List[str]], name: str, default: str) -> str:
    values = params.get(name)
    if not values:
        return default
    if len(values) > 1:
        raise BadRequest(f"parameter {name} given more than once")
    return values[0]


def _float(params: Dict[str, List[str]], name: str, default: float) -> float:
    raw = _one(params, name, "")
    if raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # nan != nan would mint a response memo per request, and neither
    # NaN nor Infinity renders as JSON.
    if not math.isfinite(value):
        raise BadRequest(f"parameter {name} must be a finite number, got {raw!r}")
    return value


def _int(params: Dict[str, List[str]], name: str, default: int, minimum: int) -> int:
    raw = _one(params, name, "")
    if raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(f"parameter {name} must be an integer, got {raw!r}")
    if value < minimum:
        raise BadRequest(f"parameter {name} must be >= {minimum}")
    return value


def _window_range(params: Dict[str, List[str]]) -> Optional[Tuple[int, int]]:
    raw = _one(params, "window", "")
    if raw == "":
        return None
    lo, _, hi = raw.partition("-")
    try:
        start = int(lo)
        end = int(hi) if hi else start
        float(end + 1)  # the scan bounds are float times
    except (ValueError, OverflowError):
        raise BadRequest(f"parameter window must be N or A-B, got {raw!r}")
    if start < 0 or end < start:
        raise BadRequest(f"parameter window range is empty or negative: {raw!r}")
    return (start, end)


class QueryEngine:
    """Resolve serving queries over one sealed columnar store.

    ``study_windows`` defaults to the span of the current generation's
    partition bands, re-derived whenever the manifest changes; pass it to
    pin equivalence against a specific batch invocation.
    ``window_seconds`` is the store's own; ``/v1/routing`` merges at the
    routing CLI's shape (one-hour windows over a two-day study).
    """

    routing_windows = DEFAULT_ROUTING_WINDOWS
    routing_window_seconds = 3600.0

    def __init__(
        self,
        store_path: PathLike,
        study_windows: Optional[int] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if study_windows is not None and study_windows < 1:
            raise ValueError("study_windows must be >= 1")
        self.path = pathlib.Path(store_path)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = LruCache(cache_capacity, metrics=self.metrics)
        self._lock = threading.RLock()
        self._pinned_windows = study_windows
        self._generation: Optional[dict] = None
        self._inputs: Optional[tuple] = None
        #: The current generation's reader, and each of its partitions
        #: with the key its partials are cached under.
        self._reader: Optional[TraceStoreReader] = None
        self._partitions: List[Tuple[dict, tuple]] = []
        #: (window seconds, partition key) -> {cell: ShardResult}.
        self._partials: Dict[tuple, Dict[Cell, ShardResult]] = {}
        #: Quarantine ledger: every distinct StoreError a served query hit,
        #: with partition/column attribution — the serving face of the §9
        #: degraded-run ledger. Surfaced by /v1/health.
        self.quarantine: List[dict] = []
        #: Raw target -> its resolution, for targets that answered 200,
        #: and their total characters (bounded by TARGET_MEMO_CHARS). A
        #: resolution depends only on the target's text, so no generation
        #: change clears it.
        self._targets: Dict[str, _Request] = {}
        self._target_chars = 0
        # The store must exist to be served; a missing manifest raises the
        # same typed StoreError a scan would.
        self._parse_manifest(manifest_identity(self.path))

    # ------------------------------------------------------------------ #
    # Request entry points
    # ------------------------------------------------------------------ #
    def handle_target(self, target: str) -> Tuple[int, dict]:
        """Resolve one raw request target (``/v1/quantiles?pop=ams1``);
        returns ``(http_status, payload_dict)``, as :meth:`handle` does.

        A target that answered 200 before is looked up in the target memo
        and skips URL parsing and parameter checks; everything after
        resolution — the generation check, the cache lookup, the response
        memo and every counter — is the path :meth:`handle` takes.
        """
        with self._lock:
            request = self._targets.get(target)
            if request is not None:
                return self._respond(None, None, request)[:2]
            split = urlsplit(target)
            status, payload, request = self._respond(
                split.path, parse_qs(split.query, keep_blank_values=True)
            )
            if status == 200:
                if self._target_chars + len(target) > TARGET_MEMO_CHARS:
                    self._targets.clear()
                    self._target_chars = 0
                self._targets[target] = request
                self._target_chars += len(target)
            return status, payload

    def handle(self, path: str, params: Dict[str, List[str]]) -> Tuple[int, dict]:
        """Resolve one request given its parsed path and query parameters
        (``parse_qs`` shape); returns ``(http_status, payload_dict)``.

        Never raises for store or parameter problems — they map to typed
        400/404/503 payloads — so the HTTP layer stays a thin renderer.
        Runs entirely under the engine lock: counters advance atomically
        with the work they count. Resolves ``params`` on every call.
        """
        with self._lock:
            return self._respond(path, params)[:2]

    def _respond(
        self,
        path: Optional[str],
        params: Optional[Dict[str, List[str]]],
        request: Optional[_Request] = None,
    ) -> Tuple[int, dict, Optional[_Request]]:
        """Count, resolve (unless ``request`` is given) and answer one
        request; the resolved request comes back with a 200."""
        self.metrics.inc("serve.requests")
        try:
            if request is None:
                resolve = _RESOLVERS.get(path)
                if resolve is None:
                    self.metrics.inc("serve.responses.client_error")
                    return 404, {
                        "error": "not_found",
                        "detail": f"unknown path {path!r}",
                        "paths": sorted(_RESOLVERS),
                    }, None
                request = resolve(params)
            payload = self._answer(request)
        except BadRequest as error:
            self.metrics.inc("serve.responses.client_error")
            return 400, {"error": "bad_request", "detail": str(error)}, None
        except StoreError as error:
            self._record_quarantine(error)
            self.metrics.inc("serve.responses.server_error")
            return 503, {
                "error": type(error).__name__,
                "partition": getattr(error, "partition_id", None),
                "column": getattr(error, "column", None),
                "offset": getattr(error, "offset", None),
                "length": getattr(error, "length", None),
                "detail": str(error),
            }, None
        self.metrics.inc("serve.responses.ok")
        return 200, payload, request

    def note_protocol_error(self) -> None:
        """Count a request the transport rejected before :meth:`handle_target`:
        it is not one of ``serve.requests``."""
        with self._lock:
            self.metrics.inc("serve.responses.protocol_error")

    # ------------------------------------------------------------------ #
    # Answer step
    # ------------------------------------------------------------------ #
    def _answer(self, request: _Request) -> dict:
        """The payload for a resolved request.

        Checks the store generation first: a changed manifest flushes the
        cache *before* the lookup, so a pre-append result is unreachable
        the moment an append lands. A miss merges the query's dataset; a
        response not yet memoized on its entry is built once.
        """
        key, memo_key = request
        if key is None:
            return self._health(*memo_key[1:])
        generation = self._refresh_generation()
        entry = self.cache.get(key)
        if entry is None:
            entry = self._merge_partials(*key, self.cache.carried(key))
            self.cache.put(key, entry)
        payload = entry.responses.get(memo_key)
        if payload is None:
            endpoint, *args = memo_key
            _, pops, countries, window = key
            payload = entry.responses[memo_key] = MemoizedPayload(
                _BUILDERS[endpoint](self, entry.dataset, *args),
                endpoint=endpoint,
                generation=generation,
                filters={
                    "pops": list(pops) if pops is not None else None,
                    "countries": list(countries) if countries is not None else None,
                    "window": list(window) if window is not None else None,
                },
            )
        return payload

    def _quantiles(self, dataset: StudyDataset) -> dict:
        result = fig6_global(dataset)
        minrtt = {
            f"p{int(q * 100)}": result.minrtt_all.quantile(q)
            for q in QUANTILE_POINTS
        }
        hdratio = {
            f"p{int(q * 100)}": result.hdratio_all.quantile(q)
            for q in (0.25, 0.5, 0.75)
        }
        hdratio["positive_fraction"] = result.hdratio_positive_fraction
        hdratio["full_fraction"] = result.hdratio_full_fraction
        return {
            "window_seconds": self.window_seconds,
            "study_windows": dataset.study_windows,
            "sessions": dataset.session_count,
            # fig6's HDratio series holds exactly the rows that have one.
            "hd_sessions": len(result.hdratio_all),
            "minrtt_ms": minrtt,
            "hdratio": hdratio,
            # The exact strings `repro analyze` prints — the contract that
            # served numbers ARE the batch report's numbers.
            "formatted": {
                "minrtt_p50": format_metric(result.median_minrtt, ".1f", " ms"),
                "minrtt_p80": format_metric(result.p80_minrtt, ".1f", " ms"),
                "hdratio_positive": format_percent(
                    result.hdratio_positive_fraction
                ),
            },
        }

    def _degradation(
        self, dataset: StudyDataset, metric: str, threshold: float, limit: int
    ) -> dict:
        verdict_map = dataset.verdicts(metric, "degradation")
        acc = WeightedDifferenceCdf()
        groups = []
        class_counts: Dict[str, int] = {}
        for group in sorted(
            verdict_map, key=lambda g: (g.pop, g.prefix, g.country)
        ):
            verdicts = verdict_map[group]
            for verdict in verdicts:
                acc.add(verdict)
            classification = classify_group(
                verdicts,
                threshold,
                dataset.study_windows,
                windows_per_day=dataset.windows_per_day,
            )
            label = (
                classification.temporal_class.value
                if classification.temporal_class is not None
                else "unclassified"
            )
            class_counts[label] = class_counts.get(label, 0) + 1
            groups.append(
                {
                    "pop": group.pop,
                    "prefix": group.prefix,
                    "country": group.country,
                    "temporal_class": label,
                    "coverage": classification.coverage,
                    "valid_windows": classification.valid_windows,
                    "event_windows": classification.event_windows,
                    "total_traffic_bytes": classification.total_traffic_bytes,
                    "event_traffic_bytes": classification.event_traffic_bytes,
                }
            )
        return {
            "metric": metric,
            "threshold": threshold,
            "study_windows": dataset.study_windows,
            "groups_total": len(groups),
            "groups": groups[:limit],
            "class_counts": dict(sorted(class_counts.items())),
            # Fig-8-style aggregate: traffic degraded >= threshold with
            # CI-lower-bound confidence, over all matching groups.
            "degraded_traffic_fraction_ci": acc.traffic_fraction_at_least(
                threshold, use_ci_low=True
            ),
            "valid_traffic_fraction": acc.valid_traffic_fraction,
        }

    def _routing(
        self,
        dataset: StudyDataset,
        slack_ms: float,
        minrtt_threshold: float,
        hdratio_threshold: float,
    ) -> dict:
        result = fig9_opportunity(dataset)
        minrtt_within = result.minrtt_within_of_optimal(slack_ms)
        minrtt_improvable = result.minrtt.traffic_fraction_at_least(
            minrtt_threshold, use_ci_low=True
        )
        hd_improvable = result.hdratio.traffic_fraction_at_least(
            hdratio_threshold, use_ci_low=True
        )
        return {
            "window_seconds": self.routing_window_seconds,
            "study_windows": dataset.study_windows,
            "sessions": dataset.session_count,
            "slack_ms": slack_ms,
            "minrtt_threshold": minrtt_threshold,
            "hdratio_threshold": hdratio_threshold,
            "minrtt": {
                "within_slack_fraction": minrtt_within,
                "improvable_fraction_ci": minrtt_improvable,
                "valid_traffic_fraction": result.minrtt.valid_traffic_fraction,
            },
            "hdratio": {
                "improvable_fraction_ci": hd_improvable,
                "valid_traffic_fraction": result.hdratio.valid_traffic_fraction,
            },
            # The exact strings `repro routing --trace` prints.
            "formatted": {
                "minrtt_within_slack": format_percent(minrtt_within),
                "minrtt_improvable": format_percent(minrtt_improvable),
                "hdratio_improvable": format_percent(hd_improvable),
            },
        }

    def _health(self, verify: bool) -> dict:
        """A fresh payload on every request: it reports live counters."""
        payload: dict = {
            "endpoint": "health",
            "store": str(self.path),
            "requests": self.metrics.counter("serve.requests"),
            "protocol_errors": self.metrics.counter(
                "serve.responses.protocol_error"
            ),
        }
        try:
            payload["generation"] = self._refresh_generation()
        except StoreError as error:
            payload.update(generation=None, store_error=str(error))
        # Read after the generation check, so both sections describe what
        # the next query finds.
        payload["cache"] = {
            "size": len(self.cache),
            "capacity": self.cache.capacity,
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "evictions": self.cache.evictions,
            "invalidations": self.cache.invalidations,
        }
        payload["partials"] = {
            "cached": len(self._partials),
            **{
                outcome: self.metrics.counter(f"serve.partials.{outcome}")
                for outcome in ("built", "reused", "dropped")
            },
        }
        payload["merges"] = {
            kind: self.metrics.counter(f"serve.merges.{kind}")
            for kind in ("extended", "full")
        }
        if verify and payload["generation"] is not None:
            report = verify_store(self.path, metrics=self.metrics)
            payload["verify"] = {
                "ok": report.ok,
                "partitions_total": report.partitions_total,
                "partitions_corrupt": report.partitions_corrupt,
                "findings": [f.describe() for f in report.findings],
            }
            for finding in report.findings:
                self._record_quarantine_entry(
                    finding.partition_id, finding.column, finding.error
                )
        payload["quarantine"] = {
            "count": len(self.quarantine),
            "partitions": sorted(
                {
                    entry["partition"]
                    for entry in self.quarantine
                    if entry["partition"] is not None
                }
            ),
            "entries": list(self.quarantine),
        }
        degraded = self.quarantine or payload["generation"] is None
        payload["status"] = "degraded" if degraded else "ok"
        return payload

    # ------------------------------------------------------------------ #
    # Cache + dataset plumbing
    # ------------------------------------------------------------------ #
    def _refresh_generation(self) -> dict:
        """The generation triple, re-parsed only when the manifest moved."""
        # Identity is read before the manifest it vouches for, so an append
        # racing the parse is caught by the next request's comparison.
        identity = manifest_identity(self.path)
        if identity is None or identity != self._identity:
            self._parse_manifest(identity)
        return self._generation

    def _parse_manifest(self, identity) -> None:
        """Adopt the manifest ``identity`` names: a new generation flushes
        the query cache, and partials no partition of it names are
        dropped."""
        manifest = load_manifest(self.path)
        reader = TraceStoreReader(self.path, manifest)
        try:
            stat = os.stat(reader.data_path)
            data_file = (stat.st_dev, stat.st_ino)
        except OSError:
            data_file = None  # every decode raises the typed StoreError
        # Everything a partition's decode reads: bytes pinned by file
        # identity, range and frame CRC, the codec and the column layout.
        partitions = [
            (
                p,
                (data_file, p["offset"], p["length"], p["rows"],
                 p.get("crc32"), p.get("codec"), tuple(p["lengths"])),
            )
            for p in reader.partitions
        ]
        bands = [p["band"] for p in reader.partitions]
        self.window_seconds = float(manifest["window_seconds"])
        self.study_windows = self._pinned_windows or (
            (max(bands) + 1) * manifest["band_windows"] if bands else 1
        )
        self._generation = {
            "row_count": manifest["row_count"],
            "data_bytes": manifest["data_bytes"],
            "partitions": len(partitions),
        }
        # Everything a cached query result was merged from: when any of it
        # moved — an append, a rewrite, a compaction — the results go. An
        # append keeps the window size and every earlier partition's key,
        # in order, so its results are carried, to be extended.
        keys = [key for _, key in partitions]
        inputs = (self._generation, self.window_seconds, self.study_windows, keys)
        if inputs != self._inputs:
            _, seconds, _, before = self._inputs or (None, None, None, [])
            appended = (
                seconds == self.window_seconds
                and len(keys) > len(before)
                and keys[: len(before)] == before
            )
            self.cache.invalidate_all(carry=appended)
            self._inputs = inputs
        live = {(self.window_seconds, key) for key in keys}
        stale = [key for key in self._partials if key not in live]
        for key in stale:
            del self._partials[key]
        if stale:
            self.metrics.inc("serve.partials.dropped", len(stale))
        self._reader, self._partitions = reader, partitions
        self._identity = identity

    def _dataset_kwargs(self, profile: str) -> dict:
        """The shape of ``profile``'s dataset; the analyze one is also the
        shape every partial is folded at."""
        if profile == "analyze":
            return dict(
                study_windows=self.study_windows,
                keep_response_sizes=True,
                window_seconds=self.window_seconds,
            )
        # routing: the §6 audit's dataset shape (hourly windows)
        return dict(
            study_windows=self.routing_windows,
            keep_response_sizes=True,
            window_seconds=self.routing_window_seconds,
        )

    def _merge_partials(
        self,
        profile: str,
        pops: Optional[Collection[str]],
        countries: Optional[Collection[str]],
        window: Optional[Tuple[int, int]],
        carried: Optional[_CacheEntry] = None,
    ) -> _CacheEntry:
        """The dataset ``build_dataset`` folds from this query's samples,
        merged from the cells of the partials the manifest admits.

        ``carried`` is this query's entry from before an append: when every
        order key of the appended partitions' admitted cells comes after
        its own, its dataset is extended with those cells alone (and adopts
        the current ``study_windows``). Otherwise every admitted cell is
        merged into a fresh dataset. Partials are built before the carried
        dataset is touched, so a ``StoreError`` leaves it as it was.
        """
        pops = frozenset(pops) if pops is not None else None
        countries = frozenset(countries) if countries is not None else None
        kwargs = self._dataset_kwargs(profile)
        window_seconds = kwargs["window_seconds"]
        # Store windows per window of this dataset: 1 for analyze, 4 for
        # routing over the CLI's quarter-hours (DESIGN §12, tiling).
        factor = window_seconds / self.window_seconds
        if not factor.is_integer():
            raise BadRequest(
                f"routing windows of {window_seconds:g} s are not a whole "
                f"number of this store's {self.window_seconds:g} s windows"
            )
        factor = int(factor)
        scan_filter = None
        if not (pops is None and countries is None and window is None):
            # Inclusive time bounds over-admit a partition that only touches
            # the range's edge; the cell's window decides exactly.
            scan_filter = ScanFilter(
                pops=pops,
                countries=countries,
                min_end_time=(
                    window[0] * window_seconds if window is not None else None
                ),
                max_end_time=(
                    (window[1] + 1) * window_seconds if window is not None else None
                ),
            )

        def cells(first: int) -> List[ShardResult]:
            results: List[ShardResult] = []
            for partition, key in self._partitions[first:]:
                if scan_filter is not None and not scan_filter.admits_partition(
                    partition
                ):
                    continue
                partial = self._partial(partition, key)
                results.extend(
                    result if factor == 1 else _coarsened(result, factor)
                    for (pop, country, index), result in partial.items()
                    if (pops is None or pop in pops)
                    and (countries is None or country in countries)
                    and (window is None or window[0] <= index // factor <= window[1])
                )
            return results

        covered = len(self._partitions)
        if carried is not None:
            results = cells(carried.partitions)
            if all(
                not result.sessions
                or min(result.sessions.keys) > carried.max_order_key
                for result in results
            ):
                dataset = carried.dataset
                dataset.study_windows = kwargs["study_windows"]
                self.metrics.inc("serve.merges.extended")
                return _CacheEntry(
                    _merge_results(dataset, results),
                    covered,
                    _max_order_key(results, carried.max_order_key),
                )
        results = cells(0)
        self.metrics.inc("serve.merges.full")
        return _CacheEntry(
            _merge_results(StudyDataset(**kwargs), results),
            covered,
            _max_order_key(results, -1),
        )

    def _partial(self, partition: dict, key: tuple) -> Dict[Cell, ShardResult]:
        """One partition's partial, folded at the store's own window on
        first use.

        A build that raises (a typed ``StoreError``: damage, a truncated
        file) caches and counts nothing, so the next query retries it.
        """
        kwargs = self._dataset_kwargs("analyze")
        window_seconds = kwargs["window_seconds"]
        cache_key = (window_seconds, key)
        partial = self._partials.get(cache_key)
        if partial is not None:
            self.metrics.inc("serve.partials.reused")
            return partial
        built = MetricsRegistry()
        with gc_paused():
            batch = self._reader.decode_partition_columns(partition, built)
            rows_by_cell: Dict[Cell, List[int]] = {}
            for row, cell in enumerate(
                zip(
                    batch.pops,
                    batch.countries,
                    [window_index(end, window_seconds) for end in batch.end_times],
                )
            ):
                rows_by_cell.setdefault(cell, []).append(row)
            partial = {
                cell: _fold(
                    [batch if len(rows_by_cell) == 1 else batch.take(rows)],
                    kwargs,
                )
                for cell, rows in rows_by_cell.items()
            }
        for result in partial.values():
            built.merge(result.metrics)
        self.metrics.merge(built)
        self.metrics.inc("serve.partials.built")
        self._partials[cache_key] = partial
        return partial

    # ------------------------------------------------------------------ #
    # Quarantine ledger
    # ------------------------------------------------------------------ #
    def _record_quarantine(self, error: StoreError) -> None:
        self._record_quarantine_entry(
            getattr(error, "partition_id", None),
            getattr(error, "column", None),
            str(error),
        )

    def _record_quarantine_entry(
        self, partition: Optional[int], column: Optional[str], detail: str
    ) -> None:
        entry = {"partition": partition, "column": column, "error": detail}
        if entry not in self.quarantine:
            self.quarantine.append(entry)
            self.metrics.inc("serve.quarantined")


#: Endpoint -> its payload builder, for a response not yet memoized.
_BUILDERS = {
    "quantiles": QueryEngine._quantiles,
    "degradation": QueryEngine._degradation,
    "routing": QueryEngine._routing,
}
