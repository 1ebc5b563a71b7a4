"""Sharded parallel analysis pipeline (§2.2.2 aggregation tier at scale).

The paper's aggregation tier digests per-(PoP, BGP prefix, country) groups
over 15-minute windows from every load balancer in the fleet; the serial
:class:`~repro.pipeline.dataset.StudyDataset` pass reproduces the math but
not the throughput. This module fans the same pass out over a worker pool
and merges the partial states back into a ``StudyDataset`` that is
**bit-identical** to the serial one — same session columns in the same
order, same aggregation insertion order, same per-group medians and confidence
intervals. The equivalence is enforced by ``tests/test_pipeline_parallel.py``.

One partitioning strategy, exact — **chunk sharding** of a columnar store:
the store's partitions are grouped into disjoint
:class:`~repro.store.StoreChunk` sets (see
:func:`repro.pipeline.io.plan_chunks`), and each worker decodes and
aggregates only its chunk: a shard task names bytes on disk, and samples
never cross a process boundary. A JSONL trace is folded in one pass, or
``repro convert``-ed to a store first. Aggregations spanning chunks are
folded together with
:meth:`~repro.core.aggregation.Aggregation.merge` in order-key order.
Chunks carry interleaved sequence ranges (partitions are keyed by PoP and
time band, not by stream position); the merger's order-key sort of the
aggregation pieces absorbs that, and every derived statistic is an order
statistic or an integer sum, so the bit-identical guarantee holds.

Exactness argument: every sample carries a monotone *order key* (its
store sequence number).
Workers preserve relative order within a partition, and the merger (a)
appends each shard's session chunk in plan order (the plan cuts
contiguous runs of the manifest, so the columns read in the serial
fold's partition order, each session with its order key), (b) rebuilds
the aggregation store inserting keys by first-seen order key, and (c)
concatenates each aggregation's raw value lists in order-key order.
Since the serial pass is a fold over the same samples in the same order,
every derived statistic — medians, McKean–Schrader CIs, window tables,
verdict series — is exactly equal.

Fault tolerance (DESIGN.md §9): a failing shard is retried with
exponential backoff (``max_retries`` × ``retry_backoff``), and a shard
that exhausts its retries is **quarantined** — the run completes on the
surviving shards and the merged dataset carries a :class:`DegradedLedger`
(``dataset.degraded``) naming every lost shard, its error, and the exact
samples and store partitions lost with it. ``strict=True``
restores fail-fast: the first exhausted shard raises a typed
:class:`ShardError` naming the shard. Fault-free runs take the exact same
code path and stay bit-identical to the pre-retry pipeline.

Backends (DESIGN.md §13): *where* shards run is worked out from the
options, never chosen. ``worker_addrs`` non-empty fans the plan out over
those :mod:`repro.dist` worker daemons (a
:class:`~repro.dist.client.DispatchPool`); otherwise ``workers > 1`` runs
it on a ``ProcessPoolExecutor``; otherwise it runs inline in this process
(:class:`_InlineExecutor`), first attempts in plan order (the determinism
baseline). All three are ``concurrent.futures`` executors driven by one
retry loop, :func:`_execute`, and are held to one contract by
``tests/test_executor_contract.py``: byte-identical datasets and data
counters versus the inline run, and identical retry/quarantine
accounting.
"""

from __future__ import annotations

import logging
import multiprocessing
import pathlib
import pickle
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import faultinject
from repro.core.aggregation import Aggregation
from repro.core.records import SessionSample, UserGroupKey
from repro.obs import (
    MetricsRegistry,
    active_metrics,
    merge_into_active,
    span,
)
from repro.pipeline.dataset import StudyDataset
from repro.pipeline.filters import FilterStats
from repro.pipeline.io import PathLike, detect_format, plan_chunks
from repro.pipeline.table import SessionChunk
from repro.store import StoreChunk
from repro.store.schema import gc_paused

__all__ = [
    "DegradedLedger",
    "NoBackendError",
    "ParallelOptions",
    "RemoteCause",
    "ShardError",
    "ShardResult",
    "build_dataset",
]

_LOG = logging.getLogger("repro.pipeline.parallel")

AggregationKey = Tuple[UserGroupKey, int, int]
Source = Union[PathLike, Iterable[SessionSample]]


class RemoteCause(RuntimeError):
    """Stringified stand-in for an exception that cannot cross a pickle.

    Keeps the original type name and message so ledger entries and
    ``ShardError`` text stay as informative as the live exception was.
    """

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.message = message

    def __reduce__(self):
        # Default exception pickling would call cls(formatted_message) —
        # wrong arity. Rebuild from the real constructor.
        return (type(self), (self.type_name, self.message))


def _transportable_cause(cause: BaseException) -> BaseException:
    """``cause`` if it survives a pickle round trip, else a RemoteCause.

    A full ``loads(dumps(...))`` round trip, not just ``dumps``: some
    third-party exceptions serialize fine but blow up on load (custom
    ``__init__`` arity, unimportable modules on the other side).
    """
    try:
        pickle.loads(pickle.dumps(cause))
        return cause
    except Exception:  # noqa: BLE001 — any failure means "not transportable"
        return RemoteCause(type(cause).__name__, str(cause))


class NoBackendError(RuntimeError):
    """Nothing is left to run the shard on (every worker is gone).

    A failed attempt with this cause is not retried: the shard is
    quarantined at its current attempt, or raised under ``strict``.
    """


class ShardError(RuntimeError):
    """A shard worker failed for good; names the shard and keeps the cause.

    Raised by the executor when a shard exhausts its retries under
    ``strict`` mode (and available on the :class:`DegradedLedger` entries
    otherwise). ``shard_id`` is the task ordinal, ``cause`` the original
    worker exception, ``attempts`` how many times the shard ran.
    """

    def __init__(
        self, shard_id: int, cause: BaseException, attempts: int = 1
    ) -> None:
        super().__init__(
            f"shard {shard_id} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard_id = shard_id
        self.cause = cause
        self.attempts = attempts

    def __reduce__(self):
        # Default exception pickling re-invokes cls(*args) with the
        # formatted message; rebuild from the real constructor instead —
        # stringifying a cause that would poison the pickle (third-party
        # exceptions with custom arity travel as RemoteCause).
        return (
            type(self),
            (self.shard_id, _transportable_cause(self.cause), self.attempts),
        )


@dataclass
class DegradedLedger:
    """What a non-strict run lost to quarantined shards.

    ``shards`` holds one entry per quarantined shard: ``ordinal``, the
    stringified ``error``, ``attempts`` made, ``samples_lost`` (the
    chunk's manifest row count — exact) and ``partitions_skipped`` (the
    store partitions the chunk covered). ``retries``
    counts every re-run attempt across all shards, including ones that
    eventually succeeded. Falsy when nothing was lost, so
    ``if dataset.degraded`` reads naturally.
    """

    shards: List[dict] = field(default_factory=list)
    retries: int = 0

    def __bool__(self) -> bool:
        return bool(self.shards)

    @property
    def shards_lost(self) -> int:
        return len(self.shards)

    @property
    def samples_lost(self) -> int:
        return sum(entry["samples_lost"] for entry in self.shards)

    @property
    def partitions_skipped(self) -> int:
        return sum(entry["partitions_skipped"] for entry in self.shards)

    def quarantine(
        self, task: "_ShardTask", error: BaseException, attempts: int
    ) -> None:
        self.shards.append(
            {
                "ordinal": task.ordinal,
                "error": f"{type(error).__name__}: {error}",
                "attempts": attempts,
                "samples_lost": task.chunk.rows,
                "partitions_skipped": len(task.chunk.partition_ids),
            }
        )

    def summary(self) -> str:
        ordinals = ", ".join(str(entry["ordinal"]) for entry in self.shards)
        return (
            f"{self.shards_lost} shard(s) quarantined "
            f"(ordinal(s) {ordinals}); {self.samples_lost} sample(s) lost, "
            f"{self.partitions_skipped} store partition(s) skipped, "
            f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}"
        )

    def to_dict(self) -> dict:
        return {
            "shards_lost": self.shards_lost,
            "samples_lost": self.samples_lost,
            "partitions_skipped": self.partitions_skipped,
            "retries": self.retries,
            "shards": [dict(entry) for entry in self.shards],
        }


@dataclass(frozen=True)
class ParallelOptions:
    """How to fan the analysis out.

    ``workers`` is the pool size; ``shards`` the number of partitions
    (defaults to ``workers`` — more shards than workers is fine and can
    smooth load imbalance); ``worker_addrs`` names :mod:`repro.dist`
    worker daemons as ``host:port`` strings. Where the shards run follows
    from those (:attr:`backend`): on the daemons when ``worker_addrs`` is
    non-empty, else on a process pool when ``workers > 1`` (true
    parallelism, chunk descriptors are pickled to children), else inline in
    this process — the default ``ParallelOptions()`` is the plain
    one-pass serial run, and ``ParallelOptions(shards=N)`` is the same
    N-shard plan one task at a time, the determinism baseline.

    Fault handling: a failing shard is re-run up to ``max_retries`` times
    with exponential backoff (``retry_backoff * 2**(attempt-1)`` seconds
    between attempts) before being quarantined; ``strict=True`` raises
    :class:`ShardError` instead of quarantining. Under dispatch a dead
    worker's in-flight task counts one attempt and is reassigned to a
    surviving daemon through the same policy.
    """

    workers: int = 1
    shards: Optional[int] = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    strict: bool = False
    worker_addrs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 <= self.retry_backoff < float("inf"):
            raise ValueError("retry_backoff must be >= 0 and finite")
        object.__setattr__(self, "worker_addrs", tuple(self.worker_addrs))
        if self.worker_addrs:
            # Imported lazily: repro.dist imports this module for the
            # task/result types, so a top-level import would be circular.
            from repro.dist.client import parse_addr

            for addr in self.worker_addrs:
                parse_addr(addr)

    @property
    def backend(self) -> str:
        """Where the shard plan runs: ``dispatch``, ``process`` or ``serial``."""
        if self.worker_addrs:
            return "dispatch"
        return "process" if self.workers > 1 else "serial"

    @property
    def effective_shards(self) -> int:
        if self.shards is not None:
            return self.shards
        # One shard per daemon at minimum, more if workers asks for it.
        return max(self.workers, len(self.worker_addrs))


@dataclass
class ShardResult:
    """Picklable partial state produced by one shard worker."""

    #: Task ordinal this result answers (results can complete out of order
    #: under retry; the merge sorts on this to restore the plan order).
    ordinal: int = 0
    #: The shard's kept sessions, one typed column per field.
    sessions: SessionChunk = field(default_factory=SessionChunk)
    #: (first order key seen for the key, aggregation key, aggregation)
    aggregations: List[Tuple[int, AggregationKey, Aggregation]] = field(
        default_factory=list
    )
    filter_stats: FilterStats = field(default_factory=FilterStats)
    #: The worker dataset's own registry; counters here are data facts and
    #: sum commutatively across shards to exactly the serial counters.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Execution facts (never part of the counter-equality invariant).
    wall_seconds: float = 0.0
    samples_ingested: int = 0

    # The one wire form, for the process pool and the dispatch client
    # alike: the session chunk travels as raw column bytes, so nothing is
    # pickled per session; columns whose lengths disagree are refused
    # before an array is built (SessionChunk.from_wire).
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["sessions"] = self.sessions.to_wire()
        return state

    def __setstate__(self, state: dict) -> None:
        state["sessions"] = SessionChunk.from_wire(state["sessions"])
        self.__dict__.update(state)


@dataclass(frozen=True)
class _ShardTask:
    """One unit of worker input: a chunk of a store on disk."""

    dataset_kwargs: dict
    chunk: StoreChunk
    #: Position in the shard plan; names the shard in errors and ledgers.
    ordinal: int = 0


def _fold(batches: Iterable, dataset_kwargs: dict, ordinal: int = 0) -> ShardResult:
    """Fold column batches through one batch ingestor into a ShardResult.

    A shard's fold and a served partial's (:mod:`repro.serve.engine`): the
    finalized session chunk and (order key, key, aggregation) triples are
    the shapes :func:`_merge_results` consumes. Cyclic GC is paused across the
    fold, batch decoding included.
    """
    # Imported here, not at module top: repro.kernels.engine imports
    # repro.pipeline.filters, whose package __init__ imports this module.
    from repro.kernels.engine import BatchIngestor

    ingestor = BatchIngestor(**dataset_kwargs)
    samples_ingested = 0
    with gc_paused():
        for batch in batches:
            samples_ingested += len(batch)
            ingestor.ingest_batch(batch)
        sessions, aggregations = ingestor.finalize()
    return ShardResult(
        ordinal=ordinal,
        sessions=sessions,
        aggregations=aggregations,
        filter_stats=ingestor.filter_stats,
        metrics=ingestor.metrics,
        samples_ingested=samples_ingested,
    )


def _run_shard(task: _ShardTask) -> ShardResult:
    """Decode and fold one chunk's partitions through the column kernels."""
    from repro.kernels.engine import iter_batches

    faultinject.check_shard(task.ordinal)
    start = time.perf_counter()
    decoded = MetricsRegistry()
    result = _fold(
        iter_batches(task.chunk, metrics=decoded),
        task.dataset_kwargs,
        task.ordinal,
    )
    result.metrics.merge(decoded)
    result.wall_seconds = time.perf_counter() - start
    return result


def _on_shard_failure(
    task: _ShardTask,
    attempt: int,
    error: BaseException,
    options: ParallelOptions,
    ledger: DegradedLedger,
) -> Optional[float]:
    """Decide one failed attempt's fate.

    Returns the backoff delay (seconds) before the next attempt, or
    ``None`` when the shard is spent — quarantined into ``ledger``, or
    raised as :class:`ShardError` under ``strict``. Every worker failure
    flows through here, so every failure names its shard. A
    :class:`NoBackendError` spends the shard at once: a retry would have
    nowhere to run.
    """
    if attempt <= options.max_retries and not isinstance(error, NoBackendError):
        ledger.retries += 1
        _LOG.warning(
            "shard %d attempt %d/%d failed (%s: %s); retrying",
            task.ordinal,
            attempt,
            options.max_retries + 1,
            type(error).__name__,
            error,
        )
        return options.retry_backoff * (2 ** (attempt - 1))
    if options.strict:
        raise ShardError(task.ordinal, error, attempt) from error
    ledger.quarantine(task, error, attempt)
    _LOG.warning(
        "shard %d quarantined after %d attempt(s): %s: %s",
        task.ordinal,
        attempt,
        type(error).__name__,
        error,
    )
    return None


class _InlineExecutor(Executor):
    """Runs each submitted call at once, in this process: ``submit``
    returns a finished future. The backend of one-worker and one-task
    plans; under :func:`_execute` it runs every first attempt in plan
    order, then the retries."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 — the caller decides its fate
            future.set_exception(error)
        return future


def _executor_for(options: ParallelOptions, task_count: int) -> Executor:
    """The executor ``options`` derive (DESIGN.md §13)."""
    if options.backend == "dispatch":
        # Imported lazily: repro.dist imports this module for the
        # task/result types, so a top-level import would be circular.
        from repro.dist.client import DispatchPool

        return DispatchPool(options.worker_addrs)
    if options.backend == "process" and task_count > 1:
        # Forked on Linux, whatever the default (DESIGN.md §6); elsewhere
        # the platform's own default (macOS spawns: fork is unsafe there).
        method = "fork" if sys.platform.startswith("linux") else None
        context = multiprocessing.get_context(method)
        return ProcessPoolExecutor(min(options.workers, task_count), context)
    # A one-task plan gains nothing from a pool — run it inline.
    # (Dispatch still ships it: its point is *where* the task runs.)
    return _InlineExecutor()


def _execute(
    tasks: Sequence[_ShardTask],
    options: ParallelOptions,
    ledger: DegradedLedger,
) -> List[ShardResult]:
    """Run the shard plan; returns surviving results in plan order.

    The one retry loop, whatever the backend: every failed attempt goes
    through :func:`_on_shard_failure`, and a retry is resubmitted without
    blocking other shards' progress. Quarantined shards (non-strict,
    retries exhausted) are simply absent from the returned list — the
    ledger records them, in plan order.
    """
    if not tasks:
        return []
    results: List[ShardResult] = []
    with _executor_for(options, len(tasks)) as pool:
        pending = {pool.submit(_run_shard, task): (task, 1) for task in tasks}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=lambda f: pending[f][0].ordinal):
                    task, attempt = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        results.append(future.result())
                        continue
                    if not isinstance(error, Exception):
                        raise error  # KeyboardInterrupt and kin: not ours
                    delay = _on_shard_failure(
                        task, attempt, error, options, ledger
                    )
                    if delay is None:
                        continue
                    if delay > 0:
                        time.sleep(delay)
                    pending[pool.submit(_run_shard, task)] = (task, attempt + 1)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    results.sort(key=lambda result: result.ordinal)
    ledger.shards.sort(key=lambda entry: entry["ordinal"])
    return results


def _merge_results(dataset: StudyDataset, results: Iterable[ShardResult]) -> StudyDataset:
    """Fold shard results into ``dataset``, restoring exact serial order.

    ``dataset`` may already hold merged results (a served query extending
    the previous generation's dataset, :mod:`repro.serve.engine`), on the
    condition that every order key in ``results`` comes after every order
    key it holds; the outcome is then the merge of all results at once.

    Each result's session chunk is appended to the dataset's table as it
    is, in result order: no row is sorted or copied (the chunks keep their
    order keys). Each result's triples are sorted, so one sort merges
    them; first order keys never tie (results are disjoint), so the
    sorted triples give first-seen key order and each key's pieces.

    Copy-on-merge: no result, no chunk, and no aggregation ``dataset``
    already holds, is mutated. A new key with one piece installs that piece; a
    key with several pieces, or one the dataset already holds, gets a
    fresh aggregation. So merging the same results twice — a served query
    over cached partials — yields the same dataset twice.
    """
    triples: List[Tuple[int, AggregationKey, Aggregation]] = []
    for result in results:
        dataset.table.chunks.append(result.sessions)
        triples.extend(result.aggregations)
        dataset.filter_stats.merge(result.filter_stats)
        dataset.metrics.merge(result.metrics)
        dataset.metrics.observe("pipeline.shard_wall_seconds", result.wall_seconds)
        dataset.shard_report.append(
            {
                "ordinal": result.ordinal,
                "samples": result.samples_ingested,
                "rows_kept": len(result.sessions),
                "wall_seconds": result.wall_seconds,
            }
        )
    triples.sort(key=itemgetter(0))
    parts: Dict[AggregationKey, List[Aggregation]] = {}
    for _, key, aggregation in triples:
        parts.setdefault(key, []).append(aggregation)
    store = dataset.store
    carried = len(store)  # only a served query's carried dataset holds any
    for key, pieces in parts.items():
        installed = store.get(*key) if carried else None
        if installed is not None:
            pieces.insert(0, installed)
        merged = pieces[0]
        if len(pieces) > 1:
            merged = replace(
                merged,
                min_rtts_ms=list(merged.min_rtts_ms),
                hdratios=list(merged.hdratios),
            )
            for piece in pieces[1:]:
                merged.merge(piece)
        if installed is None:
            store.put(key, merged)
        else:
            store.replace(key, merged)
    return dataset


def build_dataset(
    source: Source,
    *,
    study_windows: int,
    keep_response_sizes: bool = True,
    compute_naive: bool = False,
    window_seconds: float = 900.0,
    options: Optional[ParallelOptions] = None,
) -> StudyDataset:
    """Build a :class:`StudyDataset` from a trace file or sample stream.

    The one path from a trace (JSONL or columnar store, auto-detected) or
    an in-memory sample stream to the dataset every figure driver
    consumes. The §3.2 methodology runs over column arrays
    (:mod:`repro.kernels`); the result — rows, aggregations, reports,
    figures, data counters — is byte-identical to the per-record reference
    fold ``StudyDataset(...).ingest(read_samples(source))``, which the
    differential suite calls as its oracle
    (``tests/test_batch_equivalence.py``).

    With ``options`` absent (or a one-shard plan with no worker daemons)
    the source is folded in one pass. Otherwise it must be a columnar
    store (a sample iterable or a JSONL trace raises ``ValueError`` before
    a byte of it is read), which is partitioned into partition-aligned
    chunks, executed per ``options``, and merged back into a dataset
    bit-identical to the one-pass fold.

    Sharded runs tolerate shard failures per the options' retry policy:
    shards that exhaust their retries under non-strict mode are quarantined
    and the returned dataset's ``degraded`` attribute holds the
    :class:`DegradedLedger` (``None`` on a clean run). The active metrics
    registry receives the ``fault.*`` execution counters
    (``fault.shard_retries``, ``fault.shards_quarantined``,
    ``fault.samples_lost``, ``fault.partitions_skipped``) only when
    non-zero, so clean manifests are unchanged.
    """
    dataset_kwargs = dict(
        study_windows=study_windows,
        keep_response_sizes=keep_response_sizes,
        compute_naive=compute_naive,
        window_seconds=window_seconds,
    )
    dataset = StudyDataset(**dataset_kwargs)
    options = options or ParallelOptions()
    one_pass = options.effective_shards == 1 and not options.worker_addrs
    if not one_pass and not (
        isinstance(source, (str, pathlib.Path))
        and detect_format(source) == "store"
    ):
        raise ValueError(
            "a sharded plan (more than one shard, or worker_addrs) reads a "
            "columnar store, not a sample stream or a JSONL trace: fold "
            "those in one pass, or save them as a store first (`repro "
            "convert TRACE.jsonl TRACE.store`, write_samples('TRACE.store', "
            "samples) or `repro trace OUT.store`) and pass its path"
        )
    ledger = DegradedLedger()
    with span("pipeline.ingest"):
        if one_pass:
            with span("serial"):
                from repro.kernels.engine import (
                    BatchIngestor,
                    fold_into_dataset,
                    iter_batches,
                )

                ingestor = BatchIngestor(**dataset_kwargs)
                with gc_paused():
                    for batch in iter_batches(source, metrics=ingestor.metrics):
                        ingestor.ingest_batch(batch)
                    fold_into_dataset(dataset, ingestor)
        else:
            with gc_paused():  # DESIGN.md §6
                with span("plan"):
                    tasks = [
                        _ShardTask(dataset_kwargs, chunk, ordinal=index)
                        for index, chunk in enumerate(
                            plan_chunks(source, options.effective_shards)
                        )
                    ]
                with span("execute"):
                    results = _execute(tasks, options, ledger)
                with span("merge"):
                    _merge_results(dataset, results)
    # Dataset-shape gauges are plan-invariant (same rows and store whatever
    # the shard plan), so they participate in the equality invariant too.
    dataset.metrics.set_gauge("pipeline.rows", dataset.session_count)
    dataset.metrics.set_gauge("pipeline.aggregations", len(dataset.store))
    dataset.metrics.set_gauge("pipeline.groups", len(dataset.store.groups()))
    # Fault counters are execution facts: they describe how *this* run
    # fared, not the data, so they go to the active registry only — and
    # only when non-zero, keeping clean runs' manifests unchanged.
    registry = active_metrics()
    if registry is not None:
        if ledger.retries:
            registry.inc("fault.shard_retries", ledger.retries)
        if ledger:
            registry.inc("fault.shards_quarantined", ledger.shards_lost)
            registry.inc("fault.samples_lost", ledger.samples_lost)
            registry.inc("fault.partitions_skipped", ledger.partitions_skipped)
    dataset.degraded = ledger if ledger else None
    merge_into_active(dataset.metrics)
    return dataset
