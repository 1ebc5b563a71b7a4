"""Batch engine: fold :class:`ColumnBatch` runs into dataset state.

:class:`BatchIngestor` is the batch path's counterpart of
:meth:`repro.pipeline.dataset.StudyDataset.ingest_one` — same filters, same
§3.2 funnel (via :func:`repro.kernels.goodput.session_funnel`), same sessions,
aggregations, filter accounting, and observability counters — driven by
column cursors instead of per-row objects. It fills one
:class:`~repro.pipeline.table.SessionChunk` (typed columns, no object per
session), and its output plugs into every execution topology:

- **serial**: :func:`fold_into_dataset` installs the finalized chunk and
  aggregations into a :class:`StudyDataset` (batches may interleave: store
  partitions are keyed by PoP and time band, not stream position; the
  chunk keeps each session's order key, and only aggregations need
  order-key order here);
- **sharded**: ``repro.pipeline.parallel`` builds one ingestor per shard
  and ships ``finalize()``'s output as a ``ShardResult`` through the
  order-independent merge;
- **streaming**: ``repro.pipeline.ingest`` stages each sealed window in
  its own ingestor and installs it with :func:`fold_into_dataset`, whose
  returned aggregation list feeds the online analyzer.

Counter parity is exact, not just sum-equal: the registry creates a
counter key on any ``inc``, including ``inc(name, 0)``, so the ingestor
reproduces the row path's key-creation pattern — e.g. the
``methodology.*`` funnel counters exist iff at least one kept session had
transactions, and ``methodology.sessions.hd_testable`` iff at least one
session tested — by buffering totals and flushing them under the same
conditions at :meth:`BatchIngestor.finalize`.
"""

from __future__ import annotations

import math
import pathlib
from itertools import chain, compress, islice, repeat
from operator import itemgetter, not_
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.aggregation import Aggregation
from repro.core.records import SessionSample, UserGroupKey
from repro.kernels.columns import BATCH_ROWS, ColumnBatch
from repro.kernels.goodput import funnel_single, session_funnel
from repro.obs import MetricsRegistry
from repro.pipeline.filters import FilterStats
from repro.pipeline.table import SessionChunk
from repro.store.schema import shred_rows

__all__ = [
    "BatchIngestor",
    "batches_from_pairs",
    "fold_into_dataset",
    "iter_batches",
]

AggregationKey = Tuple[UserGroupKey, int, int]


class BatchIngestor:
    """Accumulate batches; finalize into a session chunk + aggregations.

    Constructor arguments match :class:`StudyDataset`'s, so one
    ``dataset_kwargs`` dict builds the ingestor and the dataset it fills.
    """

    def __init__(
        self,
        study_windows: int,
        keep_response_sizes: bool = True,
        compute_naive: bool = False,
        window_seconds: float = 900.0,
    ) -> None:
        if study_windows <= 0:
            raise ValueError("study_windows must be positive")
        self.study_windows = study_windows
        self.keep_response_sizes = keep_response_sizes
        self.compute_naive = compute_naive
        self.window_seconds = window_seconds
        self.metrics = MetricsRegistry()
        self.filter_stats = FilterStats()
        #: The fold's sessions, handed on by :meth:`finalize`.
        self.chunk = SessionChunk()
        #: Per-key aggregation pieces: each batch that touches a key adds
        #: one (first order key in that batch, Aggregation) piece; finalize
        #: merges them in order-key order, the parallel merger's rule.
        self._pieces: Dict[AggregationKey, List[Tuple[int, Aggregation]]] = {}
        self._groups: Dict[Tuple[str, str, str], UserGroupKey] = {}
        # Buffered counter totals (flushed with row-path gating; see
        # module docstring).
        self._read = 0
        self._kept = 0
        self._dropped = 0
        self._txn_raw = 0
        self._txn_coalesced_away = 0
        self._txn_inflight_dropped = 0
        self._txn_gtestable = 0
        self._txn_achieved = 0
        self._any_txn = False
        self._hd_testable_sessions = 0
        self._hd_samples = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    def ingest_batch(self, batch: ColumnBatch) -> None:
        """Fold one batch; every sample's full contribution happens here."""
        order_keys = batch.order_keys
        start_times = batch.start_times
        end_times = batch.end_times
        is_http2 = batch.is_http2
        min_rtts = batch.min_rtts
        bytes_sents = batch.bytes_sents
        busy_times = batch.busy_times
        pops = batch.pops
        countries = batch.countries
        continents = batch.continents
        hostings = batch.hostings
        geo_tags = batch.geo_tags
        routes = batch.routes
        media_lens = batch.media_lens
        media_values = batch.media_values
        txn_lens = batch.txn_lens
        txn_fbt = batch.txn_fbt
        txn_ack = batch.txn_ack
        txn_resp = batch.txn_resp
        txn_last = batch.txn_last
        txn_cwnd = batch.txn_cwnd
        txn_inflight = batch.txn_inflight
        txn_lbwt = batch.txn_lbwt

        stats = self.filter_stats
        keep_sizes = self.keep_response_sizes
        compute_naive = self.compute_naive
        window_seconds = self.window_seconds
        groups = self._groups
        pieces = self._pieces
        # The five values computed per kept session go to batch-local lists
        # (a list append is a third of an array's), and into the chunk's
        # columns after the loop, with the columns copied from the batch.
        computed = ([], [], [], [], [])
        min_rtt_append, hdratio_append, naive_append, duration_append, busy_append = (
            column.append for column in computed
        )
        floor = math.floor
        funnel = session_funnel
        single = funnel_single

        read = kept = dropped = 0
        txn_raw = txn_coalesced_away = txn_inflight_dropped = 0
        txn_gtestable = txn_achieved = 0
        any_txn = False
        hd_testable_sessions = 0
        hd_samples = 0
        #: Batch-local aggregations by plain tuple key, one per key per batch.
        local: Dict[tuple, Aggregation] = {}

        txn_cursor = 0
        media_cursor = 0
        for i in range(len(order_keys)):
            t0 = txn_cursor
            tlen = txn_lens[i]
            txn_cursor = t0 + tlen
            m0 = media_cursor
            mlen = media_lens[i]
            media_cursor = m0 + mlen

            read += 1
            sent = bytes_sents[i]
            if hostings[i]:
                dropped += 1
                stats.dropped_sessions += 1
                stats.dropped_bytes += sent
                continue
            kept += 1
            stats.kept_sessions += 1
            stats.kept_bytes += sent

            min_rtt = min_rtts[i]
            naive = None
            if tlen == 1:
                # Scalar fast path: one record is one always-eligible
                # group with an empty ideal-window chain.
                any_txn = True
                tested, achieved, naive_achieved = single(
                    txn_fbt[t0],
                    txn_ack[t0],
                    txn_resp[t0],
                    txn_last[t0],
                    txn_cwnd[t0],
                    min_rtt,
                    compute_naive=compute_naive,
                )
                txn_raw += 1
                txn_gtestable += tested
                txn_achieved += achieved
                if tested:
                    hd_testable_sessions += 1
                    hd = achieved / tested
                    if compute_naive:
                        naive = naive_achieved / tested
                else:
                    hd = None
            elif tlen:
                any_txn = True
                counts = funnel(
                    txn_fbt,
                    txn_ack,
                    txn_resp,
                    txn_last,
                    txn_cwnd,
                    txn_inflight,
                    txn_lbwt,
                    t0,
                    txn_cursor,
                    min_rtt,
                    compute_naive=compute_naive,
                )
                txn_raw += tlen
                txn_coalesced_away += tlen - counts.coalesced
                txn_inflight_dropped += counts.coalesced - counts.eligible
                txn_gtestable += counts.tested
                txn_achieved += counts.achieved
                tested = counts.tested
                if tested:
                    hd_testable_sessions += 1
                    hd = counts.achieved / tested
                    if compute_naive:
                        naive = counts.naive_achieved / tested
                else:
                    hd = None
            else:
                hd = None

            end_time = end_times[i]
            duration = end_time - start_times[i]
            if duration <= 0:
                busy_fraction = 1.0
            else:
                busy_fraction = min(busy_times[i] / duration, 1.0)

            min_rtt_ms = min_rtt * 1000.0
            min_rtt_append(min_rtt_ms)
            hdratio_append(hd)
            naive_append(naive)
            duration_append(duration)
            busy_append(busy_fraction)
            order_key = order_keys[i]

            route = routes[i]
            if route is None:
                raise ValueError("sample is missing its egress route annotation")
            pop = pops[i]
            country = countries[i]
            rank = route.preference_rank
            window = int(floor(end_time / window_seconds))
            local_key = (pop, route.prefix, country, rank, window)
            aggregation = local.get(local_key)
            if aggregation is None:
                group = groups.get(local_key[:3])
                if group is None:
                    group = groups[local_key[:3]] = UserGroupKey(*local_key[:3])
                aggregation = local[local_key] = Aggregation(
                    group=group,
                    route_rank=rank,
                    window=window,
                    route=route,
                )
                pieces.setdefault((group, rank, window), []).append(
                    (order_key, aggregation)
                )
            aggregation.min_rtts_ms.append(min_rtt_ms)
            if hd is not None:
                aggregation.hdratios.append(hd)
                hd_samples += 1
            aggregation.traffic_bytes += sent
            aggregation.session_count += 1

        self._read += read
        self._kept += kept
        self._dropped += dropped
        self._txn_raw += txn_raw
        self._txn_coalesced_away += txn_coalesced_away
        self._txn_inflight_dropped += txn_inflight_dropped
        self._txn_gtestable += txn_gtestable
        self._txn_achieved += txn_achieved
        self._any_txn = self._any_txn or any_txn
        self._hd_testable_sessions += hd_testable_sessions
        self._hd_samples += hd_samples

        keep = list(map(not_, hostings)) if dropped else None
        if keep_sizes:
            kept_size_lens = _where(txn_lens, keep)
            kept_sizes = _where(txn_resp, _spread(keep, txn_lens))
            kept_media_lens = _where(media_lens, keep)
            kept_media = _where(media_values, _spread(keep, media_lens))
        else:
            kept_size_lens = kept_media_lens = [0] * kept
            kept_sizes = kept_media = []
        min_rtts_ms, hdratios, naive_hdratios, durations, busy_fractions = computed
        self.chunk.extend(
            keys=_where(order_keys, keep),
            min_rtt_ms=min_rtts_ms,
            hdratio=hdratios,
            naive_hdratio=naive_hdratios,
            bytes_sent=_where(bytes_sents, keep),
            duration=durations,
            busy_fraction=busy_fractions,
            transaction_count=_where(txn_lens, keep),
            is_http2=_where(is_http2, keep),
            continent=_where(continents, keep),
            geo_tag=_where(geo_tags, keep),
            size_lens=kept_size_lens,
            media_lens=kept_media_lens,
            sizes=kept_sizes,
            media=kept_media,
        )

    # ------------------------------------------------------------------ #
    def finalize(
        self,
    ) -> Tuple[SessionChunk, List[Tuple[int, AggregationKey, Aggregation]]]:
        """Flush counters; return (the session chunk, merged aggregations).

        The chunk holds the kept sessions in fold order, each with its
        order key; aggregations come back as ``(first order key, key,
        Aggregation)`` sorted by first appearance — exactly the shapes the
        parallel merger and the serial fold consume. Call once.
        """
        if self._finalized:
            raise RuntimeError("BatchIngestor.finalize() already called")
        self._finalized = True
        metrics = self.metrics
        if self._read:
            metrics.inc("pipeline.samples.read", self._read)
        if self._dropped:
            metrics.inc("pipeline.samples.dropped_hosting", self._dropped)
        if self._kept:
            metrics.inc("pipeline.samples.kept", self._kept)
        if self._any_txn:
            # The row path incs these per session-with-transactions (even
            # when a summand is 0), so the keys exist exactly when at least
            # one kept session had transactions.
            metrics.inc("methodology.transactions.raw", self._txn_raw)
            metrics.inc(
                "methodology.transactions.coalesced", self._txn_coalesced_away
            )
            metrics.inc(
                "methodology.transactions.inflight_dropped",
                self._txn_inflight_dropped,
            )
            metrics.inc("methodology.transactions.gtestable", self._txn_gtestable)
            metrics.inc("methodology.transactions.achieved", self._txn_achieved)
        if self._hd_testable_sessions:
            metrics.inc(
                "methodology.sessions.hd_testable", self._hd_testable_sessions
            )
        if self._kept:
            metrics.inc("core.aggregation.samples", self._kept)
        if self._hd_samples:
            metrics.inc("core.aggregation.hd_samples", self._hd_samples)

        first = itemgetter(0)
        aggregations: List[Tuple[int, AggregationKey, Aggregation]] = []
        for akey, parts in self._pieces.items():
            parts.sort(key=first)
            first_key, merged = parts[0]
            for _, piece in parts[1:]:
                merged.merge(piece)
            aggregations.append((first_key, akey, merged))
        aggregations.sort(key=first)
        return self.chunk, aggregations


def _where(column, keep) -> list:
    """``column``'s entries where ``keep`` is true (all of them for
    ``None``), as a list."""
    if keep is not None:
        return list(compress(column, keep))
    return column if type(column) is list else list(column)


def _spread(keep, lens):
    """Each session's ``keep`` flag once per entry its ``lens`` counts, for
    a flat column; ``None`` for ``None``."""
    return None if keep is None else chain.from_iterable(map(repeat, keep, lens))


# --------------------------------------------------------------------- #
# Batch sources
# --------------------------------------------------------------------- #
def batches_from_pairs(
    pairs: Iterable[Tuple[int, SessionSample]],
) -> Iterator[ColumnBatch]:
    """Slice an ``(order_key, sample)`` stream into column batches of
    :data:`BATCH_ROWS` rows: each slice's shred, with its samples' routes."""
    iterator = iter(pairs)
    while True:
        chunk = list(islice(iterator, BATCH_ROWS))
        if not chunk:
            return
        yield ColumnBatch.from_store_columns(
            shred_rows(chunk), [sample.route for _, sample in chunk]
        )


def iter_batches(
    source, metrics: Optional[MetricsRegistry] = None
) -> Iterator[ColumnBatch]:
    """Column batches from any source — the one source → batches dispatch.

    ``source`` is a trace path, one shard's chunk of a store
    (:class:`~repro.store.StoreChunk`) or a sample iterable. Paths go to
    :func:`repro.pipeline.io.read_column_batches`: a store (whole, or a
    chunk's partitions) yields one batch per partition with ``seq`` order
    keys, so shard results merge in exact stream order; a JSONL trace
    yields :data:`BATCH_ROWS`-row batches of the column assembler's
    store-schema columns under stream position. Neither builds a row
    object. In-memory streams are sliced into :data:`BATCH_ROWS`-row
    batches by :func:`batches_from_pairs`. Every batch is made by
    :meth:`ColumnBatch.from_store_columns`.
    ``metrics`` receives the same ``io.*``/``store.*`` counters as the row
    readers.
    """
    # Imported here, not at module top: repro.pipeline.io loads the whole
    # repro.pipeline package, whose shard runner imports this module.
    from repro.pipeline.io import read_column_batches
    from repro.store import StoreChunk, TraceStoreReader

    if isinstance(source, StoreChunk):
        return TraceStoreReader(source.path).read_column_batches(
            metrics=metrics, chunk=source
        )
    if isinstance(source, (str, pathlib.Path)):
        return read_column_batches(source, metrics=metrics)
    return batches_from_pairs(enumerate(source))


def fold_into_dataset(dataset, ingestor: BatchIngestor):
    """Install an ingestor's finalized state into a ``StudyDataset``.

    The serial batch path's last step: the session chunk appended to the
    dataset's table, aggregations installed in first-seen order
    (reproducing serial insertion order), filter stats and counters
    merged. Returns the installed
    ``(first order key, key, Aggregation)`` list — what this fold added to
    the store, which a streaming seal hands to its analyzer.
    """
    chunk, aggregations = ingestor.finalize()
    dataset.table.chunks.append(chunk)
    for _, key, aggregation in aggregations:
        dataset.store.put(key, aggregation)
    dataset.filter_stats.merge(ingestor.filter_stats)
    dataset.metrics.merge(ingestor.metrics)
    return aggregations
