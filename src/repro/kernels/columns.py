"""Column-batch layout: the batch engine's unit of work.

A :class:`ColumnBatch` holds one run of samples as parallel per-session
lists plus *flat* child columns for nested data — transactions and media
sizes are single flat lists indexed through per-session length columns,
exactly the shape the columnar store's schema already uses
(:mod:`repro.store.schema`). The batch engine walks these with integer
cursors; no ``SessionSample``/``TransactionRecord`` objects exist on the
hot path.

Layout contract (DESIGN.md §10):

- every per-session column has one entry per row, in the batch's order;
- ``order_keys[i]`` is row *i*'s global order key (stream index — a
  JSONL trace's row index — or store ``seq``) — unique across batches, and
  non-decreasing **within** a batch (store partitions are seq-sorted;
  pair slices inherit stream order);
- ``txn_lens[i]`` transactions for row *i* start at the flat transaction
  columns' running offset (sum of ``txn_lens[:i]``); ``media_lens`` /
  ``media_values`` follow the same discipline;
- ``txn_lbwt`` is the *effective* last-byte-write-time: rows without a
  recorded ``last_byte_write_time`` carry their ``first_byte_time``,
  which is the row path's fallback
  (:func:`repro.core.coalesce.coalesce_transactions`) applied once at
  build time instead of once per analysis pass;
- ``routes[i]`` is the row's :class:`RouteInfo` (or ``None``), its sample's
  own or interned when decoded — routes repeat heavily, so interning keeps
  route construction off the per-row cost while the per-sample and
  per-transaction work stays object-free.

A batch is filled one way: :meth:`ColumnBatch.from_store_columns` adopts
the store schema's column lists — a partition's decoded columns,
:func:`repro.store.schema.shred_rows` of in-memory samples (the one
shredder of a ``SessionSample``), or the columns the JSONL column
assembler in :mod:`repro.pipeline.io` fills from :data:`BATCH_ROWS`
parsed trace lines.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional

from repro.core.records import HttpVersion

__all__ = ["BATCH_ROWS", "ColumnBatch"]

#: Rows per batch when slicing sample streams (JSONL / in-memory). Large
#: enough to amortize per-batch setup, small enough to keep a batch's flat
#: columns cache-resident. Store sources batch per partition instead.
BATCH_ROWS = 2048

_HTTP2_VALUE = HttpVersion.HTTP_2.value

#: One entry per row (``media_lens`` and ``txn_lens`` included).
_ROW_COLUMNS = (
    "order_keys", "start_times", "end_times", "is_http2", "min_rtts",
    "bytes_sents", "busy_times", "pops", "countries", "continents",
    "hostings", "geo_tags", "routes", "media_lens", "txn_lens",
)
#: One entry per transaction, counted by ``txn_lens``.
_TXN_COLUMNS = (
    "txn_fbt", "txn_ack", "txn_resp", "txn_last", "txn_cwnd",
    "txn_inflight", "txn_lbwt",
)


class ColumnBatch:
    """One batch of samples as parallel columns (see module docstring)."""

    __slots__ = _ROW_COLUMNS + ("media_values",) + _TXN_COLUMNS

    def __len__(self) -> int:
        return len(self.order_keys)

    def take(self, rows: List[int]) -> "ColumnBatch":
        """Rows ``rows`` (ascending indices) as a batch of their own, with
        their transactions and media sizes; order keys stay non-decreasing."""
        batch = ColumnBatch()
        for name in _ROW_COLUMNS:
            column = getattr(self, name)
            setattr(batch, name, [column[i] for i in rows])
        for lens, children in (
            (self.txn_lens, _TXN_COLUMNS),
            (self.media_lens, ("media_values",)),
        ):
            starts = [0, *accumulate(lens)]
            flat = [j for i in rows for j in range(starts[i], starts[i + 1])]
            for name in children:
                column = getattr(self, name)
                setattr(batch, name, [column[j] for j in flat])
        return batch

    # ------------------------------------------------------------------ #
    @classmethod
    def from_store_columns(
        cls, decoded: Dict[str, list], routes: Optional[list] = None
    ) -> "ColumnBatch":
        """Adopt the store schema's flat columns.

        ``decoded`` is :func:`repro.store.schema.decode_columns` or
        :func:`~repro.store.schema.shred_rows` output, ``seq``
        non-decreasing. Most columns transfer by reference — zero copies,
        zero objects, and a change to ``decoded`` changes the batch; only
        the presence-compacted columns (route, ``last_byte_write_time``)
        are expanded. Routes are ``routes`` (one per row) when the caller
        shredded samples that hold them, else interned by the row decoder's
        :func:`~repro.store.schema.expand_routes`, so repeated routes cost
        one ``RouteInfo`` each.
        """
        # Late import: repro.store imports nothing from repro.kernels at
        # module load, so the dependency points one way (kernels -> store).
        from repro.store.schema import expand_routes

        batch = cls()
        batch.order_keys = decoded["seq"]
        batch.start_times = decoded["start_time"]
        batch.end_times = decoded["end_time"]
        batch.is_http2 = list(
            map(_HTTP2_VALUE.__eq__, decoded["http_version"])
        )
        batch.min_rtts = decoded["min_rtt_seconds"]
        batch.bytes_sents = decoded["bytes_sent"]
        batch.busy_times = decoded["busy_time_seconds"]
        batch.pops = decoded["pop"]
        batch.countries = decoded["client_country"]
        batch.continents = decoded["client_continent"]
        batch.hostings = decoded["client_ip_is_hosting"]
        batch.geo_tags = decoded["geo_tag"]
        batch.media_lens = decoded["media_lens"]
        batch.media_values = decoded["media_values"]
        batch.txn_lens = decoded["txn_lens"]
        batch.txn_fbt = decoded["txn_first_byte_time"]
        batch.txn_ack = decoded["txn_ack_time"]
        batch.txn_resp = decoded["txn_response_bytes"]
        batch.txn_last = decoded["txn_last_packet_bytes"]
        batch.txn_cwnd = decoded["txn_cwnd"]
        batch.txn_inflight = decoded["txn_inflight"]

        # Effective last-byte-write-time: presence-compacted values spread
        # back over the flat transaction rows, absent rows falling back to
        # first_byte_time (the coalescer's rule, applied once here). When
        # every transaction has one, the values are the column.
        fbt = batch.txn_fbt
        values = decoded["txn_lbwt_values"]
        if len(values) == len(fbt):
            batch.txn_lbwt = values
        else:
            next_lbwt = iter(values).__next__
            batch.txn_lbwt = [
                next_lbwt() if present else fallback
                for present, fallback in zip(decoded["txn_lbwt_present"], fbt)
            ]

        batch.routes = expand_routes(decoded) if routes is None else routes
        return batch
