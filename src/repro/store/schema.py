"""Columnar schema of the trace store: SessionSample <-> partition frames.

One partition holds ``(seq, sample)`` rows — ``seq`` is the sample's
position in the original stream, which is what lets readers reconstruct
the exact serial order across partitions. :func:`shred_rows` shreds every
:class:`~repro.core.records.SessionSample` field (including the nested
route and transaction records) into flat columns — the one place a sample
becomes columns; the store's writers and the batch kernels
(:meth:`repro.kernels.columns.ColumnBatch.from_store_columns`) both take
its output:

- nested lists (transactions, AS paths, media sizes) become a per-row
  length column plus flattened child columns;
- optional values (route, ``last_byte_write_time``) become a presence
  bitmap plus child columns holding only the present rows.

``SCHEMA_VERSION`` pins the column set and each column's encoding; a
reader refuses a manifest whose schema version it does not know, so a
future column change bumps the version instead of silently misdecoding.

Decoding constructs records through ``__new__`` and fills ``__dict__``
directly, skipping ``__post_init__`` validation: store payloads were
validated when the original dataclasses were built at write time, and the
whole point of the binary path is to avoid re-paying per-row Python cost.
(JSONL stays the validating, interchange-friendly format.)
"""

from __future__ import annotations

import gc
import struct
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.records import (
    HttpVersion,
    Relationship,
    RouteInfo,
    SessionSample,
    TransactionRecord,
)
from repro.store.encoding import (
    block_checksum,
    compress_block,
    decode_bitmap,
    decode_delta_varints,
    decode_f64,
    decode_i64,
    decode_string_dict,
    decode_varints,
    decompress_block,
    encode_bitmap,
    encode_delta_varints,
    encode_f64,
    encode_i64,
    encode_string_dict,
    encode_varints,
)
from repro.store.errors import ColumnDecodeError

__all__ = [
    "SCHEMA_VERSION",
    "COLUMNS",
    "decode_columns",
    "encode_columns",
    "layout_frame",
    "shred_rows",
    "shred_routes",
    "split_frame",
    "decode_rows",
    "expand_routes",
    "gc_paused",
]

SCHEMA_VERSION = 1

#: Column name -> encoding, in frame order. The manifest records this per
#: store so an inspector can read the layout without the code.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("seq", "dvarint"),
    ("session_id", "i64"),
    ("start_time", "f64"),
    ("end_time", "f64"),
    ("http_version", "strdict"),
    ("min_rtt_seconds", "f64"),
    ("bytes_sent", "i64"),
    ("busy_time_seconds", "f64"),
    ("pop", "strdict"),
    ("client_country", "strdict"),
    ("client_continent", "strdict"),
    ("client_ip_is_hosting", "bitmap"),
    ("geo_tag", "strdict"),
    ("media_lens", "varint"),
    ("media_values", "i64"),
    ("route_present", "bitmap"),
    ("route_prefix", "strdict"),
    ("route_relationship", "strdict"),
    ("route_rank", "varint"),
    ("route_prepended", "bitmap"),
    ("route_aspath_lens", "varint"),
    ("route_aspath_values", "i64"),
    ("txn_lens", "varint"),
    ("txn_first_byte_time", "f64"),
    ("txn_ack_time", "f64"),
    ("txn_response_bytes", "i64"),
    ("txn_last_packet_bytes", "i64"),
    ("txn_cwnd", "i64"),
    ("txn_inflight", "i64"),
    ("txn_coalesced", "varint"),
    ("txn_lbwt_present", "bitmap"),
    ("txn_lbwt_values", "f64"),
)

#: Child column -> the column whose entries count its entries: a length
#: column (one child entry per unit of its sum) or a presence bitmap (one
#: entry per set bit). Every other column has one entry per row.
_COUNTED_BY = {
    "media_values": "media_lens",
    **dict.fromkeys(
        ("route_prefix", "route_relationship", "route_rank",
         "route_prepended", "route_aspath_lens"),
        "route_present",
    ),
    "route_aspath_values": "route_aspath_lens",
    **dict.fromkeys(
        ("txn_first_byte_time", "txn_ack_time", "txn_response_bytes",
         "txn_last_packet_bytes", "txn_cwnd", "txn_inflight",
         "txn_coalesced", "txn_lbwt_present"),
        "txn_lens",
    ),
    "txn_lbwt_values": "txn_lbwt_present",
}

_ENCODERS = {
    "f64": encode_f64,
    "i64": encode_i64,
    "varint": encode_varints,
    "dvarint": encode_delta_varints,
    "bitmap": encode_bitmap,
    "strdict": encode_string_dict,
}

_DECODERS = {
    "f64": decode_f64,
    "i64": decode_i64,
    "varint": decode_varints,
    "dvarint": decode_delta_varints,
    "bitmap": decode_bitmap,
    "strdict": decode_string_dict,
}


#: Encodings of eight bytes per value.
_FIXED_WIDTH = ("f64", "i64")
#: Column indexes in frame order: the variable-width columns (the frame's
#: *head*), then the fixed-width ones (its *plane region*).
_HEAD = tuple(
    index for index, (_, encoding) in enumerate(COLUMNS)
    if encoding not in _FIXED_WIDTH
)
_REGION = tuple(
    index for index, (_, encoding) in enumerate(COLUMNS)
    if encoding in _FIXED_WIDTH
)


def shred_rows(rows: List[Tuple[int, SessionSample]]) -> Dict[str, list]:
    """``(seq, sample)`` rows as the schema's flat column lists."""
    columns: Dict[str, list] = {name: [] for name, _ in COLUMNS}
    # Bind every append to a local: the loop below runs per sample and per
    # transaction, where a dict lookup per field would dominate the shred.
    add_seq = columns["seq"].append
    add_session_id = columns["session_id"].append
    add_start_time = columns["start_time"].append
    add_end_time = columns["end_time"].append
    add_http_version = columns["http_version"].append
    add_min_rtt = columns["min_rtt_seconds"].append
    add_bytes_sent = columns["bytes_sent"].append
    add_busy_time = columns["busy_time_seconds"].append
    add_pop = columns["pop"].append
    add_country = columns["client_country"].append
    add_continent = columns["client_continent"].append
    add_hosting = columns["client_ip_is_hosting"].append
    add_geo_tag = columns["geo_tag"].append
    add_media_len = columns["media_lens"].append
    add_media_values = columns["media_values"].extend
    add_txn_len = columns["txn_lens"].append
    add_first_byte_time = columns["txn_first_byte_time"].append
    add_ack_time = columns["txn_ack_time"].append
    add_response_bytes = columns["txn_response_bytes"].append
    add_last_packet_bytes = columns["txn_last_packet_bytes"].append
    add_cwnd = columns["txn_cwnd"].append
    add_inflight = columns["txn_inflight"].append
    add_coalesced = columns["txn_coalesced"].append
    add_lbwt_present = columns["txn_lbwt_present"].append
    add_lbwt = columns["txn_lbwt_values"].append
    for seq, sample in rows:
        add_seq(seq)
        add_session_id(sample.session_id)
        add_start_time(sample.start_time)
        add_end_time(sample.end_time)
        add_http_version(sample.http_version.value)
        add_min_rtt(sample.min_rtt_seconds)
        add_bytes_sent(sample.bytes_sent)
        add_busy_time(sample.busy_time_seconds)
        add_pop(sample.pop)
        add_country(sample.client_country)
        add_continent(sample.client_continent)
        add_hosting(sample.client_ip_is_hosting)
        add_geo_tag(sample.geo_tag)
        media = sample.media_response_sizes
        add_media_len(len(media))
        add_media_values(media)
        transactions = sample.transactions
        add_txn_len(len(transactions))
        for txn in transactions:
            add_first_byte_time(txn.first_byte_time)
            add_ack_time(txn.ack_time)
            add_response_bytes(txn.response_bytes)
            add_last_packet_bytes(txn.last_packet_bytes)
            add_cwnd(txn.cwnd_bytes_at_first_byte)
            add_inflight(txn.bytes_in_flight_at_start)
            add_coalesced(txn.coalesced_count)
            lbwt = txn.last_byte_write_time
            add_lbwt_present(lbwt is not None)
            if lbwt is not None:
                add_lbwt(lbwt)
    columns.update(shred_routes([sample.route for _, sample in rows]))
    return columns


def shred_routes(routes: Sequence[Optional[RouteInfo]]) -> Dict[str, list]:
    """One route (or ``None``) per row as the schema's presence-compacted
    route columns; the inverse of :func:`expand_routes`."""
    present = [route for route in routes if route is not None]
    return {
        "route_present": [route is not None for route in routes],
        "route_prefix": [route.prefix for route in present],
        "route_relationship": [route.relationship.value for route in present],
        "route_rank": [route.preference_rank for route in present],
        "route_prepended": [route.prepended for route in present],
        "route_aspath_lens": [len(route.as_path) for route in present],
        "route_aspath_values": [
            asn for route in present for asn in route.as_path
        ],
    }


def layout_frame(encoded: Sequence[bytes]) -> bytes:
    """One partition's inflated frame from its encoded columns (given in
    :data:`COLUMNS` order).

    The variable-width columns come first, in :data:`COLUMNS` order. The
    fixed-width (``f64`` / ``i64``) columns follow as one region, also in
    :data:`COLUMNS` order, written as 8 byte planes: byte 0 of every value,
    then byte 1, and so on to byte 7. Neighbouring values of a column
    share their high bytes (exponents, the zero top bytes of small
    integers), so the planes hold long runs that deflate cheaply.
    """
    region = b"".join([encoded[index] for index in _REGION])
    return b"".join(
        [encoded[index] for index in _HEAD] + [region[k::8] for k in range(8)]
    )


def split_frame(raw: bytes, lengths: Sequence[int]) -> list:
    """Inverse of :func:`layout_frame`: each column's encoded bytes, in
    :data:`COLUMNS` order, from a frame of exactly ``sum(lengths)`` bytes.

    A fixed-width column whose length is not a multiple of 8 raises
    :class:`ColumnDecodeError` naming it. The plane region is interleaved
    back once, into one buffer its columns are views of; the head's
    columns are sliced from ``raw`` directly.
    """
    for index in _REGION:
        if lengths[index] % 8:
            raise ColumnDecodeError(
                COLUMNS[index][0],
                f"unpack requires a multiple of 8 bytes; {lengths[index]} given",
            )
    columns: list = [b""] * len(COLUMNS)
    end = 0
    for index in _HEAD:
        start, end = end, end + lengths[index]
        columns[index] = raw[start:end]
    planes = memoryview(raw)[end:]
    width = len(planes) // 8
    region = bytearray(len(planes))
    for k in range(8):
        region[k::8] = planes[k * width : (k + 1) * width]
    view = memoryview(region)
    end = 0
    for index in _REGION:
        start, end = end, end + lengths[index]
        columns[index] = view[start:end]
    return columns


def encode_columns(
    columns: Dict[str, list], compress: bool = True
) -> Tuple[bytes, dict]:
    """One partition frame from its :func:`shred_rows` columns.

    Returns the frame's on-disk bytes — every column encoded, laid out by
    :func:`layout_frame` and deflated once when that shrinks them — and
    what the partition descriptor records about it: ``codec``, ``crc32``
    (of the on-disk bytes) and each column's encoded ``lengths``, in
    :data:`COLUMNS` order.
    """
    encoded = [_ENCODERS[encoding](columns[name]) for name, encoding in COLUMNS]
    data, codec = compress_block(layout_frame(encoded), compress)
    return data, {
        "codec": codec,
        "crc32": block_checksum(data),
        "lengths": [len(column) for column in encoded],
    }


def _new_route(
    prefix: str,
    as_path: Tuple[int, ...],
    relationship: Relationship,
    rank: int,
    prepended: bool,
) -> RouteInfo:
    route = RouteInfo.__new__(RouteInfo)
    route.__dict__.update(
        prefix=prefix,
        as_path=as_path,
        relationship=relationship,
        preference_rank=rank,
        prepended=prepended,
    )
    return route


_HTTP_BY_VALUE = {member.value: member for member in HttpVersion}
_RELATIONSHIP_BY_VALUE = {member.value: member for member in Relationship}


#: Distinct routes one stream or scan keeps interned. Generated traces carry
#: tens to hundreds; past the bound the table starts over, so an adversarial
#: trace costs at most this many routes of memory, not one per row.
ROUTE_TABLE_LIMIT = 4096


def expand_routes(decoded: Dict[str, list], table=None) -> List[Optional[RouteInfo]]:
    """One :class:`RouteInfo` (or ``None``) per row of a decoded partition.

    The route columns are presence-compacted; this spreads them back over
    the rows. Identical routes repeat, so they are interned in ``table`` (a
    scan's) or the partition's own: one ``RouteInfo`` per distinct route.
    """
    route_prefixes = decoded["route_prefix"]
    # The cache key keeps the relationship as its dictionary *string* (1:1
    # with the enum member, but hashed at C speed); the enum is looked up
    # once per distinct route on the construction path.
    relationships = decoded["route_relationship"]
    route_ranks = decoded["route_rank"]
    route_prepends = decoded["route_prepended"]
    aspath_lens = decoded["route_aspath_lens"]
    aspath_values = decoded["route_aspath_values"]
    route_cache: Dict[tuple, RouteInfo] = {} if table is None else table
    routes: List[Optional[RouteInfo]] = []
    append = routes.append
    route_cursor = 0
    aspath_cursor = 0
    for present in decoded["route_present"]:
        if not present:
            append(None)
            continue
        aspath_len = aspath_lens[route_cursor]
        as_path = tuple(
            aspath_values[aspath_cursor : aspath_cursor + aspath_len]
        )
        aspath_cursor += aspath_len
        key = (
            route_prefixes[route_cursor],
            as_path,
            relationships[route_cursor],
            route_ranks[route_cursor],
            route_prepends[route_cursor],
        )
        route = route_cache.get(key)
        if route is None:
            if len(route_cache) >= ROUTE_TABLE_LIMIT:
                route_cache.clear()
            route = route_cache[key] = _new_route(
                key[0],
                as_path,
                _RELATIONSHIP_BY_VALUE[key[2]],
                key[3],
                key[4],
            )
        append(route)
        route_cursor += 1
    return routes


@contextmanager
def gc_paused() -> Iterator[None]:
    """Cyclic GC off for one allocation burst: a row decode, a column
    fold into rows and aggregations, or a sharded build's unpickle and
    merge of its shard results.

    Everything such a burst builds stays reachable from its result and
    forms no cycles, so collector passes triggered mid-burst scan a
    growing heap for nothing (~25% of a large partition's row decode,
    10-20% of a 24k-session one-pass fold, 40-65% of a sharded build's
    unpickle of 2.7 MB of shard results). Nests: only the outermost
    pause re-enables. The one place the collector is switched off.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def decode_rows(payload: bytes, frame: dict) -> List[Tuple[int, SessionSample]]:
    """Inverse of :func:`encode_columns` over :func:`shred_rows`; rows come
    back in stored order."""
    with gc_paused():
        return _decode_rows(payload, frame)


def decode_columns(payload: bytes, frame: dict) -> Dict[str, list]:
    """Decode a partition frame into the schema's flat column lists.

    ``frame`` is the partition descriptor (its ``codec`` and ``lengths``).
    The first phase of :func:`decode_rows`, exposed on its own for the
    batch engine's column fast path
    (:meth:`repro.store.TraceStoreReader.decode_partition_columns`): the
    frame is inflated — never past the summed ``lengths`` — and split
    into its columns (:func:`split_frame`), and each column decoded with
    per-column error attribution (:class:`ColumnDecodeError`), but no row
    objects are assembled. A frame that does not inflate to exactly the
    summed lengths raises a :class:`ColumnDecodeError` naming no column;
    a fixed-width column whose length is not a multiple of 8 raises one
    naming that column. The columns that come back agree in length (one
    entry per row, per unit of a length column, or per set bit of a
    presence bitmap); the first that does not raises
    :class:`ColumnDecodeError` naming it, as does an ``http_version``
    that names no :class:`HttpVersion`.
    """
    lengths = frame["lengths"]
    try:
        raw = decompress_block(payload, frame.get("codec"), sum(lengths))
    except (zlib.error, ValueError) as error:
        raise ColumnDecodeError(None, str(error)) from error
    decoded: Dict[str, list] = {}
    for (name, encoding), column in zip(COLUMNS, split_frame(raw, lengths)):
        try:
            decoded[name] = _DECODERS[encoding](column)
        except (struct.error, ValueError) as error:
            # Attribute the failure to the column; the reader adds the
            # partition and its byte range, which only it knows.
            raise ColumnDecodeError(name, str(error)) from error
    # Every column decoded, but they must also agree with each other: a
    # column one value short passes the CRC (it was written that way) and
    # would otherwise truncate a zip or overrun a cursor downstream.
    rows = len(decoded["seq"])
    for name, _ in COLUMNS:
        parent = _COUNTED_BY.get(name)
        expected = rows if parent is None else sum(decoded[parent])
        if len(decoded[name]) != expected:
            rule = "one per row" if parent is None else f"counted by {parent!r}"
            raise ColumnDecodeError(
                name, f"{len(decoded[name])} entries; expected {expected} ({rule})"
            )
    # The row assembler maps each HTTP version to its enum member, the
    # column assembler only compares it with one: refuse an unknown value
    # here, so both fail alike.
    unknown = set(decoded["http_version"]).difference(_HTTP_BY_VALUE)
    if unknown:
        raise ColumnDecodeError(
            "http_version", f"unknown HTTP version {min(unknown)!r}"
        )
    return decoded


def _decode_rows(payload: bytes, frame: dict) -> List[Tuple[int, SessionSample]]:
    decoded = decode_columns(payload, frame)

    # Enum lookup tables beat Enum.__call__ in the per-row loop.
    http_versions = list(
        map(_HTTP_BY_VALUE.__getitem__, decoded["http_version"])
    )
    routes = expand_routes(decoded)

    # Bind every column to a local: the row loop below runs per sample and
    # per transaction, where dict lookups would dominate the decode.
    seqs = decoded["seq"]
    session_ids = decoded["session_id"]
    start_times = decoded["start_time"]
    end_times = decoded["end_time"]
    min_rtts = decoded["min_rtt_seconds"]
    bytes_sents = decoded["bytes_sent"]
    busy_times = decoded["busy_time_seconds"]
    pops = decoded["pop"]
    countries = decoded["client_country"]
    continents = decoded["client_continent"]
    hostings = decoded["client_ip_is_hosting"]
    geo_tags = decoded["geo_tag"]
    media_lens = decoded["media_lens"]
    media_values = decoded["media_values"]
    txn_lens = decoded["txn_lens"]
    # One zipped cursor over the transaction columns: a single C-level
    # next()+unpack per transaction instead of eight list indexings.
    next_txn_row = zip(
        decoded["txn_first_byte_time"],
        decoded["txn_ack_time"],
        decoded["txn_response_bytes"],
        decoded["txn_last_packet_bytes"],
        decoded["txn_cwnd"],
        decoded["txn_inflight"],
        decoded["txn_coalesced"],
        decoded["txn_lbwt_present"],
    ).__next__
    next_lbwt = iter(decoded["txn_lbwt_values"]).__next__
    new_sample = SessionSample.__new__
    new_txn = TransactionRecord.__new__

    rows: List[Tuple[int, SessionSample]] = []
    append_row = rows.append
    media_cursor = 0
    # One zip over all per-sample columns: sequential iteration beats
    # per-row list indexing, and building each record's __dict__ as a
    # literal beats dict.update on an empty one.
    for (
        seq,
        session_id,
        start_time,
        end_time,
        http_version,
        min_rtt,
        sent,
        busy_time,
        pop,
        country,
        continent,
        hosting,
        geo_tag,
        media_len,
        route,
        txn_len,
    ) in zip(
        seqs,
        session_ids,
        start_times,
        end_times,
        http_versions,
        min_rtts,
        bytes_sents,
        busy_times,
        pops,
        countries,
        continents,
        hostings,
        geo_tags,
        media_lens,
        routes,
        txn_lens,
    ):
        transactions = []
        for _ in range(txn_len):
            fbt, ack, response, last, cwnd, inflight, coalesced, has_lbwt = (
                next_txn_row()
            )
            txn = new_txn(TransactionRecord)
            # TransactionRecord is frozen: updating the (empty) __dict__ in
            # place is the one write path its __setattr__ cannot veto.
            txn.__dict__.update(
                first_byte_time=fbt,
                ack_time=ack,
                response_bytes=response,
                last_packet_bytes=last,
                cwnd_bytes_at_first_byte=cwnd,
                bytes_in_flight_at_start=inflight,
                coalesced_count=coalesced,
                last_byte_write_time=next_lbwt() if has_lbwt else None,
            )
            transactions.append(txn)

        if media_len:
            media = tuple(
                media_values[media_cursor : media_cursor + media_len]
            )
            media_cursor += media_len
        else:
            media = ()

        sample = new_sample(SessionSample)
        sample.__dict__ = {
            "session_id": session_id,
            "start_time": start_time,
            "end_time": end_time,
            "http_version": http_version,
            "min_rtt_seconds": min_rtt,
            "bytes_sent": sent,
            "busy_time_seconds": busy_time,
            "transactions": transactions,
            "route": route,
            "pop": pop,
            "client_country": country,
            "client_continent": continent,
            "client_ip_is_hosting": hosting,
            "geo_tag": geo_tag,
            "media_response_sizes": media,
        }
        append_row((seq, sample))
    return rows
