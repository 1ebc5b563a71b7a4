"""Column encodings for the binary trace store.

Each column of a partition is encoded independently:

- ``f64`` — IEEE-754 doubles, struct-packed little-endian. Exact: a float
  written through ``struct`` decodes to the identical bits, which is what
  lets a store-backed analysis reproduce a JSONL run byte-for-byte.
- ``i64`` — signed 64-bit integers, struct-packed little-endian. Decoded
  with a single C-level ``struct.unpack`` call, so wide integer columns
  (response sizes, congestion windows) cost no per-value Python loop.
- ``dvarint`` — zigzag-encoded deltas as LEB128 varints. Used for the
  monotone sequence column, where deltas are tiny and the varint stream is
  a fraction of the packed width.
- ``varint`` — unsigned LEB128 varints. Used for small-valued columns
  (list lengths, route ranks) and the string-dictionary tables.
- ``bitmap`` — booleans packed eight to a byte, row count first.
- ``strdict`` — dictionary-encoded strings: a table of UTF-8 entries in
  first-seen order followed by one ``i64`` index per row (the index column
  is highly repetitive, which the partition's deflate absorbs).

A partition's encoded columns are laid out as one *frame* — the
variable-width columns, then the ``f64`` / ``i64`` columns as 8 byte
planes (:func:`repro.store.schema.layout_frame`) — and deflated at level 1
(zlib) when that actually shrinks it; the choice is recorded in the
partition's manifest descriptor (``codec``), never guessed at read time.

Every frame also carries a CRC32 (:func:`block_checksum`, computed over
the on-disk bytes — i.e. *after* compression) in the manifest, so a reader
can detect a flipped or truncated byte range and attribute it to an exact
(partition, byte range) before any decoder touches it.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from typing import List, Sequence, Tuple

#: Per-byte bitmap expansion table: decode flips eight flags per table hit
#: instead of one shift/mask per row.
_BYTE_FLAGS = tuple(
    tuple(bool(byte & (1 << bit)) for bit in range(8)) for byte in range(256)
)

__all__ = [
    "block_checksum",
    "compress_block",
    "decompress_block",
    "decode_bitmap",
    "decode_delta_varints",
    "decode_f64",
    "decode_i64",
    "decode_string_dict",
    "decode_varints",
    "encode_bitmap",
    "encode_delta_varints",
    "encode_f64",
    "encode_i64",
    "encode_string_dict",
    "encode_varints",
]


# --------------------------------------------------------------------- #
# Fixed-width packing (C-speed bulk decode)
# --------------------------------------------------------------------- #
def encode_f64(values: Sequence[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def decode_f64(data: bytes) -> Tuple[float, ...]:
    return struct.unpack(f"<{len(data) // 8}d", data)


def encode_i64(values: Sequence[int]) -> bytes:
    return struct.pack(f"<{len(values)}q", *values)


def decode_i64(data: bytes) -> Tuple[int, ...]:
    return struct.unpack(f"<{len(data) // 8}q", data)


# --------------------------------------------------------------------- #
# Varints (LEB128) and zigzag deltas
# --------------------------------------------------------------------- #
def encode_varints(values: Sequence[int]) -> bytes:
    out = bytearray()
    append = out.append
    for value in values:
        if value < 0:
            raise ValueError("varint columns hold non-negative integers")
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


#: A varint may run to 16 bytes (values below 2**112; columns hold counts,
#: ranks and sequence deltas). Longer is damage, refused before the
#: quadratic cost of shifting an ever-growing integer adds up.
_MAX_VARINT_SHIFT = 7 * 15
_LONG_VARINT = "varint longer than 16 bytes"


def decode_varints(data: bytes) -> List[int]:
    # Fast path: no continuation bits means every value is one byte and
    # the stream *is* the value list. Most varint columns (ranks, list
    # lengths, coalesce counts) are all-small in practice.
    if not data:
        return []
    if max(data) < 0x80:
        return list(data)
    values: List[int] = []
    append = values.append
    value = 0
    shift = 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > _MAX_VARINT_SHIFT:
                raise ValueError(_LONG_VARINT)
        else:
            append(value)
            value = 0
            shift = 0
    if shift:
        raise ValueError("truncated varint stream")
    return values


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def encode_delta_varints(values: Sequence[int]) -> bytes:
    deltas = []
    previous = 0
    for value in values:
        deltas.append(_zigzag(value - previous))
        previous = value
    return encode_varints(deltas)


def decode_delta_varints(data: bytes) -> List[int]:
    values = decode_varints(data)
    total = 0
    out: List[int] = []
    append = out.append
    for delta in values:
        total += _unzigzag(delta)
        append(total)
    return out


# --------------------------------------------------------------------- #
# Bitmaps
# --------------------------------------------------------------------- #
def encode_bitmap(flags: Sequence[bool]) -> bytes:
    count = len(flags)
    out = bytearray(encode_varints((count,)))
    byte = 0
    for index, flag in enumerate(flags):
        if flag:
            byte |= 1 << (index & 7)
        if index & 7 == 7:
            out.append(byte)
            byte = 0
    if count & 7:
        out.append(byte)
    return bytes(out)


def decode_bitmap(data: bytes) -> List[bool]:
    view = memoryview(data)
    count = 0
    shift = 0
    offset = 0
    for offset, byte in enumerate(view):  # noqa: B007 — offset reused below
        count |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > _MAX_VARINT_SHIFT:
            raise ValueError(_LONG_VARINT)
    bits = view[offset + 1 :]
    flags = list(
        itertools.chain.from_iterable(map(_BYTE_FLAGS.__getitem__, bits))
    )
    del flags[count:]
    return flags


# --------------------------------------------------------------------- #
# String dictionaries
# --------------------------------------------------------------------- #
def encode_string_dict(values: Sequence[str]) -> bytes:
    """Dictionary table (first-seen order) + one packed index per value."""
    table = dict.fromkeys(values)
    encoded = bytearray(encode_varints((len(table),)))
    for entry in table:
        raw = entry.encode("utf-8")
        # A one-byte varint is the byte itself; most entries are short.
        if len(raw) < 0x80:
            encoded.append(len(raw))
        else:
            encoded += encode_varints((len(raw),))
        encoded += raw
    index_of = {entry: index for index, entry in enumerate(table)}
    encoded += encode_i64(list(map(index_of.__getitem__, values)))
    return bytes(encoded)


def decode_string_dict(data: bytes) -> List[str]:
    view = memoryview(data)
    offset = 0

    def read_varint() -> int:
        nonlocal offset
        value = 0
        shift = 0
        while True:
            byte = view[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > _MAX_VARINT_SHIFT:
                raise ValueError(_LONG_VARINT)

    table_size = read_varint()
    table: List[str] = []
    for _ in range(table_size):
        length = read_varint()
        table.append(bytes(view[offset : offset + length]).decode("utf-8"))
        offset += length
    indexes = decode_i64(bytes(view[offset:]))
    return [table[index] for index in indexes]


# --------------------------------------------------------------------- #
# Frame compression and integrity
# --------------------------------------------------------------------- #
def block_checksum(payload: bytes) -> int:
    """CRC32 of a frame's on-disk bytes (post-compression)."""
    return zlib.crc32(payload) & 0xFFFFFFFF


#: Deflate level of every frame. On byte-planed frames level 1 is both
#: faster and smaller than level 6 on unplaned ones (DESIGN.md §8).
_DEFLATE_LEVEL = 1


def compress_block(payload: bytes, compress: bool = True) -> Tuple[bytes, str]:
    """Deflate a frame when it helps; returns ``(data, codec)``."""
    if compress and len(payload) > 64:
        deflated = zlib.compress(payload, _DEFLATE_LEVEL)
        if len(deflated) < len(payload):
            return deflated, "zlib"
    return payload, "raw"


def decompress_block(payload: bytes, codec: str, size: int) -> bytes:
    """The ``size`` bytes ``payload`` holds under ``codec``; ``ValueError``
    (``zlib.error`` for a broken stream) when it holds any other amount.

    Inflation stops at ``size`` bytes, so a frame that would inflate past
    what its descriptor declares costs no more than the declared size.
    """
    if codec == "zlib":
        inflater = zlib.decompressobj()
        # max_length 0 would mean "unbounded": ask for one byte instead.
        raw = inflater.decompress(payload, size or 1)
        if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
            raise ValueError(
                f"deflate stream does not end at its declared {size} bytes"
            )
    elif codec == "raw":
        raw = payload
    else:
        raise ValueError(f"unknown frame codec {codec!r}")
    if len(raw) != size:
        raise ValueError(f"frame holds {len(raw)} bytes; lengths sum to {size}")
    return raw
