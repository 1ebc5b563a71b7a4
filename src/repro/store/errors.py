"""Typed integrity errors for the columnar trace store.

A corrupt store used to surface as a bare ``struct.error`` or ``KeyError``
from deep inside the column decoders — useless for attribution and
impossible for the pipeline's quarantine layer to classify. Every
integrity failure now raises a :class:`StoreError` subclass that names
*where* the damage is (partition, column, absolute file offset), so

- a reader's error message points at the bytes to inspect,
- ``repro verify-store`` can report findings per partition, and
- the sharded pipeline can quarantine the affected shard and keep going.

``StoreError`` subclasses :class:`ValueError` so pre-existing callers
(and tests) that caught ``ValueError`` for store problems keep working.

Every subclass defines ``__reduce__``: these errors cross process
boundaries (a shard worker raising inside a ``ProcessPoolExecutor``
pickles its exception back to the parent), and the default exception
pickling re-invokes ``cls(*self.args)`` — which does not match the
multi-argument constructors here and would take the whole pool down with
a ``BrokenProcessPool`` instead of a typed, attributable error.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ColumnDecodeError",
    "CorruptBlockError",
    "CorruptManifestError",
    "StoreError",
    "TruncatedPartitionError",
]


class StoreError(ValueError):
    """Base class for trace-store integrity errors."""


class CorruptManifestError(StoreError):
    """The store manifest is unreadable or structurally invalid."""

    def __init__(self, path, detail: str) -> None:
        self.path = str(path)
        self.detail = detail
        super().__init__(f"{path}: corrupt store manifest ({detail})")

    def __reduce__(self):
        return (type(self), (self.path, self.detail))


class TruncatedPartitionError(StoreError):
    """A partition's payload ends before the manifest says it should."""

    def __init__(self, path, partition_id: int, expected: int, actual: int) -> None:
        self.path = str(path)
        self.partition_id = partition_id
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"{path}: partition {partition_id} truncated "
            f"(expected {expected} bytes, got {actual})"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.path, self.partition_id, self.expected, self.actual),
        )


class ColumnDecodeError(StoreError):
    """A partition frame or one of its columns failed to decode
    (schema-level, pre-attribution).

    Raised by :func:`repro.store.schema.decode_columns` with the *column*
    named (``None``: the frame as a whole); the reader re-raises it as a
    :class:`CorruptBlockError` carrying the partition and byte-range
    attribution only it knows.
    """

    def __init__(self, column: Optional[str], detail: str) -> None:
        self.column = column
        self.detail = detail
        what = f"column {column!r}" if column is not None else "partition payload"
        super().__init__(f"{what} failed to decode: {detail}")

    def __reduce__(self):
        return (type(self), (self.column, self.detail))


class CorruptBlockError(StoreError):
    """A partition frame failed its CRC32 check or its decode.

    ``offset``/``length`` locate the partition's frame in the data file
    (absolute byte offset), so the message pins the exact corrupt range;
    ``column`` names the column when one failed to decode behind a clean
    checksum.
    """

    def __init__(
        self,
        path,
        partition_id: int,
        column: Optional[str],
        offset: Optional[int],
        length: Optional[int],
        detail: str,
    ) -> None:
        self.path = str(path)
        self.partition_id = partition_id
        self.column = column
        self.offset = offset
        self.length = length
        self.detail = detail
        where = f"partition {partition_id}"
        if column is not None:
            where += f", column {column!r}"
        if offset is not None:
            where += f", bytes [{offset}, {offset + (length or 0)})"
        super().__init__(f"{path}: corrupt block ({where}): {detail}")

    def __reduce__(self):
        return (
            type(self),
            (
                self.path,
                self.partition_id,
                self.column,
                self.offset,
                self.length,
                self.detail,
            ),
        )
