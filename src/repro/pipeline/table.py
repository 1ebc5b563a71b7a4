"""Per-session table: one typed column per session field (DESIGN.md §10).

A :class:`~repro.pipeline.dataset.StudyDataset` keeps its kept sessions,
the points of the distribution figures (1, 2, 3, 6, 7), as a
:class:`SessionTable`: the :class:`SessionChunk` each fold filled, in fold
order, with no object per session and no boxed number per value. A fold
fills one chunk (:class:`~repro.kernels.engine.BatchIngestor`, or the row
oracle :meth:`~repro.pipeline.dataset.StudyDataset.ingest_one`); a merge
appends chunks and sorts or copies no session; a chunk is never mutated
once its fold hands it on, so datasets share chunks. The drivers read
whole columns, boxing each value once. ``StudyDataset.rows`` is a
read-only :class:`SessionRows` view that builds :class:`SessionRow`
tuples in order-key (stream) order when iterated, for tests and examples.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional

__all__ = ["SessionChunk", "SessionRow", "SessionRows", "SessionTable"]

NAN = float("nan")


class SessionRow(NamedTuple):
    """One session flattened for distribution analysis: what
    :class:`SessionRows` builds from a chunk's columns."""

    min_rtt_ms: float
    hdratio: Optional[float]
    naive_hdratio: Optional[float]
    bytes_sent: int
    duration: float
    busy_fraction: float
    transaction_count: int
    is_http2: bool
    continent: str
    geo_tag: str
    response_sizes: tuple
    media_bytes: tuple


#: Per-session columns and their typecodes, in wire order.
ROW_COLUMNS = (
    ("keys", "q"),  # the order key: store seq or stream position
    ("min_rtt_ms", "d"),
    # NaN stands for None: a ratio is achieved / tested, tested > 0.
    ("hdratio", "d"),
    ("naive_hdratio", "d"),
    ("bytes_sent", "q"),
    ("duration", "d"),
    ("busy_fraction", "d"),
    ("transaction_count", "q"),
    ("is_http2", "B"),
    ("continent", "I"),  # codes into the chunk's dictionaries
    ("geo_tag", "I"),
    ("size_lens", "q"),  # each session's share of the flat columns
    ("media_lens", "q"),
)
#: Flat columns, each with the length column that counts its entries.
RAGGED_COLUMNS = (("sizes", "size_lens"), ("media", "media_lens"))
#: The columns where NaN stands for None.
_OPTIONAL = ("hdratio", "naive_hdratio")
#: Coded column -> its dictionary (value -> code, in code order).
DICTIONARIES = {"continent": "continents", "geo_tag": "geo_tags"}
_TYPECODES = dict(ROW_COLUMNS, sizes="q", media="q")
#: Wire order of the columns.
_WIRE_COLUMNS = tuple(_TYPECODES)
#: The unsigned typecodes, narrowest first, each with the least value it
#: cannot hold: the wire narrows each ``I`` or ``q`` column to the first
#: that holds it, and a received chunk keeps the narrow arrays.
_LIMITS = (("B", 1 << 8), ("H", 1 << 16), ("I", 1 << 32))
_UNSIGNED = tuple(code for code, _ in _LIMITS)
#: The typecodes a column may cross the wire in. A code column is never
#: wider than ``I``, so it can hold no negative code.
_WIRE_TYPECODES = {
    name: {"I": _UNSIGNED, "q": _UNSIGNED + ("q",)}.get(typecode, (typecode,))
    for name, typecode in _TYPECODES.items()
}
#: Arrays cross the wire little-endian whatever the host's byte order.
_SWAP = sys.byteorder != "little"


def _narrowest(column: array) -> array:
    """An ``I`` or ``q`` column in the narrowest unsigned typecode that
    holds it (a column with a negative value stays as it is)."""
    if column.typecode not in ("I", "q") or not column:
        return column
    top = max(column)
    typecode = next((code for code, limit in _LIMITS if top < limit), "q")
    if typecode == column.typecode:
        return column
    try:
        return array(typecode, column)
    except OverflowError:  # a negative value
        return column


def _none_for_nan(values: list) -> list:
    return [None if value != value else value for value in values]


def _wire_column(column: array) -> tuple:
    column = _narrowest(column)
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return column.typecode, column.tobytes()


class SessionChunk:
    """One fold's sessions as typed columns (see the module docstring)."""

    __slots__ = _WIRE_COLUMNS + tuple(DICTIONARIES.values())

    def __init__(self) -> None:
        for name, typecode in _TYPECODES.items():
            setattr(self, name, array(typecode))
        self.continents: Dict[str, int] = {}
        self.geo_tags: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if type(other) is not SessionChunk:
            return NotImplemented
        return self.to_wire() == other.to_wire()

    __hash__ = None  # type: ignore[assignment]

    def add(
        self,
        key: int,
        min_rtt_ms: float,
        hdratio: Optional[float],
        naive_hdratio: Optional[float],
        bytes_sent: int,
        duration: float,
        busy_fraction: float,
        transaction_count: int,
        is_http2: bool,
        continent: str,
        geo_tag: str,
        response_sizes: Iterable[int],
        media_bytes: Iterable[int],
    ) -> None:
        """Append one session: the row oracle's fill, in
        :class:`SessionRow`'s field order after the order key."""
        sizes, media = list(response_sizes), list(media_bytes)
        self.extend(
            keys=[key], min_rtt_ms=[min_rtt_ms], hdratio=[hdratio],
            naive_hdratio=[naive_hdratio], bytes_sent=[bytes_sent],
            duration=[duration], busy_fraction=[busy_fraction],
            transaction_count=[transaction_count], is_http2=[is_http2],
            continent=[continent], geo_tag=[geo_tag], size_lens=[len(sizes)],
            media_lens=[len(media)], sizes=sizes, media=media,
        )

    def extend(self, **columns: list) -> None:
        """Append sessions given as one list per column, ``None`` for a
        missing ratio and strings for a coded column: every fill comes
        through here, the one place the encoding is written (``fromlist``:
        one resize and a tight loop, twice ``extend``'s speed)."""
        if columns.keys() != _TYPECODES.keys():
            raise TypeError(f"a chunk is extended by all of {list(_TYPECODES)}")
        for name, values in columns.items():
            if name in DICTIONARIES:
                dictionary = getattr(self, DICTIONARIES[name])
                for value in dict.fromkeys(values):  # new values, first-seen order
                    dictionary.setdefault(value, len(dictionary))
                values = list(map(dictionary.__getitem__, values))
            elif name in _OPTIONAL:
                values = [NAN if value is None else value for value in values]
            getattr(self, name).fromlist(values)

    def labels(self, name: str) -> List[str]:
        """Coded column ``name`` decoded, one string per session."""
        values = list(getattr(self, DICTIONARIES[name]))
        return list(map(values.__getitem__, getattr(self, name)))

    def keyed_rows(self) -> Iterable[tuple]:
        """``(order key, SessionRow)`` per session, in chunk order."""

        def split(flat: array, lens: array) -> List[tuple]:
            values, out, start = flat.tolist(), [], 0
            for length in lens:
                out.append(tuple(values[start : start + length]))
                start += length
            return out

        fields = (
            self.min_rtt_ms.tolist(),
            _none_for_nan(self.hdratio.tolist()),
            _none_for_nan(self.naive_hdratio.tolist()),
            self.bytes_sent.tolist(),
            self.duration.tolist(),
            self.busy_fraction.tolist(),
            self.transaction_count.tolist(),
            list(map(bool, self.is_http2)),
            self.labels("continent"),
            self.labels("geo_tag"),
            split(self.sizes, self.size_lens),
            split(self.media, self.media_lens),
        )
        rows = map(tuple.__new__, repeat(SessionRow), zip(*fields))
        return zip(self.keys.tolist(), rows)

    # ------------------------------------------------------------------ #
    # Wire form (DESIGN.md §13): raw little-endian column bytes plus the
    # two dictionaries' values, so a pickle of it names no global.
    # ------------------------------------------------------------------ #
    def to_wire(self) -> tuple:
        columns = tuple(_wire_column(getattr(self, name)) for name in _WIRE_COLUMNS)
        return (columns, list(self.continents), list(self.geo_tags))

    @classmethod
    def from_wire(cls, wire) -> "SessionChunk":
        """Rebuild a chunk from :meth:`to_wire`'s tuple, checking every
        length before an array is built from it: ``ValueError`` on a
        typecode the column may not have, a byte count that is not a whole
        number of items, a per-session column with other than one entry
        per key, a negative length, a flat column whose entries disagree
        with its length column's sum, or a code outside its dictionary."""
        columns, continents, geo_tags = wire
        if len(columns) != len(_WIRE_COLUMNS):
            raise ValueError(
                f"a session chunk has {len(_WIRE_COLUMNS)} columns, "
                f"not {len(columns)}"
            )
        counts = {}
        for name, (typecode, data) in zip(_WIRE_COLUMNS, columns):
            if typecode not in _WIRE_TYPECODES[name]:
                raise ValueError(f"column {name!r} has typecode {typecode!r}")
            itemsize = array(typecode).itemsize
            if type(data) is not bytes or len(data) % itemsize:
                raise ValueError(
                    f"column {name!r}: {len(data)} bytes is not a whole "
                    f"number of {itemsize}-byte items"
                )
            counts[name] = len(data) // itemsize
        rows = counts["keys"]
        for name, _ in ROW_COLUMNS:
            if counts[name] != rows:
                raise ValueError(
                    f"column {name!r} has {counts[name]} entries for {rows} sessions"
                )
        chunk = cls()
        for name, (typecode, data) in zip(_WIRE_COLUMNS, columns):
            column = array(typecode, data)
            if _SWAP:
                column.byteswap()
            setattr(chunk, name, column)
        for flat, lens in RAGGED_COLUMNS:
            lengths = getattr(chunk, lens)
            if rows and min(lengths) < 0:
                raise ValueError(f"column {lens!r} holds a negative length")
            if sum(lengths) != len(getattr(chunk, flat)):
                raise ValueError(
                    f"column {flat!r} has {len(getattr(chunk, flat))} "
                    f"entries; {lens!r} counts {sum(lengths)}"
                )
        for (name, attribute), values in zip(
            DICTIONARIES.items(), (continents, geo_tags)
        ):
            if type(values) is not list or any(type(v) is not str for v in values):
                raise ValueError(f"dictionary {attribute!r} is not a list of str")
            codes = dict(zip(values, range(len(values))))
            if len(codes) != len(values):
                raise ValueError(f"dictionary {attribute!r} repeats a value")
            if rows and max(getattr(chunk, name)) >= len(codes):
                raise ValueError(
                    f"column {name!r} holds a code past its dictionary's "
                    f"{len(codes)} values"
                )
            setattr(chunk, attribute, codes)
        return chunk


class SessionTable:
    """A dataset's sessions: the chunks its folds handed on, in fold order."""

    __slots__ = ("chunks",)

    def __init__(self) -> None:
        self.chunks: List[SessionChunk] = []

    def __len__(self) -> int:
        return sum(map(len, self.chunks))

    def values(self, name: str) -> list:
        """Column ``name`` across every chunk, in fold order, each value
        boxed once."""
        out: list = []
        for chunk in self.chunks:
            out += getattr(chunk, name).tolist()
        return out

    def optional(self, name: str) -> list:
        """Ratio column ``name`` as :meth:`values`, with ``None`` for a
        session that has no value."""
        return _none_for_nan(self.values(name))

    def present(self, name: str) -> list:
        """Ratio column ``name``'s values alone, in fold order."""
        return [value for value in self.values(name) if value == value]

    def labels(self, name: str) -> List[str]:
        """Coded column ``name`` decoded across every chunk, in fold order."""
        out: List[str] = []
        for chunk in self.chunks:
            out += chunk.labels(name)
        return out


class SessionRows:
    """``StudyDataset.rows``: a read-only view of a :class:`SessionTable`.

    Its length is the table's. Iterating it builds every session's
    :class:`SessionRow` in order-key order: stream order, whatever order
    the chunks were folded in.
    """

    __slots__ = ("_table",)

    def __init__(self, table: SessionTable) -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self):
        return iter(self._build())

    def __getitem__(self, index):
        return self._build()[index]

    def __eq__(self, other) -> bool:
        return self._build() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SessionRows({len(self)} sessions)"

    def _build(self) -> List[SessionRow]:
        keyed: list = []
        for chunk in self._table.chunks:
            keyed += chunk.keyed_rows()
        keyed.sort(key=itemgetter(0))
        return list(map(itemgetter(1), keyed))
