"""Typed columnar data model.

BtrBlocks compresses columns of typed data: 32-bit integers, 64-bit
floating-point numbers and variable-length strings (paper Section 2.2). This
module provides the in-memory representation those columns use throughout the
library:

* integers  -- ``numpy.int32`` arrays
* doubles   -- ``numpy.float64`` arrays
* strings   -- :class:`StringArray`, a contiguous byte buffer plus an offsets
  array, mirroring the paper's "string pool with offsets" layout; the
  decompression fast path can hand out ``(offset, length)`` views instead of
  copying string bytes (paper Section 5, "String Dictionaries").

NULL values are tracked per column with a Roaring bitmap of NULL positions,
exactly as the paper does; the data slots of NULL entries hold 0 / 0.0 / the
empty string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.exceptions import TypeMismatchError


class ColumnType(str, Enum):
    """Logical type of a column, matching the paper's three data types."""

    INTEGER = "integer"
    DOUBLE = "double"
    STRING = "string"


class StringArray:
    """An immutable array of byte strings stored as one buffer + offsets.

    ``offsets`` has ``len + 1`` entries; string ``i`` occupies
    ``buffer[offsets[i]:offsets[i+1]]``. This is the layout Parquet, Arrow and
    BtrBlocks itself use for string data, and it is what makes copy-free
    dictionary decompression possible.

    ``buffer`` and ``offsets`` must be final at construction (fill
    preallocated arrays first, wrap them last): ``_distinct`` memoises
    :func:`repro.encodings.strutil.encode_distinct` (and ``distinct_rows``);
    only ``strutil`` writes it and nothing invalidates it. The memo is not
    pickled.
    """

    __slots__ = ("buffer", "offsets", "_distinct")

    def __init__(self, buffer: np.ndarray, offsets: np.ndarray):
        buffer = np.asarray(buffer, dtype=np.uint8)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0 or offsets[0] != 0:
            raise TypeMismatchError("offsets must start with 0")
        if int(offsets[-1]) != buffer.size:
            raise TypeMismatchError("offsets must end at the buffer length")
        self.buffer = buffer
        self.offsets = offsets
        self._distinct = None

    def __reduce__(self):
        return StringArray, (self.buffer, self.offsets)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_pylist(cls, strings: Sequence[Union[str, bytes, None]]) -> "StringArray":
        """Build from Python strings/bytes. ``None`` becomes the empty string."""
        encoded = [
            s.encode("utf-8") if isinstance(s, str) else (s or b"") for s in strings
        ]
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        buffer = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
        return cls(buffer, offsets)

    @classmethod
    def empty(cls, count: int = 0) -> "StringArray":
        """An array of ``count`` empty strings."""
        return cls(np.empty(0, dtype=np.uint8), np.zeros(count + 1, dtype=np.int64))

    # -- element access ------------------------------------------------------

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> bytes:
        start, stop = int(self.offsets[i]), int(self.offsets[i + 1])
        return self.buffer[start:stop].tobytes()

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.to_pylist())

    def to_pylist(self) -> list[bytes]:
        buf = self.buffer.tobytes()
        offs = self.offsets.tolist()
        return [buf[start:stop] for start, stop in zip(offs, offs[1:])]

    def lengths(self) -> np.ndarray:
        """Per-string byte lengths as an int64 array."""
        return np.diff(self.offsets)

    # -- bulk operations -----------------------------------------------------

    def take(self, indices: np.ndarray) -> "StringArray":
        """Gather strings by index (the scalar fallback of dictionary decode)."""
        indices = np.asarray(indices, dtype=np.int64)
        lengths = self.lengths()[indices]
        out_offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=out_offsets[1:])
        out = np.empty(int(out_offsets[-1]), dtype=np.uint8)
        src_off = self.offsets
        for pos, idx in enumerate(indices):
            s, e = int(src_off[idx]), int(src_off[idx + 1])
            out[out_offsets[pos] : out_offsets[pos + 1]] = self.buffer[s:e]
        return StringArray(out, out_offsets)

    def slice(self, start: int, stop: int) -> "StringArray":
        """Zero-copy-ish slice of rows [start, stop)."""
        offs = self.offsets[start : stop + 1]
        base = int(offs[0])
        buf = self.buffer[base : int(offs[-1])]
        return StringArray(buf.copy(), (offs - base).copy())

    @property
    def nbytes(self) -> int:
        """In-memory binary size: string bytes + 4-byte offsets (paper metric)."""
        return int(self.buffer.size) + 4 * len(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringArray):
            return NotImplemented
        return np.array_equal(self.lengths(), other.lengths()) and np.array_equal(
            self.buffer, other.buffer
        )

    def __repr__(self) -> str:
        return f"StringArray(len={len(self)}, bytes={self.buffer.size})"


ColumnData = Union[np.ndarray, StringArray]


@dataclass
class Column:
    """A named, typed column with optional NULL positions.

    ``data`` is a ``numpy`` array (int32 / float64) or a :class:`StringArray`.
    ``nulls`` is a Roaring bitmap of NULL row positions or ``None`` when the
    column has no NULLs.
    """

    name: str
    ctype: ColumnType
    data: ColumnData
    nulls: RoaringBitmap | None = field(default=None)

    def __post_init__(self) -> None:
        if self.ctype is ColumnType.INTEGER:
            self.data = np.ascontiguousarray(self.data, dtype=np.int32)
        elif self.ctype is ColumnType.DOUBLE:
            self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        elif not isinstance(self.data, StringArray):
            raise TypeMismatchError("string columns need a StringArray")

    # -- constructors --------------------------------------------------------

    @classmethod
    def ints(
        cls,
        name: str,
        values: Iterable[int] | np.ndarray,
        nulls: RoaringBitmap | None = None,
    ) -> "Column":
        return cls(name, ColumnType.INTEGER, np.asarray(values, dtype=np.int32), nulls)

    @classmethod
    def doubles(
        cls,
        name: str,
        values: Iterable[float] | np.ndarray,
        nulls: RoaringBitmap | None = None,
    ) -> "Column":
        return cls(name, ColumnType.DOUBLE, np.asarray(values, dtype=np.float64), nulls)

    @classmethod
    def strings(
        cls,
        name: str,
        values: Sequence[Union[str, bytes, None]] | StringArray,
        nulls: RoaringBitmap | None = None,
    ) -> "Column":
        if not isinstance(values, StringArray):
            none_positions = [i for i, v in enumerate(values) if v is None]
            if none_positions and nulls is None:
                nulls = RoaringBitmap.from_positions(none_positions)
            values = StringArray.from_pylist(values)
        return cls(name, ColumnType.STRING, values, nulls)

    # -- properties ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        """Uncompressed in-memory binary size (the paper's baseline metric)."""
        if isinstance(self.data, StringArray):
            return self.data.nbytes
        return int(self.data.nbytes)

    def null_mask(self) -> np.ndarray:
        """Boolean mask, True where the value is NULL."""
        if self.nulls is None:
            return np.zeros(len(self), dtype=bool)
        return self.nulls.to_mask(len(self))

    def slice(self, start: int, stop: int) -> "Column":
        """Rows [start, stop) as a new column; NULL positions are rebased."""
        if isinstance(self.data, StringArray):
            data: ColumnData = self.data.slice(start, stop)
        else:
            data = self.data[start:stop].copy()
        nulls = None
        if self.nulls is not None:
            positions = self.nulls.to_array()
            inside = positions[(positions >= start) & (positions < stop)]
            if inside.size:
                nulls = RoaringBitmap.from_positions(inside - start)
        return Column(self.name, self.ctype, data, nulls)

    def __repr__(self) -> str:
        nulls = len(self.nulls) if self.nulls is not None else 0
        return f"Column({self.name!r}, {self.ctype.value}, len={len(self)}, nulls={nulls})"


def columns_equal(a: Column, b: Column) -> bool:
    """Bitwise equality check used by round-trip tests.

    Doubles are compared through their bit patterns so that NaN payloads and
    negative zero must survive compression exactly (the paper's lossless
    requirement in Section 4.1).
    """
    if a.ctype is not b.ctype or len(a) != len(b):
        return False
    a_nulls = a.nulls or RoaringBitmap()
    b_nulls = b.nulls or RoaringBitmap()
    if a_nulls != b_nulls:
        return False
    if a.ctype is ColumnType.DOUBLE:
        return np.array_equal(
            np.asarray(a.data).view(np.uint64), np.asarray(b.data).view(np.uint64)
        )
    if a.ctype is ColumnType.INTEGER:
        return np.array_equal(a.data, b.data)
    return a.data == b.data
