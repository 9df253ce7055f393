"""Binary wire helpers for compressed block payloads.

Every compressed node in a BtrBlocks cascade is framed as::

    u8  scheme_id
    u32 value_count
    ... scheme payload ...

Schemes serialize their payload with :class:`Writer` and parse it back with
:class:`Reader`. Nested (cascaded) children are embedded as length-prefixed
byte blocks, so a parent never needs to know how long a child is before
reading it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import CorruptBlockError

_HEADER = struct.Struct("<BI")
_ARRAY_HEAD = struct.Struct("<BI")
_U32 = struct.Struct("<I")

#: Wire code of each array dtype, keyed by the dtype object itself: it hashes
#: in C, where ``dtype.name`` runs Python on every ``Writer.array`` call.
_DTYPE_CODES: dict[np.dtype, int] = {
    np.dtype("uint8"): 0,
    np.dtype("int32"): 1,
    np.dtype("int64"): 2,
    np.dtype("float64"): 3,
    np.dtype("uint16"): 4,
    np.dtype("uint32"): 5,
    np.dtype("uint64"): 6,
}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


def wrap(scheme_id: int, count: int, payload: bytes) -> bytes:
    """Frame a scheme payload with its id and value count."""
    return _HEADER.pack(scheme_id, count) + payload


def unwrap(blob: bytes) -> tuple[int, int, bytes]:
    """Split a framed node into (scheme_id, value_count, payload)."""
    if len(blob) < _HEADER.size:
        raise CorruptBlockError("block too short for header")
    scheme_id, count = _HEADER.unpack_from(blob)
    return scheme_id, count, blob[_HEADER.size :]


class Writer:
    """Accumulates a payload from scalars, arrays and nested byte blocks."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        self._parts.append(struct.pack("<B", value))
        return self

    def u32(self, value: int) -> "Writer":
        self._parts.append(struct.pack("<I", value))
        return self

    def i64(self, value: int) -> "Writer":
        self._parts.append(struct.pack("<q", value))
        return self

    def f64(self, value: float) -> "Writer":
        self._parts.append(struct.pack("<d", value))
        return self

    def array(self, arr: np.ndarray) -> "Writer":
        """A length- and dtype-prefixed numpy array."""
        arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise ValueError(f"unsupported dtype {arr.dtype}")
        raw = arr.tobytes()
        self._parts.append(struct.pack("<BI", code, len(raw)))
        self._parts.append(raw)
        return self

    def blob(self, data: bytes) -> "Writer":
        """A length-prefixed opaque byte block (nested cascade node, bitmap)."""
        self._parts.append(struct.pack("<I", len(data)))
        self._parts.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Sequential reader matching :class:`Writer`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise CorruptBlockError("truncated payload")
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        end = self._pos + 4
        if end > len(self._data):
            raise CorruptBlockError("truncated payload")
        value = _U32.unpack_from(self._data, self._pos)[0]
        self._pos = end
        return value

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def array(self) -> np.ndarray:
        """A length- and dtype-prefixed array, viewing the payload in place.

        The returned array is a read-only ``frombuffer`` view at the
        current offset — no byte-slice copy on the decode hot path.
        """
        data = self._data
        head = self._pos + 5
        if head > len(data):
            raise CorruptBlockError("truncated payload")
        code, size = _ARRAY_HEAD.unpack_from(data, self._pos)
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise CorruptBlockError(f"unknown dtype code {code}")
        stop = head + size
        if stop > len(data):
            raise CorruptBlockError("truncated payload")
        count, rem = divmod(size, dtype.itemsize)
        if rem:
            # Same error np.frombuffer raises on a partial trailing item.
            raise ValueError("buffer size must be a multiple of element size")
        self._pos = stop
        return np.frombuffer(data, dtype=dtype, count=count, offset=head)

    def blob(self) -> bytes:
        data = self._data
        head = self._pos + 4
        if head > len(data):
            raise CorruptBlockError("truncated payload")
        size = _U32.unpack_from(data, self._pos)[0]
        stop = head + size
        if stop > len(data):
            raise CorruptBlockError("truncated payload")
        self._pos = stop
        return data[head:stop]

    def remaining(self) -> int:
        return len(self._data) - self._pos
