"""Uncompressed storage — the cascade terminator.

Every decision tree in the paper's Figure 3 bottoms out here: when no scheme
improves on raw storage, or the maximum recursion depth is reached, data is
stored as-is.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.strutil import untrusted_strings
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    deliver,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.types import ColumnType, StringArray


class _UncompressedNumeric(Scheme):
    """Shared raw-array behaviour for the two numeric terminators."""

    scan_beats_cache = True  # the payload is the values

    def decompress(self, payload, count, ctx, positions=None, out=None):
        return deliver(Reader(payload).array(), count, positions, out)


class UncompressedInt(_UncompressedNumeric):
    """Raw int32 values."""

    scheme_id = SchemeId.UNCOMPRESSED_INT
    name = "uncompressed"
    ctype = ColumnType.INTEGER

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        return Writer().array(np.asarray(values, dtype=np.int32)).getvalue()


class UncompressedDouble(_UncompressedNumeric):
    """Raw float64 values."""

    scheme_id = SchemeId.UNCOMPRESSED_DOUBLE
    name = "uncompressed"
    ctype = ColumnType.DOUBLE

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        return Writer().array(np.asarray(values, dtype=np.float64)).getvalue()


class UncompressedString(Scheme):
    """Raw string bytes plus offsets."""

    scheme_id = SchemeId.UNCOMPRESSED_STRING
    name = "uncompressed"
    ctype = ColumnType.STRING

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        # 4-byte offsets match the in-memory binary representation's cost
        # (string buffers stay far below 2 GiB at 64k values per block).
        return Writer().array(values.buffer).array(values.offsets.astype(np.int32)).getvalue()

    def decompress(self, payload, count, ctx, positions=None, out=None):
        reader = Reader(payload)
        buffer = reader.array()
        return deliver(untrusted_strings(buffer, reader.array()), count, positions, out)


INT = register_scheme(UncompressedInt())
DOUBLE = register_scheme(UncompressedDouble())
STRING = register_scheme(UncompressedString())

UNCOMPRESSED_BY_TYPE = {
    ColumnType.INTEGER: INT,
    ColumnType.DOUBLE: DOUBLE,
    ColumnType.STRING: STRING,
}
