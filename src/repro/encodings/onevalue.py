"""One Value encoding — a whole block holding a single distinct value.

The paper calls this a specialization of RLE for columns with one unique
value per block (Section 2.2); Table 4's ``RealEstate1/New Build?`` column
(all zeros) compresses 13,055x with it.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    CompressionContext,
    DecompressionContext,
    Scheme,
    SchemeId,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
from repro.types import ColumnType, StringArray


class OneValueInt(Scheme):
    scheme_id = SchemeId.ONE_VALUE_INT
    name = "one_value"
    filtered_wins_dense = True  # a fill of the selection length
    ctype = ColumnType.INTEGER

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        return Writer().i64(int(values[0])).getvalue()

    def decompress(self, payload: bytes, count: int, ctx: DecompressionContext) -> np.ndarray:
        value = Reader(payload).i64()
        return np.full(count, value, dtype=np.int32)

    def decompress_into(
        self, payload: bytes, count: int, ctx: DecompressionContext, out: np.ndarray
    ) -> None:
        out.fill(np.int32(Reader(payload).i64()))

    def decompress_filtered(
        self, payload: bytes, count: int, ctx: DecompressionContext, positions: np.ndarray
    ) -> np.ndarray:
        value = Reader(payload).i64()
        return np.full(len(positions), value, dtype=np.int32)


class OneValueDouble(Scheme):
    scheme_id = SchemeId.ONE_VALUE_DOUBLE
    name = "one_value"
    filtered_wins_dense = True  # a fill of the selection length
    ctype = ColumnType.DOUBLE

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        # Store the exact bit pattern so NaN payloads and -0.0 round-trip.
        return Writer().array(np.asarray(values[:1], dtype=np.float64)).getvalue()

    def decompress(self, payload: bytes, count: int, ctx: DecompressionContext) -> np.ndarray:
        value = Reader(payload).array()
        return np.repeat(value, count)

    def decompress_into(
        self, payload: bytes, count: int, ctx: DecompressionContext, out: np.ndarray
    ) -> None:
        value = Reader(payload).array()
        if value.size != 1:
            raise CorruptBlockError(
                f"one_value payload holds {value.size} values, expected 1"
            )
        out.fill(value[0])

    def decompress_filtered(
        self, payload: bytes, count: int, ctx: DecompressionContext, positions: np.ndarray
    ) -> np.ndarray:
        value = Reader(payload).array()
        if value.size != 1:
            raise CorruptBlockError(
                f"one_value payload holds {value.size} values, expected 1"
            )
        return np.repeat(value, len(positions))


class OneValueString(Scheme):
    scheme_id = SchemeId.ONE_VALUE_STRING
    name = "one_value"
    filtered_wins_dense = True  # a fill of the selection length
    ctype = ColumnType.STRING

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        return Writer().blob(values[0]).getvalue()

    def decompress(self, payload: bytes, count: int, ctx: DecompressionContext) -> StringArray:
        value = Reader(payload).blob()
        buffer = np.frombuffer(value * count, dtype=np.uint8)
        offsets = np.arange(count + 1, dtype=np.int64) * len(value)
        return StringArray(buffer, offsets)

    def decompress_filtered(
        self, payload: bytes, count: int, ctx: DecompressionContext, positions: np.ndarray
    ) -> StringArray:
        value = Reader(payload).blob()
        n = len(positions)
        buffer = np.frombuffer(value * n, dtype=np.uint8)
        offsets = np.arange(n + 1, dtype=np.int64) * len(value)
        return StringArray(buffer, offsets)


register_scheme(OneValueInt())
register_scheme(OneValueDouble())
register_scheme(OneValueString())
