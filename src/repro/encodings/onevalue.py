"""One Value encoding — a whole block holding a single distinct value.

The paper calls this a specialization of RLE for columns with one unique
value per block (Section 2.2); Table 4's ``RealEstate1/New Build?`` column
(all zeros) compresses 13,055x with it.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
from repro.types import ColumnType, StringArray


class _OneValue(Scheme):
    """The stored value, repeated to the rows a route asks for."""

    name = "one_value"
    filtered_wins_dense = True  # a fill of the selection length
    scan_beats_cache = True  # one comparison

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.distinct_count == 1

    def decompress(self, payload, count, ctx, positions=None, out=None):
        value = self._parse(payload)
        if out is not None:
            out.fill(value[0])
            return None
        return self._repeat(value, count if positions is None else len(positions))

    def scan(self, payload, count, ctx, predicate, want, block_level=False):
        """One comparison decides every row; the hit values are a fill."""
        value = self._parse(payload)
        hit = predicate.evaluate_scalar(value if isinstance(value, bytes) else value[0].item())
        mask = np.full(count, hit, dtype=bool)
        return mask, self._repeat(value, count if hit else 0) if want else None

    @staticmethod
    def _repeat(value: np.ndarray, n: int) -> np.ndarray:
        return value.repeat(n)


class OneValueInt(_OneValue):
    scheme_id = SchemeId.ONE_VALUE_INT
    ctype = ColumnType.INTEGER

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        return Writer().i64(int(values[0])).getvalue()

    @staticmethod
    def _parse(payload: bytes) -> np.ndarray:
        """The value, as a one-element int32 array."""
        return np.asarray([Reader(payload).i64()], dtype=np.int32)


class OneValueDouble(_OneValue):
    scheme_id = SchemeId.ONE_VALUE_DOUBLE
    ctype = ColumnType.DOUBLE

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        # Store the exact bit pattern so NaN payloads and -0.0 round-trip.
        return Writer().array(np.asarray(values[:1], dtype=np.float64)).getvalue()

    @staticmethod
    def _parse(payload: bytes) -> np.ndarray:
        """The value, as the one-element array it is stored as."""
        value = Reader(payload).array()
        if value.size != 1:
            raise CorruptBlockError(f"one_value payload holds {value.size} values, expected 1")
        return value


class OneValueString(_OneValue):
    scheme_id = SchemeId.ONE_VALUE_STRING
    ctype = ColumnType.STRING

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        return Writer().blob(values[0]).getvalue()

    @staticmethod
    def _parse(payload: bytes) -> bytes:
        return Reader(payload).blob()

    @staticmethod
    def _repeat(value: bytes, n: int) -> StringArray:
        buffer = np.frombuffer(value * n, dtype=np.uint8)
        return StringArray(buffer, np.arange(n + 1, dtype=np.int64) * len(value))


register_scheme(OneValueInt())
register_scheme(OneValueDouble())
register_scheme(OneValueString())
