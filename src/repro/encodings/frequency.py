"""Frequency encoding, adapted as in the paper (Section 2.2).

BtrBlocks' variant of DB2 BLU's frequency encoding optimises for columns with
one dominant value: it stores (1) the top value, (2) a Roaring bitmap marking
the positions holding the top value and (3) the exception values, which are
cascade-compressed.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.encodings import strutil
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    deliver,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer, unwrap
from repro.exceptions import CorruptBlockError
from repro.types import ColumnType, StringArray


#: Frequency is the scheme for one dominant value (paper Section 2.2): with
#: no majority value in the sample it is not estimated. It won no lakebench
#: pick below a 55% top share (docs/PERFORMANCE.md section 3).
MIN_TOP_SHARE = 0.5


def _few_distinct(stats, config) -> bool:
    """The statistics-only test; the sample is measured only once it passed."""
    return stats.distinct_count > 1 and (
        stats.unique_fraction <= config.frequency_max_unique_fraction
    )


def _split_selection(top_rows: RoaringBitmap, positions: np.ndarray):
    """``(selected row holds the top value?, ranks of the selected exceptions)``.

    An exception's row in the cascaded exceptions child is its position
    minus the top-value rows before it, which the bitmap ranks in place
    (:meth:`RoaringBitmap.rank`): the selection costs a search per selected
    row — never a pass over the whole block.
    """
    positions = np.asarray(positions, dtype=np.int64)
    before, is_top = top_rows.rank(positions)
    return is_top, (positions - before)[~is_top]


def fill_selection(top, is_top: np.ndarray, exceptions):
    """A selection's values, in row order: ``top`` (a string's bytes, a
    number's one-element array) where ``is_top``, the selected
    ``exceptions`` in turn elsewhere."""
    if isinstance(top, bytes):  # a pool: code 0 is the top value, 1 + i exception i
        pool = strutil.concat([StringArray.from_pylist([top]), exceptions])
        codes = np.zeros(is_top.size, dtype=np.int64)
        codes[~is_top] = 1 + np.arange(len(exceptions), dtype=np.int64)
        return strutil.gather(pool, codes)
    out = np.empty(is_top.size, dtype=top.dtype)
    if is_top.any():
        out[is_top] = top[0]
    out[~is_top] = np.asarray(exceptions)
    return out


class _Frequency(Scheme):
    """What every frequency node shares: viability, the payload layout and
    its one decode."""

    name = "frequency"

    def is_viable(self, stats, config) -> bool:
        return _few_distinct(stats, config) and stats.sample_top_share >= MIN_TOP_SHARE

    def _parse(self, payload: bytes, count: int):
        """``(top value, its rows, exceptions blob)`` -- the top a string's
        bytes or a number's one-element array -- with the exceptions child
        held to fill exactly the rows the bitmap leaves, on every route."""
        reader = Reader(payload)
        top = reader.blob() if self.ctype is ColumnType.STRING else reader.array()
        top_rows = RoaringBitmap.deserialize(reader.blob())
        exceptions = reader.blob()
        if unwrap(exceptions)[1] != count - len(top_rows):
            raise CorruptBlockError("frequency exceptions do not fill the rows the bitmap leaves")
        return top, top_rows, exceptions

    def decompress(self, payload, count, ctx, positions=None, out=None):
        top, top_rows, exc_blob = self._parse(payload, count)
        if positions is not None:
            is_top, exc_ranks = _split_selection(top_rows, positions)
            if exc_ranks.size:
                exceptions = ctx.decompress_child(exc_blob, self.ctype, exc_ranks)
            else:  # every selected row holds the top value
                exceptions = StringArray.from_pylist([]) if isinstance(top, bytes) else top[:0]
            return fill_selection(top, is_top, exceptions)
        exceptions = ctx.decompress_child(exc_blob, self.ctype)
        mask = top_rows.to_mask(count)
        if ctx.vectorized:
            return deliver(fill_selection(top, mask, exceptions), count, None, out)
        return deliver(self._fill_scalar(top, mask, exceptions), count, None, out)

    def scan(self, payload, count, ctx, predicate, want, block_level=False):
        """One comparison for the top value, the exceptions child (held to
        the rows the bitmap leaves) for the rest; the hit values are the top
        value's and the exceptions' hit values, in row order."""
        top, top_rows, exc_blob = self._parse(payload, count)
        top_mask = top_rows.to_mask(count)
        exceptions, exception_hits = ctx.scan_child(
            exc_blob, self.ctype, predicate, want, count - len(top_rows)
        )
        out = np.empty(count, dtype=bool)
        out[top_mask] = predicate.evaluate_scalar(top if isinstance(top, bytes) else top[0])
        out[~top_mask] = exceptions
        if exception_hits is None:
            return out, None
        return out, fill_selection(top, top_mask[out], exception_hits)

    def children(self, payload, count):
        return [("exceptions", self._parse(payload, count)[2])]


class _FrequencyBase(_Frequency):
    """Top value + bitmap + exceptions for numeric types."""

    @staticmethod
    def _keys(values: np.ndarray) -> np.ndarray:
        """Doubles compare bitwise (NaNs are one value, 0.0 and -0.0 two)."""
        return values.view(np.uint64) if values.dtype == np.float64 else values

    def prepare_stats(self, sample: np.ndarray, stats, config) -> None:
        if _few_distinct(stats, config):
            counts = np.unique(self._keys(np.asarray(sample)), return_counts=True)[1]
            stats.sample_top_share = float(counts.max()) / len(sample)

    def _top_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of positions holding the most frequent value."""
        keys = self._keys(values)
        uniq, counts = np.unique(keys, return_counts=True)
        top = uniq[np.argmax(counts)]
        return keys == top

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        values = np.asarray(values)
        mask = self._top_mask(values)
        top_value = values[mask][:1]
        exceptions = values[~mask]
        writer = Writer()
        writer.array(top_value)
        writer.blob(RoaringBitmap.from_bools(mask).serialize())
        writer.blob(ctx.compress_child(exceptions, self.ctype))
        return writer.getvalue()

    @staticmethod
    def _fill_scalar(top: np.ndarray, mask: np.ndarray, exceptions) -> np.ndarray:
        values = np.empty(mask.size, dtype=top.dtype)
        exc_pos = 0
        for i in range(mask.size):
            if mask[i]:
                values[i] = top[0]
            else:
                values[i] = exceptions[exc_pos]
                exc_pos += 1
        return values


class FrequencyInt(_FrequencyBase):
    scheme_id = SchemeId.FREQUENCY_INT
    ctype = ColumnType.INTEGER


class FrequencyDouble(_FrequencyBase):
    scheme_id = SchemeId.FREQUENCY_DOUBLE
    ctype = ColumnType.DOUBLE


class FrequencyString(_Frequency):
    """Frequency encoding for strings: top string + bitmap + exception pool."""

    scheme_id = SchemeId.FREQUENCY_STRING
    ctype = ColumnType.STRING

    def prepare_stats(self, sample: StringArray, stats, config) -> None:
        if _few_distinct(stats, config):  # memoised codes: Dictionary's estimate asks too
            counts = np.bincount(strutil.encode_distinct(sample)[0])
            stats.sample_top_share = float(counts.max()) / len(sample)

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        codes, uniques = strutil.encode_distinct(values)
        counts = np.bincount(codes, minlength=len(uniques))
        top_code = int(np.argmax(counts))
        mask = codes == top_code
        exception_rows = np.nonzero(~mask)[0]
        exceptions = strutil.gather(values, exception_rows)
        writer = Writer()
        writer.blob(uniques[top_code])
        writer.blob(RoaringBitmap.from_bools(mask).serialize())
        writer.blob(ctx.compress_child(exceptions, ColumnType.STRING))
        return writer.getvalue()

    @staticmethod
    def _fill_scalar(top: bytes, mask: np.ndarray, exceptions: StringArray) -> StringArray:
        # [top] + exceptions as a pool: code 0 is the top value, exception i
        # maps to pool row 1 + i.
        pool = strutil.concat([StringArray.from_pylist([top]), exceptions])
        codes = np.zeros(mask.size, dtype=np.int64)
        codes[~mask] = 1 + np.arange(len(exceptions), dtype=np.int64)
        return pool.take(codes)


register_scheme(FrequencyInt())
register_scheme(FrequencyDouble())
register_scheme(FrequencyString())
