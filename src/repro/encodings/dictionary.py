"""Dictionary encoding for all three data types.

Distinct values go to a dictionary, the data becomes a code sequence. Codes
are always cascade-compressed (the paper's example cascades Dict codes into
FastBP128). For strings, the dictionary pool itself is FSST-compressed when
that is beneficial — the paper's "Dict+FSST" tree node — and decompression
replaces codes with (offset, length) views into the pool instead of copying
strings (Section 5, "String Dictionaries").
"""

from __future__ import annotations

import numpy as np

from repro.encodings import strutil
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    deliver,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer, wrap
from repro.exceptions import FormatError
from repro.observe import get_registry
from repro.query.predicates import Between, Equals, GreaterThan, In, LessThan, Predicate
from repro.types import ColumnType, StringArray

_POOL_RAW = 0
_POOL_FSST = 1

#: Decoded string pools keyed by the *compressed* pool's exact bytes (with its
#: kind and declared count), shared by every DictString decode so a repeat
#: read of the same block skips ``_decompress_pool``. Identical pools in
#: different blocks share one entry, and a different pool never aliases one:
#: a key matches only when the bytes do. Byte-budgeted like
#: :class:`~repro.core.cache.DecodeCache`; lazily built so importing this
#: module never touches the metrics registry.
_POOL_CACHE_BYTES = 32 << 20
_pool_cache = None


def string_pool_cache():
    """The process-wide decoded-pool cache (created on first use)."""
    global _pool_cache
    if _pool_cache is None:
        from repro.core.cache import ByteBudgetLRU

        _pool_cache = ByteBudgetLRU(_POOL_CACHE_BYTES, "query.cdomain.pool_cache")
    return _pool_cache


def clear_string_pool_cache() -> None:
    """Drop all cached pools (tests and long-running servers)."""
    if _pool_cache is not None:
        _pool_cache.clear()


def _unique_with_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique values and per-row codes; doubles dedup bitwise."""
    if values.dtype == np.float64:
        bits = values.view(np.uint64)
        uniq_bits, codes = np.unique(bits, return_inverse=True)
        return uniq_bits.view(np.float64), codes.astype(np.int32)
    uniq, codes = np.unique(values, return_inverse=True)
    return uniq, codes.astype(np.int32)


def _checked_codes(codes, pool_size: int) -> np.ndarray:
    """``codes`` proven inside ``[0, pool_size)``, on every dictionary decode
    path: ``take`` and fancy indexing silently wrap a corrupt negative code."""
    codes = np.asarray(codes)
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= pool_size):
        raise FormatError("dictionary code out of pool range")
    return codes


class _NumericDict(Scheme):
    """Dictionary for int32 / float64 data."""

    name = "dictionary"

    def is_viable(self, stats, config) -> bool:
        if stats.count == 0 or stats.distinct_count >= stats.count:
            return False
        return stats.unique_fraction <= config.dictionary_max_unique_fraction

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        uniq, codes = _unique_with_codes(np.asarray(values))
        writer = Writer()
        writer.array(uniq)
        writer.blob(ctx.compress_child(codes, ColumnType.INTEGER))
        return writer.getvalue()

    def estimate_ratio(self, sample, stats, ctx) -> float:
        """Sample estimate with the pool amortised over the block.

        Same correction as :meth:`DictString.estimate_ratio`: the sampled
        code sequence is kept, the dictionary cost is charged at its
        block-level per-row share instead of against the sample alone.
        """
        sample = np.asarray(sample)
        # (The sample's pool is replaced by the amortised cost.)
        codes_stored = len(self._parse(self.compress(sample, ctx.child()))[1])
        share = len(sample) / stats.count if stats.count else 1.0
        corrected_pool = stats.distinct_value_bytes * share
        size = 16 + codes_stored + corrected_pool
        return sample.nbytes / max(size, 32.0)

    @staticmethod
    def _parse(payload: bytes) -> "tuple[np.ndarray, bytes]":
        """``(sorted pool, codes blob)``."""
        reader = Reader(payload)
        return reader.array(), reader.blob()

    def decompress(self, payload, count, ctx, positions=None, out=None):
        uniq, codes_blob = self._parse(payload)
        codes = ctx.decompress_child(codes_blob, ColumnType.INTEGER, positions, count)
        codes = _checked_codes(codes, len(uniq))
        if not ctx.vectorized:
            values = np.empty(len(codes), dtype=uniq.dtype)
            for i, code in enumerate(codes.tolist()):
                values[i] = uniq[code]
        elif out is not None and uniq.dtype == out.dtype and len(codes) == count:
            np.take(uniq, codes, out=out)
            return None
        else:
            values = uniq.take(codes)  # 2x faster than uniq[codes] on int32 codes
        return values if positions is not None else deliver(values, count, None, out)

    def scan(self, payload, count, ctx, predicate, want, block_level=False):
        pool, codes_blob = self._parse(payload)
        sorted_pool = self.scheme_id == SchemeId.DICT_INT
        compiled = _compile_sorted_int(pool, predicate) if sorted_pool else None
        return _scan_codes(pool, codes_blob, count, ctx, predicate, want, compiled)

    def children(self, payload, count):
        return [("codes", self._parse(payload)[1])]


class DictInt(_NumericDict):
    scheme_id = SchemeId.DICT_INT
    ctype = ColumnType.INTEGER

    def dominated_by(self, stats, survivors):
        """A viable bit-packer, when dense codes would be as wide as the
        frame-of-reference values it packs — and Dictionary adds a pool."""
        value_range = int(stats.max_value - stats.min_value)
        if (stats.distinct_count - 1).bit_length() >= value_range.bit_length():
            return survivors.get(SchemeId.FAST_BP128) or survivors.get(SchemeId.FAST_PFOR)
        return None


class DictDouble(_NumericDict):
    scheme_id = SchemeId.DICT_DOUBLE
    ctype = ColumnType.DOUBLE


class DictString(Scheme):
    """String dictionary with optional FSST-compressed pool."""

    scheme_id = SchemeId.DICT_STRING
    name = "dictionary"
    ctype = ColumnType.STRING
    filtered_wins_dense = True  # cached pool, one gather: 1.2x at 100%, 1.9x at 90% (SCHEMES.md)

    def is_viable(self, stats, config) -> bool:
        if stats.count == 0:
            return False
        return stats.unique_fraction <= config.dictionary_max_unique_fraction

    def estimate_ratio(self, sample, stats, ctx) -> float:
        """Sample estimate with the pool cost amortised over the block.

        A 1% sample sees almost every value once, so compressing it charges
        nearly the whole dictionary pool against 640 rows — drastically
        under-estimating the ratio of any higher-cardinality dictionary.
        This estimator keeps the sampled measurement of the code sequence
        (locality-sensitive: RLE cascades etc.) but replaces the pool term
        with the block-level pool bytes scaled down to sample size, applying
        the pool compression factor observed on the sample (FSST vs raw).
        """
        _kind, _count, pool_blob, codes_blob = self._parse(self.compress(sample, ctx.child()))
        pool_stored, codes_stored = len(pool_blob), len(codes_blob)
        _codes, sample_uniques = strutil.encode_distinct(sample)
        sample_pool_raw = sample_uniques.nbytes
        pool_factor = pool_stored / sample_pool_raw if sample_pool_raw else 1.0
        # Block pool bytes, compressed like the sample pool, amortised to
        # the sample's share of the block.
        share = len(sample) / stats.count if stats.count else 1.0
        corrected_pool = stats.distinct_value_bytes * pool_factor * share
        size = 16 + codes_stored + corrected_pool
        return sample.nbytes / max(size, 32.0)

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        codes, uniques = strutil.encode_distinct(values)
        writer = Writer()
        pool_kind, pool_bytes = self._compress_pool(uniques, ctx)
        writer.u8(pool_kind)
        writer.u32(len(uniques))
        writer.blob(pool_bytes)
        writer.blob(ctx.compress_child(codes, ColumnType.INTEGER))
        return writer.getvalue()

    @staticmethod
    def _compress_pool(uniques: StringArray, ctx: CompressionContext) -> tuple[int, bytes]:
        """Store the pool raw, or FSST-compressed when that is smaller."""
        from repro.encodings.fsst import FSST_SCHEME

        raw = Writer().array(uniques.buffer).array(uniques.offsets).getvalue()
        if ctx.depth <= 0 or uniques.buffer.size < 64:
            return _POOL_RAW, raw
        fsst = FSST_SCHEME.compress(uniques, ctx.child())
        if len(fsst) < len(raw):
            return _POOL_FSST, fsst
        return _POOL_RAW, raw

    @staticmethod
    def _parse(payload: bytes) -> "tuple[int, int, bytes, bytes]":
        """``(pool kind, pool count, pool blob, codes blob)``."""
        reader = Reader(payload)
        return reader.u8(), reader.u32(), reader.blob(), reader.blob()

    def _decompress_pool(self, kind: int, data: bytes, count: int, ctx) -> StringArray:
        from repro.encodings.fsst import FSST_SCHEME

        if kind == _POOL_FSST:
            return FSST_SCHEME.decompress(data, count, ctx)
        reader = Reader(data)
        return strutil.untrusted_strings(reader.array(), reader.array())

    def cached_pool(self, kind: int, data: bytes, count: int, ctx) -> StringArray:
        """The decoded pool, served from the content-addressed cache.

        Every route (full, ``positions`` and scan) takes its pool here. The
        key holds ``data`` itself (immutable ``bytes``), so a hit costs one
        hash and one comparison of the blob; the entry is charged for the
        blob it keeps as well as for the decoded pool.
        """
        cache = string_pool_cache()
        key = (kind, count, data)
        pool = cache.get(key)
        if pool is None:
            pool = self._decompress_pool(kind, data, count, ctx)
            cache.put(key, pool, pool.nbytes + len(data))
        return pool

    def decompress(self, payload, count, ctx, positions=None, out=None):
        kind, pool_count, pool_blob, codes_blob = self._parse(payload)
        pool = self.cached_pool(kind, pool_blob, pool_count, ctx)
        codes = ctx.decompress_child(codes_blob, ColumnType.INTEGER, positions, count)
        codes = _checked_codes(codes, len(pool))
        return strutil.gather(pool, codes) if ctx.vectorized else pool.take(codes)

    def scan(self, payload, count, ctx, predicate, want, block_level=False):
        """Code-space evaluation over the cached pool (repeated predicates
        against the same block decode it once)."""
        kind, pool_count, pool_blob, codes_blob = self._parse(payload)
        pool = self.cached_pool(kind, pool_blob, pool_count, ctx)
        return _scan_codes(pool, codes_blob, count, ctx, predicate, want)

    def children(self, payload, count):
        from repro.encodings.fsst import FSST_SCHEME

        kind, pool_count, pool_blob, codes_blob = self._parse(payload)
        pool = [("pool", wrap(FSST_SCHEME.scheme_id, pool_count, pool_blob))] if kind == _POOL_FSST else []
        return pool + [("codes", codes_blob)]


# -- code-space predicates -------------------------------------------------------

#: Sentinel results of code-space compilation: the predicate matches no /
#: every dictionary entry, so no code ever needs materialising.
_NONE_MATCH = "none"
_ALL_MATCH = "all"
_NO_CODES = np.empty(0, dtype=np.int64)


class _PoolMatches(Predicate):
    """A pool's match mask as a predicate over codes: the code-space form of
    a predicate that compiles to nothing more compact."""

    def __init__(self, matches: np.ndarray) -> None:
        self.matches = matches

    def evaluate(self, codes) -> np.ndarray:
        return self.matches[_checked_codes(codes, self.matches.size)]


def _compile_sorted_int(pool: np.ndarray, predicate: Predicate):
    """Binary-search compilation against a sorted int pool, or None.

    Numeric dictionary pools for int32 are value-sorted and unique
    (``np.unique``), so Eq/In/range constants translate to code ids /
    contiguous code ranges in O(log n) without touching the pool mask.
    (Double pools are sorted by *bit pattern*, not numeric order, so they
    take the pool-mask route instead.)
    """
    n = int(pool.size)
    if isinstance(predicate, (Equals, In)):
        needles = np.asarray([predicate.value] if isinstance(predicate, Equals) else predicate.values)
        if needles.dtype.kind not in "iuf":  # (string constants: the pool is evaluated)
            return None
        ids = np.unique(np.searchsorted(pool, needles))
        present = ids[ids < n]
        present = present[np.isin(pool[present], needles)]
        if present.size == 0:
            return _NONE_MATCH
        if isinstance(predicate, Equals):
            return Equals(int(present[0]))
        return _ALL_MATCH if present.size == n else In(present.tolist())
    # A range: (constant, searchsorted side) of each end it bounds.
    if isinstance(predicate, Between):
        low, high = (predicate.low, "left"), (predicate.high, "right")
    elif isinstance(predicate, GreaterThan):
        low, high = (predicate.value, "left" if predicate.inclusive else "right"), None
    elif isinstance(predicate, LessThan):
        low, high = None, (predicate.value, "right" if predicate.inclusive else "left")
    else:
        return None
    if any(isinstance(end[0], (bytes, str)) for end in (low, high) if end):
        return None
    lo = 0 if low is None else int(np.searchsorted(pool, low[0], side=low[1]))
    hi = n - 1 if high is None else int(np.searchsorted(pool, high[0], side=high[1])) - 1
    if lo > hi:
        return _NONE_MATCH
    return _ALL_MATCH if lo == 0 and hi == n - 1 else Between(lo, hi)


def _compile_pool_mask(dict_matches: np.ndarray):
    """Translate a pool match mask into a code-space predicate when compact.

    A contiguous hit range becomes ``Between``; a small scattered set
    becomes ``In``; everything else stays a mask mapping (the fallback).
    """
    hits = np.nonzero(dict_matches)[0]
    if hits.size == 0:
        return _NONE_MATCH
    if hits.size == dict_matches.size:
        return _ALL_MATCH
    if int(hits[-1]) - int(hits[0]) + 1 == hits.size:
        if hits.size == 1:
            return Equals(int(hits[0]))
        return Between(int(hits[0]), int(hits[-1]))
    if hits.size <= 32:
        return In([int(i) for i in hits])
    return None


def _pool_values(pool, codes):
    """The dictionary's values at ``codes``, each checked inside the pool."""
    codes = _checked_codes(codes, len(pool))
    if isinstance(pool, StringArray):
        return strutil.gather(pool, codes)
    return pool.take(codes)


def _scan_codes(pool, codes_blob, count, ctx, predicate, want, compiled=None):
    """Every dictionary's predicate rule: compile ``predicate`` into code
    space once (``compiled`` from the pool's order, else by evaluating the
    pool), then push it into the codes child -- gaining the RLE per-run and
    bit-packed page-bound rules on the codes. The hit values are the pool
    at the hit codes."""
    registry = get_registry()
    if compiled is None:
        dict_matches = np.asarray(predicate.evaluate(pool), dtype=bool)
        compiled = _compile_pool_mask(dict_matches)
        if compiled is None:  # the fallback: the pool mask itself, over the codes
            registry.incr("query.cdomain.code_fallbacks")
            compiled = _PoolMatches(dict_matches)
    if not isinstance(compiled, _PoolMatches):
        registry.incr("query.cdomain.code_compiled")
    if compiled is _NONE_MATCH:
        return np.zeros(count, dtype=bool), _pool_values(pool, _NO_CODES) if want else None
    if compiled is _ALL_MATCH:  # no code was decoded: nothing to hand on
        return np.ones(count, dtype=bool), None
    mask, codes = ctx.scan_child(codes_blob, ColumnType.INTEGER, compiled, want, count)
    return mask, None if codes is None else _pool_values(pool, codes)


register_scheme(DictInt())
register_scheme(DictDouble())
DICT_STRING_SCHEME = register_scheme(DictString())
