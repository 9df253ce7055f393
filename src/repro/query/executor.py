"""Predicate evaluation over compressed blocks — in the compressed domain.

``scan_block`` walks the cascade tree of a compressed node and, at every
level, answers the predicate with as little decoding as the encoding
permits (the paper's Section 7 direction and Rozenberg's computational
model for processing compressed data):

=============  =============================================================
Node scheme    Fast path
=============  =============================================================
One Value      one comparison decides the whole block
Dictionary     compile the predicate into *code space* once (binary search
               the sorted pool / evaluate the small pool), then recurse on
               the packed/RLE code stream without materialising values
RLE            recurse on the run values, replicate per run length
Frequency      one comparison for the top value + recurse on exceptions
FastBP128 /    reject or accept whole pages from the ``(reference,
FastPFOR       bit_width)`` headers alone; unpack only undecided pages
others         decompress, then evaluate (the paper's default position)
=============  =============================================================

Because the fast paths recurse, they compose: a dictionary whose code
stream is RLE over bit-packed run values evaluates the compiled code
predicate per *run*, and the run values' page headers can reject runs
without unpacking a word.

Behind a warm decode cache none of this runs for most number blocks:
:func:`block_mask`, the operator every scan driver computes a block's mask
with, answers a block the cache serves over its decoded values. On request
it also returns the values at the hit rows, built from what its route
decoded (runs repeated, codes through the pool, accepted pages unpacked with
the undecided ones), so a projected filter column is never decoded twice.

NULL semantics follow SQL: NULL rows never match a value predicate, and the
dedicated :class:`~repro.query.predicates.IsNull` matches exactly them.

``query.cdomain.*`` counters record what the compressed domain saved; see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.bitmap import RoaringBitmap, strictly_increasing
from repro.core.blocks import CompressedBlock, CompressedColumn
from repro.core.config import DEFAULT_DECODE_LIMITS, DecodeLimits
from repro.core.decompressor import (
    CorruptBlockResult,
    _block_is_intact,
    _open_node,
    _run_scheme,
    cached_block,
    concat_values,
    decode_block,
    make_context,
)
from repro.encodings import strutil
from repro.encodings.base import (
    DecompressionContext,
    SchemeId,
    get_scheme,
    prefers_full_decode,
)
from repro.encodings.bitpack import PAGE
from repro.encodings.dictionary import _checked_codes, read_numeric_dict, read_string_dict
from repro.encodings.frequency import fill_selection
from repro.encodings.rle import _RLEBase, check_run_lengths
from repro.encodings.wire import unwrap
from repro.exceptions import BtrBlocksError, CorruptBlockError, FormatError
from repro.observe import get_registry
from repro.query.predicates import (
    Between,
    Equals,
    GreaterThan,
    In,
    IsNull,
    LessThan,
    Predicate,
)
from repro.types import Column, ColumnType, StringArray

_ONE_VALUE = {SchemeId.ONE_VALUE_INT, SchemeId.ONE_VALUE_DOUBLE, SchemeId.ONE_VALUE_STRING}
_DICT = {SchemeId.DICT_INT, SchemeId.DICT_DOUBLE, SchemeId.DICT_STRING}
_RLE = {SchemeId.RLE_INT, SchemeId.RLE_DOUBLE}
_FREQUENCY = {SchemeId.FREQUENCY_INT, SchemeId.FREQUENCY_DOUBLE, SchemeId.FREQUENCY_STRING}
_BITPACKED = {SchemeId.FAST_BP128, SchemeId.FAST_PFOR}
#: Number roots :func:`scan_block` answers as fast as a cache hit would:
#: One Value with one comparison, Uncompressed over the values its payload
#: already is (a hit would add the CRC32). As a node's first byte, its
#: scheme id (``wire.unwrap``).
_SCANNED_ROOTS = frozenset(
    bytes([scheme_id])
    for scheme_id in (SchemeId.ONE_VALUE_INT, SchemeId.ONE_VALUE_DOUBLE,
                      SchemeId.UNCOMPRESSED_INT, SchemeId.UNCOMPRESSED_DOUBLE)
)

#: Sentinel results of code-space compilation: the predicate matches no /
#: every dictionary entry, so no code ever needs materialising.
_NONE_MATCH = "none"
_ALL_MATCH = "all"
_NO_ROWS = np.empty(0, dtype=np.int64)


def scan_block(
    blob: bytes,
    ctype: ColumnType,
    predicate: Predicate,
    nulls: RoaringBitmap | None = None,
    limits: "DecodeLimits | None" = None,
    values: bool = False,
):
    """Evaluate a predicate over one compressed block, returning a row mask;
    with ``values``, ``(mask, values at its hit rows)`` from what the route
    decoded (``None`` under :class:`IsNull` or if it decoded none of them).
    ``limits`` bind its declared count and every nested decode. ``blob`` is
    parsed as it is: no checksum is verified here, that is the caller's job.
    Malformed bytes fail typed, as a decode of them would: scheme code runs
    under the decoder's error typing, and the mask (and the values) are held
    to the declared count."""
    ctx = make_context(limits=limits)
    scheme, count, _ = _open_node(blob, ctype, ctx)
    registry = get_registry()
    registry.incr_many([("query.cdomain.blocks", 1), ("query.cdomain.rows", count)])
    if isinstance(predicate, IsNull):
        mask = np.zeros(count, dtype=bool) if nulls is None else nulls.to_mask(count)
        return (mask, None) if values else mask
    mask, hit_values = _run_scheme(
        scheme, _scan_node, blob, ctype, predicate, ctx, values, True
    )
    if np.shape(mask) != (count,):
        raise FormatError(
            f"block declared {count} values but {scheme.name} scanned {np.size(mask)}"
        )
    if hit_values is not None and len(hit_values) != np.count_nonzero(mask):
        raise FormatError(f"{scheme.name} decoded {len(hit_values)} values for its hits")
    if nulls is not None and len(nulls):
        null_mask = nulls.to_mask(count)
        if hit_values is not None:
            hit_values = _kept(hit_values, ~null_mask[mask])
        mask &= ~null_mask
    return (mask, hit_values) if values else mask


def _kept(values, keep: np.ndarray):
    """``values`` where ``keep`` is set, in order."""
    if isinstance(values, StringArray):
        return strutil.gather(values, np.flatnonzero(keep))
    return np.compress(keep, values)


def _evaluated(values, predicate: Predicate, want: bool, block_level: bool):
    """The decode-then-evaluate route: ``(mask, hit values if wanted)``.
    Handing on hits from a whole block's decode counts as a full decode."""
    mask = np.asarray(predicate.evaluate(values), dtype=bool)
    if not want:
        return mask, None
    if block_level and mask.any():
        get_registry().incr("query.cdomain.filtered.full_decodes")
    return mask, _kept(values, mask)


def _scan_node(
    blob: bytes, ctype: ColumnType, predicate: Predicate, ctx: DecompressionContext,
    want: bool = False, block_level: bool = False,
):
    """Recursive compressed-domain evaluation: ``(block-length mask, values
    at its hits)``; the values are ``None`` unless ``want``ed, and when the
    route decoded none of them. ``block_level``: ``blob`` is a block's root."""
    scheme_id, count, payload = unwrap(blob)
    if scheme_id in _ONE_VALUE:
        return _scan_one_value(scheme_id, payload, count, ctype, predicate, ctx, want)
    if scheme_id in _DICT:
        return _scan_dictionary(scheme_id, payload, count, ctype, predicate, ctx, want)
    if scheme_id in _RLE:
        return _scan_rle(payload, count, ctype, predicate, ctx, want)
    if scheme_id in _FREQUENCY:
        return _scan_frequency(scheme_id, payload, count, ctype, predicate, ctx, want)
    if scheme_id in _BITPACKED:
        return _scan_bitpacked(scheme_id, payload, count, predicate, ctx, want, block_level)
    return _evaluated(ctx.decompress_child(blob, ctype), predicate, want, block_level)


# -- leaf fast paths -----------------------------------------------------------


def _scan_one_value(
    scheme_id: int, payload: bytes, count: int, ctype: ColumnType, predicate: Predicate,
    ctx: DecompressionContext, want: bool,
):
    """One comparison decides the block; its hit values are a fill."""
    scheme = get_scheme(scheme_id)
    value = scheme._parse(payload)
    scalar = value if ctype is ColumnType.STRING else value[0].item()
    mask = np.full(count, predicate.evaluate_scalar(scalar), dtype=bool)
    if not want:
        return mask, None
    return mask, scheme.decompress(payload, count, ctx, positions=np.flatnonzero(mask))


def _scan_rle(
    payload: bytes, count: int, ctype: ColumnType, predicate: Predicate,
    ctx: DecompressionContext, want: bool,
):
    """Evaluate on the run values (recursively), replicate per run length;
    the hit runs' values repeat by the same lengths."""
    run_count, values_blob, lengths_blob = _RLEBase._parse(payload)
    run_mask, run_hits = _scan_node(values_blob, ctype, predicate, ctx, want)
    if len(run_mask) != run_count:
        raise CorruptBlockError("RLE run arrays do not match the run count")
    # A uniform run verdict needs no lengths: every row inherits it. This is
    # the common case for selective predicates (most blocks have no matching
    # run) and skips the lengths child entirely -- unless the hit values are
    # handed on, which a materialising decode would repeat by them anyway.
    if not run_mask.any():
        return np.zeros(count, dtype=bool), run_hits
    if run_hits is None and run_mask.all():
        return np.ones(count, dtype=bool), None
    run_lengths = check_run_lengths(
        ctx.decompress_child(lengths_blob, ColumnType.INTEGER), run_count, count
    )
    if run_hits is not None:
        run_hits = np.repeat(run_hits, run_lengths[run_mask])
    return np.repeat(run_mask, run_lengths), run_hits


def _scan_frequency(
    scheme_id: int, payload: bytes, count: int, ctype: ColumnType, predicate: Predicate,
    ctx: DecompressionContext, want: bool,
):
    """One comparison for the top value, recursion on the exceptions; hit
    values are the top value plus the exceptions' hit values."""
    top, bitmap, exc_blob = get_scheme(scheme_id)._parse(payload, count)
    top_mask = bitmap.to_mask(count)
    out = np.empty(count, dtype=bool)
    out[top_mask] = predicate.evaluate_scalar(top if ctype is ColumnType.STRING else top[0])
    exceptions, exception_hits = _scan_node(exc_blob, ctype, predicate, ctx, want)
    if len(exceptions) != count - int(top_mask.sum()):
        raise CorruptBlockError("frequency exceptions do not fill the rows the bitmap leaves")
    out[~top_mask] = exceptions
    if exception_hits is None:
        return out, None
    return out, fill_selection(top, top_mask[out], exception_hits)


# -- code-space predicate compilation (dictionary blocks) ----------------------


def _compile_sorted_int(pool: np.ndarray, predicate: Predicate):
    """Binary-search compilation against a sorted int pool, or None.

    Numeric dictionary pools for int32 are value-sorted and unique
    (``np.unique``), so Eq/In/range constants translate to code ids /
    contiguous code ranges in O(log n) without touching the pool mask.
    (Double pools are sorted by *bit pattern*, not numeric order, so they
    take the pool-mask route instead.)
    """
    n = int(pool.size)
    if isinstance(predicate, Equals):
        if isinstance(predicate.value, (bytes, str)):
            return None
        i = int(np.searchsorted(pool, predicate.value))
        if i < n and pool[i] == predicate.value:
            return Equals(i)
        return _NONE_MATCH
    if isinstance(predicate, Between):
        if isinstance(predicate.low, (bytes, str)):
            return None
        lo = int(np.searchsorted(pool, predicate.low, side="left"))
        hi = int(np.searchsorted(pool, predicate.high, side="right")) - 1
        if lo > hi:
            return _NONE_MATCH
        if lo == 0 and hi == n - 1:
            return _ALL_MATCH
        return Between(lo, hi)
    if isinstance(predicate, GreaterThan):
        if isinstance(predicate.value, (bytes, str)):
            return None
        side = "left" if predicate.inclusive else "right"
        lo = int(np.searchsorted(pool, predicate.value, side=side))
        if lo >= n:
            return _NONE_MATCH
        if lo == 0:
            return _ALL_MATCH
        return Between(lo, n - 1)
    if isinstance(predicate, LessThan):
        if isinstance(predicate.value, (bytes, str)):
            return None
        side = "right" if predicate.inclusive else "left"
        hi = int(np.searchsorted(pool, predicate.value, side=side)) - 1
        if hi < 0:
            return _NONE_MATCH
        if hi == n - 1:
            return _ALL_MATCH
        return Between(0, hi)
    if isinstance(predicate, In):
        if any(isinstance(v, (bytes, str)) for v in predicate.values):
            return None
        ids = np.searchsorted(pool, np.asarray(predicate.values))
        ids = np.unique(ids[(ids < n)])
        present = ids[np.isin(pool[ids], np.asarray(predicate.values))]
        if present.size == 0:
            return _NONE_MATCH
        if present.size == n:
            return _ALL_MATCH
        return In([int(i) for i in present])
    return None


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


def _scan_dictionary(
    scheme_id: int, payload: bytes, count: int, ctype: ColumnType,
    predicate: Predicate, ctx: DecompressionContext, want: bool,
):
    """Code-space evaluation; hit values are the pool at the hit codes."""
    registry = get_registry()
    if ctype is ColumnType.STRING:
        pool, codes_blob = read_string_dict(payload, ctx)
    else:
        pool, codes_blob = read_numeric_dict(payload)
    compiled = _compile_sorted_int(pool, predicate) if scheme_id == SchemeId.DICT_INT else None
    if compiled is None:
        dict_matches = np.asarray(predicate.evaluate(pool), dtype=bool)
        compiled = _compile_pool_mask(dict_matches)
    if compiled == _NONE_MATCH:
        registry.incr("query.cdomain.code_compiled")
        return np.zeros(count, dtype=bool), _pool_values(pool, _NO_ROWS) if want else None
    if compiled == _ALL_MATCH:
        # No code was decoded: nothing to hand on.
        registry.incr("query.cdomain.code_compiled")
        return np.ones(count, dtype=bool), None
    if isinstance(compiled, Predicate):
        # The compiled predicate recurses through the code stream, gaining
        # the RLE per-run and bit-packed page-bound kernels on the codes.
        registry.incr("query.cdomain.code_compiled")
        mask, codes = _scan_node(codes_blob, ColumnType.INTEGER, compiled, ctx, want)
        return mask, None if codes is None else _pool_values(pool, codes)
    # Fallback: map the pool mask over the codes (per run when RLE-coded),
    # every code held to the pool first.
    registry.incr("query.cdomain.code_fallbacks")
    code_scheme, code_count, code_payload = unwrap(codes_blob)
    if code_scheme == SchemeId.RLE_INT:
        run_codes, run_lengths = _RLEBase.decode_runs(
            code_payload, code_count, ctx, ColumnType.INTEGER
        )
        run_mask = dict_matches[_checked_codes(run_codes, len(pool))]
        mask = np.repeat(run_mask, run_lengths)
        if not want:
            return mask, None
        return mask, _pool_values(pool, np.repeat(run_codes[run_mask], run_lengths[run_mask]))
    codes = ctx.decompress_child(codes_blob, ColumnType.INTEGER, count=count)
    codes = _checked_codes(codes, len(pool))
    mask = dict_matches[codes]
    return mask, _pool_values(pool, codes[mask]) if want else None


# -- header-derived micro bounds (FOR / bit-packed pages) ----------------------


def _pages_may_match(predicate: Predicate, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised ``may_match_range`` over per-page [lo, hi] intervals.

    ``None`` when the predicate has no vectorised form (the caller then
    treats every page as undecided — always safe).
    """
    if isinstance(predicate, Equals) and not isinstance(predicate.value, (bytes, str)):
        return (lo <= predicate.value) & (predicate.value <= hi)
    if isinstance(predicate, Between) and not isinstance(predicate.low, (bytes, str)):
        return ~((hi < predicate.low) | (lo > predicate.high))
    if isinstance(predicate, GreaterThan) and not isinstance(predicate.value, (bytes, str)):
        return hi >= predicate.value if predicate.inclusive else hi > predicate.value
    if isinstance(predicate, LessThan) and not isinstance(predicate.value, (bytes, str)):
        return lo <= predicate.value if predicate.inclusive else lo < predicate.value
    if isinstance(predicate, In) and not any(
        isinstance(v, (bytes, str)) for v in predicate.values
    ):
        out = np.zeros(lo.shape, dtype=bool)
        for v in predicate.values:
            out |= (lo <= v) & (v <= hi)
        return out
    return None


def _pages_always_match(predicate: Predicate, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised ``always_matches_range`` over per-page intervals."""
    if isinstance(predicate, Between) and not isinstance(predicate.low, (bytes, str)):
        return (predicate.low <= lo) & (hi <= predicate.high)
    if isinstance(predicate, Equals) and not isinstance(predicate.value, (bytes, str)):
        return (lo == hi) & (lo == predicate.value)
    if isinstance(predicate, GreaterThan) and not isinstance(predicate.value, (bytes, str)):
        return lo >= predicate.value if predicate.inclusive else lo > predicate.value
    if isinstance(predicate, LessThan) and not isinstance(predicate.value, (bytes, str)):
        return hi <= predicate.value if predicate.inclusive else hi < predicate.value
    return np.zeros(lo.shape, dtype=bool)


def _page_bounds(scheme, payload: bytes):
    """Per-page conservative [lo, hi] from the FOR headers, or ``None``
    (headers the decode would reject: it then raises them typed).

    The low side is exact (references are page minima); the high side adds
    the packed lane's ``2**width - 1`` span, and for FastPFOR additionally
    the page's largest exception delta. Exceptions clip at ``2**62`` so
    hostile header bytes cannot overflow int64 — clipping only widens.
    """
    try:
        refs, widths, _packed, keys, exc_values = scheme._parse(payload)
        if refs.size == 0 or refs.size != widths.size:
            return None
        lo = refs.astype(np.int64)
        hi = lo + (np.int64(1) << widths.astype(np.int64)) - 1
        if exc_values.size:
            pages = keys // PAGE
            exc_deltas = np.minimum(exc_values, np.uint64(1) << np.uint64(62)).astype(np.int64)
            np.maximum.at(hi, pages, lo[pages] + exc_deltas)
    except Exception:
        return None
    return lo, hi


def _scan_bitpacked(
    scheme_id: int, payload: bytes, count: int, predicate: Predicate,
    ctx: DecompressionContext, want: bool, block_level: bool,
):
    """Bit-packed scan with page-granular reject/accept from headers alone.

    Pages whose conservative interval cannot match are skipped without
    unpacking a word; pages whose interval always matches are accepted the
    same way; only undecided pages are unpacked (and only they), through
    the selection-vector kernel — unless so many are undecided that the
    shared crossover rule prefers one contiguous unpack of the whole node.
    Handing the hit values on unpacks the accepted pages too, in the same
    selection-vector call.
    """
    scheme = get_scheme(scheme_id)
    bounds = _page_bounds(scheme, payload)
    if bounds is not None:
        lo, hi = bounds
        may = _pages_may_match(predicate, lo, hi)
        if may is None:
            may = np.ones(lo.shape, dtype=bool)
        always = _pages_always_match(predicate, lo, hi) & may
        unpacked = np.flatnonzero(may if want else may & ~always)
    if bounds is None or prefers_full_decode(unpacked.size, lo.size):
        # No usable headers, or they decide too few pages to beat one
        # contiguous unpack: every page decodes, none is counted as decided.
        values = scheme.decompress(payload, count, ctx)
        return _evaluated(values, predicate, want, block_level)
    get_registry().incr_many(
        [
            ("query.cdomain.pages", int(lo.size)),
            ("query.cdomain.pages_skipped", int(lo.size - may.sum())),
            ("query.cdomain.pages_accepted", int(always.sum())),
        ]
    )
    mask = np.zeros(lo.size * PAGE, dtype=bool)
    if always.any():
        mask.reshape(-1, PAGE)[always] = True
    hit_values = np.empty(0, dtype=np.int32) if want else None
    if unpacked.size:
        rows = (unpacked[:, None] * PAGE + np.arange(PAGE, dtype=np.int64)).reshape(-1)
        rows = rows[rows < count]
        values = scheme.decompress(payload, count, ctx, positions=rows)
        # (Accepted pages stay accepted whatever their unpacked values say.)
        mask[rows] |= np.asarray(predicate.evaluate(values), dtype=bool)
        if want:
            hit_values = np.compress(mask[rows], values)
    return mask[:count], hit_values


# -- shared block-iteration driver --------------------------------------------


def enumerate_blocks(
    compressed: CompressedColumn,
) -> Iterator[tuple[int, CompressedBlock, int]]:
    """Yield ``(block index, block, column-row offset)`` for every block, in order."""
    offset = 0
    for index, block in enumerate(compressed.blocks):
        yield index, block, offset
        offset += block.count


def block_mask(
    index: int,
    block: CompressedBlock,
    ctype: ColumnType,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    entry=None,
    values: bool = False,
):
    """The one scan operator: ``(row mask, values at its hit rows)`` of
    block ``index`` for ``predicate``; the values only on request.

    A number block that a warm :class:`~repro.core.cache.DecodeCache` serves
    from the column's ``entry`` (``cache.get(cache_key)``) through
    :func:`~repro.core.decompressor.cached_block` — the gate
    ``decompress_column`` and ``read_rows`` use: limits, declared count, the
    CRC32 of the block in hand — is answered over its slice of the cached
    column. Every
    other block, and every block of a string column or under
    :class:`~repro.query.predicates.IsNull`, is evaluated in the compressed
    domain by :func:`scan_block` (string predicates compile into dictionary
    code space there; ``evaluate`` over a ``StringArray`` runs per row, and
    NULLs are answered from the bitmap), as are One Value and Uncompressed
    blocks, which it answers as fast as a hit would. Nothing is inserted into
    the cache. NULL rows never match a value predicate on either route.

    The hit values are what the route decoded anyway (:func:`scan_block`),
    so a materialising reader need not decode the block again; ``None``
    when nothing was handed. A handed block counts as a filtered decode
    (``query.cdomain.filtered.*``, plus ``reused_blocks``).
    """
    nulls = RoaringBitmap.deserialize(block.nulls) if block.nulls else None
    if (
        cache is not None
        and ctype is not ColumnType.STRING
        and not isinstance(predicate, IsNull)
        and block.data[:1] not in _SCANNED_ROOTS
    ):
        served = cached_block(cache, entry, index, block, limits or DEFAULT_DECODE_LIMITS)
        cache.count(served is True, served is False)
        if served:
            cached = entry.span(index, index + 1)
            mask = np.asarray(predicate.evaluate(cached), dtype=bool)
            if nulls is not None and len(nulls):
                mask &= ~nulls.to_mask(block.count)
            return mask, _handed(block, np.compress(mask, cached) if values else None)
    scanned = scan_block(block.data, ctype, predicate, nulls, limits=limits, values=values)
    if not values:
        return scanned, None
    return scanned[0], _handed(block, scanned[1])


def _handed(block: CompressedBlock, hit_values):
    """Count a block whose hit values go on to materialisation."""
    if hit_values is not None and len(hit_values):
        get_registry().incr_many(
            [
                ("query.cdomain.filtered.blocks", 1),
                ("query.cdomain.filtered.rows_selected", len(hit_values)),
                ("query.cdomain.filtered.rows_total", block.count),
                ("query.cdomain.filtered.reused_blocks", 1),
            ]
        )
    return hit_values


def iter_matching_positions(
    block_iter: Iterable[tuple[int, CompressedBlock, int]],
    ctype: ColumnType,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
    values: bool = False,
) -> Iterator[tuple[CompressedBlock, int, np.ndarray, object]]:
    """The shared scan driver: yield ``(block, offset, hit rows, hit values)``
    per block.

    ``block_iter`` yields ``(block index, block, column-row offset)`` —
    callers control which blocks are seen (zone-map pruning on the remote
    path skips some) and what offsets they sit at. Each block's mask comes
    from :func:`block_mask`, which reads the column's entry in ``cache``
    under ``cache_key`` (the key
    :func:`~repro.core.decompressor.decompress_column` filled it under;
    looked up once) and, with ``values``, hands over the values at the hit
    rows (else ``None``). Blocks with no hits are consumed silently; hit rows
    are block-local, sorted and unique, ready for
    :func:`~repro.core.decompressor.decode_block`'s ``positions``; ``limits`` bind each.
    """
    entry = cache.get(cache_key) if cache is not None else None
    for index, block, offset in block_iter:
        mask, hit_values = block_mask(
            index, block, ctype, predicate, limits, cache, entry, values
        )
        hits = np.flatnonzero(mask)
        if hits.size:
            yield block, offset, hits, hit_values


def collect_matches(
    block_iter: Iterable[tuple[int, CompressedBlock, int]],
    ctype: ColumnType,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
    values: bool = False,
) -> "tuple[np.ndarray, tuple | None]":
    """:func:`iter_matching_positions` (same arguments) collected into
    ``(matching rows, handover)``: the rows are one strictly increasing
    ``int64`` array of column positions (blocks arrive in ascending row
    order, so their hits concatenate sorted). The handover is ``(column
    rows, their values)`` over every block that handed its hit values on —
    sorted rows, values in the same order — or ``None`` when no block did."""
    positions, covered, parts = [], [], []
    for _block, offset, hits, hit_values in iter_matching_positions(
        block_iter, ctype, predicate, limits, cache, cache_key, values
    ):
        positions.append(hits + offset)
        if hit_values is not None:
            covered.append(positions[-1])
            parts.append(hit_values)
    if not positions:
        return _NO_ROWS, None
    rows = np.concatenate(positions)
    assert strictly_increasing(rows), "blocks must arrive in ascending row order"
    if not parts:
        return rows, None
    return rows, (np.concatenate(covered), concat_values(parts, ctype))


def scan_column(
    compressed: CompressedColumn,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
) -> RoaringBitmap:
    """Evaluate a predicate over a whole compressed column.

    Returns a Roaring bitmap of matching row positions. Block checksums are
    not verified (:func:`filter_column` does; a ``cache`` hit verifies its
    block): a column read from untrusted bytes goes through
    :func:`~repro.core.file_format.verify_column` first.
    """
    return RoaringBitmap.from_positions(collect_matches(
        enumerate_blocks(compressed), compressed.ctype, predicate, limits, cache, cache_key
    )[0])


def filter_column(
    compressed: CompressedColumn,
    predicate: Predicate,
    on_corrupt: str = "raise",
) -> Column:
    """Materialise only the rows matching the predicate.

    The compressed-domain scan picks the matching rows per block and hands
    over the values it decoded at them (:func:`block_mask`); blocks with no
    hits are skipped entirely. A block whose route decoded none of its hits
    (:class:`~repro.query.predicates.IsNull`, an all-matching code-space
    compile) materialises *only* them through the selection-vector decode —
    dictionaries gather only matching codes, bit-packed pages unpack only
    where hits live — up to the dispatcher's crossover to a plain decode +
    take. No block decodes twice.

    Every block passes the decode's own policy gate first
    (:func:`~repro.core.decompressor._block_is_intact`): the policy is
    validated, a declared count over the limits raises under every policy,
    and a CRC mismatch raises :class:`~repro.exceptions.IntegrityError`
    under ``"raise"`` -- damaged bytes are never parsed -- and drops the
    block's rows under either degrade policy. A block whose payload fails
    to parse (the only damage signal checksum-less v1 blocks give) raises
    its typed error under ``"raise"`` and is dropped the same way under
    either degrade policy.
    """
    ctx = make_context()
    parts = []
    for index, block, _offset in enumerate_blocks(compressed):
        if not _block_is_intact(block, ctx, on_corrupt):
            continue
        try:
            mask, values = block_mask(index, block, compressed.ctype, predicate, values=True)
        except BtrBlocksError:
            if on_corrupt == "raise":
                raise
            continue  # degrade policies drop the block's matches
        if values is None:  # the route decoded none of its hits
            hits = np.flatnonzero(mask)
            if not hits.size:
                continue
            values = decode_block(
                block, compressed.ctype, ctx, positions=hits, on_corrupt=on_corrupt
            )
            if isinstance(values, CorruptBlockResult):
                continue
        parts.append(values)
    return Column(compressed.name, compressed.ctype, concat_values(parts, compressed.ctype))
