"""FastBP128-style bit-packing for integers.

The paper uses SIMD-FastBP128 (Lemire & Boytsov [42]): values are processed
in 128-value pages, each packed with the smallest bit width that fits the
page. This implementation adds a per-page frame of reference (the page
minimum) so negative and large-offset data packs well, and vectorises both
directions by *grouping pages of equal bit width* and packing/unpacking each
group in one NumPy pass — the structural analog of the SIMD kernels.

Little-bitorder packing makes a width-``w`` lane periodic: every
``c = w // gcd(w, 8)`` bytes hold ``m = 8 // gcd(w, 8)`` values. Decoding
picks one of two kernels per width (wire bytes are identical for both):

* byte-aligned widths (0/8/16/32/64) *are* little-endian fixed-width
  integer arrays, so they unpack as a plain ``view``/``astype``;
* every other width reads unaligned ``uint64`` words at stride ``c``: one
  word per group when the group fits in 8 bytes (shifts ``j*w``), else one
  word per in-group value at byte ``(j*w) >> 3`` (shift ``(j*w) & 7``) —
  then one shift and one mask over the whole lane.

Mixed-width pages decode one width at a time, each width's pages copied out
of the payload as whole rows. Pages hold int32 deltas, so a declared width
above 32 is corrupt and both schemes reject it before unpacking.

A selection decodes through the *row* kernel (:func:`gather_rows`): each
selected value is read at its bit address — one unaligned ``uint64`` word,
a shift and a mask per row — so a selection costs the rows it returns, and
the dispatcher's crossover counts rows for these schemes as for any other.
Past that crossover the full decode runs.

The width-grouped packing helpers are shared with FastPFOR.
"""

from __future__ import annotations

import math

import numpy as np

from repro.encodings.base import (
    CompressionContext,
    DecompressionContext,
    Scheme,
    SchemeId,
    deliver,
    locate_sorted,
    prefers_full_decode,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
from repro.observe import get_registry
from repro.types import ColumnType

PAGE = 128

#: Byte-aligned widths whose packed lane is a little-endian integer array.
_ALIGNED_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Bit length of each non-negative integer (0 -> 0)."""
    values = np.asarray(values, dtype=np.uint64)
    out = np.zeros(values.shape, dtype=np.int64)
    nz = values > 0
    out[nz] = np.floor(np.log2(values[nz].astype(np.float64))).astype(np.int64) + 1
    return out


def paginate(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split int values into (pages, refs): pages are deltas to the page min.

    ``pages`` has shape (P, 128) with dtype uint64; the tail page is padded
    with the page minimum (packs to zero bits).
    """
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    page_count = -(-n // PAGE) if n else 0
    padded = np.empty(page_count * PAGE, dtype=np.int64)
    padded[:n] = values
    if page_count and n % PAGE:
        padded[n:] = values[-1] if n else 0
    pages = padded.reshape(page_count, PAGE)
    refs = pages.min(axis=1) if page_count else np.empty(0, dtype=np.int64)
    deltas = (pages - refs[:, None]).astype(np.uint64)
    return deltas, refs


def _lane_geometry(w: int) -> tuple[int, int]:
    """(bytes, values) per repeating group of a width-``w`` packed lane.

    Little-bitorder packing makes a lane periodic: every ``lcm(w, 8)`` bits
    the byte phase repeats, so ``c = w // gcd(w, 8)`` bytes hold exactly
    ``m = 8 // gcd(w, 8)`` values at shifts ``0, w, 2w, ...`` — and 128 is
    divisible by every possible ``m`` (1, 2, 4 or 8).
    """
    g = math.gcd(w, 8)
    return w // g, 8 // g


def _lane_mask(w: int) -> np.uint64:
    if w >= 64:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return (np.uint64(1) << np.uint64(w)) - np.uint64(1)


#: Widest page either scheme writes: pages hold int32 deltas.
MAX_WIDTH = 32
_WIDTH_BYTES = bytes(range(MAX_WIDTH + 1))

#: Per-width constants reused across calls; widths come from a u8 wire
#: field, so the cache is bounded at 256 entries.
_LANE_CONSTS: dict[int, tuple] = {}


def _lane_consts(w: int) -> tuple:
    """``(c, m, mask, columns, shifts)``: value ``j`` of a group is the word at
    in-group byte ``columns[j]`` shifted right by ``shifts[j]``, masked.

    A group of at most 8 bytes is one word (``columns`` reads byte 0 only,
    ``shifts`` are ``j*w``); a wider one reads a word per value at byte
    ``(j*w) >> 3``, shifted by ``(j*w) & 7``. That is exact while shift plus
    width fit one word: every width but 59, 61, 62 and 63, none of which a
    page may declare (:func:`check_widths`).
    """
    consts = _LANE_CONSTS.get(w)
    if consts is None:
        c, m = _lane_geometry(w)
        bits = np.arange(m, dtype=np.int64) * w
        if c <= 8:
            columns, shifts = slice(0, 1), bits
        else:
            columns, shifts = bits >> 3, bits & 7
        consts = (c, m, _lane_mask(w), columns, shifts.astype(np.uint64))
        _LANE_CONSTS[w] = consts
    return consts


def _encode_lane(group: np.ndarray, w: int) -> np.ndarray:
    """Pack ``k`` same-width pages (k, 128) uint64 into (k, 16*w) bytes."""
    k = group.shape[0]
    dtype = _ALIGNED_DTYPES.get(w)
    if dtype is not None:
        return group.astype(dtype).view(np.uint8).reshape(k, 16 * w)
    c, m, _mask, _columns, group_shifts = _lane_consts(w)
    if c <= 8:
        words = np.bitwise_or.reduce(group.reshape(-1, m) << group_shifts, axis=1)
        return np.ascontiguousarray(words[:, None].view(np.uint8)[:, :c]).reshape(
            k, 16 * w
        )
    shifts = np.arange(w, dtype=np.uint64)
    bits = ((group[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(k, PAGE * w), axis=1, bitorder="little")


def _decode_lane(grp: np.ndarray, w: int) -> np.ndarray:
    """Unpack ``k`` same-width pages' (k, 16*w) packed bytes to (k, 128)."""
    k = grp.shape[0]
    dtype = _ALIGNED_DTYPES.get(w)
    if dtype is not None:
        return grp.reshape(-1).view(dtype).reshape(k, PAGE).astype(np.uint64)
    c, m, mask, columns, shifts = _lane_consts(w)
    # Every word read below holds its values' bits whole; the mask drops
    # the neighbours' bits, so padding left uninitialised is safe.
    flat = grp.reshape(-1)
    if c <= 8 and flat.size < 2048:
        # A small one-word lane scatters each group into an 8-byte slot:
        # cheaper than the strided view's setup at this size.
        buf = np.empty((flat.size // c, 8), dtype=np.uint8)
        buf[:, :c] = flat.reshape(-1, c)
        return ((buf.view(np.uint64) >> shifts) & mask).reshape(k, PAGE)
    # One contiguous copy with a word of slack, then unaligned uint64 reads:
    # word (g, b) starts at byte g*c + b of the lane.
    padded = np.empty(flat.size + 8, dtype=np.uint8)
    padded[: flat.size] = flat
    words = np.ndarray((flat.size // c, c), np.uint64, buffer=padded.data, strides=(c, 1))
    return ((words[:, columns] >> shifts) & mask).reshape(k, PAGE)


def _uniform(widths: np.ndarray) -> bool:
    """True when every page shares one bit width (the common case).

    Compared as raw bytes: ~5x cheaper than ``(widths == widths[0]).all()``
    for the small width arrays on the decode hot path.
    """
    raw = widths.tobytes()
    item = widths.dtype.itemsize
    return raw == raw[:item] * widths.size


def pack_pages(deltas: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack (P, 128) uint64 deltas with per-page widths into one byte string.

    Page *i* occupies ``16 * widths[i]`` bytes, stored in page order. Pages
    are processed grouped by width so each group is one vectorised pass; a
    single shared width (the common case) skips the scatter entirely.
    """
    page_count = deltas.shape[0]
    if page_count == 0:
        return b""
    if page_count == 1 or _uniform(widths):
        w = int(widths[0])
        if w == 0:
            return b""
        return _encode_lane(np.ascontiguousarray(deltas, dtype=np.uint64), w).tobytes()
    widths = widths.astype(np.int64, copy=False)
    unique = np.unique(widths)
    sizes = 16 * widths
    offsets = np.zeros(page_count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    for width in unique:
        w = int(width)
        if w == 0:
            continue
        rows = np.nonzero(widths == width)[0]
        dest = offsets[rows][:, None] + np.arange(16 * w, dtype=np.int64)
        out[dest] = _encode_lane(deltas[rows], w)
    return out.tobytes()


def _page_offsets(widths: np.ndarray) -> np.ndarray:
    """Byte offset of every page in the packed payload, plus its end."""
    offsets = np.zeros(widths.size + 1, dtype=np.int64)
    np.cumsum(16 * widths, out=offsets[1:])
    return offsets


def _unpack_rows(raw: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """(P, 128) deltas of the pages of ``widths`` packed at byte ``starts``."""
    out = np.zeros((widths.size, PAGE), dtype=np.uint64)
    for width in np.unique(widths):
        w = int(width)
        if w == 0:
            continue
        rows = np.nonzero(widths == width)[0]
        span = 16 * w
        # Row r of this view is the ``span`` bytes from byte r: indexing it
        # by the pages' starts copies each page as one row, bounds-checked.
        lanes = np.ndarray((raw.size - span + 1, span), np.uint8, buffer=raw, strides=(1, 1))
        out[rows] = _decode_lane(lanes[starts[rows]], w)
    return out


def unpack_pages(payload: bytes, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_pages`; returns (P, 128) uint64 deltas."""
    page_count = widths.size
    if page_count == 0:
        return np.zeros((0, PAGE), dtype=np.uint64)
    raw = np.frombuffer(payload, dtype=np.uint8)
    if page_count == 1 or _uniform(widths):
        w = int(widths[0])
        if w == 0:
            return np.zeros((page_count, PAGE), dtype=np.uint64)
        return _decode_lane(raw[: page_count * 16 * w].reshape(page_count, 16 * w), w)
    widths = widths.astype(np.int64, copy=False)
    return _unpack_rows(raw, _page_offsets(widths)[:-1], widths)


#: Mask of a width-``w`` field, by width (the row kernel's mixed-width case).
_FIELD_MASKS = (np.uint64(1) << np.arange(MAX_WIDTH + 1, dtype=np.uint64)) - np.uint64(1)


def gather_rows(payload: bytes, widths: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The uint64 deltas at sorted ``rows`` of :func:`pack_pages` output,
    each read at its bit address.

    Value ``j`` of page ``p`` is the ``widths[p]``-bit field at bit
    ``8 * offset[p] + j * widths[p]`` (``row * w`` when every page shares
    width ``w``; a byte-aligned shared width is a plain integer array). A
    width is at most 32 and a field starts at most 7 bits into its byte, so
    one unaligned ``uint64`` read, a shift and a mask recover it; a field in
    the payload's last 7 bytes reads the word that ends at the final byte
    instead, its shift grown to match.
    """
    raw = np.frombuffer(payload, dtype=np.uint8)
    if _uniform(widths):
        w = int(widths[0])
        end = widths.size * 16 * w
        dtype = _ALIGNED_DTYPES.get(w)
        if dtype is not None and end <= raw.size:
            return raw[:end].view(dtype)[rows].astype(np.uint64)
        bits, mask = rows * w, _FIELD_MASKS[w]
    else:
        offsets = _page_offsets(widths.astype(np.int64))
        end = int(offsets[-1])
        pages = rows >> 7
        page_widths = widths[pages]
        bits = (offsets[pages] << 3) + (rows & (PAGE - 1)) * page_widths
        mask = _FIELD_MASKS[page_widths]
    if end > raw.size:
        raise CorruptBlockError(f"bit-packed payload holds {raw.size} bytes, pages declare {end}")
    if raw.size < 8:  # every width is 0: no field has a bit
        return np.zeros(rows.size, dtype=np.uint64)
    words = np.ndarray((raw.size - 7,), np.uint64, buffer=raw, strides=(1,))
    at = bits >> 3
    if int(at[-1]) <= raw.size - 8:
        shifts = (bits & 7).view(np.uint64)
    else:
        at = np.minimum(at, raw.size - 8)
        shifts = (bits - (at << 3)).view(np.uint64)
    return (words[at] >> shifts) & mask


def check_widths(widths: np.ndarray) -> None:
    """Hold declared page widths to the format before anything unpacks.

    Widths are a u8 field and pages hold int32 deltas, so no writer emits
    a page wider than :data:`MAX_WIDTH`; a wider one is corrupt bytes, and
    at 59, 61, 62 and 63 bits the lane kernel would decode it wrongly
    rather than fail.
    """
    # Deleting every legal width byte leaves nothing of an honest header:
    # one C call, ~5x cheaper than a NumPy max on a cascade's one-page nodes.
    if widths.dtype != np.uint8 or widths.tobytes().translate(None, _WIDTH_BYTES):
        raise CorruptBlockError(
            f"bit-packed page widths must be u8 values <= {MAX_WIDTH}"
        )


def check_selected_pages(last_page: int, widths: np.ndarray, refs: np.ndarray) -> None:
    """Hold a selection (sorted, non-empty) to the page headers.

    The page refs must describe the same pages as the widths, and the last
    selected page must exist: corrupt geometry is a typed error here, never
    an out-of-bounds gather.
    """
    if refs.size != widths.size or widths.size <= last_page:
        raise CorruptBlockError(
            f"page headers describe {refs.size} refs for {widths.size} pages, "
            f"page {last_page} selected"
        )


def unpack_pages_scalar(payload: bytes, widths: np.ndarray) -> np.ndarray:
    """Pure-Python per-value unpacking (Section 6.8 scalar ablation)."""
    out = np.zeros((widths.size, PAGE), dtype=np.uint64)
    bit_pos = 0
    for p, width in enumerate(widths.tolist()):
        for i in range(PAGE):
            value = 0
            for b in range(width):
                byte = payload[bit_pos >> 3]
                value |= ((byte >> (bit_pos & 7)) & 1) << b
                bit_pos += 1
            out[p, i] = value
        # Pages are byte-aligned (128 * width bits is always whole bytes).
    return out


_NO_EXCEPTIONS = np.empty(0, dtype=np.int64)


class FastBP128(Scheme):
    """Per-page frame-of-reference + bit-packing for int32 data."""

    scheme_id = SchemeId.FAST_BP128
    name = "fastbp128"
    ctype = ColumnType.INTEGER

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        deltas, refs = paginate(values)
        widths = bit_lengths(deltas.max(axis=1)) if deltas.size else np.empty(0, dtype=np.int64)
        writer = Writer()
        writer.array(refs.astype(np.int32))
        writer.array(widths.astype(np.uint8))
        writer.blob(pack_pages(deltas, widths))
        return writer.getvalue()

    def _parse(self, payload: bytes):
        """``(refs, widths, packed, exception keys, exception values)``, the
        widths checked; FastBP128 pages have no exceptions."""
        reader = Reader(payload)
        refs = reader.array()
        widths = reader.array()
        packed = reader.blob()
        check_widths(widths)
        return refs, widths, packed, _NO_EXCEPTIONS, _NO_EXCEPTIONS

    def _decode_pages(self, payload: bytes, ctx: DecompressionContext) -> np.ndarray:
        """All pages decoded, as a (P, 128) uint64 array."""
        refs, widths, packed, keys, exc_values = self._parse(payload)
        if ctx.vectorized:
            deltas = unpack_pages(packed, widths)
            if keys.size:
                deltas.reshape(-1)[keys] = exc_values
        else:
            deltas = unpack_pages_scalar(packed, widths)
            for key, value in zip(keys.tolist(), exc_values.tolist()):
                deltas[key // PAGE, key % PAGE] = value
        # uint64 addition wraps mod 2^64 and the final int32 cast is modular
        # too, so adding the (two's-complement) refs in place is bit-identical
        # to widening every delta to int64 first — without the extra pass.
        # The refs are cast up front, one entry per page: a cast inside the
        # broadcast add is buffered and costs ~5x the add itself.
        np.add(deltas, refs.astype(np.uint64)[:, None], out=deltas)
        return deltas

    def _decode_rows(self, payload: bytes, rows: np.ndarray) -> np.ndarray:
        """The uint64 values at sorted ``rows``, each gathered at its bit
        address (:func:`gather_rows`) and patched by key; the same modular
        add as :meth:`_decode_pages`, so bit-identical."""
        refs, widths, packed, keys, exc_values = self._parse(payload)
        check_selected_pages(int(rows[-1]) // PAGE, widths, refs)
        deltas = gather_rows(packed, widths, rows)
        if keys.size:
            at, patched = locate_sorted(keys, rows)
            deltas[patched] = exc_values[at[patched]]
        # (refs cast before the gather: the wire array may sit unaligned.)
        deltas += refs.astype(np.uint64)[rows >> 7]
        return deltas

    def decompress(self, payload, count, ctx, positions=None, out=None):
        if positions is not None:
            if positions.size == 0:
                return np.empty(0, dtype=np.int32)
            return self._decode_rows(payload, positions).astype(np.int32)
        values = self._decode_pages(payload, ctx).reshape(-1)[:count]
        if values.size < count:
            raise CorruptBlockError(f"bit-packed pages hold {values.size} values, {count} declared")
        # (``out`` takes the modular uint64 -> int32 cast straight from the pages.)
        return deliver(values if out is not None else values.astype(np.int32), count, None, out)

    def scan(self, payload, count, ctx, predicate, want, block_level=False):
        """Page-granular reject / accept from the FOR headers alone.

        Each page's values lie in a conservative ``[lo, hi]``: the low side
        is exact (references are page minima), the high side adds the packed
        lane's ``2**width - 1`` span and, for FastPFOR, the page's largest
        exception delta (clipped at ``2**62`` so hostile header bytes cannot
        overflow int64 -- clipping only widens). The predicate's own interval
        tests over those arrays skip the pages that cannot match and accept
        the pages that always do, without unpacking a word; only undecided
        pages are unpacked, through the row kernel -- unless so many are
        undecided that the shared crossover prefers one contiguous unpack of
        the whole node. Handing the hit values on unpacks the accepted pages
        too, in the same call.
        """
        refs, widths, _packed, keys, exc_values = self._parse(payload)
        if refs.size == 0 or refs.size != widths.size:  # the decode raises what it must
            return super().scan(payload, count, ctx, predicate, want, block_level)
        lo = refs.astype(np.int64)
        hi = lo + (np.int64(1) << widths.astype(np.int64)) - 1
        if keys.size:
            pages = keys // PAGE
            exc_deltas = np.minimum(exc_values, np.uint64(1) << np.uint64(62)).astype(np.int64)
            np.maximum.at(hi, pages, lo[pages] + exc_deltas)
        may = predicate.may_match_range(lo, hi)
        if not isinstance(may, np.ndarray):  # one answer for every page
            may = np.full(lo.shape, bool(may))
        always = may & predicate.always_matches_range(lo, hi)
        unpacked = np.flatnonzero(may if want else may & ~always)
        if prefers_full_decode(unpacked.size, lo.size):
            # The headers decide too few pages to beat one contiguous unpack:
            # every page decodes, none is counted as decided.
            return super().scan(payload, count, ctx, predicate, want, block_level)
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
            values = self.decompress(payload, count, ctx, positions=rows)
            # (Accepted pages stay accepted whatever their unpacked values say.)
            mask[rows] |= np.asarray(predicate.evaluate(values), dtype=bool)
            if want:
                hit_values = np.compress(mask[rows], values)
        return mask[:count], hit_values


FASTBP128_SCHEME = register_scheme(FastBP128())
