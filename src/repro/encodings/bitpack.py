"""FastBP128-style bit-packing for integers.

The paper uses SIMD-FastBP128 (Lemire & Boytsov [42]): values are processed
in 128-value pages, each packed with the smallest bit width that fits the
page. This implementation adds a per-page frame of reference (the page
minimum) so negative and large-offset data packs well, and vectorises both
directions by *grouping pages of equal bit width* and packing/unpacking each
group in one NumPy pass — the structural analog of the SIMD kernels.

Both directions decode a width-``w`` lane through one of three kernels,
picked per width (wire bytes are identical for all of them):

* byte-aligned widths (0/8/16/32/64) *are* little-endian fixed-width
  integer arrays under little-bitorder packing, so they pack and unpack as
  a plain ``view``/``astype`` — no bit manipulation at all;
* other widths with a repeating group of at most 8 bytes
  (``w // gcd(w, 8) <= 8``, e.g. 6, 10, 12) decode each group through one
  zero-padded ``uint64`` word with a shift/mask per in-group value;
* wide odd widths (9, 11, ...) fall back to an 8-byte window gather per
  value (``shift + width < 64`` holds for every width the packer emits).

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
    register_scheme,
    sorted_unique_rank,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
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


#: Per-width constants (shift vectors, gather windows) reused across calls;
#: widths come from a u8 wire field, so the cache is bounded at 256 entries.
_LANE_CONSTS: dict[int, tuple] = {}


def _lane_consts(w: int) -> tuple:
    consts = _LANE_CONSTS.get(w)
    if consts is None:
        c, m = _lane_geometry(w)
        group_shifts = np.arange(m, dtype=np.uint64) * np.uint64(w)
        bit_starts = np.arange(PAGE, dtype=np.int64) * w
        window = (bit_starts >> 3)[:, None] + np.arange(8, dtype=np.int64)[None, :]
        window_shifts = (bit_starts & 7).astype(np.uint64)
        consts = (c, m, _lane_mask(w), group_shifts, window, window_shifts)
        _LANE_CONSTS[w] = consts
    return consts


def _encode_lane(group: np.ndarray, w: int) -> np.ndarray:
    """Pack ``k`` same-width pages (k, 128) uint64 into (k, 16*w) bytes."""
    k = group.shape[0]
    dtype = _ALIGNED_DTYPES.get(w)
    if dtype is not None:
        return group.astype(dtype).view(np.uint8).reshape(k, 16 * w)
    c, m, _mask, group_shifts, _window, _wshifts = _lane_consts(w)
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
    c, m, mask, group_shifts, window, window_shifts = _lane_consts(w)
    if c <= 8:
        # Value j of a group occupies bits [j*w, j*w + w) with
        # (m-1)*w + w == c*8, so the shift+mask below can never read a bit
        # past the group's own c bytes — padding left uninitialised is safe.
        flat = grp.reshape(-1)
        if flat.size >= 2048:
            # One contiguous copy + unaligned strided uint64 reads beats the
            # (N, 8) scatter below once the lane is big enough to amortise
            # the strided-view setup.
            padded = np.empty(flat.size + 8, dtype=np.uint8)
            padded[: flat.size] = flat
            words = np.ndarray(
                (flat.size // c,), np.uint64, buffer=padded.data, strides=(c,)
            )
            return ((words[:, None] >> group_shifts[None, :]) & mask).reshape(k, PAGE)
        buf = np.empty((k * PAGE // m, 8), dtype=np.uint8)
        buf[:, :c] = flat.reshape(-1, c)
        return ((buf.view(np.uint64) >> group_shifts[None, :]) & mask).reshape(k, PAGE)
    buf = np.zeros((k, 16 * w + 8), dtype=np.uint8)
    buf[:, : 16 * w] = grp
    words = buf[:, window].reshape(-1).view(np.uint64).reshape(k, PAGE)
    return (words >> window_shifts[None, :]) & mask


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
    unique = np.unique(widths)
    sizes = 16 * widths
    offsets = np.zeros(page_count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.zeros((page_count, PAGE), dtype=np.uint64)
    for width in unique:
        w = int(width)
        if w == 0:
            continue
        rows = np.nonzero(widths == width)[0]
        src = offsets[rows][:, None] + np.arange(16 * w, dtype=np.int64)
        out[rows] = _decode_lane(raw[src], w)
    return out


def unpack_pages_subset(payload: bytes, widths: np.ndarray, page_ids: np.ndarray) -> np.ndarray:
    """Unpack only the pages in ``page_ids`` (sorted unique) from
    :func:`pack_pages` output; returns ``(len(page_ids), 128)`` uint64 deltas.

    Decode cost scales with the number of *selected* pages, not the block's
    page count — the selection-vector analog of the full unpack.
    """
    widths = widths.astype(np.int64, copy=False)
    page_count = widths.size
    if page_ids.size == 0:
        return np.zeros((0, PAGE), dtype=np.uint64)
    raw = np.frombuffer(payload, dtype=np.uint8)
    offsets = np.zeros(page_count + 1, dtype=np.int64)
    np.cumsum(16 * widths, out=offsets[1:])
    if int(offsets[-1]) > raw.size:
        raise CorruptBlockError(
            f"bit-packed payload holds {raw.size} bytes, pages declare {int(offsets[-1])}"
        )
    first, last = int(page_ids[0]), int(page_ids[-1])
    if last - first + 1 == page_ids.size:
        # A contiguous page range (any clustered selection) is a payload of
        # its own: unpack it at full speed instead of gathering page by page.
        return unpack_pages(raw[offsets[first] : offsets[last + 1]], widths[first : last + 1])
    out = np.zeros((page_ids.size, PAGE), dtype=np.uint64)
    sel_widths = widths[page_ids]
    for width in np.unique(sel_widths):
        w = int(width)
        if w == 0:
            continue
        rows = np.nonzero(sel_widths == width)[0]
        src = offsets[page_ids[rows]][:, None] + np.arange(16 * w, dtype=np.int64)
        out[rows] = _decode_lane(raw[src], w)
    return out


def check_selected_pages(page_ids: np.ndarray, widths: np.ndarray, *per_page: np.ndarray) -> None:
    """Hold a page selection (sorted, non-empty) to the page headers.

    Every per-page header array must describe the same pages, and the last
    selected page must exist: corrupt geometry is a typed error here, never
    an out-of-bounds gather.
    """
    if any(a.size != widths.size for a in per_page) or widths.size <= int(page_ids[-1]):
        raise CorruptBlockError(
            f"page headers describe {[a.size for a in per_page]} entries for "
            f"{widths.size} pages, page {int(page_ids[-1])} selected"
        )


def page_header_bounds(refs: np.ndarray, widths: np.ndarray) -> "tuple[int, int]":
    """Conservative (min, max) of FOR/bit-packed data from page headers alone.

    Page *i* holds values in ``[refs[i], refs[i] + 2**widths[i] - 1]``; the
    hull over pages bounds the block. Exact on the low side (references are
    page minima), conservative on the high side (the width covers the page's
    max delta but other values may sit lower). Shifts are clipped at 62 so a
    hostile width byte cannot overflow int64 — clipping only widens the
    interval, which stays valid for both reject and accept decisions.
    """
    refs64 = refs.astype(np.int64)
    spans = (np.int64(1) << np.minimum(widths.astype(np.int64), 62)) - 1
    return int(refs64.min()), int((refs64 + spans).max())


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


class FastBP128(Scheme):
    """Per-page frame-of-reference + bit-packing for int32 data."""

    scheme_id = SchemeId.FAST_BP128
    name = "fastbp128"
    ctype = ColumnType.INTEGER
    selection_unit = PAGE

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

    def _decode_pages(
        self, payload: bytes, ctx: DecompressionContext, page_ids: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Decoded (P, 128) pages: all of them, or only ``page_ids`` (sorted)."""
        reader = Reader(payload)
        refs = reader.array()
        widths = reader.array()
        packed = reader.blob()
        if page_ids is not None:
            check_selected_pages(page_ids, widths, refs)
            deltas = unpack_pages_subset(packed, widths, page_ids)
            refs = refs[page_ids]
        elif ctx.vectorized:
            deltas = unpack_pages(packed, widths)
        else:
            deltas = unpack_pages_scalar(packed, widths)
        # uint64 addition wraps mod 2^64 and the final int32 cast is modular
        # too, so adding the (two's-complement) refs in place is bit-identical
        # to widening every delta to int64 first — without the extra pass.
        # ``casting="unsafe"`` applies the same modular int32 -> uint64 cast
        # as ``refs.astype(np.uint64)`` without materialising the temporary.
        np.add(deltas, refs[:, None], out=deltas, casting="unsafe")
        return deltas

    def decompress(self, payload: bytes, count: int, ctx: DecompressionContext) -> np.ndarray:
        values = self._decode_pages(payload, ctx)
        return values.reshape(-1)[:count].astype(np.int32)

    def decompress_into(
        self, payload: bytes, count: int, ctx: DecompressionContext, out: np.ndarray
    ) -> None:
        values = self._decode_pages(payload, ctx).reshape(-1)
        if values.size < count:
            raise CorruptBlockError(
                f"bit-packed pages hold {values.size} values, {count} declared"
            )
        np.copyto(out, values[:count], casting="unsafe")

    def header_bounds(
        self, payload: bytes, count: int, ctx: DecompressionContext
    ) -> "tuple[int, int] | None":
        try:
            reader = Reader(payload)
            refs = reader.array()
            widths = reader.array()
        except Exception:
            return None
        if refs.size == 0 or refs.size != widths.size:
            return None
        return page_header_bounds(refs, widths)

    def decompress_filtered(
        self, payload: bytes, count: int, ctx: DecompressionContext, positions: np.ndarray
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.empty(0, dtype=np.int32)
        # Only the pages holding selected rows decode — through the same
        # modular add + int32 cast as the full decode, so bit-identical.
        uniq_pages, rows = sorted_unique_rank(positions // PAGE)
        deltas = self._decode_pages(payload, ctx, uniq_pages)
        return deltas[rows, positions % PAGE].astype(np.int32)


FASTBP128_SCHEME = register_scheme(FastBP128())
