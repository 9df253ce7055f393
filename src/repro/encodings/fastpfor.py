"""FastPFOR-style patched bit-packing for integers.

Like FastBP128, values are packed in 128-value pages against the page
minimum — but instead of sizing each page for its largest delta, FastPFOR
picks the bit width that minimises *total* cost and stores the outliers that
do not fit ("exceptions") separately as patches (Lemire & Boytsov [42],
following PFOR [61]). This keeps one large outlier from inflating the width
of a whole page.

Cost model per page: ``128 * width`` bits for the packed lane plus
``8 + 64`` bits per exception (a 1-byte page-local position and the full
delta). The width search is vectorised over all pages at once via a per-page
histogram of delta bit lengths.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    CompressionContext,
    DecompressionContext,
    SchemeId,
    register_scheme,
)
from repro.encodings.bitpack import (
    PAGE,
    FastBP128,
    bit_lengths,
    check_selected_pages,
    check_widths,
    pack_pages,
    page_header_bounds,
    paginate,
    unpack_pages,
    unpack_pages_scalar,
    unpack_pages_subset,
)
from repro.encodings.wire import Reader, Writer

_EXCEPTION_COST_BITS = 8 + 64


def choose_widths(deltas: np.ndarray, lens: "np.ndarray | None" = None) -> np.ndarray:
    """Pick the cost-minimising bit width for every page at once.

    Builds a (P, 41) histogram of delta bit lengths (``lens``, measured here
    unless the caller already has them), converts it to "exceptions if
    width=w" counts by a reverse cumulative sum, and takes the argmin of
    ``128*w + exceptions*cost`` per page.
    """
    page_count = deltas.shape[0]
    if page_count == 0:
        return np.empty(0, dtype=np.int64)
    if lens is None:
        lens = bit_lengths(deltas)  # (P, 128), values 0..40 (deltas fit 33 bits)
    max_w = int(lens.max()) if lens.size else 0
    cells = (np.arange(page_count) * (max_w + 1))[:, None] + lens
    hist = np.bincount(cells.reshape(-1), minlength=page_count * (max_w + 1))
    hist = hist.reshape(page_count, max_w + 1)
    # exceeding[p, w] = number of values on page p with bit length > w
    exceeding = hist[:, ::-1].cumsum(axis=1)[:, ::-1]
    exceeding = np.concatenate(
        (exceeding[:, 1:], np.zeros((page_count, 1), dtype=np.int64)), axis=1
    )
    widths = np.arange(max_w + 1, dtype=np.int64)
    costs = PAGE * widths[None, :] + exceeding * _EXCEPTION_COST_BITS
    return np.argmin(costs, axis=1).astype(np.int64)


class FastPFOR(FastBP128):
    """Patched per-page bit-packing for int32 data.

    Shares FastBP128's page geometry — and therefore its decode entry
    points and selection-vector kernel; only the page codec differs.
    """

    scheme_id = SchemeId.FAST_PFOR
    name = "fastpfor"

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        deltas, refs = paginate(values)
        lens = bit_lengths(deltas)
        widths = choose_widths(deltas, lens)
        exc_mask = lens > widths[:, None]
        exc_pages, exc_slots = np.nonzero(exc_mask)
        exc_values = deltas[exc_pages, exc_slots]
        exc_per_page = exc_mask.sum(axis=1).astype(np.uint8)
        # Mask exception lanes down to the page width so they pack cleanly.
        lane_mask = np.where(
            widths >= 64, np.uint64(0xFFFFFFFFFFFFFFFF), (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
        )
        packed_deltas = deltas & lane_mask[:, None]
        writer = Writer()
        writer.array(refs.astype(np.int32))
        writer.array(widths.astype(np.uint8))
        writer.array(exc_per_page)
        writer.array(exc_slots.astype(np.uint8))
        writer.array(exc_values.astype(np.uint64))
        writer.blob(pack_pages(packed_deltas, widths))
        return writer.getvalue()

    def _decode_pages(
        self, payload: bytes, ctx: DecompressionContext, page_ids: "np.ndarray | None" = None
    ) -> np.ndarray:
        reader = Reader(payload)
        refs = reader.array()
        widths = reader.array()
        exc_per_page = reader.array()
        exc_slots = reader.array()
        exc_values = reader.array()
        packed = reader.blob()
        check_widths(widths)
        if page_ids is not None:
            check_selected_pages(page_ids, widths, refs, exc_per_page)
            deltas = unpack_pages_subset(packed, widths, page_ids)
            refs = refs[page_ids]
            if exc_values.size:
                # Row of each page in ``deltas`` (-1: not selected), so only
                # the selected pages' exceptions are patched in.
                page_rows = np.full(widths.size, -1, dtype=np.int64)
                page_rows[page_ids] = np.arange(page_ids.size)
                exc_rows = np.repeat(page_rows, exc_per_page)
                sel = exc_rows >= 0
                deltas[exc_rows[sel], exc_slots[sel]] = exc_values[sel]
        elif ctx.vectorized:
            deltas = unpack_pages(packed, widths)
            if exc_values.size:
                exc_pages = np.repeat(np.arange(widths.size), exc_per_page)
                deltas[exc_pages, exc_slots] = exc_values
        else:
            deltas = unpack_pages_scalar(packed, widths)
            exc_index = 0
            for page, exc_count in enumerate(exc_per_page.tolist()):
                for _ in range(exc_count):
                    deltas[page, exc_slots[exc_index]] = exc_values[exc_index]
                    exc_index += 1
        # In-place modular add; bit-identical to widening to int64 first
        # because the final int32 cast truncates mod 2^32 either way (refs
        # are cast per page, not inside the buffered broadcast add).
        np.add(deltas, refs.astype(np.uint64)[:, None], out=deltas)
        return deltas

    def header_bounds(
        self, payload: bytes, count: int, ctx: DecompressionContext
    ) -> "tuple[int, int] | None":
        try:
            reader = Reader(payload)
            refs = reader.array()
            widths = reader.array()
            exc_per_page = reader.array()
            reader.array()  # exc_slots: positions do not move the hull
            exc_values = reader.array()
        except Exception:
            return None
        if (
            refs.size == 0
            or refs.size != widths.size
            or exc_per_page.size != widths.size
            or int(exc_per_page.sum()) != exc_values.size
        ):
            return None
        lo, hi = page_header_bounds(refs, widths)
        if exc_values.size:
            # Exceptions store the *full* delta, so they can sit above the
            # packed lane's 2**width - 1 ceiling; raise the hull to cover
            # them (clipped like the width spans so hostile values cannot
            # overflow int64 — clipping only widens the interval).
            exc_pages = np.repeat(np.arange(widths.size), exc_per_page)
            exc_deltas = np.minimum(exc_values, np.uint64(1) << np.uint64(62)).astype(
                np.int64
            )
            hi = max(hi, int((refs[exc_pages].astype(np.int64) + exc_deltas).max()))
        return lo, hi


FASTPFOR_SCHEME = register_scheme(FastPFOR())
