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

from repro.bitmap import strictly_increasing
from repro.encodings.base import (
    CompressionContext,
    SchemeId,
    register_scheme,
)
from repro.encodings.bitpack import (
    PAGE,
    FastBP128,
    bit_lengths,
    check_widths,
    pack_pages,
    paginate,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError

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


def exception_keys(
    page_count: int, exc_per_page: np.ndarray, exc_slots: np.ndarray, exc_values: np.ndarray
) -> np.ndarray:
    """Row key ``page * 128 + slot`` of every exception, in stored order.

    The one geometry check every decode route shares: counts and slots are
    the writer's u8 (so never negative), the per-page counts cover every
    page and add up to the stored exceptions, every slot lies inside its
    page and the keys strictly increase. The full decode's scatter and the
    row route's key search then find the same exceptions — or both raise
    the same error.
    """
    if exc_per_page.dtype != np.uint8 or exc_slots.dtype != np.uint8:
        raise CorruptBlockError(
            f"FastPFOR exception counts / slots are {exc_per_page.dtype} / "
            f"{exc_slots.dtype}, not uint8"
        )
    if (
        exc_per_page.size != page_count
        or int(exc_per_page.sum()) != exc_values.size
        or exc_slots.size != exc_values.size
    ):
        raise CorruptBlockError(
            f"FastPFOR declares {int(exc_per_page.sum())} exceptions over "
            f"{exc_per_page.size} of {page_count} pages, stores "
            f"{exc_slots.size} slots and {exc_values.size} values"
        )
    keys = np.repeat(np.arange(page_count, dtype=np.int64) * PAGE, exc_per_page) + exc_slots
    if keys.size and (int(exc_slots.max()) >= PAGE or not strictly_increasing(keys)):
        raise CorruptBlockError("FastPFOR exception slots leave their page or are out of order")
    return keys


class FastPFOR(FastBP128):
    """Patched per-page bit-packing for int32 data.

    Shares FastBP128's page geometry — and therefore its decode entry
    points and its row kernel; only the payload differs, adding exceptions
    that every route finds by row key.
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

    def _parse(self, payload: bytes):
        reader = Reader(payload)
        refs = reader.array()
        widths = reader.array()
        exc_per_page = reader.array()
        exc_slots = reader.array()
        exc_values = reader.array()
        packed = reader.blob()
        check_widths(widths)
        keys = exception_keys(widths.size, exc_per_page, exc_slots, exc_values)
        return refs, widths, packed, keys, exc_values


FASTPFOR_SCHEME = register_scheme(FastPFOR())
