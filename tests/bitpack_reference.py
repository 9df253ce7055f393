"""The bit-unpacking kernels FastBP128 / FastPFOR decoded through before the
strided-word unpack.

``repro.encodings.bitpack`` reads every non-byte-aligned lane as unaligned
``uint64`` words at fixed in-group byte offsets and moves mixed-width pages as
row copies. What it replaced -- an 8-byte-window fancy gather per value for
groups wider than one word, and an ``int64`` index per packed byte for
mixed-width pages -- lives on here, verbatim, as the reference the new kernels
are held to value for value (``test_bitpack.py``) and timed against
(``benchmarks/bench_perf_regression.py::test_unpack_shape_sweep_never_loses``).
"""

from __future__ import annotations

import numpy as np

from repro.encodings.bitpack import (
    _ALIGNED_DTYPES,
    PAGE,
    _lane_geometry,
    _lane_mask,
    _uniform,
)

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
