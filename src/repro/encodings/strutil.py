"""Shared helpers for string columns (distinct coding, run detection)."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import CorruptBlockError
from repro.types import StringArray

#: ``KEEP_WORDS[n]``: the keep-mask of an ``n``-byte string inside its 8-byte
#: word -- eight bool bytes, the first ``n`` set, read as one ``uint64``.
KEEP_WORDS = (np.arange(8) < np.arange(9)[:, None]).view("<u8").ravel()
#: :func:`gather`'s selection constants, fitted to the shape tables in
#: docs/PERFORMANCE.md ("The string read path") -- measurements, not knobs:
#: the rows that amortise the word kernel's pool table, and what one block
#: copy costs in index-kernel output bytes per distinct row length / per row.
_WORD_MIN_ROWS = 8192
_BLOCK_CALL_BYTES, _BLOCK_ROW_BYTES = 16384, 20


def untrusted_strings(buffer: np.ndarray, offsets: np.ndarray) -> StringArray:
    """Wrap wire-deserialized ``(buffer, offsets)`` after structural checks.

    Offsets in a decoded payload are attacker-controlled. Non-monotonic
    offsets yield negative or wildly oversized per-string lengths, which
    :func:`gather` then multiplies into its output allocation — a few
    flipped bytes requesting petabytes. Reject the shape before anything
    derives an allocation from it; endpoint validation (first offset 0,
    last == buffer size) lives in :class:`StringArray` itself.
    """
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or offsets.size == 0:
        raise CorruptBlockError("string offsets are missing")
    if not np.issubdtype(offsets.dtype, np.integer):
        raise CorruptBlockError(f"string offsets have non-integer dtype {offsets.dtype}")
    offsets = offsets.astype(np.int64, copy=False)
    if offsets.size > 1 and np.any(np.diff(offsets) < 0):
        raise CorruptBlockError("string offsets are not monotonically non-decreasing")
    return StringArray(buffer, offsets)


def _distinct_memo(strings: StringArray) -> tuple[np.ndarray, StringArray, list[bytes]]:
    """``(codes, uniques, the uniques as Python rows)``, memoised on ``strings``."""
    if strings._distinct is None:
        rows = strings.to_pylist()
        uniques = list(dict.fromkeys(rows))  # first-appearance order
        index = dict(zip(uniques, range(len(uniques))))
        codes = np.fromiter(map(index.__getitem__, rows), dtype=np.int32, count=len(rows))
        codes.flags.writeable = False
        strings._distinct = (codes, StringArray.from_pylist(uniques), uniques)
    return strings._distinct


def encode_distinct(strings: StringArray) -> tuple[np.ndarray, StringArray]:
    """Map strings to dense codes in first-appearance order.

    Returns ``(codes, uniques)`` where ``uniques.take(codes)`` reproduces the
    input. This is the shared building block for dictionary encoding,
    distinct counting, run detection and block statistics on string data, so
    the result is memoised on ``strings`` (``codes`` is read-only): a block
    is split into rows and coded once however many layers ask.
    """
    return _distinct_memo(strings)[:2]


def distinct_rows(strings: StringArray) -> list[bytes]:
    """:func:`encode_distinct`'s ``uniques`` as the Python rows they were built
    from (same memo, so the pool is never split again; do not mutate)."""
    return _distinct_memo(strings)[2]


def pool_words(buffer: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The 8 bytes at each of ``starts`` as one ``uint64``, read over a
    zero-padded copy (nothing past ``buffer`` is touched). A row's word ends
    in its neighbours' bytes; its keep-mask drops them, nothing is zeroed."""
    padded = np.zeros(buffer.size + 8, dtype=np.uint8)
    padded[: buffer.size] = buffer
    return sliding_window_view(padded, 8)[starts].view("<u8").ravel()


def compact_words(words: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The bytes of ``words`` their :data:`KEEP_WORDS` masks ``keep``, in one
    ``compress`` (a boolean fancy index costs 2-3x as much)."""
    return words.view(np.uint8).compress(keep.view(np.bool_))


def _copy_rows(buffer, starts, lengths, offsets, distinct, counts) -> np.ndarray:
    """Block-copy kernel: rows grouped by length (16-bit keys radix-sort), each
    group one 2-D window copy from the pool into the output. Every write lands
    inside its own row, so NumPy's unspecified assignment order cannot matter."""
    out = np.empty(int(offsets[-1]), dtype=np.uint8)
    order = np.argsort(lengths.astype(np.uint16), kind="stable")
    lo = 0
    for length, hi in zip(distinct.tolist(), np.cumsum(counts).tolist()):
        rows, lo = order[lo:hi], hi
        if length:
            sliding_window_view(out, length, writeable=True)[offsets.take(rows)] = (
                sliding_window_view(buffer, length)[starts.take(rows)]
            )
    return out


def gather(pool: StringArray, indices: np.ndarray) -> StringArray:
    """Vectorised string gather: ``pool`` rows selected by ``indices``.

    The NumPy analog of the paper's vectorised dictionary decode (Listing 3,
    bottom) and the one gather under every string scheme. Indices past the
    pool raise ``IndexError``; negative ones wrap like any NumPy index, so
    decoders range-check untrusted codes first. The kernel follows from the
    request's shape (docs/PERFORMANCE.md, "The string read path"): many rows
    of <= 8 bytes move as ``uint64`` takes plus one compaction, long rows in
    few distinct lengths as block copies, the rest (small selections, skewed
    pools) through one source index per output byte. A request of fewer rows
    than the pool has never does anything per pool entry.
    """
    indices = np.asarray(indices, dtype=np.int64)
    rows = indices.size
    starts = pool.offsets.take(indices)
    if len(pool) <= rows:
        lengths = pool.lengths().take(indices)
    else:
        lengths = pool.offsets.take(indices + 1) - starts
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    # The word kernel builds its table over the whole pool: only over one no
    # larger than the request, in entries and in bytes.
    if total <= 8 * rows and rows >= max(_WORD_MIN_ROWS, len(pool), pool.buffer.size // 8):
        longest = int(lengths.max())
        if longest <= 8:
            words = pool_words(pool.buffer, pool.offsets[:-1]).take(indices)
            if total == longest * rows:  # uniform rows: nothing to compact
                kept = words.view(np.uint8).reshape(rows, 8)[:, :longest].reshape(-1)
            else:
                kept = compact_words(words, KEEP_WORDS.take(lengths))
            return StringArray(kept, offsets)
    spare = total - _BLOCK_ROW_BYTES * rows
    if spare >= _BLOCK_CALL_BYTES and int(lengths.max()) < 1 << 16:
        counts = np.bincount(lengths)
        distinct = np.flatnonzero(counts)
        if spare >= _BLOCK_CALL_BYTES * distinct.size:
            copied = _copy_rows(pool.buffer, starts, lengths, offsets, distinct, counts[distinct])
            return StringArray(copied, offsets)
    # Within one string the distance from an output byte to its source byte
    # is constant: expand the per-string delta per byte, add the byte index.
    # int32 indices halve the index traffic while both buffers allow them.
    index_type = np.int32 if max(total, pool.buffer.size) < 2**31 else np.int64
    byte_src = np.arange(total, dtype=index_type)
    byte_src += np.repeat((starts - offsets[:-1]).astype(index_type), lengths)
    return StringArray(pool.buffer.take(byte_src), offsets)


class StringSlots:
    """A string column's preallocated assembly target, the analog of a
    number column's one array.

    ``offsets`` holds every row the blocks declare, and :attr:`ends` (row
    ``i``'s end byte, ``offsets[1:]``) is what a number column's array
    would be: fixed per-block slices, filled in whatever order and state
    the blocks arrive. A block's own offsets are already a prefix sum, so
    :meth:`fill` rebases them by the bytes before it in one add -- no
    lengths, no second prefix sum -- whatever integer dtype they are in. The
    blocks' buffers are joined once, by :meth:`finish`. A column that is one
    block adopts that block's arrays as they are, a decoded block's and a
    cache entry's alike (``int64`` offsets are not widened).
    """

    __slots__ = ("rows", "offsets", "buffers", "nbytes")

    def __init__(self, rows: int) -> None:
        self.rows = rows
        self.offsets: "np.ndarray | None" = None  # allocated by the first slice
        self.buffers: list[np.ndarray] = []
        self.nbytes = 0

    def _allocated(self) -> np.ndarray:
        if self.offsets is None:
            self.offsets = np.empty(self.rows + 1, dtype=np.int64)
            self.offsets[0] = 0
        return self.offsets

    @property
    def ends(self) -> np.ndarray:
        return self._allocated()[1:]

    def fill(self, row: int, buffer: np.ndarray, offsets: np.ndarray) -> None:
        """One block's ``(buffer, offsets)`` into the rows from ``row``."""
        count = offsets.size - 1
        if count == self.rows and self.offsets is None:
            # The whole column in one block: its offsets are the column's,
            # shared as they are (immutable by StringArray's contract) or
            # widened once.
            self.offsets = offsets.astype(np.int64, copy=False)
        elif not self.nbytes:
            # Nothing to rebase by: a plain widening copy (an add that casts
            # is a buffered ufunc, 2-3x slower on narrow offsets).
            self.ends[row : row + count] = offsets[1:]
        else:
            np.add(offsets[1:], self.nbytes, out=self.ends[row : row + count], dtype=np.int64)
        if buffer.size:
            self.buffers.append(buffer)
            self.nbytes += buffer.size

    def fill_empty(self, row: int, count: int) -> None:
        """``count`` empty strings from ``row`` (a NULL placeholder)."""
        if count:
            self.ends[row : row + count] = self.nbytes

    def finish(self, rows: int) -> StringArray:
        """The first ``rows`` rows (all of them unless holes were compacted)."""
        offsets = self._allocated()
        if rows != self.rows:
            offsets = offsets[: rows + 1].copy()
        if len(self.buffers) == 1:
            return StringArray(self.buffers[0], offsets)
        if not self.buffers:
            return StringArray(np.empty(0, dtype=np.uint8), offsets)
        return StringArray(np.concatenate(self.buffers), offsets)


def concat(arrays: "list[StringArray]") -> StringArray:
    """Concatenate several string arrays row-wise (a single one is returned
    as is: it is immutable by :class:`StringArray`'s contract)."""
    if len(arrays) == 1:
        return arrays[0]
    slots = StringSlots(sum(map(len, arrays)))
    row = 0
    for array in arrays:
        slots.fill(row, array.buffer, array.offsets)
        row += len(array)
    return slots.finish(row)


def run_boundaries(codes: np.ndarray) -> np.ndarray:
    """Indices where a new run starts (index 0 always included)."""
    if codes.size == 0:
        return np.empty(0, dtype=np.int64)
    changes = np.nonzero(np.diff(codes) != 0)[0] + 1
    return np.concatenate(([0], changes))


def average_run_length(codes: np.ndarray) -> float:
    """Mean run length of equal consecutive values."""
    if codes.size == 0:
        return 0.0
    return codes.size / run_boundaries(codes).size
