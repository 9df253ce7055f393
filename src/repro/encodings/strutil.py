"""Shared helpers for string columns (distinct coding, run detection)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import CorruptBlockError
from repro.types import StringArray


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


def encode_distinct(strings: StringArray) -> tuple[np.ndarray, StringArray]:
    """Map strings to dense codes in first-appearance order.

    Returns ``(codes, uniques)`` where ``uniques.take(codes)`` reproduces the
    input. This is the shared building block for dictionary encoding,
    distinct counting, run detection and block statistics on string data, so
    the result is memoised on ``strings`` (``codes`` is read-only): a block
    is split into rows and coded once however many layers ask.
    """
    if strings._distinct is None:
        rows = strings.to_pylist()
        uniques = list(dict.fromkeys(rows))  # first-appearance order
        index = dict(zip(uniques, range(len(uniques))))
        codes = np.fromiter(map(index.__getitem__, rows), dtype=np.int32, count=len(rows))
        codes.flags.writeable = False
        strings._distinct = (codes, StringArray.from_pylist(uniques))
    return strings._distinct


def gather(pool: StringArray, indices: np.ndarray) -> StringArray:
    """Vectorised string gather: ``pool`` rows selected by ``indices``.

    This is the NumPy analog of the paper's vectorised dictionary decode
    (Listing 3, bottom): output byte positions are mapped to pool byte
    positions in one fancy-indexing pass, so no per-string Python loop runs.
    """
    indices = np.asarray(indices, dtype=np.int64)
    pool_lengths = pool.lengths()
    out_lengths = pool_lengths[indices]
    out_offsets = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(out_lengths, out=out_offsets[1:])
    total = int(out_offsets[-1])
    if total == 0:
        return StringArray(np.empty(0, dtype=np.uint8), out_offsets)
    # For every output byte, the distance between its position and the
    # corresponding source byte is constant within one string; expand that
    # per-string delta to per-byte and add the output byte index.
    src_starts = pool.offsets[indices]
    deltas = src_starts - out_offsets[:-1]
    # int32 indices halve memory traffic; string buffers stay well below 2 GiB.
    if total < 2**31 and int(pool.buffer.size) < 2**31:
        byte_src = np.arange(total, dtype=np.int32)
        byte_src += np.repeat(deltas.astype(np.int32), out_lengths)
    else:  # pragma: no cover - huge-buffer fallback
        byte_src = np.arange(total, dtype=np.int64) + np.repeat(deltas, out_lengths)
    return StringArray(pool.buffer[byte_src], out_offsets)


def concat(arrays: "list[StringArray]") -> StringArray:
    """Concatenate several string arrays row-wise."""
    if not arrays:
        return StringArray.empty(0)
    buffers = [a.buffer for a in arrays]
    lengths = np.concatenate([a.lengths() for a in arrays])
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return StringArray(np.concatenate(buffers), offsets)


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
