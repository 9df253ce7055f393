"""The column assembly string columns went through before their offsets were
rebased into one column array.

``repro.core.decompressor`` now fills every type into a preallocated
column-level target: a number block decodes into its slice, a string block's
own offsets are rebased into the column's offsets by the bytes before it
(``strutil.StringSlots``), and a run of blocks the decode cache serves is
one slice of the cached column. What it replaced -- each string block decoded (or served from a
per-block cache entry as a fresh ``StringArray``, its offsets widened) into a
part, and the parts concatenated by recomputing every row's length and
prefix-summing them again -- lives on here as the reference the new assembly
is held to byte for byte (``test_zero_copy.py``, ``test_strutil.py``) and
timed against
(``benchmarks/bench_perf_regression.py::test_string_assembly_sweep_never_loses``).
The decode cache now holds whole columns; the per-block entries the old
branch read are kept here, private to it, behind the same gate.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.decompressor import (
    _EMPTY_DTYPES,
    CorruptBlockResult,
    _null_block_placeholder,
    _hold_to_row_limit,
    _record_column,
    decode_block,
    make_context,
)
from repro.core.file_format import verify_block
from repro.encodings.base import Values
from repro.observe import get_registry
from repro.types import Column, ColumnType, StringArray


def concat(arrays: "list[StringArray]") -> StringArray:
    """Concatenate several string arrays row-wise (a single one is returned
    as is: it is immutable by :class:`StringArray`'s contract)."""
    if not arrays:
        return StringArray.empty(0)
    if len(arrays) == 1:
        return arrays[0]
    buffers = [a.buffer for a in arrays]
    lengths = np.concatenate([a.lengths() for a in arrays])
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return StringArray(np.concatenate(buffers), offsets)


def assemble_column(compressed, parts: "list[Values | CorruptBlockResult]") -> Column:
    """Reassemble decoded block values (in block order) into a column.

    Rebases per-block NULL positions to column offsets, concatenates the
    value parts, and records the column's decompression counters. An empty
    column keeps its logical dtype (int32 / float64) rather than decaying
    to NumPy's default float64. :class:`CorruptBlockResult` parts (degraded
    damaged blocks) contribute either nothing (``skip``) or an all-NULL run
    of their declared length (``null_block``); later blocks' NULL positions
    are rebased onto the actually-emitted row offsets.
    """
    null_positions: list[np.ndarray] = []
    value_parts: list[Values] = []
    offset = 0
    corrupt_blocks = 0
    corrupt_rows = 0
    checksummed = 0
    for block, part in zip(compressed.blocks, parts):
        if isinstance(part, CorruptBlockResult):
            corrupt_blocks += 1
            corrupt_rows += block.count
            if part.emitted:
                null_positions.append(np.arange(offset, offset + part.emitted, dtype=np.int64))
                value_parts.append(_null_block_placeholder(compressed.ctype, part.emitted))
                offset += part.emitted
            continue
        if block.checksum is not None:
            checksummed += 1
        if block.nulls is not None:
            positions = RoaringBitmap.deserialize(block.nulls).to_array()
            if positions.size:
                null_positions.append(positions.astype(np.int64) + offset)
        value_parts.append(part)
        offset += block.count
    _record_column(compressed, offset, compressed.nbytes, checksummed, corrupt_blocks, corrupt_rows)
    nulls = None
    if null_positions:
        nulls = RoaringBitmap.from_positions(np.concatenate(null_positions))
    if compressed.ctype is ColumnType.STRING:
        data: Values = concat([p for p in value_parts if isinstance(p, StringArray)])
    else:
        arrays = [np.asarray(p) for p in value_parts if len(p)]
        if arrays:
            data = np.concatenate(arrays)
        else:
            data = np.empty(0, dtype=_EMPTY_DTYPES[compressed.ctype])
    return Column(compressed.name, compressed.ctype, data, nulls)


def decode_column(compressed, on_corrupt: str = "raise", vectorized: bool = True) -> Column:
    """Per-block decode + the concatenating assembly above."""
    ctx = make_context(vectorized)
    parts = [
        decode_block(block, compressed.ctype, ctx, on_corrupt=on_corrupt)
        for block in compressed.blocks
    ]
    return assemble_column(compressed, parts)


#: The decode cache's per-block entries from before it held whole columns,
#: per cache: ``(cache key, block index, CRC32) -> (declared count, (buffer,
#: narrow offsets))``, read-only copies.
_BLOCK_ENTRIES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _frozen_copy(values: StringArray) -> "tuple[np.ndarray, np.ndarray]":
    narrow = np.min_scalar_type(values.buffer.size)
    stored = (values.buffer.copy(), values.offsets.astype(narrow))
    for array in stored:
        array.setflags(write=False)
    return stored


def decode_string_column(compressed, cache=None, cache_key=None, admit_strings: bool = True) -> Column:
    """``decompress_column``'s old string branch over the old per-block cache
    entries: behind the same gate (limits, declared count, the CRC32 of the
    block in hand), a served entry widened into a fresh ``StringArray``, a
    miss decoded to a part (and inserted), each counted per block in
    ``cache``; the parts handed to the concatenating :func:`assemble_column`."""
    ctx = make_context(True)
    entries = _BLOCK_ENTRIES.setdefault(cache, {}) if cache is not None else None
    with get_registry().timer("decompress"):
        parts: list = []
        for index, block in enumerate(compressed.blocks):
            _hold_to_row_limit(block, ctx.limits)
            key = None if entries is None or block.checksum is None else (cache_key, index, block.checksum)
            entry = entries.get(key) if key is not None else None
            if entry is not None and entry[0] == block.count and verify_block(block):
                cache.count(1, 0)
                parts.append(StringArray(*entry[1]))
                continue
            part = decode_block(block, compressed.ctype, ctx)
            if key is not None:
                cache.count(0, 1)
                if admit_strings:
                    entries[key] = (block.count, _frozen_copy(part))
            parts.append(part)
    return assemble_column(compressed, parts)
