"""Random (point) access into compressed columns.

BtrBlocks optimises for scan throughput, not point access (the paper's
Section 7 contrasts this with HyPer Data Blocks, which keeps data
byte-addressable precisely to serve point queries). Still, block-based
storage gives a natural unit of selective decompression: to read a handful
of rows only the blocks containing them are decoded — and within each
block, only the *selected* rows materialise, through the same
selection-vector kernels the filtered scan path uses (dictionaries gather
only their codes, bit-packing unpacks only their pages). One point read
costs one partial block decode, not a full one; a read dense enough that
a partial decode would lose costs exactly a full one. A filter column's rows
come from its filter instead (:func:`~repro.query.executor.block_mask`),
counted under the same ``query.cdomain.filtered.*`` counters.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.bitmap import RoaringBitmap, strictly_increasing
from repro.core.blocks import CompressedColumn
from repro.core.decompressor import (
    _decode_node,
    cached_block,
    concat_values,
    make_context,
)
from repro.encodings.base import locate_sorted, take_values
from repro.observe import get_registry
from repro.types import Column


def read_rows(
    compressed: CompressedColumn,
    row_indices,
    vectorized: bool = True,
    cache=None,
    cache_key=None,
    limits=None,
) -> Column:
    """Materialise the given rows (any order, duplicates allowed).

    Only blocks containing requested rows are touched, each at most once,
    and each decodes only its requested rows; results come back in the
    order requested. A sorted duplicate-free request — what every scan
    hands over — is sliced per block and the partial decodes concatenated
    as they are; anything else is normalised to that form once and pays one
    extra take. Python work is per touched block, never per row, and
    nothing is re-sorted.

    ``limits`` bind every touched block before any is served. With a decode
    ``cache`` and the ``cache_key``
    :func:`~repro.core.decompressor.decompress_column` filled it under, the
    touched blocks pass the scan's own
    :func:`~repro.core.decompressor.cached_block` gate in one call; when all of them pass,
    the request is one take over the cached column, otherwise a served block
    costs one take of its slice and a miss decodes as ever. Nothing is
    inserted — a selective read never fills the cache.

    No checksum is verified here (a cache hit aside): hand over only blocks
    that passed :func:`~repro.core.file_format.verify_block`, or that carry
    no checksum. A damaged payload decodes to wrong rows, not to an error.
    """
    indices = np.asarray(row_indices, dtype=np.int64)
    inverse = None
    if not strictly_increasing(indices):
        indices, inverse = np.unique(indices, return_inverse=True)
    blocks, ctype = compressed.blocks, compressed.ctype
    # Python ints, in the form a cache entry records its ``starts`` in.
    offsets = [0, *accumulate(block.count for block in blocks)]
    if indices.size and (indices[0] < 0 or indices[-1] >= offsets[-1]):
        raise IndexError(f"row index out of range 0..{offsets[-1] - 1}")
    ctx = make_context(vectorized, limits=limits)
    # bounds[b]:bounds[b + 1] is block b's slice of the sorted request.
    bounds = np.searchsorted(indices, offsets)
    touched = np.flatnonzero(bounds[1:] > bounds[:-1]).tolist()
    bounds = bounds.tolist()
    entry = cache.get(cache_key) if cache is not None else None
    served = cached_block(cache, entry, [blocks[b] for b in touched], ctx.limits, touched)
    if cache is not None:
        cache.count(served.count(True), served.count(False))
    # Every touched block served, at the rows the entry holds them at: one take.
    whole = bool(touched) and all(served) and offsets == entry.starts
    parts: list = []
    if whole:
        span = entry.span(touched[0], touched[-1] + 1)
        first = offsets[touched[0]]
        parts.append(take_values(span, indices - first if first else indices))
    null_parts = []
    rows_total = 0
    for block_id, hit in zip(touched, served):
        block = blocks[block_id]
        lo, hi = bounds[block_id], bounds[block_id + 1]
        rows_total += block.count
        if whole and not block.nulls:
            continue
        # (Block 0 starts at row 0: single-block columns skip the rebase.)
        local = indices[lo:hi] - offsets[block_id] if block_id else indices[lo:hi]
        if not hit:
            parts.append(_decode_node(block.data, ctype, ctx, local, block_level=True))
        elif not whole:
            parts.append(take_values(entry.span(block_id, block_id + 1), local))
        if block.nulls:
            # Both sides are sorted: search the block's NULL rows into the
            # selection, O(nulls log selected) with nothing per selected row.
            null_rows = RoaringBitmap.deserialize(block.nulls).to_array()
            at, selected = locate_sorted(local, null_rows)
            null_parts.append(lo + at[selected])
    if touched:
        get_registry().incr_many(
            [
                ("query.cdomain.filtered.blocks", len(touched)),
                ("query.cdomain.filtered.rows_selected", int(indices.size)),
                ("query.cdomain.filtered.rows_total", rows_total),
            ]
        )

    data = concat_values(parts, ctype)
    if inverse is not None:
        data = take_values(data, inverse)
    if not null_parts:
        return Column(compressed.name, ctype, data)
    null_rows = np.concatenate(null_parts)
    if inverse is not None:
        is_null = np.zeros(indices.size, dtype=bool)
        is_null[null_rows] = True
        null_rows = np.flatnonzero(is_null[inverse])
    nulls = RoaringBitmap.from_positions(null_rows) if null_rows.size else None
    return Column(compressed.name, ctype, data, nulls)
