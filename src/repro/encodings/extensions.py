"""Optional extension schemes beyond the paper's default pool.

The paper frames BtrBlocks as "a generic, extensible framework for cascading
compression that draws from a pool of arbitrary encoding schemes" (Section
3.2) and describes how the pool was grown empirically. This module provides
two extra integer schemes drawn from the related work the paper discusses,
*not* registered by default — call :func:`register_extension_schemes` to add
them to the pool:

* :class:`TruncationInt` — HyPer Data Blocks' *Truncation* [36]: frame of
  reference fixed to the block minimum, one shared byte width (1/2/4),
  keeping values byte-addressable (no per-page structure).
* :class:`DeltaZigZagInt` — delta coding with zigzag sign folding, the
  classic encoding for sorted/clustered keys (Parquet's DELTA_BINARY_PACKED
  family [13]); deltas cascade into the integer pool.

Both compose with the existing selector, cascade driver and file format
without modification — which is the point of the exercise.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    CompressionContext,
    Scheme,
    deliver,
    get_scheme,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import UnknownSchemeError
from repro.types import ColumnType

TRUNCATION_INT_ID = 30
DELTA_ZIGZAG_INT_ID = 31


class TruncationInt(Scheme):
    """Data-Blocks-style truncation: block-min FOR + byte-aligned storage."""

    scheme_id = TRUNCATION_INT_ID
    name = "truncation"
    ctype = ColumnType.INTEGER

    def is_viable(self, stats, config) -> bool:
        if stats.count == 0 or stats.min_value is None:
            return False
        return (stats.max_value - stats.min_value) < 2**16

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        values = np.asarray(values, dtype=np.int64)
        base = int(values.min())
        deltas = values - base
        spread = int(deltas.max()) if deltas.size else 0
        dtype = np.uint8 if spread < 2**8 else np.uint16
        writer = Writer()
        writer.i64(base)
        writer.array(deltas.astype(dtype))
        return writer.getvalue()

    def decompress(self, payload, count, ctx, positions=None, out=None):
        reader = Reader(payload)
        base = reader.i64()
        deltas = reader.array()
        return deliver((deltas.astype(np.int64) + base).astype(np.int32), count, positions, out)


class DeltaZigZagInt(Scheme):
    """Delta coding with zigzag-folded differences, cascading into the pool."""

    scheme_id = DELTA_ZIGZAG_INT_ID
    name = "delta_zigzag"
    ctype = ColumnType.INTEGER

    def is_viable(self, stats, config) -> bool:
        # Worth a try on wide-range data; pointless on single-value blocks.
        return stats.count > 1 and stats.distinct_count > 1

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        values = np.asarray(values, dtype=np.int64)
        deltas = np.diff(values)
        zigzag = ((deltas << 1) ^ (deltas >> 63)).astype(np.int64)
        # Keep the cascade in int32 space; larger zigzag deltas disqualify.
        clipped = np.clip(zigzag, 0, 2**31 - 1)
        writer = Writer()
        writer.i64(int(values[0]))
        writer.u8(1 if np.array_equal(clipped, zigzag) else 0)
        if np.array_equal(clipped, zigzag):
            writer.blob(ctx.compress_child(zigzag.astype(np.int32), ColumnType.INTEGER))
        else:
            # Fallback: store raw deltas (rare: jumps near the int32 edge).
            writer.array(deltas)
        return writer.getvalue()

    def decompress(self, payload, count, ctx, positions=None, out=None):
        reader = Reader(payload)
        first = reader.i64()
        cascaded = reader.u8()
        if cascaded:
            zigzag = ctx.decompress_child(reader.blob(), ColumnType.INTEGER).astype(np.int64)
            deltas = (zigzag >> 1) ^ -(zigzag & 1)
        else:
            deltas = reader.array()
        values = np.empty(count, dtype=np.int64)
        values[0] = first
        np.cumsum(deltas, out=values[1:])
        values[1:] += first
        return deliver(values.astype(np.int32), count, positions, out)


def register_extension_schemes() -> list[Scheme]:
    """Add the extension schemes to the global pool (idempotent)."""
    registered = []
    for scheme_type in (TruncationInt, DeltaZigZagInt):
        try:
            registered.append(get_scheme(scheme_type.scheme_id))
        except UnknownSchemeError:
            registered.append(register_scheme(scheme_type()))
    return registered
