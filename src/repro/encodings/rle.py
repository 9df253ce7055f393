"""Run-Length Encoding with cascading children.

A block becomes two sequences: the run values and the run lengths, each of
which is handed back to the scheme selector for further compression (paper
Listing 1: two recursive ``pickScheme`` calls). Decompression replicates each
run; the vectorised kernel is ``np.repeat`` — the NumPy analog of the AVX2
replication loop in the paper's Listing 3 — with a pure-Python scalar
fallback for the Section 6.8 ablation.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    deliver,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError, FormatError
from repro.types import ColumnType


def split_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an array into (run_values, run_lengths).

    Doubles are compared bitwise so NaN runs collapse correctly.
    """
    if values.size == 0:
        return values[:0], np.empty(0, dtype=np.int32)
    if values.dtype == np.float64:
        keys = values.view(np.uint64)
    else:
        keys = values
    changes = np.nonzero(keys[1:] != keys[:-1])[0] + 1
    starts = np.concatenate(([0], changes))
    ends = np.concatenate((changes, [values.size]))
    return values[starts], (ends - starts).astype(np.int32)


class _RLEBase(Scheme):
    """Shared RLE implementation; subclasses fix the value type."""

    name = "rle"

    def is_viable(self, stats, config) -> bool:
        return stats.count > 0 and stats.avg_run_length >= config.rle_min_avg_run_length

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        run_values, run_lengths = split_runs(np.asarray(values))
        writer = Writer()
        writer.u32(run_values.size)
        writer.blob(ctx.compress_child(run_values, self.ctype))
        writer.blob(ctx.compress_child(run_lengths, ColumnType.INTEGER))
        return writer.getvalue()

    @staticmethod
    def _parse(payload: bytes) -> "tuple[int, bytes, bytes]":
        """``(run count, run values blob, run lengths blob)``."""
        reader = Reader(payload)
        return reader.u32(), reader.blob(), reader.blob()

    @staticmethod
    def _run_lengths(lengths_blob: bytes, run_count: int, count: int, ctx) -> np.ndarray:
        """The run lengths child: ``run_count`` of them, none negative,
        covering exactly the declared ``count`` rows -- checked before
        anything is repeated by them, so a corrupt length surfaces as a typed
        error instead of sizing an allocation."""
        run_lengths = ctx.decompress_child(lengths_blob, ColumnType.INTEGER, count=run_count)
        if run_count and int(run_lengths.min()) < 0:
            raise CorruptBlockError("RLE run lengths are negative")
        total = int(run_lengths.sum(dtype=np.int64))
        if total != count:
            raise FormatError(f"block declared {count} values but rle runs cover {total}")
        return run_lengths

    def decompress(self, payload, count, ctx, positions=None, out=None):
        run_count, values_blob, lengths_blob = self._parse(payload)
        run_values = ctx.decompress_child(values_blob, self.ctype, count=run_count)
        run_lengths = self._run_lengths(lengths_blob, run_count, count, ctx)
        if ctx.vectorized:
            if out is not None and run_values.size == 1 and run_values.dtype == out.dtype:
                # One run -- the OneValue shape RLE often degenerates to --
                # broadcasts with ``fill``, touching each output byte once.
                out.fill(run_values[0])
                return None
            return deliver(np.repeat(run_values, run_lengths), count, positions, out)
        values = np.empty(count, dtype=run_values.dtype)
        pos = 0
        for value, length in zip(run_values.tolist(), run_lengths.tolist()):
            for i in range(length):
                values[pos + i] = value
            pos += length
        return deliver(values, count, positions, out)

    def scan(self, payload, count, ctx, predicate, want, block_level=False):
        """Evaluate the run values (a child held to the run count), then
        repeat each run's verdict, and its hit values, by its length."""
        run_count, values_blob, lengths_blob = self._parse(payload)
        run_mask, run_hits = ctx.scan_child(values_blob, self.ctype, predicate, want, run_count)
        # A uniform run verdict needs no lengths: every row inherits it. This is
        # the common case for selective predicates (most blocks have no matching
        # run) and skips the lengths child entirely -- unless the hit values are
        # handed on, which a materialising decode would repeat by them anyway.
        if not run_mask.any():
            return np.zeros(count, dtype=bool), run_hits
        if run_hits is None and run_mask.all():
            return np.ones(count, dtype=bool), None
        run_lengths = self._run_lengths(lengths_blob, run_count, count, ctx)
        if run_hits is not None:
            run_hits = np.repeat(run_hits, run_lengths[run_mask])
        return np.repeat(run_mask, run_lengths), run_hits

    def children(self, payload, count):
        _run_count, values_blob, lengths_blob = self._parse(payload)
        return [("values", values_blob), ("lengths", lengths_blob)]


class RLEInt(_RLEBase):
    scheme_id = SchemeId.RLE_INT
    ctype = ColumnType.INTEGER


class RLEDouble(_RLEBase):
    scheme_id = SchemeId.RLE_DOUBLE
    ctype = ColumnType.DOUBLE


register_scheme(RLEInt())
register_scheme(RLEDouble())
