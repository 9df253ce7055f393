#!/usr/bin/env python3
"""Extending the scheme pool: add a Delta encoding for integers.

The paper describes BtrBlocks as "a generic, extensible framework for
cascading compression that draws from a pool of arbitrary encoding schemes"
(Section 3.2). This example adds a new scheme end to end:

1. implement the ``Scheme`` interface (viability filter + compress +
   decompress, cascading deltas into the integer pool);
2. register it;
3. watch the sampling-based selector pick it for sorted data — with no
   changes to the selector, the cascade driver or the file format.

Run:  python examples/custom_scheme.py
"""

import numpy as np

from repro.core.compressor import compress_block
from repro.core.decompressor import decompress_block
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    deliver,
    get_scheme,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer, unwrap
from repro.types import ColumnType


class DeltaInt(Scheme):
    """Delta encoding: store the first value and cascade the differences.

    Sorted or slowly-drifting sequences turn into tiny deltas that the
    existing FastBP128 / FastPFOR schemes pack into a few bits each.
    """

    scheme_id = 40  # ids 0..18 are taken by the built-in pool
    name = "delta"
    ctype = ColumnType.INTEGER

    def is_viable(self, stats, config) -> bool:
        # Worth trying when values spread widely but neighbours stay close;
        # the sample estimate makes the final call, this only prunes.
        return stats.count > 1 and stats.distinct_count > stats.count // 2

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        values = np.asarray(values, dtype=np.int64)
        deltas = np.diff(values).astype(np.int32)
        writer = Writer()
        writer.i64(int(values[0]))
        writer.blob(ctx.compress_child(deltas, ColumnType.INTEGER))
        return writer.getvalue()

    def decompress(self, payload, count, ctx, positions=None, out=None):
        # One decode for every route: with no selective kernel of its own, a
        # scheme decodes whole and ``deliver`` takes ``positions`` or fills
        # the ``out`` slot. With no ``scan`` rule of its own, it answers
        # predicates by decode-then-evaluate (docs/SCHEMES.md,
        # "Compressed-domain fast paths").
        reader = Reader(payload)
        first = reader.i64()
        deltas = ctx.decompress_child(reader.blob(), ColumnType.INTEGER)
        values = np.empty(count, dtype=np.int64)
        values[0] = first
        np.cumsum(deltas.astype(np.int64), out=values[1:])
        values[1:] += first
        return deliver(values.astype(np.int32), count, positions, out)


def main() -> None:
    register_scheme(DeltaInt())

    rng = np.random.default_rng(3)
    # Sorted event timestamps with small jitter: wide range, tiny deltas.
    timestamps = np.cumsum(rng.integers(1, 20, 64_000)).astype(np.int32) + 1_600_000

    blob = compress_block(timestamps, ColumnType.INTEGER)
    scheme_id, _, _ = unwrap(blob)
    restored = decompress_block(blob, ColumnType.INTEGER)
    assert np.array_equal(restored, timestamps)

    print(f"values:             {timestamps.size:,} sorted int32 timestamps")
    print(f"selector picked:    {get_scheme(scheme_id).name!r} (id {scheme_id})")
    print(f"compression ratio:  {timestamps.nbytes / len(blob):.1f}x")
    print("round trip:         identical ✓")
    if scheme_id == DeltaInt.scheme_id:
        print("\nThe sampling-based selector chose the new scheme on its own —")
        print("no selector or format changes were needed to extend the pool.")


if __name__ == "__main__":
    main()
