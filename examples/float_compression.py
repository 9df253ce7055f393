#!/usr/bin/env python3
"""Floating-point compression shoot-out (paper Section 6.5 in miniature).

Compresses three kinds of double columns with Pseudodecimal Encoding and the
four published baselines (FPC, Gorilla, Chimp, Chimp128):

* clean 2-decimal prices        -> PDE's home turf
* GPS-style coordinates         -> PDE disabled territory, XOR schemes win
* run-heavy small measurements  -> Gorilla/RLE territory

Run:  python examples/float_compression.py
(REPRO_BENCH_ROWS=<n> shrinks the columns; the baselines code ~40 us per value.)
"""

import os

import numpy as np

from repro.core.compressor import compress_block
from repro.core.decompressor import decompress_block
from repro.datagen import distributions as dist
from repro.floats import chimp, fpc, gorilla
from repro.types import ColumnType


def pde_block_ratio(values: np.ndarray) -> float:
    """Ratio of the full BtrBlocks cascade (which may pick PDE or better)."""
    blob = compress_block(values, ColumnType.DOUBLE)
    restored = decompress_block(blob, ColumnType.DOUBLE)
    assert np.array_equal(values.view(np.uint64), restored.view(np.uint64))
    return values.nbytes / len(blob)


def main() -> None:
    rng = np.random.default_rng(11)
    n = int(os.environ.get("REPRO_BENCH_ROWS", 64_000))
    workloads = {
        "prices (2 decimals)": dist.clean_price_doubles(n, rng, hi=500.0, unique_fraction=0.5),
        "coordinates": dist.coordinates(n, rng),
        "small values in runs": dist.repeated_decimals(n, rng, distinct=8, decimals=0, hi=10, avg_run=300.0),
        "gaussian noise": rng.standard_normal(n),
    }

    header = f"{'workload':22s} {'FPC':>7s} {'Gorilla':>8s} {'Chimp':>7s} {'Chimp128':>9s} {'BtrBlocks':>10s}"
    print(header)
    print("-" * len(header))
    for name, values in workloads.items():
        ratios = [
            values.nbytes / len(fpc.compress(values)),
            values.nbytes / len(gorilla.compress(values)),
            values.nbytes / len(chimp.compress(values)),
            values.nbytes / len(chimp.compress128(values)),
            pde_block_ratio(values),
        ]
        print(f"{name:22s} " + " ".join(f"{r:>7.2f}x" for r in ratios))

    print("\nLossless check: every codec reproduces exact bit patterns, including")
    print("NaN payloads, infinities and negative zero:")
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5.5e-42] * 100)
    for label, compress, decompress in [
        ("fpc", fpc.compress, fpc.decompress),
        ("gorilla", gorilla.compress, gorilla.decompress),
        ("chimp", chimp.compress, chimp.decompress),
        ("chimp128", chimp.compress128, chimp.decompress128),
    ]:
        out = decompress(compress(special), len(special))
        assert np.array_equal(special.view(np.uint64), out.view(np.uint64))
        print(f"  {label:9s} ✓")
    out = decompress_block(compress_block(special, ColumnType.DOUBLE), ColumnType.DOUBLE)
    assert np.array_equal(special.view(np.uint64), out.view(np.uint64))
    print(f"  {'btrblocks':9s} ✓")


if __name__ == "__main__":
    main()
