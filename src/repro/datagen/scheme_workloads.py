"""One column generator per scheme family.

Each generator takes ``(rows, rng)`` and returns a :class:`~repro.types.Column`
crafted so the selector picks that family: the selective-execution sweep in
``benchmarks/`` times every filtered kernel over them, and
``tests/test_access.py`` holds the same columns to bit-identity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.types import Column


def _w_one_value(rows: int, rng: np.random.Generator) -> Column:
    return Column.ints("v", np.full(rows, 7, dtype=np.int64))


def _w_rle(rows: int, rng: np.random.Generator) -> Column:
    return Column.ints("v", np.repeat(rng.integers(0, 1000, (rows + 19) // 20), 20)[:rows])


def _w_frequency(rows: int, rng: np.random.Generator) -> Column:
    values = np.where(rng.random(rows) < 0.9, 42, rng.integers(0, 10_000, rows))
    return Column.ints("v", values)


def _w_bitpack(rows: int, rng: np.random.Generator) -> Column:
    return Column.ints("v", rng.integers(0, 255, rows))


def _w_fastpfor(rows: int, rng: np.random.Generator) -> Column:
    values = rng.integers(0, 64, rows)
    outliers = rng.random(rows) < 0.02
    values[outliers] = rng.integers(2**20, 2**28, int(outliers.sum()))
    return Column.ints("v", values)


def _w_pseudodecimal(rows: int, rng: np.random.Generator) -> Column:
    return Column.doubles("v", np.round(rng.uniform(0, 10_000, rows), 2))


def _w_dictionary(rows: int, rng: np.random.Generator) -> Column:
    vocab = [f"category-{i:04d}" for i in range(256)]
    return Column.strings("v", [vocab[i] for i in rng.integers(0, len(vocab), rows)])


def _w_fsst(rows: int, rng: np.random.Generator) -> Column:
    hosts = ["example.com", "data-lake.io", "btrblocks.org"]
    return Column.strings(
        "v",
        [
            f"https://{hosts[i % 3]}/api/v2/resource/{int(x):08x}?session={int(y):06d}"
            for i, (x, y) in enumerate(
                zip(rng.integers(0, 2**31, rows), rng.integers(0, 1_000_000, rows))
            )
        ],
    )


SCHEME_WORKLOADS: dict[str, Callable[[int, np.random.Generator], Column]] = {
    "one_value": _w_one_value,
    "rle": _w_rle,
    "frequency": _w_frequency,
    "bitpack": _w_bitpack,
    "fastpfor": _w_fastpfor,
    "pseudodecimal": _w_pseudodecimal,
    "dictionary": _w_dictionary,
    "fsst": _w_fsst,
}
