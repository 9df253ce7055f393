"""Single-pass statistics over a block of values.

The paper's compression step 1 collects simple statistics (min, max, unique
count, average run length) that step 2 uses to filter non-viable schemes
before any sample compression happens (Section 3, Listing 1 ``genStats``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.strutil import average_run_length, encode_distinct
from repro.types import ColumnType, StringArray, Column


@dataclass
class Stats:
    """Block statistics consumed by scheme viability filters."""

    ctype: ColumnType
    count: int
    distinct_count: int
    avg_run_length: float
    null_count: int = 0
    min_value: float | None = None
    max_value: float | None = None
    #: Strings only: total payload bytes and mean string length.
    total_string_bytes: int = 0
    #: Total byte size of the distinct values (strings: sum of unique string
    #: lengths; numerics: distinct_count * item size). Used by Dictionary's
    #: ratio estimator to amortise the pool over the whole block.
    distinct_value_bytes: int = 0
    #: Doubles only: fraction of values Pseudodecimal cannot encode (measured
    #: lazily on the sample by the selector; -1 = unknown).
    pde_exception_fraction: float = -1.0
    #: Share of the selector's sample held by its most frequent value
    #: (measured by Frequency when its unique-fraction test passes; -1 = not).
    sample_top_share: float = -1.0

    @property
    def unique_fraction(self) -> float:
        """Distinct values as a fraction of all values."""
        return self.distinct_count / self.count if self.count else 0.0

    @property
    def avg_string_length(self) -> float:
        return self.total_string_bytes / self.count if self.count else 0.0


def _numeric_stats(ctype: ColumnType, values: np.ndarray, null_count: int) -> Stats:
    count = int(values.size)
    if count == 0:
        return Stats(ctype, 0, 0, 0.0, null_count)
    # Bitwise comparisons for doubles so NaN runs/duplicates collapse.
    keys = values.view(np.uint64) if ctype is ColumnType.DOUBLE else values
    runs = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    # Distinct values are the runs of the sorted keys: one sort, where asking
    # NumPy >= 2.3 for the unique values alone builds a hash set (18-32x slower).
    ordered = np.sort(keys)
    distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    if ctype is ColumnType.DOUBLE:
        finite = values[np.isfinite(values)]
        mn = float(finite.min()) if finite.size else None
        mx = float(finite.max()) if finite.size else None
    else:
        mn, mx = float(values.min()), float(values.max())
    return Stats(
        ctype,
        count,
        distinct,
        count / runs,
        null_count,
        min_value=mn,
        max_value=mx,
        distinct_value_bytes=distinct * values.dtype.itemsize,
    )


def _string_stats(values: StringArray, null_count: int) -> Stats:
    count = len(values)
    if count == 0:
        return Stats(ColumnType.STRING, 0, 0, 0.0, null_count)
    codes, uniques = encode_distinct(values)
    return Stats(
        ColumnType.STRING,
        count,
        len(uniques),
        average_run_length(codes),
        null_count,
        total_string_bytes=int(values.buffer.size),
        distinct_value_bytes=int(uniques.buffer.size) + 4 * len(uniques),
    )


def compute_stats(
    values: "np.ndarray | StringArray",
    ctype: ColumnType,
    null_count: int = 0,
) -> Stats:
    """Compute block statistics for any of the three data kinds."""
    if ctype is ColumnType.STRING:
        assert isinstance(values, StringArray)
        return _string_stats(values, null_count)
    return _numeric_stats(ctype, np.asarray(values), null_count)


def column_stats(column: Column) -> Stats:
    """Statistics for a whole column (mainly for tests and introspection)."""
    nulls = len(column.nulls) if column.nulls is not None else 0
    return compute_stats(column.data, column.ctype, nulls)
