"""Tests for the block statistics pass."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import column_stats, compute_stats
from repro.types import Column, ColumnType, StringArray


class TestIntegerStats:
    def test_basic(self):
        stats = compute_stats(np.array([1, 1, 2, 2, 2, 3], dtype=np.int32), ColumnType.INTEGER)
        assert stats.count == 6
        assert stats.distinct_count == 3
        assert stats.min_value == 1
        assert stats.max_value == 3
        assert stats.avg_run_length == 2.0

    def test_all_equal(self):
        stats = compute_stats(np.full(100, 7, dtype=np.int32), ColumnType.INTEGER)
        assert stats.distinct_count == 1
        assert stats.avg_run_length == 100.0
        assert stats.unique_fraction == 0.01

    def test_all_unique(self):
        stats = compute_stats(np.arange(50, dtype=np.int32), ColumnType.INTEGER)
        assert stats.unique_fraction == 1.0
        assert stats.avg_run_length == 1.0

    def test_empty(self):
        stats = compute_stats(np.empty(0, dtype=np.int32), ColumnType.INTEGER)
        assert stats.count == 0
        assert stats.unique_fraction == 0.0


class TestDoubleStats:
    def test_nan_counts_as_one_distinct(self):
        values = np.array([np.nan, np.nan, 1.0])
        stats = compute_stats(values, ColumnType.DOUBLE)
        assert stats.distinct_count == 2

    def test_min_max_skip_non_finite(self):
        values = np.array([np.inf, -np.inf, 5.0, 1.0])
        stats = compute_stats(values, ColumnType.DOUBLE)
        assert stats.min_value == 1.0
        assert stats.max_value == 5.0

    def test_negative_zero_distinct_from_zero(self):
        stats = compute_stats(np.array([0.0, -0.0]), ColumnType.DOUBLE)
        assert stats.distinct_count == 2

    def test_nan_runs_counted_bitwise(self):
        values = np.array([np.nan] * 4 + [1.0] * 4)
        stats = compute_stats(values, ColumnType.DOUBLE)
        assert stats.avg_run_length == 4.0


#: Bit patterns a distinct count must keep apart or collapse exactly as the
#: ``uint64`` view does: two quiet-NaN payloads, a signalling and a negative
#: NaN, both zeros, both infinities, a denormal.
_SPECIAL_BITS = [
    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000,
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x3FF0000000000000,
]


class TestDistinctCountIsTheUniqueCount:
    """``_numeric_stats`` counts distinct values as the runs of one sort; the
    ``np.unique`` it replaced is the oracle, bitwise on doubles."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-(2**31), 2**31 - 1) | st.integers(-3, 3), max_size=300))
    def test_int32(self, values):
        block = np.array(values, dtype=np.int32)
        assert compute_stats(block, ColumnType.INTEGER).distinct_count == np.unique(block).size

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(_SPECIAL_BITS) | st.integers(0, 2**64 - 1), max_size=300))
    def test_doubles_bitwise(self, bits):
        block = np.array(bits, dtype=np.uint64).view(np.float64)
        stats = compute_stats(block, ColumnType.DOUBLE)
        assert stats.distinct_count == np.unique(block.view(np.uint64)).size
        assert stats.distinct_value_bytes == 8 * stats.distinct_count

    def test_nan_payloads_zeros_and_infinities(self):
        block = np.array(_SPECIAL_BITS[:8] * 3, dtype=np.uint64).view(np.float64)
        assert compute_stats(block, ColumnType.DOUBLE).distinct_count == 8

    def test_empty_one_value_and_all_distinct(self):
        for ctype, dtype in ((ColumnType.INTEGER, np.int32), (ColumnType.DOUBLE, np.float64)):
            assert compute_stats(np.empty(0, dtype=dtype), ctype).distinct_count == 0
            assert compute_stats(np.full(1, 7, dtype=dtype), ctype).distinct_count == 1
            assert compute_stats(np.full(4096, 7, dtype=dtype), ctype).distinct_count == 1
            shuffled = np.random.default_rng(0).permutation(16_384).astype(dtype)
            assert compute_stats(shuffled, ctype).distinct_count == 16_384

    def test_the_block_is_not_sorted_in_place(self):
        block = np.array([3, 1, 2, 1], dtype=np.int32)
        compute_stats(block, ColumnType.INTEGER)
        assert block.tolist() == [3, 1, 2, 1]


class TestStringStats:
    def test_basic(self):
        sa = StringArray.from_pylist(["a", "a", "b", "b", "b", "c"])
        stats = compute_stats(sa, ColumnType.STRING)
        assert stats.count == 6
        assert stats.distinct_count == 3
        assert stats.avg_run_length == 2.0
        assert stats.total_string_bytes == 6
        assert stats.avg_string_length == 1.0

    def test_empty(self):
        stats = compute_stats(StringArray.empty(0), ColumnType.STRING)
        assert stats.count == 0

    def test_unicode_lengths_in_bytes(self):
        sa = StringArray.from_pylist(["é"])  # 2 UTF-8 bytes
        stats = compute_stats(sa, ColumnType.STRING)
        assert stats.total_string_bytes == 2


class TestColumnStats:
    def test_includes_null_count(self):
        from repro.bitmap import RoaringBitmap

        col = Column.ints("a", np.arange(10), RoaringBitmap.from_positions([1, 2]))
        stats = column_stats(col)
        assert stats.null_count == 2
        assert stats.count == 10
