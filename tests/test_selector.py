"""Tests for sampling-based scheme selection and cascading behaviour."""

import time

import numpy as np
import pytest

from repro.core.compressor import compress_block, compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.selector import SchemeSelector, values_nbytes
from repro.encodings.base import SchemeId, get_scheme
from repro.encodings.wire import unwrap
from repro.observe import MetricsRegistry, use_registry
from repro.types import Column, ColumnType, StringArray


def root_scheme(blob) -> int:
    scheme_id, _, _ = unwrap(blob)
    return scheme_id


class TestValuesNbytes:
    def test_int(self):
        assert values_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_double(self):
        assert values_nbytes(np.zeros(10)) == 80

    def test_string(self):
        sa = StringArray.from_pylist(["abc", "d"])
        assert values_nbytes(sa) == 4 + 8


class TestSchemePicks:
    def test_one_value_for_constant_column(self):
        blob = compress_block(np.zeros(64_000, dtype=np.int32), ColumnType.INTEGER)
        assert root_scheme(blob) == SchemeId.ONE_VALUE_INT

    def test_rle_or_dict_for_runs(self):
        values = np.repeat(np.arange(64, dtype=np.int32), 1000)
        blob = compress_block(values, ColumnType.INTEGER)
        assert root_scheme(blob) in (SchemeId.RLE_INT, SchemeId.DICT_INT)

    def test_bitpack_for_dense_range(self, rng):
        values = (rng.integers(0, 500, 64_000) + 10**6).astype(np.int32)
        blob = compress_block(values, ColumnType.INTEGER)
        assert root_scheme(blob) in (SchemeId.FAST_BP128, SchemeId.FAST_PFOR)

    def test_pseudodecimal_for_clean_prices(self, rng):
        values = np.round(rng.uniform(0, 10_000, 64_000), 2)
        blob = compress_block(values, ColumnType.DOUBLE)
        assert root_scheme(blob) == SchemeId.PSEUDODECIMAL

    def test_dictionary_for_low_cardinality_strings(self):
        sa = StringArray.from_pylist([["ALPHA", "BETA", "GAMMA"][i % 3] for i in range(5000)])
        blob = compress_block(sa, ColumnType.STRING)
        assert root_scheme(blob) == SchemeId.DICT_STRING

    def test_uncompressed_for_random_doubles(self, rng):
        values = rng.standard_normal(10_000)
        blob = compress_block(values, ColumnType.DOUBLE)
        assert root_scheme(blob) == SchemeId.UNCOMPRESSED_DOUBLE

    def test_frequency_for_dominant_value_with_unique_tail(self, rng):
        values = np.zeros(64_000)
        exceptions = rng.random(64_000) >= 0.7
        values[exceptions] = rng.standard_normal(int(exceptions.sum()))
        blob = compress_block(values, ColumnType.DOUBLE)
        assert root_scheme(blob) in (SchemeId.FREQUENCY_DOUBLE, SchemeId.DICT_DOUBLE)

    def test_empty_block_uncompressed(self):
        blob = compress_block(np.empty(0, dtype=np.int32), ColumnType.INTEGER)
        assert root_scheme(blob) == SchemeId.UNCOMPRESSED_INT


class TestPoolRestriction:
    def test_allowed_schemes(self, rng):
        config = BtrBlocksConfig(allowed_schemes=frozenset({
            SchemeId.UNCOMPRESSED_STRING, SchemeId.DICT_STRING,
            SchemeId.UNCOMPRESSED_INT,
        }))
        sa = StringArray.from_pylist(
            [["ALPHA", "BETA", "GAMMA"][i % 3] for i in range(3000)]
        )
        blob = compress_block(sa, ColumnType.STRING, config)
        assert root_scheme(blob) == SchemeId.DICT_STRING

    def test_int_dict_alone_cannot_beat_raw_codes(self):
        # Without a bit-packing child, int32 dictionary codes are as large as
        # the int32 data itself, so Uncompressed must win.
        config = BtrBlocksConfig(allowed_schemes=frozenset({
            SchemeId.UNCOMPRESSED_INT, SchemeId.DICT_INT,
        }))
        values = np.repeat(np.arange(10, dtype=np.int32), 100)
        blob = compress_block(values, ColumnType.INTEGER, config)
        assert root_scheme(blob) == SchemeId.UNCOMPRESSED_INT

    def test_excluded_schemes(self, rng):
        config = BtrBlocksConfig(excluded_schemes=frozenset({SchemeId.PSEUDODECIMAL}))
        values = np.round(rng.uniform(0, 10_000, 10_000), 2)
        blob = compress_block(values, ColumnType.DOUBLE, config)
        assert root_scheme(blob) != SchemeId.PSEUDODECIMAL

    def test_with_pool_helper(self):
        config = BtrBlocksConfig().with_pool({SchemeId.UNCOMPRESSED_STRING})
        selector = SchemeSelector(config)
        pool = selector.pool(ColumnType.STRING)
        assert [s.scheme_id for s in pool] == [SchemeId.UNCOMPRESSED_STRING]


class TestCascadeDepth:
    def test_depth_zero_stores_uncompressed(self):
        config = BtrBlocksConfig(max_cascade_depth=0)
        values = np.zeros(1000, dtype=np.int32)
        blob = compress_block(values, ColumnType.INTEGER, config)
        assert root_scheme(blob) == SchemeId.UNCOMPRESSED_INT

    def test_depth_one_children_uncompressed(self):
        config = BtrBlocksConfig(max_cascade_depth=1)
        values = np.repeat(np.arange(100, dtype=np.int32), 100)
        blob = compress_block(values, ColumnType.INTEGER, config)
        assert root_scheme(blob) != SchemeId.UNCOMPRESSED_INT
        # Round trip still works at any depth.
        from repro.core.decompressor import decompress_block
        assert np.array_equal(decompress_block(blob, ColumnType.INTEGER), values)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 5])
    def test_all_depths_round_trip(self, depth, rng):
        from repro.core.decompressor import decompress_block
        config = BtrBlocksConfig(max_cascade_depth=depth)
        values = np.repeat(rng.integers(0, 30, 500), 20).astype(np.int32)[:5000]
        blob = compress_block(values, ColumnType.INTEGER, config)
        assert np.array_equal(decompress_block(blob, ColumnType.INTEGER), values)

    def test_deeper_cascades_do_not_grow_output(self, rng):
        values = np.repeat(rng.integers(0, 30, 2000), 30).astype(np.int32)
        sizes = {}
        for depth in (1, 3):
            config = BtrBlocksConfig(max_cascade_depth=depth)
            sizes[depth] = len(compress_block(values, ColumnType.INTEGER, config))
        assert sizes[3] <= sizes[1]


class TestEstimates:
    def test_selection_time_accounted(self, rng):
        selector = SchemeSelector()
        values = rng.integers(0, 100, 64_000).astype(np.int32)
        compress_block(values, ColumnType.INTEGER, selector=selector)
        assert selector.selection_seconds > 0

    @pytest.mark.parametrize("column", [
        Column.ints("sorted_keys", np.arange(20_480, dtype=np.int32) // 4),
        # Two-byte rows keep FSST in the race (2.2 code widths saved), so Dictionary is estimated.
        Column.strings("zones", [f"{i % 100:02d}" for i in range(20_480)]),
    ], ids=lambda column: column.name)
    def test_selection_time_counts_outermost_picks_only(self, column):
        """Nested picks run inside their parent's clock: adding theirs too
        used to report more "selection" than the compression took (132% /
        141% on columns like these in 2,048-row blocks)."""
        selector = SchemeSelector(BtrBlocksConfig(block_size=2048))
        registry = MetricsRegistry()
        with use_registry(registry):
            started = time.perf_counter()
            compress_column(column, selector=selector)
            wall = time.perf_counter() - started
        assert registry.get("selector.picks") > len(column) // 2048  # nested picks ran
        assert 0 < selector.selection_seconds <= wall
        assert selector.selection_seconds == pytest.approx(
            registry.timer_seconds("selection.outer"), rel=1e-9
        )
        assert selector.selection_seconds < registry.timer_seconds("selection")

    def test_deterministic_given_seed(self):
        values = np.repeat(np.arange(200, dtype=np.int32), 50)
        a = compress_block(values, ColumnType.INTEGER, selector=SchemeSelector(seed=1))
        b = compress_block(values, ColumnType.INTEGER, selector=SchemeSelector(seed=1))
        assert a == b
