"""Tests for the decoupled zone-map metadata layer."""

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core import blockstats
from repro.core.blockstats import (
    BlockStats,
    BloomFilter,
    compute_block_stats,
    string_bounds_from_json,
)
from repro.core.compressor import compress_column
from repro.core.config import BtrBlocksConfig
from repro.exceptions import FormatError
from repro.metadata import ColumnZoneMap, build_zone_map, pruned_scan
from repro.query import Between, Equals, GreaterThan, In, IsNull
from repro.types import Column, ColumnType, StringArray

from test_roundtrip_fuzz import STRING_CASES  # the adversarial string corpus


@pytest.fixture
def sorted_column():
    # Four 1000-row blocks with disjoint value ranges: ideal pruning target.
    return Column.ints("sorted", np.arange(4000, dtype=np.int32))


@pytest.fixture
def config():
    return BtrBlocksConfig(block_size=1000)


def _zone_map(column: Column) -> ColumnZoneMap:
    """The zone map of ``column`` compressed in 1000-row blocks."""
    return build_zone_map(compress_column(column, BtrBlocksConfig(block_size=1000)))


class TestBuildZoneMap:
    def test_block_boundaries(self, sorted_column):
        zm = _zone_map(sorted_column)
        assert len(zm.entries) == 4
        assert zm.entries["lo"][0] == 0
        assert zm.entries["hi"][0] == 999
        assert zm.entries["lo"][3] == 3000
        assert zm.entries["has_range"].all()

    def test_null_counts(self):
        column = Column.ints("c", np.zeros(2000, dtype=np.int32),
                             RoaringBitmap.from_positions([5, 1500, 1501]))
        zm = _zone_map(column)
        assert zm.entries["nulls"][0] == 1
        assert zm.entries["nulls"][1] == 2

    def test_string_columns_get_byte_bounds(self):
        column = Column.strings("s", ["a", "b"] * 500)
        zm = _zone_map(column)
        # Strings carry conservative byte-prefix bounds (and a Bloom filter
        # for low-cardinality blocks) instead of numeric min/max.
        assert not zm.entries["has_range"][0]
        min_bytes, _, bloom = string_bounds_from_json(zm.bounds[0])
        assert min_bytes == b"a"
        assert bloom is not None

    def test_infinities_kept_nan_skipped(self):
        # +/-inf are real, ordered values: dropping them from the bounds
        # would let GreaterThan(huge) prune a block that contains inf.
        # Only NaN (unordered) is excluded.
        column = Column.doubles("d", np.array([np.inf, 1.0, -np.inf, 5.0] * 10))
        zm = _zone_map(column)
        assert zm.entries["lo"][0] == -np.inf
        assert zm.entries["hi"][0] == np.inf
        nan_column = Column.doubles("d", np.array([np.nan, 1.0, np.nan, 5.0] * 10))
        zm = _zone_map(nan_column)
        assert zm.entries["lo"][0] == 1.0
        assert zm.entries["hi"][0] == 5.0


def _row_by_row_string_stats(chunk: Column, bloom_max_distinct: int) -> BlockStats:
    """The per-row loop ``compute_block_stats`` replaced, kept as its oracle."""
    null_mask = chunk.null_mask()
    distinct: "set[bytes] | None" = set()
    lo = hi = None
    for i in range(len(chunk)):
        if null_mask[i]:
            continue
        value = chunk.data[i]
        if lo is None or value < lo:
            lo = value
        if hi is None or value > hi:
            hi = value
        if distinct is not None:
            distinct.add(value)
            if len(distinct) > bloom_max_distinct:
                distinct = None  # too wide: no digest, bounds still valid
    min_bytes = max_bytes = None
    if lo is not None:
        min_bytes = lo[: blockstats.STRING_BOUND_MAX_BYTES]
        max_bytes = hi
        if len(hi) > blockstats.STRING_BOUND_MAX_BYTES:
            max_bytes = blockstats._byte_successor(hi[: blockstats.STRING_BOUND_MAX_BYTES])
    bloom = BloomFilter.build(sorted(distinct)) if distinct else None
    return BlockStats(
        len(chunk), int(null_mask.sum()), None, None, min_bytes, max_bytes, bloom
    )


def _nulls(*positions):
    return RoaringBitmap.from_positions(positions)


_WORDS = [b"pear", b"apple", b"zebra", b"", b"fig", b"apple", b"pear", b"kiwi"]
STRING_STATS_CASES = {
    "no_nulls": (_WORDS * 10, None),
    "empty_block": ([], None),
    "all_null": ([b""] * 50, _nulls(*range(50))),
    # The global minimum (b"") and maximum (b"zebra") sit only under NULLs.
    "nulls_hide_min_and_max": (_WORDS, _nulls(2, 3)),
    "nulls_hide_one_copy_only": (_WORDS, _nulls(1, 0)),
    "empty_strings_only": ([b""] * 20, None),
    "over_bloom_limit": ([b"v%04d" % i for i in range(17)] * 2, None),
    "exactly_at_bloom_limit": ([b"v%04d" % i for i in range(16)] * 2, None),
    "limit_reached_only_without_nulls": ([b"v%04d" % i for i in range(17)], _nulls(16)),
    "long_bounds": ([b"a" * 70, b"m" * 65 + b"x", b"m" * 65 + b"y", b"b"], None),
    "long_max_all_ff": ([b"\xff" * 80, b"\x00" * 80], None),
    "long_max_trailing_ff": ([b"q" + b"\xff" * 90, b"c"], None),
}


class TestStringBlockStatsMatchRowOracle:
    """The distinct-coded zone-map path must equal the deleted row loop."""

    @pytest.mark.parametrize("name", sorted(STRING_STATS_CASES))
    def test_bounds_nulls_and_bloom_bits(self, name):
        values, nulls = STRING_STATS_CASES[name]
        chunk = Column.strings("s", StringArray.from_pylist(values), nulls)
        got = compute_block_stats(chunk, bloom_max_distinct=16)
        want = _row_by_row_string_stats(chunk, bloom_max_distinct=16)
        assert got == want  # BloomFilter equality compares the digest bits

    def test_fuzz_corpus_with_scattered_nulls(self, rng):
        for name, values in STRING_CASES:
            null_rows = np.nonzero(rng.random(len(values)) < 0.3)[0]
            nulls = RoaringBitmap.from_positions(null_rows) if null_rows.size else None
            chunk = Column.strings(name, values, nulls)
            assert compute_block_stats(chunk) == _row_by_row_string_stats(
                chunk, blockstats.BLOOM_MAX_DISTINCT
            ), name


def _may_match(stats: BlockStats, predicate) -> bool:
    """Whether a one-block map keeps its block."""
    zone_map = ColumnZoneMap("c", ColumnType.DOUBLE, blockstats.zone_records([stats]))
    return zone_map.pruned_blocks(predicate) == [0]


class TestPruning:
    def test_entry_may_match(self):
        entry = BlockStats(100, 0, 10.0, 20.0)
        assert _may_match(entry, Equals(15))
        assert not _may_match(entry, Equals(25))
        assert not _may_match(entry, Between(0, 5))
        assert not _may_match(entry, GreaterThan(20))

    def test_all_null_block_never_matches_values(self):
        entry = BlockStats(100, 100, None, None)
        assert not _may_match(entry, Equals(1))
        assert _may_match(entry, IsNull())

    def test_is_null_pruning(self):
        entry = BlockStats(100, 0, 1.0, 2.0)
        assert not _may_match(entry, IsNull())

    def test_pruned_blocks_selective(self, sorted_column):
        zm = _zone_map(sorted_column)
        assert zm.pruned_blocks(Equals(2500)) == [2]
        assert zm.pruned_blocks(Between(900, 1100)) == [0, 1]
        assert zm.pruned_blocks(GreaterThan(10_000)) == []


class TestPrunedScan:
    def test_reads_only_surviving_blocks(self, sorted_column, config):
        compressed = compress_column(sorted_column, config)
        matches, blocks_read = pruned_scan(compressed, Equals(2500))
        assert blocks_read == 1
        assert matches.to_array().tolist() == [2500]

    def test_results_match_unpruned_scan(self, sorted_column, config):
        from repro.query import scan_column

        compressed = compress_column(sorted_column, config)
        predicate = Between(1500, 2200)
        pruned, blocks_read = pruned_scan(compressed, predicate)
        full = scan_column(compressed, predicate)
        assert pruned == full
        assert blocks_read == 2

    def test_no_matches_reads_nothing(self, sorted_column, config):
        compressed = compress_column(sorted_column, config)
        matches, blocks_read = pruned_scan(compressed, GreaterThan(10_000))
        assert blocks_read == 0
        assert len(matches) == 0

    def test_zone_map_lines_up_with_the_blocks(self):
        """The map is the column's own block stats (a map built from the raw
        column at 4,000 rows over 16,000-row blocks once returned no rows)."""
        values = np.sort(np.random.default_rng(1).integers(0, 1_000_000, 64_000))
        compressed = compress_column(Column.ints("s", values), BtrBlocksConfig(block_size=16_000))
        entries = build_zone_map(compressed).entries
        assert entries["rows"].tolist() == [b.count for b in compressed.blocks]
        matches, blocks_read = pruned_scan(compressed, Between(900_000, 1_000_000))
        assert matches.to_array().tolist() == np.flatnonzero(values >= 900_000).tolist()
        assert blocks_read == 1

    def test_column_without_stats_is_a_format_error(self, sorted_column):
        compressed = compress_column(sorted_column, BtrBlocksConfig(collect_stats=False))
        with pytest.raises(FormatError, match="no valid block statistics"):
            pruned_scan(compressed, Equals(2500))


class TestBlocksWithoutARange:
    """A block of only NULLs or only NaNs has no numeric range. Its record
    carries ``has_range = False``, and the stored ``lo`` / ``hi`` must not
    decide anything: an all-NaN block survives every value predicate (the
    bounds know nothing), an all-NULL block survives only ``IsNull``."""

    # Blocks of 4 rows: 1..5, all NaN, all NULL, NaN and NULL mixed.
    VALUES = [1.0, 2.0, 3.0, 5.0] + [np.nan] * 4 + [7.0] * 4 + [np.nan] * 4
    NULLS = list(range(8, 12)) + [14, 15]
    EXPECTED = {
        Equals(3.0): [0, 1, 3],
        Equals(9.0): [1, 3],
        Between(1.0, 5.0): [0, 1, 3],
        Between(6.0, 8.0): [1, 3],
        In([2.0, 4.0]): [0, 1, 3],
        In([8.0]): [1, 3],
        IsNull(): [2, 3],
    }

    def _column(self):
        return Column.doubles("d", np.array(self.VALUES), RoaringBitmap.from_positions(self.NULLS))

    @pytest.mark.parametrize("predicate", list(EXPECTED), ids=repr)
    def test_in_memory_map(self, predicate):
        compressed = compress_column(self._column(), BtrBlocksConfig(block_size=4))
        zone_map = build_zone_map(compressed)
        assert zone_map.entries["has_range"].tolist() == [True, False, False, False]
        assert zone_map.pruned_blocks(predicate) == self.EXPECTED[predicate]

    @pytest.mark.parametrize("predicate", list(EXPECTED), ids=repr)
    def test_manifest_map_and_scan(self, predicate):
        from repro.cloud import SimulatedObjectStore
        from repro.cloud.remote_table import RemoteTable, TableWriter
        from repro.core.blocks import CompressedRelation
        from repro.query import scan_column

        compressed = compress_column(self._column(), BtrBlocksConfig(block_size=4))
        store = SimulatedObjectStore()
        TableWriter(store).write(CompressedRelation("t", [compressed]))
        table = RemoteTable.open(store, "t")
        zone_map = table._zone_map(table.column_entry("d"))
        assert zone_map.pruned_blocks(predicate) == self.EXPECTED[predicate]
        got = table.scan(where={"d": predicate}).columns[0]
        assert len(got) == len(scan_column(compressed, predicate))
