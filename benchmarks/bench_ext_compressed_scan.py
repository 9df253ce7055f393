"""Extension bench — predicate pushdown + zone maps vs decompress-then-filter.

Not a paper figure: this measures the Section 7 "processing compressed data"
extension and the Section 2.1 decoupled-statistics design. Expected shape:
zone-map pruning plus compressed-domain evaluation beats full decompression
by a wide margin on selective range predicates, and dictionary fast paths
beat decompress-then-filter on categorical equality.
"""

import time

import numpy as np
import pytest

from repro.core.compressor import compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.metadata import pruned_scan
from repro.observe import MetricsRegistry, use_registry
from repro.query import Between, Equals, scan_column
from repro.query.executor import filter_column
from repro.types import Column


@pytest.fixture(scope="module")
def sorted_ints():
    rng = np.random.default_rng(9)
    values = np.sort(rng.integers(0, 10_000_000, 256_000)).astype(np.int32)
    column = Column.ints("order_id", values)
    config = BtrBlocksConfig(block_size=16_000)
    return values, compress_column(column, config)


def test_zone_map_pruned_range_scan(benchmark, sorted_ints):
    values, compressed = sorted_ints
    predicate = Between(5_000_000, 5_050_000)

    result = benchmark(lambda: pruned_scan(compressed, predicate))
    matches, blocks_read = result
    expected = np.nonzero((values >= 5_000_000) & (values <= 5_050_000))[0]
    assert np.array_equal(matches.to_array(), expected)
    assert blocks_read <= 3  # nearly all blocks pruned
    print(f"\nblocks read: {blocks_read} / {len(compressed.blocks)}")


def test_decompress_then_filter_baseline(benchmark, sorted_ints):
    values, compressed = sorted_ints
    predicate = Between(5_000_000, 5_050_000)

    def naive():
        column = decompress_column(compressed)
        return np.nonzero(predicate.evaluate(np.asarray(column.data)))[0]

    expected = benchmark(naive)
    assert expected.size > 0


def test_compressed_domain_dictionary_scan(benchmark):
    rng = np.random.default_rng(10)
    values = [["shipped", "pending", "returned", "lost"][i] for i in rng.integers(0, 4, 128_000)]
    column = Column.strings("status", values)
    compressed = compress_column(column, BtrBlocksConfig(block_size=16_000))

    matches = benchmark(lambda: scan_column(compressed, Equals("shipped")))
    expected = sum(v == "shipped" for v in values)
    assert len(matches) == expected


def test_filtered_scan_partial_decode_bitpack(benchmark, sorted_ints):
    """1%-selectivity filter on bit-packed data: page headers reject almost
    every page, and surviving blocks decode only their hit rows."""
    values, compressed = sorted_ints
    lo, hi = 5_000_000, 5_050_000
    predicate = Between(lo, hi)

    result = benchmark(lambda: filter_column(compressed, predicate))
    expected = values[(values >= lo) & (values <= hi)]
    assert np.array_equal(np.asarray(result.data), expected)

    registry = MetricsRegistry()
    with use_registry(registry):
        filter_column(compressed, predicate)
    decoded = registry.get("query.cdomain.filtered.rows_selected")
    surviving = registry.get("query.cdomain.filtered.rows_total")
    assert decoded == expected.size
    assert registry.get("query.cdomain.pages_skipped") > 0
    print(f"\ndecoded {decoded} of {surviving} surviving-block rows "
          f"({100.0 * decoded / surviving:.1f}%), "
          f"pages skipped {registry.get('query.cdomain.pages_skipped')}"
          f"/{registry.get('query.cdomain.pages')}")


def test_code_space_dictionary_filter(benchmark):
    """Categorical equality compiles into code space: the predicate runs on
    the packed code stream and only matching codes gather their strings."""
    rng = np.random.default_rng(11)
    vocab = [f"category-{i:03d}" for i in range(100)]
    values = [vocab[i] for i in rng.integers(0, len(vocab), 128_000)]
    column = Column.strings("category", values)
    compressed = compress_column(column, BtrBlocksConfig(block_size=16_000))
    predicate = Equals("category-007")

    result = benchmark(lambda: filter_column(compressed, predicate))
    expected = sum(v == "category-007" for v in values)
    assert len(result.data) == expected

    registry = MetricsRegistry()
    with use_registry(registry):
        filter_column(compressed, predicate)
    assert registry.get("query.cdomain.code_compiled") > 0
    assert registry.get("query.cdomain.filtered.rows_selected") == expected


def test_rle_filtered_decode_matching_runs_only(benchmark):
    """On run-heavy clustered data a selective filter decodes only the runs
    that hold matches; whole blocks with no matching run are skipped."""
    rng = np.random.default_rng(12)
    run_values = np.sort(rng.integers(0, 50_000, 12_800)).astype(np.int32)
    values = np.repeat(run_values, 20)
    column = Column.ints("metric", values)
    compressed = compress_column(column, BtrBlocksConfig(block_size=16_000))
    lo, hi = int(values.min()), int(np.quantile(values, 0.01))
    predicate = Between(lo, hi)

    result = benchmark(lambda: filter_column(compressed, predicate))
    expected = values[(values >= lo) & (values <= hi)]
    assert np.array_equal(np.asarray(result.data), expected)

    registry = MetricsRegistry()
    with use_registry(registry):
        filter_column(compressed, predicate)
    surviving = registry.get("query.cdomain.filtered.rows_total")
    assert surviving < values.size  # non-matching blocks never materialise
    assert registry.get("query.cdomain.filtered.rows_selected") == expected.size


def test_scan_speedup_summary(benchmark, sorted_ints):
    """One-shot comparison printed as a mini-table."""
    values, compressed = sorted_ints
    predicate = Between(5_000_000, 5_050_000)

    def run():
        started = time.perf_counter()
        column = decompress_column(compressed)
        predicate.evaluate(np.asarray(column.data))
        naive = time.perf_counter() - started
        started = time.perf_counter()
        pruned_scan(compressed, predicate)
        pruned = time.perf_counter() - started
        return naive, pruned

    naive, pruned = benchmark.pedantic(run, rounds=3, iterations=1)
    print(f"\ndecompress-then-filter {naive * 1000:.1f} ms vs pruned scan "
          f"{pruned * 1000:.2f} ms ({naive / pruned:.0f}x)")
    assert pruned < naive
