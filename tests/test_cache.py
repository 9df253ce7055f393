"""The byte-budget LRU and the decode cache, and retry backoff reaching the
cost model.

:class:`~repro.core.cache.ByteBudgetLRU` holds downloaded columns and
:class:`~repro.core.cache.DecodeCache` decoded columns behind every
:class:`~repro.cloud.remote_table.RemoteTable`; the backoff a faulty scan
accrues is what :class:`~repro.cloud.costmodel.ScanMetrics` adds to its
overlapped wall time.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.cloud import (
    FaultProfile,
    PricingModel,
    RemoteTable,
    ScanCostModel,
    SimulatedObjectStore,
    TableWriter,
)
from repro.bitmap import RoaringBitmap
from repro.core import decompressor
from repro.core.access import read_rows
from repro.core.blocks import CompressedBlock
from repro.core.cache import ByteBudgetLRU, DecodeCache
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import DEFAULT_DECODE_LIMITS, BtrBlocksConfig
from repro.core.decompressor import cached_block, decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.core.relation import Relation
from repro.encodings import strutil
from repro.encodings.base import take_values
from repro.exceptions import IntegrityError
from repro.observe import MetricsRegistry, use_registry
from repro.query.predicates import Between, Equals
from repro.types import Column, ColumnType, StringArray, columns_equal


class TestByteBudgetLRU:
    def test_evicts_least_recent_under_budget(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            lru = ByteBudgetLRU(100, metric_prefix="t")
            lru.put("a", 1, 40)
            lru.put("b", 2, 40)
            assert lru.get("a") == 1  # touch: b is now least recent
            lru.put("c", 3, 40)
            assert "b" not in lru and lru.get("a") == 1 and lru.get("c") == 3
        assert registry.get("t.evict") == 1
        assert registry.get("t.hit") == 3
        assert lru.current_bytes == 80

    def test_miss_counted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            lru = ByteBudgetLRU(10, metric_prefix="t")
            assert lru.get("nope") is None
        assert registry.get("t.miss") == 1

    def test_oversized_value_not_stored(self):
        lru = ByteBudgetLRU(100)
        lru.put("big", 1, 101)
        assert "big" not in lru and lru.current_bytes == 0

    def test_replacing_key_adjusts_budget(self):
        lru = ByteBudgetLRU(100)
        lru.put("k", 1, 60)
        lru.put("k", 2, 30)
        assert lru.get("k") == 2 and lru.current_bytes == 30

    def test_zero_capacity_stores_nothing(self):
        lru = ByteBudgetLRU(0)
        lru.put("k", 1, 1)
        assert len(lru) == 0 and lru.get("k") is None


def _blocks(*counts: int) -> "list[CompressedBlock]":
    """Blocks as a column entry records them: declared counts, a CRC32 each."""
    return [CompressedBlock(count, b"", checksum=index) for index, count in enumerate(counts)]


def _checksummed(column: Column, block_size: int = 1000):
    """A checksummed (v2) in-memory column, as a remote read would see it."""
    return column_from_bytes(column_to_bytes(compress_column(column, BtrBlocksConfig(block_size=block_size))))


def _damaged(compressed, indices):
    """``compressed`` with one payload byte flipped in each block of
    ``indices`` (their stored CRC32s kept)."""
    damaged = column_from_bytes(column_to_bytes(compressed))
    for index in indices:
        block = damaged.blocks[index]
        data = bytearray(block.data)
        data[len(data) // 2] ^= 0x40
        damaged.blocks[index] = dataclasses.replace(block, data=bytes(data))
    return damaged


def _source(rows: int = 4000) -> Relation:
    """Numbers and strings with NULLs, four 1,000-row blocks per column."""
    rng = np.random.default_rng(33)

    def nulls(step: int) -> RoaringBitmap:
        return RoaringBitmap.from_positions(np.arange(5, rows, step))

    words = [f"w{int(x):05d}" for x in rng.integers(0, 400, rows)]
    return Relation(
        "t",
        [
            Column.ints("k", np.arange(rows)),
            Column(
                "n", ColumnType.INTEGER, rng.integers(-500, 500, rows).astype(np.int32), nulls(7)
            ),
            Column(
                "d", ColumnType.DOUBLE, np.round(rng.uniform(0, 100, rows), 2), nulls(11)
            ),
            Column("s", ColumnType.STRING, StringArray.from_pylist(words), nulls(13)),
        ],
    )


def _rows_of(column: Column, rows: np.ndarray) -> Column:
    """NumPy oracle: the source column's ``rows``, NULLs by mask."""
    null_rows = np.flatnonzero(column.null_mask()[rows])
    nulls = RoaringBitmap.from_positions(null_rows) if null_rows.size else None
    return Column(column.name, column.ctype, take_values(column.data, rows), nulls)


class TestDecodeCache:
    """One entry per column, served block by block through the one gate."""

    def test_the_gate_serves_only_what_the_entry_recorded(self):
        compressed = _checksummed(Column.ints("v", np.arange(3000)))
        cache = DecodeCache(1 << 20)
        decompress_column(compressed, cache=cache, cache_key="k")
        entry, block = cache.get("k"), compressed.blocks[1]
        assert len(cache) == 3 and entry.starts == [0, 1000, 2000, 3000]

        def gate(cache, entry, index, block):
            return cached_block(cache, entry, [block], DEFAULT_DECODE_LIMITS, [index])[0]

        assert cached_block(cache, entry, compressed.blocks, DEFAULT_DECODE_LIMITS) == [True] * 3

        assert gate(cache, entry, 1, block) is True
        assert np.array_equal(entry.span(1, 2), np.arange(1000, 2000))
        assert gate(cache, entry, 1, dataclasses.replace(block, count=999)) is False
        assert gate(cache, entry, 2, block) is False  # another block's count and CRC32
        assert gate(cache, entry, 3, block) is False  # past the entry's blocks
        assert gate(cache, None, 1, block) is False  # no entry: a miss
        assert gate(None, entry, 1, block) is None  # no cache: never looked up
        assert gate(cache, entry, 1, dataclasses.replace(block, checksum=None)) is None

    def test_entries_are_insulated_copies(self):
        cache = DecodeCache(1 << 20)
        source = np.arange(8, dtype=np.int32)
        cache.put("k", source, _blocks(8))
        source[:] = -1
        served = cache.get("k").span(0, 1)
        assert np.array_equal(served, np.arange(8, dtype=np.int32))
        with pytest.raises(ValueError):
            served[0] = 7


@pytest.mark.parametrize("mode", ["raise", "skip", "null_block"])
@pytest.mark.parametrize("kind", ["number", "string"])
@pytest.mark.parametrize("broken", [(2,), (1, 3)], ids=["one", "two"])
def test_a_block_damaged_in_hand_behind_a_warm_column_degrades_and_the_rest_are_served(
    mode, kind, broken
):
    """The warm entry serves every intact block of the column; a damaged
    one is decoded -- so it raises or degrades per ``on_corrupt`` exactly as
    without a cache -- and counted as a miss. With one damaged block of
    four: hits 3, misses 1."""
    source = _source().column("n" if kind == "number" else "s")
    compressed = _checksummed(source)
    cache = DecodeCache(1 << 20)
    decompress_column(compressed, cache=cache, cache_key="k")
    blocks = len(compressed.blocks)
    damaged = _damaged(compressed, broken)
    registry = MetricsRegistry()
    with use_registry(registry):
        if mode == "raise":
            with pytest.raises(IntegrityError):
                decompress_column(damaged, on_corrupt=mode, cache=cache, cache_key="k")
        else:
            served = decompress_column(damaged, on_corrupt=mode, cache=cache, cache_key="k")
            assert columns_equal(served, decompress_column(damaged, on_corrupt=mode))
    hits, misses = (broken[0], 1) if mode == "raise" else (blocks - len(broken), len(broken))
    assert (registry.get("decode.cache.hit"), registry.get("decode.cache.miss")) == (hits, misses)
    assert len(cache) == blocks  # nothing degraded went in; the entry still serves
    assert columns_equal(decompress_column(compressed, cache=cache, cache_key="k"), source)
    if mode != "raise":  # a cold cache admits no column with a degraded block
        cold = DecodeCache(1 << 20)
        decompress_column(damaged, on_corrupt=mode, cache=cold, cache_key="k")
        assert len(cold) == 0


def test_a_column_over_the_budget_is_never_cached_and_every_block_decodes():
    big = _checksummed(Column.ints("big", np.arange(4000)))  # 16,000 bytes decoded
    small = _checksummed(Column.ints("small", np.arange(1000)))  # 4,000 bytes
    cache = DecodeCache(10_000)
    registry = MetricsRegistry()
    with use_registry(registry), mock.patch.object(
        decompressor, "decode_block", wraps=decompressor.decode_block
    ) as decodes:
        for _ in range(3):
            assert columns_equal(
                decompress_column(big, cache=cache, cache_key="big"), Column.ints("big", np.arange(4000))
            )
        assert decodes.call_count == 3 * len(big.blocks)
        decompress_column(small, cache=cache, cache_key="small")
        decompress_column(small, cache=cache, cache_key="small")
    assert "big" not in cache and len(cache) == len(small.blocks)
    assert registry.get("decode.cache.declined") == 3
    assert registry.get("decode.cache.hit") == len(small.blocks)
    assert registry.get("decode.cache.miss") == 3 * len(big.blocks) + len(small.blocks)


def test_a_served_number_column_is_writable_and_its_own():
    source = _source().column("d")
    compressed = _checksummed(source)
    cache = DecodeCache(1 << 20)
    decompress_column(compressed, cache=cache, cache_key="k")
    served = decompress_column(compressed, cache=cache, cache_key="k")
    assert served.data.flags.writeable
    assert not np.shares_memory(served.data, cache.get("k").values)
    served.data[:] = -1.0
    assert columns_equal(decompress_column(compressed, cache=cache, cache_key="k"), source)


def test_a_served_string_column_is_a_new_object_with_no_memo():
    source = _source().column("s")
    compressed = _checksummed(source)
    cache = DecodeCache(1 << 20)
    decompress_column(compressed, cache=cache, cache_key="k")
    first = decompress_column(compressed, cache=cache, cache_key="k").data
    strutil.encode_distinct(first)
    assert first._distinct is not None
    second = decompress_column(compressed, cache=cache, cache_key="k").data
    rows = read_rows(compressed, np.arange(0, 4000, 3), cache=cache, cache_key="k").data
    assert second is not first and second._distinct is None and rows._distinct is None
    assert second == source.data


def test_a_warm_handle_answers_bit_for_bit_like_a_cold_one():
    """``scan()``, ``scan(where=)`` and ``read_rows`` (unsorted, duplicate,
    NULL rows) served by a handle whose decode cache holds every column
    equal a fresh handle's answers."""
    relation = _source()
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=1000)))
    warm = RemoteTable.open(store, "t")
    for _ in range(2):
        warm.scan()
    assert len(warm.decode_cache) == 4 * len(relation.columns)

    def cold():
        return RemoteTable.open(store, "t")

    registry = MetricsRegistry()
    with use_registry(registry):
        for mine, theirs, source in zip(warm.scan().columns, cold().scan().columns, relation.columns):
            assert columns_equal(mine, theirs) and columns_equal(mine, source)
        for where in (
            {"k": Between(900, 2100)},
            {"k": Between(2100, 2900)},
            {"n": Between(-100, 100)},
            {"d": Between(10.0, 20.0), "k": Between(0, 2500)},
            {"s": Equals("w00007")},
        ):
            for mine, theirs in zip(warm.scan(where=where).columns, cold().scan(where=where).columns):
                assert columns_equal(mine, theirs), where
        rng = np.random.default_rng(5)
        unsorted = (rng.integers(0, 4000, 700), np.array([3999, 5, 5, 12, 1000, 999, 5]))
        for rows in (*unsorted, np.arange(13, 4000, 13)):
            for name in ("n", "d", "s"):
                fresh = cold()
                mine = warm._read_rows(warm.column_entry(name), warm.fetch_column(name), rows)
                theirs = fresh._read_rows(fresh.column_entry(name), fresh.fetch_column(name), rows)
                assert columns_equal(mine, theirs), name
                assert columns_equal(mine, _rows_of(relation.column(name), rows)), name
    assert registry.get("decode.cache.hit") > 0


def test_backoff_flows_into_scan_metrics():
    rng = np.random.default_rng(7)
    rows = 4000
    relation = Relation(
        "t",
        [
            Column.ints("a", rng.integers(0, 255, rows)),
            Column.doubles("b", np.round(rng.uniform(0, 100, rows), 2)),
            Column.strings("c", [f"item-{i % 50:03d}" for i in range(rows)]),
        ],
    )
    compressed = compress_relation(relation)
    # Small chunks: a few-KB column spans many range GETs for faults to hit.
    store = SimulatedObjectStore(pricing=PricingModel(chunk_bytes=1024))
    TableWriter(store).write(compressed)
    store.set_faults(FaultProfile(seed=2, throttle_rate=0.2))
    table = RemoteTable.open(store, compressed.name)
    backoff_before = store.stats.backoff_seconds
    table.scan()
    retry_seconds = store.stats.backoff_seconds - backoff_before
    assert retry_seconds > 0
    metrics = ScanCostModel(store.pricing).simulate(
        "p", 1_000_000, 100_000, 0.001, retry_seconds=retry_seconds
    )
    assert metrics.retry_seconds == retry_seconds
    assert metrics.wall_seconds == pytest.approx(
        max(metrics.network_seconds, metrics.cpu_seconds) + retry_seconds
    )
