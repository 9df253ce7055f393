"""The byte-budget LRU and the decode cache, and retry backoff reaching the
cost model.

:class:`~repro.core.cache.ByteBudgetLRU` holds downloaded columns and
:class:`~repro.core.cache.DecodeCache` decoded blocks behind every
:class:`~repro.cloud.remote_table.RemoteTable`; the backoff a faulty scan
accrues is what :class:`~repro.cloud.costmodel.ScanMetrics` adds to its
overlapped wall time.
"""

from __future__ import annotations

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
from repro.core.blocks import CompressedBlock
from repro.core.cache import ByteBudgetLRU, DecodeCache
from repro.core.compressor import compress_relation
from repro.core.relation import Relation
from repro.observe import MetricsRegistry, use_registry
from repro.types import Column


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


class TestDecodeCache:
    @staticmethod
    def _block(count):
        return CompressedBlock(count, b"")

    def test_size_mismatch_is_a_miss(self):
        cache = DecodeCache(1 << 20)
        cache.put("k", np.arange(8, dtype=np.int32))
        registry = MetricsRegistry()
        with use_registry(registry):
            assert cache.lookup("k", self._block(4), lambda block: True) is None
        assert registry.get("decode.cache.miss") == 1
        assert registry.get("decode.cache.hit") == 0

    def test_entries_are_insulated_copies(self):
        cache = DecodeCache(1 << 20)
        source = np.arange(8, dtype=np.int32)
        cache.put("k", source)
        source[:] = -1
        served = cache.lookup("k", self._block(8), lambda block: True)
        assert np.array_equal(served, np.arange(8, dtype=np.int32))
        with pytest.raises(ValueError):
            served[0] = 7

    def test_a_turned_down_entry_counts_as_a_miss(self):
        """A hit is counted when it is served, not when the key is found."""
        cache = DecodeCache(1 << 20)
        cache.put("k", np.arange(8, dtype=np.int32))
        registry = MetricsRegistry()
        with use_registry(registry):
            assert cache.lookup("k", self._block(8), lambda block: False) is None
            assert cache.lookup("absent", self._block(8), lambda block: True) is None
            assert cache.lookup("k", self._block(8), lambda block: True) is not None
        assert registry.get("decode.cache.miss") == 2
        assert registry.get("decode.cache.hit") == 1


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
