"""Additional tests for the column-scan layer (data_scale, uploads)."""

import numpy as np
import pytest

from repro.cloud import PricingModel, SimulatedObjectStore, TableWriter
from repro.cloud.scan import (
    ColumnScanResult,
    scan_btrblocks_columns,
    scan_parquet_like_columns,
    upload_parquet_like,
)
from repro.core.compressor import compress_relation
from repro.core.relation import Relation
from repro.baselines.parquet_like import ParquetLikeFormat
from repro.exceptions import FormatError
from repro.types import Column


@pytest.fixture
def relation(rng):
    return Relation("t", [
        Column.ints("a", rng.integers(0, 10, 3000)),
        Column.strings("b", [["x", "y"][i % 2] for i in range(3000)]),
    ])


class TestDataScale:
    def test_scale_one_is_identity(self):
        store = SimulatedObjectStore()
        result = ColumnScanResult("f", requests=5, bytes_downloaded=1000,
                                  dependent_round_trips=2)
        assert result.cost_usd(store) == result.cost_usd(store, 1.0)
        assert result.scaled_requests(store) == 5

    def test_scaling_grows_time_linearly_in_bytes(self):
        store = SimulatedObjectStore()
        result = ColumnScanResult("f", requests=5, bytes_downloaded=10**6,
                                  dependent_round_trips=2)
        small = result.seconds(store, 1.0)
        big = result.seconds(store, 1000.0)
        latency = 2 * store.pricing.request_latency_seconds
        assert (big - latency) == pytest.approx((small - latency) * 1000.0)

    def test_scaled_requests_reflect_chunking(self):
        store = SimulatedObjectStore()
        result = ColumnScanResult("f", requests=3, bytes_downloaded=10**6,
                                  dependent_round_trips=2)
        # 1 GB at 16 MiB chunks -> 60 chunks + 2 metadata round trips.
        assert result.scaled_requests(store, 1000.0) == 2 + 60


class TestUploads:
    def test_parquet_footer_readable(self, relation):
        store = SimulatedObjectStore()
        upload_parquet_like(store, "t", ParquetLikeFormat("none").compress_relation(relation))
        result = scan_parquet_like_columns(store, "t", ["a"])
        assert result.requests == 3
        assert result.bytes_downloaded > 0

    def test_btrblocks_column_subset_cheaper_than_full(self, relation):
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        one = scan_btrblocks_columns(store, "t", ["a"])
        both = scan_btrblocks_columns(store, "t", ["a", "b"])
        assert one.bytes_downloaded < both.bytes_downloaded

    def test_every_scan_pays_its_own_gets(self, relation):
        """Each §6.7 query is costed alone: a repeat scan of the same columns
        is billed the manifest and column GETs again, not served from a
        cache left by the first."""
        store = SimulatedObjectStore(pricing=PricingModel(chunk_bytes=1024))
        TableWriter(store).write(compress_relation(relation))
        first = scan_btrblocks_columns(store, "t", ["a", "b"])
        second = scan_btrblocks_columns(store, "t", ["a", "b"])
        assert first.requests > 3  # manifest + several chunk GETs
        assert (second.requests, second.bytes_downloaded) == (
            first.requests,
            first.bytes_downloaded,
        )

    def test_missing_column_raises(self, relation):
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        with pytest.raises(FormatError):
            scan_btrblocks_columns(store, "t", ["missing"])


class TestPricingVariants:
    def test_custom_pricing_changes_costs(self):
        cheap = SimulatedObjectStore(pricing=PricingModel(ec2_usd_per_hour=1.0))
        expensive = SimulatedObjectStore(pricing=PricingModel(ec2_usd_per_hour=10.0))
        result = ColumnScanResult("f", requests=1, bytes_downloaded=10**7,
                                  dependent_round_trips=1)
        assert result.cost_usd(expensive) > result.cost_usd(cheap)
