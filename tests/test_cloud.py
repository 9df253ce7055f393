"""Tests for the simulated cloud substrate (object store, cost model, scans)."""

import numpy as np
import pytest

from repro.cloud import PricingModel, ScanCostModel, SimulatedObjectStore, TableWriter
from repro.cloud.scan import (
    scan_btrblocks_columns,
    scan_parquet_like_columns,
    upload_parquet_like,
)
from repro.core.compressor import compress_relation
from repro.core.relation import Relation
from repro.exceptions import FormatError
from repro.formats import btrblocks_adapter, parquet_adapter
from repro.types import Column


@pytest.fixture
def relation(rng):
    return Relation("sales", [
        Column.ints("id", rng.integers(0, 100, 4000)),
        Column.doubles("price", np.round(rng.uniform(0, 100, 4000), 2)),
        Column.strings("region", [["north", "south", "east"][i % 3] for i in range(4000)]),
    ])


class TestPricing:
    def test_paper_constants(self):
        pricing = PricingModel()
        assert pricing.ec2_usd_per_hour == 3.89
        assert pricing.s3_usd_per_1000_get == 0.0004
        assert pricing.chunk_bytes == 16 * 1024 * 1024

    def test_request_cost(self):
        pricing = PricingModel()
        assert pricing.request_cost(1000) == pytest.approx(0.0004)

    def test_compute_cost(self):
        pricing = PricingModel()
        assert pricing.compute_cost(3600) == pytest.approx(3.89)

    def test_s3_rate_capped_by_client(self):
        pricing = PricingModel()
        assert pricing.s3_bytes_per_second == pytest.approx(91e9 / 8)


class TestObjectStore:
    def test_put_get(self):
        store = SimulatedObjectStore()
        store.put("k", b"hello")
        assert store.get("k") == b"hello"
        assert store.stats.get_requests == 1
        assert store.stats.bytes_downloaded == 5

    def test_missing_object_raises(self):
        with pytest.raises(FormatError):
            SimulatedObjectStore().get("nope")

    def test_range_get(self):
        store = SimulatedObjectStore()
        store.put("k", b"0123456789")
        assert store.get_range("k", 2, 3) == b"234"
        assert store.stats.bytes_downloaded == 3

    def test_chunked_get_counts_requests(self):
        pricing = PricingModel(chunk_bytes=4)
        store = SimulatedObjectStore(pricing=pricing)
        store.put("k", b"0123456789")
        assert store.get_chunked("k") == b"0123456789"
        assert store.stats.get_requests == 3  # ceil(10 / 4)

    def test_keys_prefix(self):
        store = SimulatedObjectStore()
        for key in ("a/1", "a/2", "b/1"):
            store.put(key, b"")
        assert store.keys("a/") == ["a/1", "a/2"]

    @pytest.mark.parametrize("seed", range(4))
    def test_keys_match_a_full_listing_through_every_mutator(self, seed):
        """The maintained key order answers each prefix exactly as a scan of
        every object would, across puts, overwrites, deletes and multipart."""
        rng = np.random.default_rng(seed)
        names = ["", "a", "a/", "a/1", "a/10", "a/2", "ab", "b/x", "b/x/\U0010ffff", "\U0010ffff"]
        store, uploads = SimulatedObjectStore(), []
        for _ in range(300):
            op, key = int(rng.integers(0, 5)), names[int(rng.integers(0, len(names)))]
            if op == 0:
                store.put(key, b"v")
            elif op == 1:
                store.delete(key)
            elif op == 2:
                uploads.append(store.initiate_multipart(key))
                store.upload_part(uploads[-1], 1, b"part")
            elif uploads:
                upload = uploads.pop(int(rng.integers(0, len(uploads))))
                (store.complete_multipart if op == 3 else store.abort_multipart)(upload)
            for prefix in names:
                listed = store.keys(prefix)
                assert listed == sorted(k for k in store._objects if k.startswith(prefix))
                assert listed is not store.keys(prefix)

    def test_transfer_seconds_positive(self):
        store = SimulatedObjectStore()
        store.put("k", b"x" * 10_000)
        store.get("k")
        assert store.simulated_transfer_seconds() > 0


class TestCostModel:
    def test_network_bound_when_cpu_fast(self):
        model = ScanCostModel()
        metrics = model.simulate("fmt", 10**9, 10**8, measured_decompress_seconds=0.001)
        assert not metrics.cpu_bound
        assert metrics.t_c_gbit == pytest.approx(91.0, rel=0.01)

    def test_cpu_bound_when_decode_slow(self):
        model = ScanCostModel()
        metrics = model.simulate("fmt", 10**9, 10**8, measured_decompress_seconds=100.0)
        assert metrics.cpu_bound
        assert metrics.wall_seconds == pytest.approx(100.0 / 800.0)

    def test_requests_per_16mb(self):
        model = ScanCostModel()
        metrics = model.simulate("fmt", 10**9, 48 * 1024 * 1024, 0.0)
        assert metrics.requests == 3

    def test_cost_includes_requests_and_compute(self):
        model = ScanCostModel()
        metrics = model.simulate("fmt", 10**9, 10**8, 10.0)
        cost = model.cost_usd(metrics)
        expected = metrics.wall_seconds / 3600 * 3.89 + metrics.requests / 1000 * 0.0004
        assert cost == pytest.approx(expected)

    def test_measure_runs_real_formats(self, relation):
        model = ScanCostModel()
        metrics = model.measure([relation], btrblocks_adapter())
        assert metrics.compression_ratio > 1.5
        assert metrics.measured_decompress_seconds > 0

    def test_ratio_and_throughput_consistent(self):
        model = ScanCostModel()
        metrics = model.simulate("fmt", 4 * 10**8, 10**8, 50.0)
        assert metrics.t_r_gbit == pytest.approx(metrics.t_c_gbit * 4, rel=0.01)


class TestColumnScans:
    def test_btrblocks_column_scan(self, relation):
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        result = scan_btrblocks_columns(store, "sales", ["price"])
        assert result.requests >= 2  # manifest + at least one column chunk
        assert result.bytes_downloaded > 0
        assert result.dependent_round_trips == 2

    def test_parquet_column_scan_needs_three_round_trips(self, relation):
        store = SimulatedObjectStore()
        file = parquet_adapter("none")
        artifact = file.compress(relation)
        upload_parquet_like(store, "sales", artifact)
        result = scan_parquet_like_columns(store, "sales", ["price"])
        assert result.dependent_round_trips == 3
        assert result.requests == 3  # footer len + footer + one column range

    def test_btrblocks_downloads_less_for_single_column(self, relation):
        store = SimulatedObjectStore()
        compressed = compress_relation(relation)
        TableWriter(store).write(compressed)
        btr = scan_btrblocks_columns(store, "sales", ["price"])
        total = sum(store.object_size(k) for k in store.keys("sales/"))
        assert btr.bytes_downloaded < total

    def test_column_scan_cost_positive(self, relation):
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        result = scan_btrblocks_columns(store, "sales", ["id", "region"])
        assert result.cost_usd(store) > 0
        assert result.seconds(store) > 0
