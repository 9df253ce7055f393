"""Tests for lazily-fetched remote tables on the simulated object store."""

import json

import numpy as np
import pytest

from manifest_forge import edit_zone, forge
from repro.bitmap import RoaringBitmap
from repro.cloud import SimulatedObjectStore, remote_table
from repro.cloud.remote_table import RemoteTable, TableWriter, clear_manifest_cache, manifest_key
from repro.core.compressor import compress_relation
from repro.core.blockstats import string_bounds_from_json
from repro.core.config import BtrBlocksConfig
from repro.core.relation import Relation
from repro.exceptions import FormatError, IntegrityError
from repro.observe import MetricsRegistry, use_registry
from repro.query import Between, Equals, GreaterThan
from repro.types import Column, columns_equal


@pytest.fixture
def store_with_table(rng):
    relation = Relation("sales", [
        Column.ints("id", np.arange(4000)),
        Column.doubles("price", np.round(rng.uniform(0, 100, 4000), 2)),
        Column.strings("city", [["OSLO", "PARIS", "ROME"][i % 3] for i in range(4000)]),
    ])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation))
    return store, relation


class TestOpen:
    def test_open_reads_only_metadata(self, store_with_table):
        store, _ = store_with_table
        store.stats.reset()
        table = RemoteTable.open(store, "sales")
        assert store.stats.get_requests == 1
        assert table.column_names() == ["id", "price", "city"]
        assert table.row_count == 4000

    @pytest.mark.parametrize("objects", [{}, {"sales/table.meta": b'{"columns": []}'}])
    def test_no_manifest_is_no_committed_version(self, objects):
        store = SimulatedObjectStore()
        for key, payload in objects.items():
            store.put(key, payload)
        with pytest.raises(FormatError, match="table 'sales' has no committed version"):
            RemoteTable.open(store, "sales")

    def test_a_signed_manifest_with_an_unhashable_name_is_a_format_error(self, store_with_table):
        store, _ = store_with_table

        def listed(body):
            body["columns"][0]["name"] = ["id"]

        forge(store, manifest_key("sales", 1), listed)
        with pytest.raises(FormatError, match="unparseable"):
            RemoteTable.open(store, "sales")

    def test_unknown_column(self, store_with_table):
        store, _ = store_with_table
        table = RemoteTable.open(store, "sales")
        with pytest.raises(FormatError):
            table.column_entry("missing")


class TestLazyFetch:
    def test_scan_downloads_only_touched_columns(self, store_with_table):
        store, _ = store_with_table
        table = RemoteTable.open(store, "sales")
        store.stats.reset()
        table.scan(columns=["price"])
        price_bytes = store.object_size(table.column_entry("price")["file"])
        assert store.stats.bytes_downloaded == price_bytes

    def test_column_cached_after_first_fetch(self, store_with_table):
        store, _ = store_with_table
        table = RemoteTable.open(store, "sales")
        table.fetch_column("id")
        requests = store.stats.get_requests
        table.fetch_column("id")
        assert store.stats.get_requests == requests

    def test_filter_column_shared_with_projection(self, store_with_table):
        store, _ = store_with_table
        table = RemoteTable.open(store, "sales")
        store.stats.reset()
        table.scan(columns=["price"], where={"price": Between(10.0, 20.0)})
        # Only the price file was touched (filter and projection coincide);
        # with zone-map pruning the ranged GETs fetch at most the file.
        price_bytes = store.object_size(table.column_entry("price")["file"])
        assert 0 < store.stats.bytes_downloaded <= price_bytes


class TestQueryResults:
    def test_matches_local_oracle(self, store_with_table):
        store, relation = store_with_table
        table = RemoteTable.open(store, "sales")
        where = {"city": Equals("OSLO"), "id": Between(100, 2000)}
        remote = table.scan(columns=["id"], where=where)
        ids = np.asarray(relation.column("id").data)
        cities = relation.column("city").data.to_pylist()
        expected = [i for i in range(4000)
                    if cities[i] == b"OSLO" and 100 <= ids[i] <= 2000]
        assert remote.column("id").data.tolist() == expected

    def test_count(self, store_with_table):
        store, relation = store_with_table
        table = RemoteTable.open(store, "sales")
        assert table.count({"city": Equals("ROME")}) == sum(
            1 for v in relation.column("city").data.to_pylist() if v == b"ROME"
        )

    def test_full_scan_round_trips(self, store_with_table):
        store, relation = store_with_table
        table = RemoteTable.open(store, "sales")
        out = table.scan()
        assert out.row_count == relation.row_count
        assert np.array_equal(np.asarray(out.column("price").data),
                              np.asarray(relation.column("price").data))


# -- queries over a committed table, checked against NumPy ---------------------


def _committed(relation, config=None, **write_kwargs) -> RemoteTable:
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, config), **write_kwargs)
    return RemoteTable.open(store, relation.name)


@pytest.fixture
def table(rng):
    n = 3000
    cities = ["PHOENIX", "RALEIGH", "OSLO"]
    relation = Relation("sales", [
        Column.ints("id", np.arange(n)),
        Column.doubles("price", np.round(rng.uniform(0, 100, n), 2)),
        Column.strings("city", [cities[i] for i in rng.integers(0, 3, n)]),
    ])
    return relation, _committed(relation, BtrBlocksConfig(block_size=1000))


def oracle_mask(relation, where):
    mask = np.ones(relation.row_count, dtype=bool)
    for name, predicate in where.items():
        column = relation.column(name)
        mask &= np.asarray(predicate.evaluate(column.data), dtype=bool)
        mask &= ~column.null_mask()
    return mask


class TestMatchingRows:
    def test_single_predicate(self, table):
        relation, remote = table
        where = {"price": GreaterThan(50.0)}
        expected = np.nonzero(oracle_mask(relation, where))[0]
        assert np.array_equal(remote.matching_rows(where).to_array(), expected)

    def test_conjunction(self, table):
        relation, remote = table
        where = {"price": Between(10.0, 60.0), "city": Equals("PHOENIX")}
        expected = np.nonzero(oracle_mask(relation, where))[0]
        assert np.array_equal(remote.matching_rows(where).to_array(), expected)

    def test_empty_where_matches_all(self, table):
        relation, remote = table
        assert len(remote.matching_rows({})) == relation.row_count

    def test_contradiction_short_circuits(self, table):
        _, remote = table
        where = {"id": Equals(5), "price": GreaterThan(1000.0)}
        assert remote.count(where) == 0


class TestProjection:
    def test_projection_and_filter(self, table):
        _, remote = table
        out = remote.scan(columns=["city", "price"], where={"id": Between(100, 110)})
        assert out.column_names() == ["city", "price"]
        assert out.row_count == 11

    def test_values_match_oracle(self, table):
        relation, remote = table
        where = {"city": Equals("OSLO")}
        out = remote.scan(columns=["price"], where=where)
        expected = np.asarray(relation.column("price").data)[oracle_mask(relation, where)]
        assert np.array_equal(np.asarray(out.column("price").data), expected)


class TestAggregate:
    def test_sum_matches_numpy(self, table):
        relation, remote = table
        where = {"city": Equals("PHOENIX")}
        expected = float(np.asarray(relation.column("price").data)[oracle_mask(relation, where)].sum())
        assert remote.aggregate("price", "sum", where) == pytest.approx(expected)

    def test_min_max_mean(self, table):
        relation, remote = table
        prices = np.asarray(relation.column("price").data)
        assert remote.aggregate("price", "min") == prices.min()
        assert remote.aggregate("price", "max") == prices.max()
        assert remote.aggregate("price", "mean") == pytest.approx(prices.mean())

    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("agg", ["sum", "min", "max", "mean", "count"])
    def test_nullable_column_matches_numpy(self, rng, agg, filtered):
        n = 2500
        values = np.round(rng.uniform(-50, 50, n), 2)
        nulls = np.sort(rng.choice(n, size=n // 7, replace=False))
        relation = Relation("t", [
            Column.ints("id", np.arange(n)),
            Column.doubles("v", values, RoaringBitmap.from_positions(nulls)),
        ])
        where = {"id": Between(300, 1900)} if filtered else None
        keep = (np.arange(n) >= 300) & (np.arange(n) <= 1900) if filtered else np.ones(n, bool)
        keep[nulls] = False
        expected = keep.sum() if agg == "count" else getattr(np, agg)(values[keep])
        remote = _committed(relation, BtrBlocksConfig(block_size=1000))
        assert remote.aggregate("v", agg, where) == pytest.approx(expected)

    def test_empty_selection_is_nan(self, table):
        _, remote = table
        assert np.isnan(remote.aggregate("price", "mean", {"id": Equals(-1)}))

    def test_string_aggregates_restricted(self, table):
        _, remote = table
        with pytest.raises(ValueError):
            remote.aggregate("city", "sum")
        assert remote.aggregate("city", "count") == 3000

    def test_unknown_aggregate(self, table):
        _, remote = table
        with pytest.raises(ValueError):
            remote.aggregate("price", "median")


class TestZoneMapIntegration:
    def test_manifest_zone_map_for_every_column(self, table):
        _, remote = table
        for name in remote.column_names():
            assert remote.column_entry(name)["zone"]
        # Strings get zone maps too: byte-prefix bounds plus a Bloom digest
        # for low-cardinality blocks.
        city = remote._zone_map(remote.column_entry("city"))
        assert len(city.bounds) == len(city.entries)
        assert all(string_bounds_from_json(item)[0] is not None for item in city.bounds)

    def test_without_zone_maps_results_identical(self, table):
        relation, with_maps = table
        without = _committed(relation, BtrBlocksConfig(block_size=1000), with_stats=False)
        assert "zone" not in without.column_entry("id")
        where = {"id": Between(1500, 1600)}
        assert with_maps.matching_rows(where) == without.matching_rows(where)


# -- the process-wide manifest memo --------------------------------------------


def _zone_maps(handle: RemoteTable) -> dict:
    return {name: handle._zone_map(handle.column_entry(name)) for name in handle.column_names()}


def _assert_same(got, want) -> None:
    assert [column.name for column in got.columns] == [column.name for column in want.columns]
    assert all(columns_equal(a, b) for a, b in zip(got.columns, want.columns))


class TestManifestMemo:
    WHERE = {"id": Between(1500, 1600), "city": Equals("OSLO")}

    def test_a_fresh_handle_on_unchanged_bytes_parses_nothing(self, table, monkeypatch):
        """The second handle hits the memo, runs no ``json.loads`` and no
        ``unpack_zone``, holds the first handle's zone maps, and answers
        exactly as a handle opened on an emptied memo."""
        _, first = table
        store, maps = first._store, _zone_maps(first)
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(json, "loads", counted(json.loads))
        monkeypatch.setattr(remote_table, "unpack_zone", counted(remote_table.unpack_zone))
        registry = MetricsRegistry()
        with use_registry(registry):
            second = RemoteTable.open(store, "sales")
            second_maps = _zone_maps(second)
        monkeypatch.undo()
        assert calls == []
        assert registry.get("cloud.table.manifest_cache.hit") == 1
        assert registry.get("cloud.table.manifest_cache.miss") == 0
        assert all(second_maps[name] is maps[name] for name in maps)
        assert not any(zone_map.entries.flags.writeable for zone_map in maps.values())
        answers = second.scan(), second.scan(where=self.WHERE)
        clear_manifest_cache()
        fresh = RemoteTable.open(store, "sales")
        assert _zone_maps(fresh)["id"] is not maps["id"]
        _assert_same(answers[0], fresh.scan())
        _assert_same(answers[1], fresh.scan(where=self.WHERE))

    def test_a_new_commit_misses(self, table):
        relation, first = table
        store = first._store
        TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=1000)))
        registry = MetricsRegistry()
        with use_registry(registry):
            second, again = RemoteTable.open(store, "sales"), RemoteTable.open(store, "sales")
        assert (first.version, second.version) == (1, 2)
        assert registry.get("cloud.table.manifest_cache.miss") == 1
        assert registry.get("cloud.table.manifest_cache.hit") == 1
        assert second._manifest is again._manifest is not first._manifest

    def test_a_stale_binding_is_found_by_every_handle(self, table):
        """Zone records bound to other CRC32s pass every check ``open`` can
        make; each handle that reads a described block rejects the map for
        itself (``zonemap.invalid`` once per handle) and the memo keeps it."""
        relation, first = table
        store = first._store

        def stale(body):
            def flip(records):
                records["crc"] ^= 1

            edit_zone(body["columns"][0], flip)

        forge(store, manifest_key("sales", 1), stale)
        where = {"id": Between(1500, 1600)}
        registry = MetricsRegistry()
        handles = []
        with use_registry(registry):
            for _ in range(2):
                handles.append(RemoteTable.open(store, "sales"))
                with pytest.raises(IntegrityError, match="zone map rejected"):
                    handles[-1].scan(columns=["id"], where=where)
            lenient = RemoteTable.open(store, "sales", on_corrupt="skip")
            ids = lenient.scan(columns=["id"], where=where).column("id").data
        assert registry.get("cloud.scan.zonemap.invalid") == 3
        assert registry.get("cloud.table.manifest_cache.hit") == 2
        assert [handle._zone_maps["id"] for handle in handles] == [None, None]
        assert handles[0]._manifest.zone_maps["id"] is not None
        assert np.asarray(ids).tolist() == list(range(1500, 1601))

    def test_the_memo_stays_within_its_budget(self, table, monkeypatch):
        relation, first = table
        store, memo = first._store, remote_table._manifests
        size = len(store.get(manifest_key("sales", 1)))
        clear_manifest_cache()
        monkeypatch.setattr(memo, "capacity_bytes", 3 * 8 * size)
        compressed = compress_relation(relation, BtrBlocksConfig(block_size=1000))
        for _ in range(5):
            TableWriter(store).write(compressed)
        registry = MetricsRegistry()
        with use_registry(registry):
            for version in range(1, 7):
                RemoteTable.open(store, "sales", version=version)
                assert memo.current_bytes <= memo.capacity_bytes
        assert registry.get("cloud.table.manifest_cache.miss") == 6
        assert registry.get("cloud.table.manifest_cache.evict") == 3
        assert len(memo) == 3
