"""The filter step reads the decode cache: warm ≡ cold ≡ the NumPy oracle.

A number block that a warm :class:`~repro.core.cache.DecodeCache` serves is
filtered over its decoded values (``executor.block_mask``); every other
block — a cold handle's, a string column's, any block under ``IsNull`` — is
walked through its compressed cascade by ``scan_block``, and so is a One
Value or Uncompressed block, which it answers as fast. Both routes must give the
same rows, for every number scheme family at the root of the cascade x NULL
layout x predicate kind, on both filter routes of a ``RemoteTable``: the
zone-mapped one (stats in the manifest, survivors by ranged GET) and the
full-column fallback of a stats-less table. A damaged block behind a warm
cache must get exactly what it gets without one.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core.blocks import CompressedBlock, CompressedColumn
from repro.core.cache import DecodeCache
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.core.relation import Relation
from repro.encodings.base import SchemeId
from repro.encodings.wire import unwrap
from repro.exceptions import BtrBlocksError
from repro.observe import MetricsRegistry, use_registry
from repro.query import executor
from repro.query.predicates import Between, Equals, GreaterThan, In, IsNull, LessThan
from repro.types import Column

ROWS = 4096
BLOCK = 1024
LEAVES = {SchemeId.UNCOMPRESSED_INT, SchemeId.UNCOMPRESSED_DOUBLE, SchemeId.FAST_BP128}
#: Roots the filter always scans: one comparison decides a One Value block,
#: an Uncompressed payload already is the values.
SCANNED = {
    SchemeId.ONE_VALUE_INT, SchemeId.ONE_VALUE_DOUBLE,
    SchemeId.UNCOMPRESSED_INT, SchemeId.UNCOMPRESSED_DOUBLE,
}


def _families() -> "dict[str, tuple[int, Column]]":
    """``root scheme id, column`` per number scheme a block can be rooted in."""
    rng = np.random.default_rng(28)
    runs = np.repeat(rng.integers(0, 50, ROWS // 16), 16)
    rare = rng.integers(0, 10_000, ROWS)
    common = rng.random(ROWS) < 0.9
    outliers = rng.random(ROWS) < 0.02
    pfor = rng.integers(0, 64, ROWS)
    pfor[outliers] = rng.integers(2**20, 2**28, int(outliers.sum()))
    sparse = rng.integers(0, 12, ROWS) * 1_000_003
    prices = np.round(rng.uniform(0, 10_000, ROWS), 2)
    return {
        "one_value_int": (SchemeId.ONE_VALUE_INT, Column.ints("v", np.full(ROWS, 7))),
        "rle_int": (SchemeId.RLE_INT, Column.ints("v", runs)),
        "dict_int": (SchemeId.DICT_INT, Column.ints("v", sparse)),
        "frequency_int": (SchemeId.FREQUENCY_INT, Column.ints("v", np.where(common, 42, rare))),
        "fastbp128": (SchemeId.FAST_BP128, Column.ints("v", rng.integers(0, 255, ROWS))),
        "fastpfor": (SchemeId.FAST_PFOR, Column.ints("v", pfor)),
        "uncompressed_int": (
            SchemeId.UNCOMPRESSED_INT,
            Column.ints("v", rng.integers(-(2**31), 2**31 - 1, ROWS)),
        ),
        "one_value_double": (SchemeId.ONE_VALUE_DOUBLE, Column.doubles("v", np.full(ROWS, 2.5))),
        "rle_double": (SchemeId.RLE_DOUBLE, Column.doubles("v", runs * 0.25)),
        "dict_double": (SchemeId.DICT_DOUBLE, Column.doubles("v", sparse * 0.5)),
        "frequency_double": (
            SchemeId.FREQUENCY_DOUBLE, Column.doubles("v", np.where(common, 4.25, rare * 0.5))
        ),
        "pseudodecimal": (SchemeId.PSEUDODECIMAL, Column.doubles("v", prices)),
        "uncompressed_double": (
            SchemeId.UNCOMPRESSED_DOUBLE, Column.doubles("v", rng.standard_normal(ROWS) * 1e300)
        ),
    }


FAMILIES = _families()

NULL_LAYOUTS = {
    "no_nulls": None,
    "sparse_nulls": lambda n: np.arange(0, n, 97),
    "dense_nulls": lambda n: np.arange(0, n, 2),
}


def _with_nulls(column: Column, layout: str) -> Column:
    make = NULL_LAYOUTS[layout]
    if make is None:
        return column
    return Column(column.name, column.ctype, column.data, RoaringBitmap.from_positions(make(ROWS)))


def _config(root: int) -> BtrBlocksConfig:
    return BtrBlocksConfig(block_size=BLOCK).with_pool(LEAVES | {root})


def _predicates(values: np.ndarray) -> "dict[str, object]":
    """Each predicate kind, with constants drawn from the column's values."""
    ordered = np.sort(values)
    low, mid, high = (ordered[int(q * (ROWS - 1))].item() for q in (0.25, 0.5, 0.75))
    return {
        "equals": Equals(mid),
        "in": In([low, high, ordered[-1].item() + 1]),
        "between": Between(low, high),
        "greater_than": GreaterThan(mid),
        "at_least": GreaterThan(mid, inclusive=True),
        "less_than": LessThan(mid),
        "at_most": LessThan(mid, inclusive=True),
        "is_null": IsNull(),
    }


def _oracle(column: Column, predicate) -> np.ndarray:
    nulls = column.nulls.to_mask(ROWS) if column.nulls is not None else np.zeros(ROWS, bool)
    if isinstance(predicate, IsNull):
        return np.flatnonzero(nulls)
    return np.flatnonzero(np.asarray(predicate.evaluate(column.data), dtype=bool) & ~nulls)


def _store(column: Column, root: int) -> SimulatedObjectStore:
    """Both filter routes' tables: ``zoned`` (manifest stats) and ``plain``."""
    relation = Relation("zoned", [column, Column.ints("id", np.arange(ROWS))])
    compressed = compress_relation(relation, _config(root))
    roots = {unwrap(block.data)[0] for block in compressed.columns[0].blocks}
    assert roots == {root}, roots
    store = SimulatedObjectStore()
    writer = TableWriter(store)
    writer.write(compressed)
    compressed.name = "plain"
    writer.write(compressed, with_stats=False)
    return store


def _matching(table: RemoteTable, predicate) -> "tuple[np.ndarray, MetricsRegistry, int]":
    """``(rows, registry, scan_block calls)`` of one filter step."""
    registry = MetricsRegistry()
    with use_registry(registry), mock.patch.object(
        executor, "scan_block", wraps=executor.scan_block
    ) as scans:
        rows = table.matching_rows({"v": predicate}).to_array().astype(np.int64)
    return rows, registry, scans.call_count


@pytest.mark.parametrize("layout", sorted(NULL_LAYOUTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_warm_cold_and_oracle_agree(family, layout):
    root, source = FAMILIES[family]
    column = _with_nulls(source, layout)
    store = _store(column, root)
    for name in ("zoned", "plain"):
        warm = RemoteTable.open(store, name)
        warm.scan()  # number blocks enter the decode cache on first decode
        assert len(warm.decode_cache) == 2 * ROWS // BLOCK
        for label, predicate in _predicates(np.asarray(source.data)).items():
            case = f"{name}/{label}"
            want = _oracle(column, predicate)
            cold_rows, cold, _ = _matching(RemoteTable.open(store, name), predicate)
            warm_rows, served, scans = _matching(warm, predicate)
            assert np.array_equal(cold_rows, want), case
            assert np.array_equal(warm_rows, want), case
            assert cold.get("decode.cache.hit") == 0, case
            assert served.get("decode.cache.miss") == 0, case
            assert served.get("cloud.scan.zonemap.consulted") == (name == "zoned"), case
            if isinstance(predicate, IsNull) or root in SCANNED:
                # Answered from the bitmap / scanned as fast: never looked up.
                assert served.get("decode.cache.hit") == 0, case
                assert scans == served.get("query.cdomain.blocks"), case
            else:  # every scanned block was served: the cascade is never walked
                assert scans == 0 and served.get("query.cdomain.blocks") == 0, case
                assert served.get("decode.cache.hit") == cold.get("query.cdomain.blocks"), case
            result = warm.scan(columns=["id"], where={"v": predicate})
            assert np.array_equal(result.column("id").data, want), case
            assert len(warm.decode_cache) == 2 * ROWS // BLOCK, case  # nothing admitted


def _damaged(compressed: CompressedColumn, index: int) -> CompressedColumn:
    """Block ``index`` with one payload byte flipped under its old checksum."""
    blocks = list(compressed.blocks)
    block = blocks[index]
    data = bytearray(block.data)
    data[len(data) // 2] ^= 0x10
    blocks[index] = CompressedBlock(block.count, bytes(data), block.nulls, block.checksum)
    return CompressedColumn(compressed.name, compressed.ctype, blocks)


def _outcome(scan):
    try:
        return scan().to_array()
    except BtrBlocksError as exc:
        return type(exc)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_filter_damage_behind_a_warm_cache_takes_the_miss_path(family):
    """``scan_column`` does not verify what it scans (its callers verified
    the download); a cached entry is still only served for an intact block,
    so a damaged one gets exactly the uncached treatment."""
    root, source = FAMILIES[family]
    column = _with_nulls(source, "sparse_nulls")
    compressed = column_from_bytes(column_to_bytes(compress_column(column, _config(root))))
    warm, key = DecodeCache(64 << 20), ("obj", 1)
    decompress_column(compressed, cache=warm, cache_key=key)
    blocks = len(compressed.blocks)
    for label, predicate in _predicates(np.asarray(source.data)).items():
        if isinstance(predicate, IsNull) or root in SCANNED:
            continue
        for index in range(blocks):
            damaged = _damaged(compressed, index)
            registry = MetricsRegistry()
            with use_registry(registry):
                cached = _outcome(
                    lambda: executor.scan_column(damaged, predicate, cache=warm, cache_key=key)
                )
            plain = _outcome(lambda: executor.scan_column(damaged, predicate))
            case = f"{label}/block {index}"
            if isinstance(plain, np.ndarray):
                assert np.array_equal(cached, plain), case
                assert registry.get("decode.cache.miss") == 1, case
                assert registry.get("decode.cache.hit") == blocks - 1, case
            else:
                assert cached is plain, case

