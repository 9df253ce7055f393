"""Pushdown equivalence: predicate scans must be invisible to the answer.

Every fast path a predicate can take — compressed-domain execution, local
zone-map pruning, manifest zone maps skipping whole GETs on the cloud path,
Bloom-digest probes on strings — is an *optimisation*, so the one property
that matters is that none of them can change a query result. This suite
locks that down the brute-force way: random relations × every predicate
type × several null layouts, with the oracle computed independently in
plain NumPy over the uncompressed data, and the answers compared
bit-for-bit (``columns_equal`` — NaN payloads and negative zero included).

Two execution surfaces over a committed (``TableWriter``) table are
checked against the same oracle:

* :class:`~repro.cloud.remote_table.RemoteTable.scan` on a fresh handle per
  case — the manifest-pruned block-GET path;
* one *warm* handle reused across every case, whose decode cache serves
  later filters over decoded values instead of the compressed cascade.

Seeds are fixed per parameter id, so a failure replays deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.relation import Relation
from repro.query.predicates import (
    Between,
    Equals,
    GreaterThan,
    In,
    IsNull,
    LessThan,
)
from repro.types import Column, ColumnType, StringArray, columns_equal

ROWS = 3000
BLOCK = 512

CITIES = ["OSLO", "PARIS", "ROME", "ATHENS", "PHOENIX", "RALEIGH", "BERGEN"]


# -- random relations ----------------------------------------------------------


def _null_bitmap(rng, rows: int, layout: str) -> "RoaringBitmap | None":
    if layout == "none":
        return None
    if layout == "sparse":
        positions = rng.choice(rows, size=max(1, rows // 20), replace=False)
    elif layout == "dense":
        positions = rng.choice(rows, size=rows // 2, replace=False)
    else:  # "blocky": whole runs of NULLs, aligned badly with block edges
        start = int(rng.integers(0, rows // 2))
        positions = np.arange(start, min(rows, start + rows // 3))
    return RoaringBitmap.from_positions(np.sort(positions))


def _make_relation(seed: int, null_layout: str) -> Relation:
    """Columns picked to push the selector into different scheme families:
    a clustered sorted key (prunable), a skewed small-domain int, round
    decimals, and low-cardinality strings (dict/FSST territory)."""
    rng = np.random.default_rng(seed)
    key = np.sort(rng.integers(0, 100_000, ROWS)).astype(np.int32)
    skew = np.where(
        rng.random(ROWS) < 0.9, 7, rng.integers(0, 1000, ROWS)
    ).astype(np.int32)
    price = np.round(rng.uniform(0.0, 500.0, ROWS), 2)
    city = [CITIES[i] for i in rng.integers(0, len(CITIES), ROWS)]
    return Relation(
        "pushdown",
        [
            Column.ints("key", key, nulls=_null_bitmap(rng, ROWS, null_layout)),
            Column.ints("skew", skew),
            Column.doubles("price", price, nulls=_null_bitmap(rng, ROWS, null_layout)),
            Column.strings("city", city, nulls=_null_bitmap(rng, ROWS, null_layout)),
        ],
    )


# -- the oracle: plain NumPy over the uncompressed relation --------------------


def _oracle_mask(relation: Relation, where: dict) -> np.ndarray:
    """Conjunction semantics, computed independently of every fast path:
    value predicates never match NULL rows; IsNull matches exactly them."""
    mask = np.ones(len(relation.columns[0]), dtype=bool)
    for name, predicate in where.items():
        column = relation.column(name)
        nulls = np.zeros(len(column), dtype=bool)
        if column.nulls is not None:
            nulls[column.nulls.to_array()] = True
        if isinstance(predicate, IsNull):
            mask &= nulls
        else:
            mask &= predicate.evaluate(column.data) & ~nulls
    return mask


def _filter_relation(relation: Relation, names: list, mask: np.ndarray) -> list:
    """The expected output columns for ``scan(columns=names, where=...)``."""
    positions = np.flatnonzero(mask)
    out = []
    for name in names:
        column = relation.column(name)
        if column.ctype is ColumnType.STRING:
            values = column.data
            data = StringArray.from_pylist([values[int(i)] for i in positions])
        else:
            data = np.asarray(column.data)[positions]
        nulls = None
        if column.nulls is not None:
            null_mask = np.zeros(len(column), dtype=bool)
            null_mask[column.nulls.to_array()] = True
            kept = np.flatnonzero(null_mask[positions])
            if kept.size:
                nulls = RoaringBitmap.from_positions(kept)
        out.append(Column(name, column.ctype, data, nulls))
    return out


# -- predicate bank ------------------------------------------------------------


def _predicate_cases(relation: Relation) -> list:
    """(id, where) pairs covering every predicate type at several
    selectivities, derived from the data so they always straddle real
    values."""
    key = np.asarray(relation.column("key").data)
    price = np.asarray(relation.column("price").data)
    lo, mid, hi = (
        int(np.quantile(key, 0.02)),
        int(np.quantile(key, 0.5)),
        int(np.quantile(key, 0.98)),
    )
    return [
        ("equals-int", {"skew": Equals(7)}),
        ("equals-int-absent", {"key": Equals(-12345)}),
        ("equals-str", {"city": Equals("OSLO")}),
        ("equals-str-absent", {"city": Equals("ZANZIBAR")}),
        ("gt", {"key": GreaterThan(hi)}),
        ("gt-inclusive", {"key": GreaterThan(mid, inclusive=True)}),
        ("lt", {"key": LessThan(lo)}),
        ("lt-inclusive-double", {"price": LessThan(float(np.quantile(price, 0.1)), inclusive=True)}),
        ("between-narrow", {"key": Between(lo, lo + 50)}),
        ("between-all", {"key": Between(int(key.min()), int(key.max()))}),
        ("between-empty", {"key": Between(hi + 10_000, hi + 20_000)}),
        ("between-str", {"city": Between("A", "P")}),
        ("in-int", {"skew": In([7, 11, 999999])}),
        ("in-str", {"city": In(["PARIS", "BERGEN", "NOWHERE"])}),
        ("in-empty", {"key": In([])}),
        ("isnull", {"key": IsNull()}),
        ("isnull-str", {"city": IsNull()}),
        ("conjunction", {"key": Between(lo, hi), "city": Equals("ROME"), "skew": Equals(7)}),
        ("conjunction-null", {"price": GreaterThan(100.0), "city": IsNull()}),
    ]


def _assert_scan_equal(got: Relation, relation: Relation, names, mask, context: str):
    expected = _filter_relation(relation, list(names), mask)
    assert len(got.columns) == len(expected), context
    for mine, theirs in zip(got.columns, expected):
        assert columns_equal(mine, theirs), (
            f"{context}: column {theirs.name!r} diverged from the NumPy oracle"
        )


NULL_LAYOUTS = ["none", "sparse", "dense", "blocky"]
SEEDS = [101, 202]


@pytest.mark.parametrize("null_layout", NULL_LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS)
class TestEquivalence:
    """One committed table per (seed, layout); every predicate case runs
    against all three execution surfaces inside the test to amortise setup."""

    _cache: dict = {}

    @pytest.fixture()
    def setup(self, seed, null_layout):
        # One compression + commit per (seed, layout); the surface tests
        # only ever read from the store, so sharing is safe.
        key = (seed, null_layout)
        if key not in self._cache:
            relation = _make_relation(seed, null_layout)
            store = SimulatedObjectStore()
            TableWriter(store).write(
                compress_relation(relation, BtrBlocksConfig(block_size=BLOCK))
            )
            self._cache[key] = (relation, store)
        return self._cache[key]

    def test_warm_handle_matches_oracle(self, setup):
        relation, store = setup
        table = RemoteTable.open(store, relation.name)
        names = [c.name for c in relation.columns]
        table.scan(columns=names)  # fill the decode cache
        for case_id, where in _predicate_cases(relation):
            mask = _oracle_mask(relation, where)
            got = table.scan(columns=names, where=where)
            _assert_scan_equal(got, relation, names, mask, f"warm/{case_id}")
            assert table.count(where) == int(mask.sum()), f"warm/{case_id}"

    def test_remote_scan_matches_oracle(self, setup):
        relation, store = setup
        names = [c.name for c in relation.columns]
        for case_id, where in _predicate_cases(relation):
            mask = _oracle_mask(relation, where)
            table = RemoteTable.open(store, relation.name)  # cold: no caches
            got = table.scan(columns=names, where=where)
            _assert_scan_equal(got, relation, names, mask, f"remote/{case_id}")


def test_pruned_scan_never_fetches_more_than_full():
    """The pruned path is a strict optimisation in bytes moved as well."""
    relation = _make_relation(7, "sparse")
    compressed = compress_relation(relation, BtrBlocksConfig(block_size=BLOCK))
    store = SimulatedObjectStore()
    TableWriter(store).write(compressed)

    table = RemoteTable.open(store, relation.name)
    store.stats.reset()
    table.scan(columns=["price"])
    full_bytes = store.stats.bytes_downloaded

    key = np.asarray(relation.column("key").data)
    where = {"key": Between(int(key[0]), int(key[ROWS // 100]))}
    table = RemoteTable.open(store, relation.name)
    store.stats.reset()
    table.scan(columns=["price"], where=where)
    assert 0 < store.stats.bytes_downloaded <= full_bytes


def test_stats_disabled_still_equivalent():
    """collect_stats=False tables answer identically — just without pruning."""
    relation = _make_relation(11, "sparse")
    config = BtrBlocksConfig(block_size=BLOCK, collect_stats=False)
    compressed = compress_relation(relation, config)
    store = SimulatedObjectStore()
    TableWriter(store).write(compressed)
    table = RemoteTable.open(store, relation.name)
    names = [c.name for c in relation.columns]
    for case_id, where in _predicate_cases(relation):
        mask = _oracle_mask(relation, where)
        got = table.scan(columns=names, where=where)
        _assert_scan_equal(got, relation, names, mask, f"stats-less/{case_id}")
