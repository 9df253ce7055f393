"""A selective scan's row set is one sorted position array.

``collect_matches`` returns the matching rows as one strictly increasing
``int64`` array; ``RemoteTable.scan`` intersects conjunctive predicates on
those arrays and materialises from them. A Roaring bitmap is built only
where the API returns one (``matching_rows``, ``scan_column``,
``pruned_scan``, a result column's NULLs), so a scan of a NULL-free table
builds none and expands none. Conjunctions (overlapping, disjoint -- the
empty early exit -- and one predicate matching everything) must agree with
the NumPy decompress-then-mask oracle and with the Roaring ``&`` of the
single-predicate bitmaps, on ``RemoteTable`` and on ``scan_column``.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.relation import Relation
from repro.metadata import pruned_scan
from repro.query.executor import collect_matches, enumerate_blocks, scan_column
from repro.query.predicates import Between, GreaterThan, LessThan
from repro.types import Column

ROWS = 8192
BLOCK = 1024


def _arrays() -> "dict[str, np.ndarray]":
    rng = np.random.default_rng(36)
    k = np.arange(ROWS, dtype=np.int32)
    return {
        "k": k,
        "r": (ROWS - 1 - k).astype(np.int32),
        "a": rng.integers(0, 1001, ROWS).astype(np.int32),
        "b": ((k // 64) % 50).astype(np.int32),
    }


@pytest.fixture(scope="module")
def table():
    arrays = _arrays()
    relation = Relation("t", [Column.ints(name, values) for name, values in arrays.items()])
    compressed = compress_relation(relation, BtrBlocksConfig(block_size=BLOCK))
    store = SimulatedObjectStore()
    TableWriter(store).write(compressed)
    return store, arrays, {column.name: column for column in compressed.columns}


def _oracle(arrays, where) -> np.ndarray:
    mask = np.ones(ROWS, dtype=bool)
    for name, predicate in where.items():
        mask &= np.asarray(predicate.evaluate(arrays[name]), dtype=bool)
    return np.flatnonzero(mask)


class _BitmapSpy:
    """Counts ``RoaringBitmap.from_positions`` and ``to_array`` calls."""

    def __init__(self, monkeypatch) -> None:
        self.calls: "list[str]" = []
        build = RoaringBitmap.from_positions.__func__
        expand = RoaringBitmap.to_array

        def from_positions(cls, positions):
            self.calls.append("from_positions")
            return build(cls, positions)

        def to_array(bitmap):
            self.calls.append("to_array")
            return expand(bitmap)

        monkeypatch.setattr(RoaringBitmap, "from_positions", classmethod(from_positions))
        monkeypatch.setattr(RoaringBitmap, "to_array", to_array)


@pytest.mark.parametrize("handle", ["fresh", "warm"])
@pytest.mark.parametrize("columns", [["a"], ["k", "a"], ["b"]], ids=str)
def test_single_predicate_scan_builds_no_bitmap(table, monkeypatch, handle, columns):
    store, arrays, _ = table
    remote = RemoteTable.open(store, "t")
    if handle == "warm":
        remote.scan()
        remote.scan()
    where = {"a": Between(100, 140)}
    spy = _BitmapSpy(monkeypatch)
    got = remote.scan(columns, where=where)
    assert spy.calls == []
    rows = _oracle(arrays, where)
    for column in got.columns:
        assert column.nulls is None
        np.testing.assert_array_equal(column.data, arrays[column.name][rows])


def test_collect_matches_returns_sorted_int64_positions(table):
    _, arrays, compressed = table
    column = compressed["a"]
    predicate = Between(100, 140)
    rows, handover = collect_matches(enumerate_blocks(column), column.ctype, predicate)
    assert rows.dtype == np.int64 and handover is None
    np.testing.assert_array_equal(rows, _oracle(arrays, {"a": predicate}))
    empty, _ = collect_matches(enumerate_blocks(column), column.ctype, Between(-9, -1))
    assert empty.dtype == np.int64 and empty.size == 0


CONJUNCTIONS = {
    "overlapping": {"a": Between(100, 600), "b": Between(10, 30), "k": GreaterThan(1000)},
    "disjoint": {"k": LessThan(3000), "r": LessThan(3000), "a": Between(0, 1000)},
    "one matches all": {"a": Between(0, 1000), "k": Between(500, 7000)},
    "all match all": {"a": Between(0, 1000), "b": LessThan(50)},
}


@pytest.mark.parametrize("handle", ["fresh", "warm"])
@pytest.mark.parametrize("case", list(CONJUNCTIONS))
def test_conjunction_matches_oracle_and_roaring_and(table, handle, case):
    store, arrays, compressed = table
    where = CONJUNCTIONS[case]
    expected = _oracle(arrays, where)
    warm = RemoteTable.open(store, "t")
    if handle == "warm":
        warm.scan()

    def remote() -> RemoteTable:
        return warm if handle == "warm" else RemoteTable.open(store, "t")

    got = remote().scan(["k", "a"], where=where)
    np.testing.assert_array_equal(got.columns[0].data, expected)
    np.testing.assert_array_equal(got.columns[1].data, arrays["a"][expected])

    bitmap = remote().matching_rows(where)
    assert isinstance(bitmap, RoaringBitmap)
    np.testing.assert_array_equal(bitmap.to_array(), expected)
    one_by_one = [remote().matching_rows({name: p}) for name, p in where.items()]
    assert functools.reduce(operator.and_, one_by_one) == bitmap
    assert remote().count(where) == expected.size

    scanned = [scan_column(compressed[name], p) for name, p in where.items()]
    assert all(isinstance(bm, RoaringBitmap) for bm in scanned)
    np.testing.assert_array_equal(functools.reduce(operator.and_, scanned).to_array(), expected)


def test_disjoint_conjunction_stops_after_the_empty_filter(table):
    store, _, _ = table
    remote = RemoteTable.open(store, "t")
    steps = [step.kind for step in _steps(remote, ["k"], CONJUNCTIONS["disjoint"])]
    assert steps == ["filter", "filter", "materialise"]


def _steps(remote: RemoteTable, columns, where):
    gen = remote.scan_steps(columns, where=where)
    while True:
        try:
            yield next(gen)
        except StopIteration as stop:
            assert len(stop.value.columns[0].data) == 0
            return


def test_pruned_scan_returns_a_bitmap(table):
    _, _, compressed = table
    rows, blocks_read = pruned_scan(compressed["k"], Between(1500, 2600))
    assert isinstance(rows, RoaringBitmap) and blocks_read == 2
    np.testing.assert_array_equal(rows.to_array(), np.arange(1500, 2601))
