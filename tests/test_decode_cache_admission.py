"""The decode cache at handle level: what a ``RemoteTable`` admits, and when.

Number blocks enter the decode cache the first time a handle decodes them.
String blocks enter it only when the handle decodes a column whose
compressed bytes it *already held* in its column cache — a re-scan, or a
second handle on shared caches — so a one-shot handle retains nothing it
will never read again (``docs/PERFORMANCE.md`` §5 has the measurements).
Look-ups always happen, on the scan path and under ``scan(where=)`` — in
its materialising read, and in its filter for number columns — and a
handle's ``DecodeLimits`` bind on every one of those routes.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.cloud import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core import access, decompressor
from repro.core.cache import ByteBudgetLRU, DecodeCache
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig, DecodeLimits
from repro.core.relation import Relation
from repro.exceptions import DecodeLimitError
from repro.observe import MetricsRegistry, use_registry
from repro.query import executor
from repro.query.predicates import Between, Equals
from repro.types import Column, ColumnType, columns_equal

ROWS = 4096
BLOCKS = 4  # per column, at block_size 1024
NUMBERS = ("key", "price")
STRINGS = ("status", "url")


def _relation() -> Relation:
    rng = np.random.default_rng(19)
    vocab = ["open", "shipped", "returned", "lost"]
    return Relation(
        "orders",
        [
            Column.ints("key", np.arange(ROWS)),
            Column.doubles("price", np.round(rng.uniform(0, 500, ROWS), 2)),
            Column.strings("status", [vocab[i] for i in rng.integers(0, 4, ROWS)]),
            Column.strings(
                "url", [f"https://example.com/o/{int(x):08x}" for x in rng.integers(0, 2**31, ROWS)]
            ),
        ],
    )


@pytest.fixture()
def store():
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(_relation(), BtrBlocksConfig(block_size=1024)))
    return store


@contextmanager
def _spied(*targets):
    """Wrap each ``(module, name)`` in a pass-through mock; yields the mocks."""
    with ExitStack() as stack:
        yield [
            stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
            for module, name in targets
        ]


def _block_decodes():
    """Spies on every full-block decode a scan can make: a column decode
    fills its blocks through ``decompressor.fill_block``, which calls
    ``decode_block`` on every block the cache does not serve."""
    return _spied((decompressor, "decode_block"))


def _calls(spies) -> int:
    return sum(spy.call_count for spy in spies)


def _steps(table: RemoteTable, **kwargs) -> list:
    """Drive ``scan_steps`` to completion; every ``ScanStep`` it yielded."""
    return list(table.scan_steps(**kwargs))


def _assert_scan_is_the_source(relation: Relation) -> None:
    for mine, theirs in zip(relation.columns, _relation().columns):
        assert columns_equal(mine, theirs)


def test_fresh_handle_admits_strings_on_its_second_scan(store):
    table = RemoteTable.open(store, "orders")
    table.scan()
    assert len(table.decode_cache) == len(NUMBERS) * BLOCKS  # first touch: numbers only
    table.scan()
    assert len(table.decode_cache) == (len(NUMBERS) + len(STRINGS)) * BLOCKS
    with _block_decodes() as decodes:
        _assert_scan_is_the_source(table.scan())
        steps = _steps(table)
    assert _calls(decodes) == 0
    column_steps = [step for step in steps if step.kind == "column"]
    assert {step.column for step in column_steps} == set(NUMBERS + STRINGS)
    for step in column_steps:
        compressed = table.fetch_column(step.column)
        assert (step.cache_hits, step.cache_misses) == (BLOCKS, 0)
        assert step.decode_bytes == compressed.nbytes


def test_second_handle_on_shared_caches_admits_on_its_first_scan(store):
    column_cache, decode_cache = ByteBudgetLRU(1 << 24), DecodeCache(1 << 24)
    first, second = (
        RemoteTable.open(store, "orders", column_cache=column_cache, decode_cache=decode_cache)
        for _ in range(2)
    )
    first.scan()
    assert len(decode_cache) == len(NUMBERS) * BLOCKS
    # The second handle finds the compressed columns held: its first scan is
    # a re-decode through the pair of caches, which is what admits strings.
    _assert_scan_is_the_source(second.scan())
    assert len(decode_cache) == (len(NUMBERS) + len(STRINGS)) * BLOCKS
    with _block_decodes() as decodes:
        _assert_scan_is_the_source(first.scan())
    assert _calls(decodes) == 0


def test_download_serves_strings_a_shared_cache_holds(store):
    """A column decode fills every block through the cache's gate: a handle
    that downloads the columns itself still serves the string blocks another
    handle admitted to a shared decode cache, and admits none."""
    decode_cache = DecodeCache(1 << 24)
    warm = RemoteTable.open(store, "orders", decode_cache=decode_cache)
    warm.scan()
    warm.scan()  # a held column's decode: strings admitted
    entries = len(decode_cache)
    assert entries == (len(NUMBERS) + len(STRINGS)) * BLOCKS
    fresh = RemoteTable.open(store, "orders", decode_cache=decode_cache)
    registry = MetricsRegistry()
    with use_registry(registry), _block_decodes() as decodes:
        _assert_scan_is_the_source(fresh.scan())
    assert _calls(decodes) == 0
    assert registry.get("cloud.table.column_cache.miss") == len(NUMBERS + STRINGS)
    assert (registry.get("decode.cache.hit"), registry.get("decode.cache.miss")) == (entries, 0)
    assert len(decode_cache) == entries


WHERE = {"key": Between(1000, 2999)}  # three of the four blocks, one whole
SURVIVORS = 3


def test_selective_scan_reads_a_warm_cache_and_never_fills_a_cold_one(store):
    """Both halves of ``scan(where=)`` read the cache: the filter looks up
    the key column's three surviving blocks and answers them over their
    cached values (no ``scan_block``), handing those values on to the
    projected key column; the materialising read looks up the three touched
    blocks of each of the other three columns."""
    warm = RemoteTable.open(store, "orders")
    for _ in range(3):
        warm.scan()
    entries = len(warm.decode_cache)
    registry = MetricsRegistry()
    with use_registry(registry), _spied(
        (access, "_decode_node"), (executor, "scan_block")
    ) as (decodes, scans):
        served = warm.scan(columns=list(NUMBERS + STRINGS), where=WHERE)
    assert decodes.call_count == 0  # every touched block of every column came from the cache
    assert scans.call_count == 0  # and so did every filter block
    looked_up = SURVIVORS + 3 * 3
    assert registry.get("decode.cache.hit") == looked_up and registry.get("decode.cache.miss") == 0
    assert registry.get("query.cdomain.filtered.rows_total") == 4 * 3 * 1024
    assert registry.get("query.cdomain.filtered.reused_blocks") == SURVIVORS
    assert registry.get("query.cdomain.blocks") == 0
    assert len(warm.decode_cache) == entries

    cold = RemoteTable.open(store, "orders")
    registry = MetricsRegistry()
    with use_registry(registry), _spied((executor, "scan_block")) as (scans,):
        decoded = cold.scan(columns=list(NUMBERS + STRINGS), where=WHERE)
    assert scans.call_count == SURVIVORS
    assert len(cold.decode_cache) == 0  # neither half fills the cache
    assert registry.get("decode.cache.hit") == 0 and registry.get("decode.cache.miss") == looked_up
    source = _relation()
    for mine, theirs in zip(served.columns, decoded.columns):
        assert columns_equal(mine, theirs)
        assert columns_equal(mine, source.column(mine.name).slice(1000, 3000))


def test_string_filter_stays_in_code_space_behind_a_warm_cache(store):
    """A string filter column is scanned in the compressed domain even when
    the cache holds its blocks: ``scan_block`` once per block, no look-up."""
    warm = RemoteTable.open(store, "orders")
    for _ in range(2):
        warm.scan()
    assert len(warm.decode_cache) == (len(NUMBERS) + len(STRINGS)) * BLOCKS
    registry = MetricsRegistry()
    with use_registry(registry), _spied((executor, "scan_block")) as (scans,):
        served = warm.scan(columns=["key"], where={"status": Equals("shipped")})
    assert scans.call_count == BLOCKS
    assert registry.get("query.cdomain.blocks") == BLOCKS
    assert registry.get("decode.cache.hit") == BLOCKS  # the materialised key column
    assert registry.get("decode.cache.miss") == 0
    source = _relation()
    shipped = np.flatnonzero(np.array(list(source.column("status").data)) == b"shipped")
    assert np.array_equal(served.column("key").data, source.column("key").data[shipped])


class TestDecodeLimitsBindOnTheSelectivePath:
    """``scan(where=)`` raises wherever ``scan()`` does: limits bind before
    any block is scanned, decoded or served from the cache."""

    LIMITS = DecodeLimits(max_rows_per_block=100)

    def _assert_both_raise(self, table: RemoteTable) -> None:
        with pytest.raises(DecodeLimitError):
            table.scan()
        for column in NUMBERS + STRINGS:
            with pytest.raises(DecodeLimitError):
                table.scan(columns=[column], where=WHERE)

    def test_ranged_get_route(self, store):
        self._assert_both_raise(RemoteTable.open(store, "orders", decode_limits=self.LIMITS))

    def test_cached_column_route(self, store):
        column_cache = ByteBudgetLRU(1 << 24)
        RemoteTable.open(store, "orders", column_cache=column_cache).scan()
        limited = RemoteTable.open(
            store, "orders", column_cache=column_cache, decode_limits=self.LIMITS
        )
        assert limited.column_entry("url")["file"] in column_cache
        self._assert_both_raise(limited)

    def test_cache_hit_route(self, store):
        column_cache, decode_cache = ByteBudgetLRU(1 << 24), DecodeCache(1 << 24)
        trusting = RemoteTable.open(
            store, "orders", column_cache=column_cache, decode_cache=decode_cache
        )
        for _ in range(2):
            trusting.scan()
        limited = RemoteTable.open(
            store,
            "orders",
            column_cache=column_cache,
            decode_cache=decode_cache,
            decode_limits=self.LIMITS,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            self._assert_both_raise(limited)
            # Past the filter step too: the materialising read on its own.
            for column in NUMBERS + STRINGS:
                with pytest.raises(DecodeLimitError):
                    limited._materialise_rows(column, np.arange(1000, 3000))
        assert registry.get("decode.cache.hit") == 0

    def test_sane_limits_still_answer(self, store):
        roomy = RemoteTable.open(
            store, "orders", decode_limits=DecodeLimits(max_rows_per_block=1024)
        )
        result = roomy.scan(columns=["url"], where=WHERE)
        assert columns_equal(result.column("url"), _relation().column("url").slice(1000, 3000))
        assert result.column("url").ctype is ColumnType.STRING
