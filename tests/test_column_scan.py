"""The full-column scan: one ``column`` stage per projected column.

Without ``where``, :meth:`RemoteTable.scan_steps` yields one
:class:`~repro.cloud.remote_table.ScanStep` of kind ``"column"`` per
column: the column file is downloaded and checksum-verified by
``_download_column_verified`` (refetching damage up to the retry budget),
decoded through the handle's decode cache, and the step carries
``decode_bytes = compressed.nbytes`` — the size the server prices the
stage's decode by. These tests pin what each stage returns, what it moves,
what it bills and how it degrades.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud import FaultProfile, PricingModel, SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.cloud.retry import RetryPolicy
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.relation import Relation
from repro.exceptions import DeadlineExceededError, FormatError, IntegrityError
from repro.observe import MetricsRegistry, use_registry
from repro.types import Column, columns_equal

from manifest_forge import block_range

ROWS = 4096
BLOCKS = 4  # per column, at block_size 1024
CONFIG = BtrBlocksConfig(block_size=1024)


def _relation() -> Relation:
    rng = np.random.default_rng(23)
    vocab = ["open", "shipped", "returned", "lost"]
    every_seventh = RoaringBitmap.from_positions(np.arange(0, ROWS, 7))
    return Relation(
        "orders",
        [
            Column.ints("key", np.arange(ROWS)),
            Column.ints("qty", rng.integers(0, 255, ROWS)),
            Column.ints("flag", np.full(ROWS, 3)),
            Column.doubles("price", np.round(rng.uniform(0, 500, ROWS), 2)),
            Column.doubles("ratio", rng.uniform(0, 1, ROWS), nulls=every_seventh),
            Column.strings("status", [vocab[i] for i in rng.integers(0, 4, ROWS)]),
            Column.strings(
                "url",
                [f"https://example.com/o/{int(x):08x}" for x in rng.integers(0, 2**31, ROWS)],
            ),
            Column.strings(
                "note", [None if i % 5 == 0 else f"n{i % 37}" for i in range(ROWS)]
            ),
        ],
    )


RELATION = _relation()
NAMES = RELATION.column_names()
COMPRESSED = compress_relation(RELATION, CONFIG)


def _store(**kwargs) -> SimulatedObjectStore:
    store = SimulatedObjectStore(**kwargs)
    TableWriter(store).write(COMPRESSED)
    store.stats.reset()
    return store


def _steps(table: RemoteTable, columns=None, **kwargs):
    """Drive ``scan_steps`` as ``scan`` does; return (steps, relation)."""
    gen = table.scan_steps(columns, **kwargs)
    steps = []
    while True:
        try:
            step = next(gen)
        except StopIteration as stop:
            return steps, stop.value
        table._store.clock.sleep(step.clock_seconds)
        steps.append(step)


def _damage_at_rest(store: SimulatedObjectStore, table: RemoteTable, name: str, block: int):
    """Flip one payload bit of ``block`` in the stored column file."""
    entry = table.column_entry(name)
    offset, size = block_range(entry, block)
    damaged = bytearray(store._objects[entry["file"]])
    damaged[offset + size - 3] ^= 0x20
    store._objects[entry["file"]] = bytes(damaged)
    return entry


@pytest.mark.parametrize("name", NAMES)
def test_scan_matches_local_decompression(name):
    table = RemoteTable.open(_store(), RELATION.name)
    column = table.scan([name]).column(name)
    assert columns_equal(column, RELATION.column(name))
    assert columns_equal(column, decompress_column(COMPRESSED.column(name)))


@pytest.mark.parametrize(
    "projection",
    [None, ["status"], list(reversed(NAMES)), ["price", "key"]],
    ids=["all", "one", "reversed", "two"],
)
def test_one_column_step_per_projected_column_in_order(projection):
    table = RemoteTable.open(_store(), RELATION.name)
    steps, relation = _steps(table, projection)
    expected = NAMES if projection is None else projection
    assert [step.kind for step in steps] == ["column"] * len(expected)
    assert [step.column for step in steps] == expected
    assert relation.column_names() == expected


@pytest.mark.parametrize("name", NAMES)
def test_cold_step_moves_the_column_file_and_prices_its_compressed_bytes(name):
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    [step], _ = _steps(table, [name])
    entry = table.column_entry(name)
    assert step.bytes_fetched == store.object_size(entry["file"])
    assert step.decode_bytes == COMPRESSED.column(name).nbytes
    assert (step.cache_hits, step.cache_misses) == (0, entry["blocks"])
    assert (step.retries, step.backoff_seconds, step.clock_seconds) == (0, 0.0, 0.0)


@pytest.mark.parametrize("chunk_bytes", [256, 1024, 4096, 16 * 1024 * 1024])
def test_cold_step_downloads_in_chunked_range_gets(chunk_bytes):
    store = _store(pricing=PricingModel(chunk_bytes=chunk_bytes))
    table = RemoteTable.open(store, RELATION.name)
    store.stats.reset()
    steps, _ = _steps(table)
    for step in steps:
        size = store.object_size(table.column_entry(step.column)["file"])
        assert step.requests == math.ceil(size / chunk_bytes)
    assert sum(step.requests for step in steps) == store.stats.get_requests


def test_rescans_fetch_nothing_and_end_fully_served_by_the_decode_cache():
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    _steps(table)
    # Second scan: the compressed bytes are held, so nothing moves; string
    # blocks are admitted now (a fresh download keeps none of them).
    second, _ = _steps(table)
    assert [step.bytes_fetched for step in second] == [0] * len(NAMES)
    assert [step.requests for step in second] == [0] * len(NAMES)
    third, relation = _steps(table)
    assert [(step.cache_hits, step.cache_misses) for step in third] == [
        (BLOCKS, 0)
    ] * len(NAMES)
    # A hit is still priced by the column's compressed bytes.
    assert [step.decode_bytes for step in third] == [
        COMPRESSED.column(name).nbytes for name in NAMES
    ]
    for name in NAMES:
        assert columns_equal(relation.column(name), RELATION.column(name))


def test_a_column_cache_with_no_room_downloads_every_scan():
    store = _store()
    table = RemoteTable.open(store, RELATION.name, column_cache_bytes=1)
    first, _ = _steps(table, ["url"])
    second, relation = _steps(table, ["url"])
    assert second[0].bytes_fetched == first[0].bytes_fetched > 0
    assert columns_equal(relation.column("url"), RELATION.column("url"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stage_accounting_sums_to_the_store_under_throttling(seed):
    store = _store(pricing=PricingModel(chunk_bytes=1024))
    table = RemoteTable.open(store, RELATION.name)
    store.set_faults(FaultProfile(seed=seed, throttle_rate=0.1))
    store.retry = RetryPolicy(max_attempts=8)
    stats = store.stats
    before = (stats.get_requests, stats.bytes_downloaded, stats.retries, stats.backoff_seconds)
    start = store.clock.now_seconds
    steps, relation = _steps(table)
    assert sum(step.retries for step in steps) == stats.retries - before[2] > 0
    assert sum(step.requests for step in steps) == stats.get_requests - before[0]
    assert sum(step.bytes_fetched for step in steps) == stats.bytes_downloaded - before[1]
    backoff = sum(step.backoff_seconds for step in steps)
    assert backoff == pytest.approx(stats.backoff_seconds - before[3])
    # The shared clock advances by exactly what the stages captured.
    assert store.clock.now_seconds - start == pytest.approx(
        sum(step.clock_seconds for step in steps)
    )
    assert relation.column_names() == NAMES
    for name in NAMES:
        assert columns_equal(relation.column(name), RELATION.column(name))


def test_a_past_deadline_cancels_before_any_column_moves():
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    requests = store.stats.get_requests
    gen = table.scan_steps(deadline_seconds=store.clock.now_seconds)
    with pytest.raises(DeadlineExceededError):
        next(gen)
    assert store.stats.get_requests == requests


def test_an_unknown_column_is_a_format_error_before_any_fetch():
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    requests = store.stats.get_requests
    with pytest.raises(FormatError):
        table.scan(["missing"])
    assert store.stats.get_requests == requests


def test_a_repeated_column_name_resolves_to_its_first_entry():
    first, second = {"name": "a", "file": "t/1"}, {"name": "a", "file": "t/2"}
    table = RemoteTable(SimulatedObjectStore(), "t", {"columns": [first, second, {"name": "b"}]}, 1)
    assert table.column_entry("a") is first
    with pytest.raises(FormatError):
        table.column_entry("c")


def test_an_empty_projection_is_an_empty_relation_with_no_stages():
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    steps, relation = _steps(table, [])
    assert steps == []
    assert relation.column_names() == []


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_transient_corruption_is_refetched_to_a_clean_result(seed):
    registry = MetricsRegistry()
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    # One GET per column file, so each download is damaged or clean whole.
    store.set_faults(FaultProfile(seed=seed, corrupt_rate=0.3))
    store.retry = RetryPolicy(max_attempts=8)
    with use_registry(registry):
        steps, relation = _steps(table)
    assert registry.get("cloud.table.integrity_refetches") > 0
    assert registry.get("cloud.table.integrity_failures") == 0
    for name in NAMES:
        assert columns_equal(relation.column(name), RELATION.column(name))


@pytest.mark.parametrize("attempts", [1, 2, 3])
def test_persistent_damage_is_one_verified_download_per_attempt(attempts):
    store = _store()
    table = RemoteTable.open(store, RELATION.name, on_corrupt="null_block")
    entry = _damage_at_rest(store, table, "key", 1)
    store.retry = RetryPolicy(max_attempts=attempts)
    [step], _ = _steps(table, ["key"])
    assert step.bytes_fetched == attempts * store.object_size(entry["file"])


def test_damage_that_survives_refetching_raises_under_the_strict_policy():
    store = _store()
    table = RemoteTable.open(store, RELATION.name)
    _damage_at_rest(store, table, "price", 2)
    store.retry = RetryPolicy(max_attempts=2)
    with pytest.raises(IntegrityError):
        table.scan(["price"])


def test_null_block_policy_nulls_exactly_the_damaged_block():
    store = _store()
    table = RemoteTable.open(store, RELATION.name, on_corrupt="null_block")
    _damage_at_rest(store, table, "price", 2)
    store.retry = RetryPolicy(max_attempts=2)
    column = table.scan(["price"]).column("price")
    assert len(column) == ROWS
    assert np.array_equal(column.nulls.to_array(), np.arange(2048, 3072))
    intact = np.r_[0:2048, 3072:ROWS]
    assert np.array_equal(column.data[intact], RELATION.column("price").data[intact])


def test_skip_policy_drops_exactly_the_damaged_block():
    store = _store()
    table = RemoteTable.open(store, RELATION.name, on_corrupt="skip")
    _damage_at_rest(store, table, "qty", 0)
    store.retry = RetryPolicy(max_attempts=2)
    column = table.scan(["qty"]).column("qty")
    assert np.array_equal(column.data, RELATION.column("qty").data[1024:])


def test_a_damaged_download_is_never_cached():
    store = _store()
    table = RemoteTable.open(store, RELATION.name, on_corrupt="null_block")
    entry = _damage_at_rest(store, table, "status", 3)
    store.retry = RetryPolicy(max_attempts=1)
    first, _ = _steps(table, ["status"])
    second, _ = _steps(table, ["status"])
    assert second[0].bytes_fetched == first[0].bytes_fetched == store.object_size(
        entry["file"]
    )
    assert entry["file"] not in table._columns
