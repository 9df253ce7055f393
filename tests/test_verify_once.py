"""``verify_block`` hashes a block object once: a pass over immutable bytes is
remembered on the block, and only while it holds the very same ``data`` and
``nulls`` objects under the same count and checksum. Every reassignment, a
mutable payload, a failure, a copy or a pickle round trip hashes again, so a
remembered pass can never vouch for bytes it did not see.

A warm read passes its blocks through ``cached_block`` once per column; a
block damaged in any of four ways, anywhere in the column, reads exactly as
it does through a gate that takes one block at a time. A scan stage is
captured by ``capture_step``, which restores the store when the stage raises
and whose fields add up to the store's and the registry's own totals.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud.faults import BrownoutEpisode, FaultProfile
from repro.cloud.objectstore import PricingModel, SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter, capture_step
from repro.cloud.retry import RetryBudget, RetryPolicy
from repro.core import access, decompressor, file_format
from repro.core.blocks import CompressedBlock, CompressedColumn
from repro.core.cache import DecodeCache
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import BtrBlocksConfig, DecodeLimits
from repro.core.decompressor import ON_CORRUPT_MODES, _hold_to_row_limit
from repro.core.file_format import column_from_bytes, column_to_bytes, verify_block
from repro.core.relation import Relation
from repro.exceptions import DecodeLimitError
from repro.observe import MetricsRegistry, use_registry
from repro.query import executor
from repro.query.predicates import Between
from repro.types import Column, StringArray


@pytest.fixture
def block():
    """A checksummed block as read back from a v2 column file."""
    values = np.arange(1000, dtype=np.int32)
    column = Column.ints("v", values, nulls=RoaringBitmap.from_positions(np.arange(0, 1000, 7)))
    compressed = compress_column(column, BtrBlocksConfig(block_size=1000))
    block = column_from_bytes(column_to_bytes(compressed)).blocks[0]
    assert isinstance(block.data, bytes) and isinstance(block.nulls, bytes)
    return block


@pytest.fixture
def hashes(monkeypatch, block):
    """A list whose length is the number of CRC32s computed since ``block``
    was written."""
    calls, real = [], file_format.block_checksum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(file_format, "block_checksum", counting)
    return calls


def _flipped(payload: bytes) -> bytes:
    damaged = bytearray(payload)
    damaged[len(damaged) // 2] ^= 0x40
    return bytes(damaged)


def test_a_pass_is_hashed_once(hashes, block):
    assert verify_block(block) and verify_block(block) and verify_block(block)
    assert len(hashes) == 1


@pytest.mark.parametrize("field", ["data", "nulls"])
def test_a_reassigned_payload_is_hashed_again(hashes, block, field):
    assert verify_block(block)
    clean = getattr(block, field)
    setattr(block, field, _flipped(clean))  # what the corruption tests do
    assert not verify_block(block)
    setattr(block, field, bytes(bytearray(clean)))  # equal bytes, another object
    assert verify_block(block)
    assert len(hashes) == 3


def test_dropped_nulls_are_hashed_again(hashes, block):
    assert verify_block(block)
    block.nulls = None
    assert not verify_block(block)
    assert len(hashes) == 2


@pytest.mark.parametrize("field", ["count", "checksum"])
def test_a_reassigned_header_field_is_hashed_again(hashes, block, field):
    assert verify_block(block)
    clean = getattr(block, field)
    setattr(block, field, clean ^ 1)
    assert not verify_block(block)
    setattr(block, field, clean)  # the very objects and fields that passed
    assert verify_block(block)
    assert len(hashes) == 2


def test_a_failure_is_never_remembered(hashes, block):
    block.data = _flipped(block.data)
    assert not verify_block(block) and not verify_block(block)
    assert len(hashes) == 2 and block.verified is None


@pytest.mark.parametrize("field", ["data", "nulls"])
def test_a_mutable_payload_is_hashed_on_every_call(hashes, block, field):
    mutable = bytearray(getattr(block, field))
    setattr(block, field, mutable)
    assert verify_block(block) and verify_block(block)
    assert len(hashes) == 2 and block.verified is None
    mutable[len(mutable) // 2] ^= 0x40  # the same object, damaged in place
    assert not verify_block(block)
    assert len(hashes) == 3


def test_copies_and_pickles_carry_no_pass(hashes, block):
    assert verify_block(block) and block.verified is not None
    replaced = dataclasses.replace(block)
    assert replaced.verified is None and dataclasses.replace(block, data=block.data).verified is None
    assert not verify_block(dataclasses.replace(block, data=_flipped(block.data)))
    assert copy.copy(block).verified is None
    restored = pickle.loads(pickle.dumps(block))
    assert restored.verified is None and restored == block
    # A byte damaged in the pickle itself reaches data and memo alike, so a
    # carried pass would vouch for it.
    blob = bytearray(pickle.dumps(block))
    at = bytes(blob).index(block.data) + len(block.data) // 2
    blob[at] ^= 0x40
    assert not verify_block(pickle.loads(bytes(blob)))


def test_equality_and_repr_ignore_the_pass(block):
    fresh = dataclasses.replace(block)
    assert verify_block(block) and fresh.verified is None
    assert block == fresh and repr(block) == repr(fresh)
    assert "verified" not in repr(block)


def test_unchecksummed_blocks_remember_nothing(hashes, block):
    block.checksum = None
    assert verify_block(block) and block.verified is None and not hashes


def test_each_downloaded_block_is_hashed_once(hashes):
    """A fresh handle's scan hashes every block it downloads once (the
    download check and the decode share the pass); a warm re-scan none."""
    rng = np.random.default_rng(3)
    relation = Relation("t", [
        Column.ints("k", np.arange(8192)),
        Column.strings("s", [b"open", b"shipped", b"lost"] * 2730 + [b"open"] * 2),
        Column.doubles("d", rng.standard_normal(8192)),
    ])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=1024)))
    hashes.clear()  # the writer's checksums
    table = RemoteTable.open(store, "t")
    table.scan()
    assert len(hashes) == 3 * 8
    table.scan()
    table.scan()
    assert len(hashes) == 3 * 8
    assert table.decode_cache.current_bytes > 0


# -- one gate call per column ---------------------------------------------------

ROWS, BLOCK = 8192, 1024  # eight blocks per column


@pytest.fixture(scope="module")
def warm_store():
    """A committed table: ``k`` sorted (the other side's filter), ``v`` with
    NULLs in every block."""
    rng = np.random.default_rng(5)
    relation = Relation("t", [
        Column.ints("k", np.arange(ROWS)),
        Column.ints("v", rng.integers(0, 1 << 20, ROWS), nulls=RoaringBitmap.from_positions(np.arange(0, ROWS, 7))),
    ])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=BLOCK)))
    return store


def _damage_in_place(block, how: str) -> None:
    if how == "data":
        block.data = _flipped(block.data)
    elif how == "nulls":
        block.nulls = _flipped(block.nulls)
    elif how == "count":
        block.count += 1
    else:  # "bytearray": the payload object the cache was warmed with, flipped in place
        block.data[len(block.data) // 2] ^= 0x40


def _per_block_gate(cache, entry, blocks, limits, indices=None):
    """The gate as one call per block: limits, the entry's recorded pair,
    then the CRC32 of the block in hand."""
    flags = []
    for index, block in zip(range(len(blocks)) if indices is None else indices, blocks):
        _hold_to_row_limit(block, limits)
        if cache is None or block.checksum is None:
            flags.append(None)
            continue
        recorded = entry.blocks[index : index + 1] if entry is not None else ()
        flags.append(recorded == ((block.count, block.checksum),) and verify_block(block))
    return flags


READS = {
    "scan": lambda table: table.scan(["v"]),
    "read_rows": lambda table: table.scan(["v"], where={"k": Between(100, ROWS - 100)}),
    "filter": lambda table: table.scan(["k"], where={"v": Between(0, 1 << 20)}),
}


def _damaged_read(store, how: str, position: int, read: str, mode: str):
    """Warm a fresh handle, damage block ``position`` of ``v`` in its column
    cache, read; ``(result or error type, counters)``."""
    table = RemoteTable.open(store, "t", on_corrupt=mode)
    if how == "bytearray":
        table.fetch_column("v").blocks[position].data = bytearray(table.fetch_column("v").blocks[position].data)
    table.scan()
    table.scan()
    _damage_in_place(table.fetch_column("v").blocks[position], how)
    registry = MetricsRegistry()
    with use_registry(registry):
        try:
            column = READS[read](table).columns[0]
            result = (len(column), np.asarray(column.data).tobytes(), column.null_mask().tobytes())
        except Exception as exc:  # the error must be the same one, whichever gate
            result = type(exc).__name__
    return result, registry.snapshot()["counters"]


@pytest.mark.parametrize("mode", ON_CORRUPT_MODES)
@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("position", [0, 3, 7])
@pytest.mark.parametrize("how", ["data", "nulls", "count", "bytearray"])
def test_a_damaged_block_reads_as_through_a_per_block_gate(warm_store, monkeypatch, how, position, read, mode):
    result, counters = _damaged_read(warm_store, how, position, read, mode)
    if read == "scan":  # every block counted: the damaged one a miss, each one before it a hit
        assert counters.get("decode.cache.miss", 0) == 1
        assert counters.get("decode.cache.hit", 0) == (position if result == "IntegrityError" else 7)
    for module in (decompressor, access, executor):
        monkeypatch.setattr(module, "cached_block", _per_block_gate)
    assert (result, counters) == _damaged_read(warm_store, how, position, read, mode)


# -- one capture object per stage ----------------------------------------------


def test_a_raising_stage_restores_the_store():
    store = SimulatedObjectStore()
    shared, outer_budget, stage_budget = store.clock, RetryBudget(), RetryBudget()
    store.deadline_seconds, store.retry_budget = 9.0, outer_budget
    start = shared.now_seconds
    with pytest.raises(RuntimeError, match="stage failed"):
        with capture_step(store, "column", "v", deadline_seconds=1.0, retry_budget=stage_budget) as step:
            assert store.clock is not shared and store.clock.now_seconds == start
            assert store.deadline_seconds == 1.0 and store.retry_budget is stage_budget
            store.clock.sleep(0.25)
            raise RuntimeError("stage failed")
    assert store.clock is shared and shared.now_seconds == start
    assert store.deadline_seconds == 9.0 and store.retry_budget is outer_budget
    assert step.clock_seconds == 0.25


@pytest.mark.parametrize("where", [None, {"k": Between(1000, 5000)}], ids=["columns", "filtered"])
def test_stage_fields_sum_to_the_store_and_the_registry(where):
    """Under retries, throttling and a brownout, on a cold and a warm scan,
    every ``ScanStep`` field summed over the scan is the store's (or the
    registry's) own delta for that scan."""
    rng = np.random.default_rng(8)
    relation = Relation("t", [Column.ints("k", np.arange(ROWS)), Column.doubles("d", rng.standard_normal(ROWS))])
    store = SimulatedObjectStore(pricing=PricingModel(chunk_bytes=1024), retry=RetryPolicy(max_attempts=8))
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=BLOCK)))
    table = RemoteTable.open(store, "t")
    store.set_faults(FaultProfile(
        seed=13, transient_error_rate=0.1, throttle_rate=0.1,
        episodes=(BrownoutEpisode(0.0, 1e9, extra_latency_seconds=0.01),),
    ))
    stats, registry = store.stats, MetricsRegistry()
    fields = ("requests", "bytes_fetched", "retries", "backoff_seconds", "brownout_seconds")
    totals = ("get_requests", "bytes_downloaded", "retries", "backoff_seconds", "brownout_seconds")
    with use_registry(registry):
        for _scan in ("cold", "warm"):
            before = [getattr(stats, name) for name in totals]
            counters = [registry.get("decode.cache.hit"), registry.get("decode.cache.miss")]
            start, steps = store.clock.now_seconds, []
            gen = table.scan_steps(where=where)
            while True:
                try:
                    steps.append(next(gen))
                except StopIteration:
                    break
                store.clock.sleep(steps[-1].clock_seconds)
            for field, name, was in zip(fields, totals, before):
                assert sum(getattr(step, field) for step in steps) == pytest.approx(getattr(stats, name) - was)
            assert sum(step.cache_hits for step in steps) == registry.get("decode.cache.hit") - counters[0]
            assert sum(step.cache_misses for step in steps) == registry.get("decode.cache.miss") - counters[1]
            assert sum(step.clock_seconds for step in steps) == pytest.approx(store.clock.now_seconds - start)
            table.scan()  # fills the decode cache the warm pass reads
    assert stats.retries > 0 and stats.brownout_seconds > 0
    assert registry.get("decode.cache.hit") > 0


def test_a_limit_error_serves_and_counts_no_block():
    """A warm column whose last block declares more rows than the reader's
    limits raises before the gate serves, decodes or counts any block."""
    compressed = compress_column(Column.ints("v", np.arange(4 * BLOCK)), BtrBlocksConfig(block_size=BLOCK))
    cache = DecodeCache(1 << 24)
    decompressor.decompress_column(compressed, cache=cache, cache_key="v")
    compressed.blocks[-1].count += 1
    registry = MetricsRegistry()
    with use_registry(registry), pytest.raises(DecodeLimitError):
        decompressor.decompress_column(
            compressed, limits=DecodeLimits(max_rows_per_block=BLOCK), cache=cache, cache_key="v"
        )
    assert registry.get("decode.cache.hit") == registry.get("decode.cache.miss") == 0


def test_filter_and_materialise_stages_price_what_they_fetched(warm_store):
    """A selective stage's ``decode_bytes`` is read after the capture has
    filled its transfer fields, so it is the bytes the stage fetched."""
    table = RemoteTable.open(warm_store, "t")
    steps = list(table.scan_steps(["v"], where={"k": Between(100, 4000)}))
    assert [step.kind for step in steps] == ["filter", "materialise"]
    for step in steps:
        assert step.decode_bytes == step.bytes_fetched > 0


# -- the warm path reads no compressed sizes -----------------------------------


def _arrays(data) -> tuple:
    if isinstance(data, StringArray):
        return data.buffer.tobytes(), data.offsets.tobytes()
    return (data.tobytes(),)


def _raise(*_args):
    raise AssertionError("a compressed size was evaluated on the warm path")


def _stages(table, where):
    """``(result, every ScanStep, counters)`` of one scan of ``table``."""
    registry = MetricsRegistry()
    with use_registry(registry):
        steps = []
        gen = table.scan_steps(where=where)
        while True:
            try:
                steps.append(next(gen))
            except StopIteration as stop:
                relation = stop.value
                break
    counters = registry.snapshot()["counters"]
    result = [(column.name, _arrays(column.data), column.null_mask().tobytes()) for column in relation.columns]
    watched = ("decompress.input_bytes", "decode.cache.hit", "decode.cache.miss")
    return result, steps, {name: counters.get(name, 0) for name in watched}


@pytest.mark.parametrize("where", [None, {"k": Between(1000, 5000)}], ids=["columns", "filtered"])
def test_a_warm_rescan_evaluates_no_compressed_size(monkeypatch, where):
    """Once a table is warm, a re-scan with ``CompressedColumn.nbytes`` and
    ``CompressedBlock.nbytes`` made to raise succeeds, and its result,
    counters and every stage field equal a reference scan's: the stage
    walk sums the bytes it reports."""
    rng = np.random.default_rng(11)
    relation = Relation("t", [
        Column.ints("k", np.arange(ROWS)),
        Column.strings("s", [b"open", b"shipped", b"lost"] * 2730 + [b"open"] * 2),
        Column.doubles("d", rng.standard_normal(ROWS), nulls=RoaringBitmap.from_positions(np.arange(0, ROWS, 5))),
    ])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=BLOCK)))
    table = RemoteTable.open(store, "t")
    table.scan()
    table.scan(where=where)  # the string column is admitted on its second decode
    reference = _stages(table, where)
    assert reference[2]["decode.cache.hit"] > 0
    if where is None:
        assert reference[2]["decompress.input_bytes"] == sum(table.fetch_column(n).nbytes for n in "ksd")
    monkeypatch.setattr(CompressedColumn, "nbytes", property(_raise))
    monkeypatch.setattr(CompressedBlock, "nbytes", property(_raise))
    assert _stages(table, where) == reference
