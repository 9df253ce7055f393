"""Pipelined cloud-scan accounting, the streaming parser, and the caches.

Covers the analytic ``max(fetch, decode)`` pipeline recurrence against an
independently-coded bounded-buffer reference, the byte-budget LRU and
decode-cache semantics, :class:`ColumnStreamParser` equivalence with the
batch parser (including error parity), retry backoff flowing into both the
pipeline report and :class:`ScanMetrics`, and ``scan_pipelined`` producing
bit-identical results to the batch ``scan`` — with damaged columns counted
as fallbacks rather than diverging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import (
    FaultProfile,
    PipelinedScanReport,
    PricingModel,
    RemoteTable,
    ScanCostModel,
    SimulatedObjectStore,
    TableWriter,
    pipeline_schedule,
    pipelined_fetch_column,
)
from repro.core.blocks import CompressedBlock
from repro.core.cache import ByteBudgetLRU, DecodeCache
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.file_format import (
    ColumnStreamParser,
    column_from_bytes,
    column_to_bytes,
)
from repro.core.relation import Relation
from repro.exceptions import FormatError, IntegrityError
from repro.observe import MetricsRegistry, use_registry
from repro.types import Column, columns_equal

#: Small chunks so a few-KB column spans many range GETs — the pipeline is
#: only interesting when there is more than one chunk to overlap.
SMALL_CHUNKS = PricingModel(chunk_bytes=1024)


def _relation(rows: int = 4000) -> Relation:
    rng = np.random.default_rng(7)
    return Relation(
        "t",
        [
            Column.ints("a", rng.integers(0, 255, rows)),
            Column.doubles("b", np.round(rng.uniform(0, 100, rows), 2)),
            Column.strings("c", [f"item-{i % 50:03d}" for i in range(rows)]),
        ],
    )


def _uploaded_store(compressed, faults=None, **store_kwargs):
    """A store holding ``compressed`` committed fault-free; ``faults`` then
    apply to every read."""
    store = SimulatedObjectStore(**store_kwargs)
    TableWriter(store).write(compressed)
    store.set_faults(faults)
    return store


# -- the pipeline recurrence ---------------------------------------------------


def _reference_wall(fetch, decode, readahead: int) -> float:
    """Bounded-buffer reference simulation, coded independently.

    ``readahead`` buffer tokens; a chunk claims the earliest-free token
    before its (serial) fetch starts and releases it when its (serial,
    in-order) decode completes.
    """
    tokens = [0.0] * readahead
    fetcher = decoder = wall = 0.0
    for f, d in zip(fetch, decode):
        earliest = min(tokens)
        done = max(fetcher, earliest) + f
        fetcher = done
        decoded = max(done, decoder) + d
        decoder = decoded
        tokens[tokens.index(earliest)] = decoded
        wall = decoded
    return wall


class TestPipelineSchedule:
    def test_readahead_one_is_serial(self):
        fetch, decode = [3.0, 1.0, 2.0], [0.5, 4.0, 0.25]
        schedule = pipeline_schedule(fetch, decode, readahead=1)
        assert schedule.wall_seconds == pytest.approx(sum(fetch) + sum(decode))

    def test_fetch_bound_closed_form(self):
        # Decode always keeps up: wall = all fetches + the last decode.
        fetch, decode = [2.0] * 6, [0.5] * 6
        schedule = pipeline_schedule(fetch, decode, readahead=4)
        assert schedule.wall_seconds == pytest.approx(sum(fetch) + decode[-1])

    def test_decode_bound_closed_form(self):
        # Fetch always keeps up: wall = first fetch + all decodes.
        fetch, decode = [0.25] * 6, [2.0] * 6
        schedule = pipeline_schedule(fetch, decode, readahead=4)
        assert schedule.wall_seconds == pytest.approx(fetch[0] + sum(decode))

    def test_bounds_and_monotonic_in_readahead(self):
        rng = np.random.default_rng(11)
        fetch = rng.uniform(0.1, 2.0, 12).tolist()
        decode = rng.uniform(0.1, 2.0, 12).tolist()
        previous = float("inf")
        for k in (1, 2, 3, 6, 12, 100):
            wall = pipeline_schedule(fetch, decode, readahead=k).wall_seconds
            assert wall <= previous + 1e-12
            assert max(sum(fetch), sum(decode)) <= wall <= sum(fetch) + sum(decode) + 1e-12
            previous = wall

    @pytest.mark.parametrize("readahead", [1, 2, 3, 5, 8])
    def test_matches_reference_simulation(self, readahead):
        rng = np.random.default_rng(readahead)
        for _ in range(20):
            n = int(rng.integers(1, 16))
            fetch = rng.uniform(0.01, 3.0, n).tolist()
            decode = rng.uniform(0.01, 3.0, n).tolist()
            schedule = pipeline_schedule(fetch, decode, readahead=readahead)
            assert schedule.wall_seconds == pytest.approx(
                _reference_wall(fetch, decode, readahead)
            )

    def test_large_readahead_converges(self):
        # Past n chunks, more readahead cannot help: the window never binds.
        rng = np.random.default_rng(3)
        fetch = rng.uniform(0.1, 1.0, 10).tolist()
        decode = rng.uniform(0.1, 1.0, 10).tolist()
        at_n = pipeline_schedule(fetch, decode, readahead=10).wall_seconds
        beyond = pipeline_schedule(fetch, decode, readahead=10_000).wall_seconds
        assert beyond == pytest.approx(at_n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pipeline_schedule([1.0], [1.0], readahead=0)
        with pytest.raises(ValueError):
            pipeline_schedule([1.0, 2.0], [1.0], readahead=2)

    def test_empty_schedule(self):
        assert pipeline_schedule([], [], readahead=2).wall_seconds == 0.0


# -- caches --------------------------------------------------------------------


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


# -- streaming parser ----------------------------------------------------------


class TestColumnStreamParser:
    def _column_bytes(self) -> bytes:
        rng = np.random.default_rng(5)
        column = Column.ints("v", rng.integers(0, 1000, 2000))
        return column_to_bytes(compress_column(column, BtrBlocksConfig(block_size=512)))

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_equivalent_to_batch_parser(self, chunk_size):
        blob = self._column_bytes()
        batch = column_from_bytes(blob)
        parser = ColumnStreamParser()
        streamed_blocks = []
        for start in range(0, len(blob), chunk_size):
            streamed_blocks.extend(parser.feed(blob[start : start + chunk_size]))
        column = parser.finish()
        assert parser.complete
        assert column.name == batch.name and column.ctype is batch.ctype
        assert len(streamed_blocks) == len(batch.blocks) == len(column.blocks)
        for mine, theirs in zip(column.blocks, batch.blocks):
            assert mine.count == theirs.count
            assert mine.data == theirs.data
            assert mine.nulls == theirs.nulls
            assert mine.checksum == theirs.checksum

    def test_truncated_stream_raises(self):
        column = compress_column(
            Column.ints("v", np.random.default_rng(5).integers(0, 1000, 2000)),
            BtrBlocksConfig(block_size=512),
        )
        blob = column_to_bytes(column, with_stats=False)
        parser = ColumnStreamParser()
        parser.feed(blob[:-5])
        assert not parser.complete
        with pytest.raises(FormatError):
            parser.finish()

    def test_truncated_stats_footer_drops_stats_only(self):
        # Every block arrived; only the trailing statistics footer is cut
        # short. Data decodes fine — the stats are just marked invalid.
        blob = self._column_bytes()
        parser = ColumnStreamParser()
        parser.feed(blob[:-5])
        assert parser.complete
        column = parser.finish()
        assert column.stats_invalid
        assert column.block_stats is None
        batch = column_from_bytes(self._column_bytes())
        for mine, theirs in zip(column.blocks, batch.blocks):
            assert mine.data == theirs.data

    def test_bad_magic_parity_with_batch_parser(self):
        blob = self._column_bytes()
        damaged = b"XXXX" + blob[4:]
        with pytest.raises(FormatError):
            column_from_bytes(damaged)
        with pytest.raises(FormatError):
            ColumnStreamParser().feed(damaged)

    def test_header_crc_damage_parity(self):
        blob = bytearray(self._column_bytes())
        blob[5] ^= 0x01  # inside the checksummed v2 header (type/name bytes)
        with pytest.raises((IntegrityError, FormatError)):
            column_from_bytes(bytes(blob))
        with pytest.raises((IntegrityError, FormatError)):
            ColumnStreamParser().feed(bytes(blob))


# -- retry accounting ----------------------------------------------------------


class TestRetryAccounting:
    def test_backoff_flows_into_pipeline_stats(self):
        compressed = compress_relation(_relation())
        store = _uploaded_store(
            compressed,
            pricing=SMALL_CHUNKS,
            faults=FaultProfile(seed=2, throttle_rate=0.2),
        )
        entry = RemoteTable.open(store, compressed.name).column_entry("a")
        backoff_before = store.stats.backoff_seconds
        retries_before = store.stats.retries
        _column, _compressed, stats = pipelined_fetch_column(
            store, entry["file"], readahead=3, rows_hint=entry["rows"]
        )
        assert store.stats.retries > retries_before
        assert stats.retry_seconds > 0
        assert stats.retry_seconds == pytest.approx(
            store.stats.backoff_seconds - backoff_before
        )

    def test_backoff_flows_into_scan_metrics(self):
        compressed = compress_relation(_relation())
        store = _uploaded_store(
            compressed,
            pricing=SMALL_CHUNKS,
            faults=FaultProfile(seed=2, throttle_rate=0.2),
        )
        _result, report = RemoteTable.open(store, compressed.name).scan_pipelined(
            readahead=3
        )
        assert report.retry_seconds > 0
        metrics = ScanCostModel(store.pricing).simulate(
            "p", 1_000_000, 100_000, 0.001, retry_seconds=report.retry_seconds
        )
        assert metrics.retry_seconds == report.retry_seconds
        assert metrics.wall_seconds == pytest.approx(
            max(metrics.network_seconds, metrics.cpu_seconds) + report.retry_seconds
        )

    def test_clock_advances_by_pipelined_wall(self):
        compressed = compress_relation(_relation())
        store = _uploaded_store(compressed, pricing=SMALL_CHUNKS)
        table = RemoteTable.open(store, compressed.name)
        before = store.clock.now_seconds
        _result, report = table.scan_pipelined(readahead=4)
        assert report.retry_seconds == 0.0
        assert store.clock.now_seconds - before == pytest.approx(report.wall_seconds)

    def test_accounting_parity_with_batch_scan(self):
        compressed = compress_relation(_relation())
        batch_store = _uploaded_store(compressed, pricing=SMALL_CHUNKS)
        pipe_store = _uploaded_store(compressed, pricing=SMALL_CHUNKS)
        RemoteTable.open(batch_store, compressed.name).scan()
        _piped, report = RemoteTable.open(pipe_store, compressed.name).scan_pipelined(
            readahead=4
        )
        assert pipe_store.stats.get_requests == batch_store.stats.get_requests
        assert pipe_store.stats.bytes_downloaded == batch_store.stats.bytes_downloaded
        # All but the manifest GET.
        assert report.chunks == pipe_store.stats.get_requests - 1
        assert report.wall_seconds <= report.serial_seconds + 1e-12


# -- end-to-end scan identity --------------------------------------------------


class TestScanPipelined:
    def test_bit_identical_to_batch_scan(self):
        relation = _relation()
        compressed = compress_relation(relation)
        batch_table = RemoteTable.open(
            _uploaded_store(compressed, pricing=SMALL_CHUNKS), relation.name
        )
        pipe_table = RemoteTable.open(
            _uploaded_store(compressed, pricing=SMALL_CHUNKS), relation.name
        )
        batch = batch_table.scan()
        piped, report = pipe_table.scan_pipelined()
        assert report.fallbacks == 0
        assert report.columns == len(relation.columns)
        for mine, theirs in zip(piped.columns, batch.columns):
            assert columns_equal(mine, theirs)

    def test_repeat_scan_served_from_decode_cache(self):
        relation = _relation()
        compressed = compress_relation(relation)
        registry = MetricsRegistry()
        with use_registry(registry):
            table = RemoteTable.open(
                _uploaded_store(compressed, pricing=SMALL_CHUNKS), relation.name
            )
            _first, first_report = table.scan_pipelined()
            _second, second_report = table.scan_pipelined()
        assert first_report.cache_hits == 0
        assert second_report.cache_hits > 0
        assert second_report.chunks == 0  # columns came from the column LRU

    def test_damaged_column_counts_as_fallback_and_matches_batch(self):
        relation = _relation()
        compressed = compress_relation(relation)

        def damaged_store():
            store = _uploaded_store(compressed, pricing=SMALL_CHUNKS)
            key = RemoteTable.open(store, relation.name).column_entry("a")["file"]
            blob = bytearray(store.get(key))
            # Damage the payload of the last *block* (the file now ends with
            # the stats footer, so -3 would only graze the statistics).
            from repro.core.file_format import column_block_ranges

            offset, size = column_block_ranges(compressed.columns[0])[-1]
            blob[offset + size - 3] ^= 0x20  # CRC must catch it
            store.put(key, bytes(blob))
            store.stats.reset()
            return store

        registry = MetricsRegistry()
        with use_registry(registry):
            pipe_table = RemoteTable.open(
                damaged_store(), relation.name, on_corrupt="null_block"
            )
            piped, report = pipe_table.scan_pipelined()
            batch_table = RemoteTable.open(
                damaged_store(), relation.name, on_corrupt="null_block"
            )
            batch = batch_table.scan()
        assert report.fallbacks == 1
        assert registry.get("cloud.scan.pipeline.fallbacks") == 1
        assert registry.get("cloud.table.integrity_refetches") > 0
        for mine, theirs in zip(piped.columns, batch.columns):
            assert columns_equal(mine, theirs)
