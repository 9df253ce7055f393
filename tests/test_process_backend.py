"""Tests for process-pool compression: ``compress_relation(..., workers=N)``.

The contract: the pool must be *invisible* except for speed — compressed
bytes, block statistics and selection decisions identical to the inline loop
for every scheme family × NULL layout, counter and trace totals in parity,
and a worker killed at any stage of any task yielding a clean inline rerun —
never a hang, a torn column, or a leaked ``/dev/shm`` segment.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import procpool
from repro.bitmap import RoaringBitmap
from repro.core.blockstats import stats_entry_to_json
from repro.core.compressor import compress_relation, iter_block_ranges
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_relation
from repro.core.relation import Relation
from repro.encodings import fsst
from repro.encodings.base import SchemeId
from repro.observe import MetricsRegistry, SelectionTrace, use_registry, use_trace
from repro.procpool import collect_futures
from repro.types import Column, ColumnType, columns_equal

from test_encoder_fallback import (
    REPEATED,
    failing,
    long_random_strings,
    pick_non_uncompressed_scheme,
)
from test_sole_survivor import PARTITION_DIGESTS

pytestmark = pytest.mark.skipif(
    not procpool.available(), reason="no multiprocessing start method"
)

ROWS = 2000
#: Small blocks so every column spans several (~4 at ROWS=2000) — the
#: worker-death matrix needs more than one task in flight.
CONFIG = BtrBlocksConfig(block_size=512)
WORKERS = 2

KILL_STAGES = ("fetch-handoff", "mid-compress", "pre-assemble")


def _scheme_columns() -> "dict[str, Column]":
    """One workload per scheme family, shaped to make that scheme win."""
    rng = np.random.default_rng(418)
    fastpfor = rng.integers(0, 64, ROWS)
    outliers = rng.random(ROWS) < 0.02
    fastpfor[outliers] = rng.integers(2**20, 2**28, int(outliers.sum()))
    vocab = [f"category-{i:04d}" for i in range(64)]
    return {
        "one_value": Column.ints("v", np.full(ROWS, 7, dtype=np.int64)),
        "rle": Column.ints("v", np.repeat(rng.integers(0, 50, ROWS // 20 + 1), 20)[:ROWS]),
        "frequency": Column.ints(
            "v", np.where(rng.random(ROWS) < 0.9, 42, rng.integers(0, 10_000, ROWS))
        ),
        "bitpack": Column.ints("v", rng.integers(0, 255, ROWS)),
        "fastpfor": Column.ints("v", fastpfor),
        "pseudodecimal": Column.doubles("v", np.round(rng.uniform(0, 10_000, ROWS), 2)),
        "dictionary": Column.strings(
            "v", [vocab[i] for i in rng.integers(0, len(vocab), ROWS)]
        ),
        "fsst": Column.strings(
            "v", [f"https://example.com/api/v2/item/{int(x):08x}" for x in
                  rng.integers(0, 2**31, ROWS)]
        ),
    }


NULL_LAYOUTS = {
    "no_nulls": None,
    "sparse_nulls": lambda n: np.arange(0, n, 97),
    "dense_nulls": lambda n: np.arange(0, n, 2),
}


def _with_nulls(column: Column, layout: str) -> Column:
    make = NULL_LAYOUTS[layout]
    if make is None:
        return column
    nulls = RoaringBitmap.from_positions(make(len(column)))
    return Column(column.name, column.ctype, column.data, nulls)


def _compressed_picture(
    relation: Relation, workers: int, config: BtrBlocksConfig = CONFIG
) -> "tuple[list, list, dict]":
    """Everything a compress call stores or reports: per block the bytes,
    NULL bitmap, checksum and statistics; every selection decision (minus
    its timing); and the counters."""
    registry, trace = MetricsRegistry(), SelectionTrace()
    with use_registry(registry), use_trace(trace):
        compressed = compress_relation(relation, config, workers=workers)
    blocks = [
        (c.name, b.data, b.nulls, b.checksum,
         b.stats and json.dumps(stats_entry_to_json(b.stats)))
        for c in compressed.columns
        for b in c.blocks
    ]
    decisions = []
    for decision in trace.decisions():
        record = decision.to_dict()
        record.pop("selection_seconds")
        decisions.append(record)
    return blocks, decisions, registry.snapshot()["counters"]


def _assert_no_leaked_segments() -> None:
    """Every segment this process created must be unlinked again."""
    assert procpool._ACTIVE_SEGMENTS == set()
    if os.path.isdir("/dev/shm"):
        assert glob.glob(f"/dev/shm/btrb-{os.getpid()}-*") == []


@pytest.fixture(scope="module")
def columns():
    return _scheme_columns()


def _relation(columns, case: str, layout: str) -> Relation:
    """A scheme family's column, or one of the shapes around the pool:
    one wide column (block fan-out is the only parallelism), a relation of
    a single block task and the empty relation (both run inline)."""
    if case == "wide":
        rng = np.random.default_rng(12345)
        return Relation("wide", [Column.ints("a", np.repeat(rng.integers(0, 1000, 2000), 20))])
    if case == "one_block":
        return Relation("tiny", [Column.ints("a", np.arange(CONFIG.block_size) % 100)])
    if case == "empty":
        return Relation("empty", [])
    return Relation("t", [_with_nulls(columns[case], layout)])


def _all_schemes(columns) -> Relation:
    """Every scheme family's column side by side, each with sparse NULLs."""
    named = [Column(case, c.ctype, c.data) for case, c in columns.items()]
    return Relation("t", [_with_nulls(c, "sparse_nulls") for c in named])


@pytest.fixture
def test_hooks():
    """Arm the fork-inherited failure hooks against a fresh pool.

    The hooks are copied into workers when the pool forks, so the warm pool
    (forked without them) must be discarded first; the teardown clears the
    hooks and discards the poisoned pool so later tests fork clean workers.
    """
    procpool.shutdown_pool()
    yield
    procpool._TEST_KILL = None
    procpool._TEST_INTERRUPT_AFTER_SUBMITS = None
    procpool.shutdown_pool()
    _assert_no_leaked_segments()


# -- bit-identity --------------------------------------------------------------


_CASES = (
    [(s, l, WORKERS) for s in _scheme_columns() for l in NULL_LAYOUTS]
    + [("wide", "no_nulls", workers) for workers in (1, 2, 8)]
    + [("one_block", "no_nulls", 8), ("empty", "no_nulls", 8)]
)


@pytest.mark.parametrize(
    "case,layout,workers", _CASES, ids=[f"{s}-{l}-{w}w" for s, l, w in _CASES]
)
def test_process_compress_bit_identical(columns, case, layout, workers):
    """Bytes, block statistics and selection decisions match the inline loop;
    the pool runs exactly when there is more than one block task to share."""
    relation = _relation(columns, case, layout)
    inline_blocks, inline_decisions, _ = _compressed_picture(relation, 1)
    blocks, decisions, counters = _compressed_picture(relation, workers)
    assert blocks == inline_blocks
    assert decisions == inline_decisions
    tasks = sum(
        1 for c in relation.columns for _ in iter_block_ranges(len(c), CONFIG.block_size)
    )
    pooled = workers > 1 and tasks > 1
    assert counters.get("parallel.backend.process.runs", 0) == int(pooled)
    assert counters.get("parallel.shm.segments", 0) == int(pooled)
    _assert_no_leaked_segments()


@pytest.mark.parametrize("workers", [WORKERS, 8])
def test_compress_counter_and_trace_parity(columns, workers):
    """Worker-side metric snapshots and trace decisions merge to the inline
    loop's totals: one top-level decision per block, each with its size."""
    relation = Relation("t", [columns["rle"], columns["pseudodecimal"], columns["fsst"]])
    _, inline_decisions, inline = _compressed_picture(relation, 1)
    _, decisions, pooled = _compressed_picture(relation, workers)
    for name in (
        "compress.blocks", "compress.rows", "compress.input_bytes",
        "compress.output_bytes", "compress.columns", "selector.picks",
    ):
        assert pooled[name] == inline[name], name
    assert len(decisions) == len(inline_decisions)
    top_level = [d for d in decisions if d["top_level"]]
    assert len(top_level) == pooled["compress.blocks"]
    assert {d["column"] for d in top_level} == {c.name for c in relation.columns}
    assert all(d["compressed_bytes"] for d in top_level)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_many_columns_assemble_in_order_and_round_trip(columns, workers):
    """Tasks of eight columns finish in any order; the relation comes back
    in column order, block for block the inline bytes, and decodes to its
    input."""
    relation = _all_schemes(columns)
    inline = compress_relation(relation, CONFIG)
    compressed = compress_relation(relation, CONFIG, workers=workers)
    assert [c.name for c in compressed.columns] == relation.column_names()
    for inline_col, col in zip(inline.columns, compressed.columns):
        assert [b.data for b in col.blocks] == [b.data for b in inline_col.blocks]
    for original, decoded in zip(relation.columns, decompress_relation(compressed).columns):
        assert columns_equal(original, decoded)


#: One non-default value per compress-side ``BtrBlocksConfig`` field, each
#: chosen to move the bytes or decisions of ``_all_schemes``: a knob the
#: workers did not receive would show as a mismatch with the inline loop.
_KNOBS = {
    "block_size": 700,
    "max_cascade_depth": 1,
    "sample_runs": 3,
    "sample_run_length": 16,
    "rle_min_avg_run_length": 30.0,
    "frequency_max_unique_fraction": 0.01,
    "pseudodecimal_min_unique_fraction": 1.01,
    "pseudodecimal_max_exception_fraction": 0.0,
    "dictionary_max_unique_fraction": 0.01,
    "collect_stats": False,
    "stats_bloom_max_distinct": 8,
    "excluded_schemes": frozenset({SchemeId.RLE_INT, SchemeId.DICT_STRING}),
    "allowed_schemes": frozenset({
        SchemeId.UNCOMPRESSED_INT, SchemeId.UNCOMPRESSED_DOUBLE,
        SchemeId.UNCOMPRESSED_STRING, SchemeId.FAST_PFOR,
    }),
}
#: Fields only the decoders read.
_DECODE_ONLY = {"vectorized"}


def test_the_knob_table_covers_every_config_field():
    assert set(_KNOBS) | _DECODE_ONLY == {f.name for f in dataclasses.fields(BtrBlocksConfig)}


@pytest.mark.parametrize("knob", list(_KNOBS))
def test_every_compress_knob_reaches_the_workers(columns, knob):
    relation = _all_schemes(columns)
    config = dataclasses.replace(CONFIG, **{knob: _KNOBS[knob]})
    inline = _compressed_picture(relation, 1, config)[:2]
    assert inline != _compressed_picture(relation, 1)[:2]  # the knob shows here
    assert _compressed_picture(relation, WORKERS, config)[:2] == inline


_GOLDEN_PARTITIONS = json.loads(PARTITION_DIGESTS.read_text())


@pytest.mark.parametrize("key", list(_GOLDEN_PARTITIONS), ids=lambda key: key.replace("/", "-"))
def test_lakebench_partitions_match_the_committed_digests(key, lakebench):
    """The benchmark's own tables at seed 100, compressed on the pool, are
    block for block the inline loop's bytes and hash to the digests the
    inline loop committed."""
    workload, partition = key.split("/")
    relation = lakebench.relations(100)[workload, int(partition)]
    registry = MetricsRegistry()
    with use_registry(registry):
        compressed = compress_relation(
            relation, lakebench.workloads[workload].config(), workers=WORKERS
        )
    assert registry.snapshot()["counters"]["parallel.backend.process.runs"] == 1
    inline = lakebench.compressed(100, fsst.train_symbol_table)[workload, int(partition)]
    assert [[b.data for b in c.blocks] for c in compressed.columns] == [
        [b.data for b in c.blocks] for _, c, _ in inline
    ]
    digest = hashlib.blake2b(digest_size=16)
    for column in compressed.columns:
        for block in column.blocks:
            digest.update(block.data)
            digest.update(block.nulls or b"-")
    assert digest.hexdigest() == _GOLDEN_PARTITIONS[key]
    _assert_no_leaked_segments()


@pytest.mark.parametrize("workers", [0, -1])
def test_bad_worker_count_is_rejected(columns, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        compress_relation(Relation("t", [columns["rle"]]), CONFIG, workers=workers)


# -- error semantics -----------------------------------------------------------


class TestCollectFutures:
    def test_raises_lowest_index_error(self):
        """The same failing inputs raise the same error, whatever the timing."""

        def task(i: int) -> int:
            if i in (1, 3):
                time.sleep(0.01 if i == 3 else 0.05)
                raise ValueError(f"task {i}")
            return i

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(task, i) for i in range(5)]
            with pytest.raises(ValueError, match="task 1"):
                collect_futures(futures)
        # Nothing may still be running once collect_futures has raised.
        assert all(f.done() or f.cancelled() for f in futures)

    def test_empty_and_success(self):
        assert collect_futures([]) == []
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda i=i: i * i) for i in range(4)]
            assert collect_futures(futures) == [0, 1, 4, 9]


# -- worker-death matrix -------------------------------------------------------


def _failing_compress(chunk, index, selector):
    raise ValueError("synthetic encoder failure")


class TestWorkerDeath:
    @pytest.mark.parametrize("stage", KILL_STAGES)
    def test_compress_reruns_inline_bit_identically(self, columns, stage, test_hooks):
        """Compression inputs are untouched by a death — the rerun must match."""
        relation = Relation("t", [_with_nulls(columns["fsst"], "sparse_nulls")])
        inline = compress_relation(relation, CONFIG)
        registry = MetricsRegistry()
        procpool._TEST_KILL = stage
        with use_registry(registry):
            recovered = compress_relation(relation, CONFIG, workers=WORKERS)
        for inline_col, rec_col in zip(inline.columns, recovered.columns):
            assert [b.data for b in inline_col.blocks] == [b.data for b in rec_col.blocks]
        counters = registry.snapshot()["counters"]
        assert counters["parallel.backend.process.worker_deaths"] == 1
        assert counters["parallel.backend.fallbacks"] == 1
        _assert_no_leaked_segments()

    def test_encoder_failure_propagates_and_leaks_nothing(
        self, columns, monkeypatch, test_hooks
    ):
        """A failing block task is an error, not a death: it is raised as-is
        (no inline rerun) and the segment is still unlinked."""
        monkeypatch.setattr(procpool, "compress_chunk_block", _failing_compress)
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(ValueError, match="synthetic encoder"):
            compress_relation(Relation("t", [columns["bitpack"]]), CONFIG, workers=WORKERS)
        assert "parallel.backend.fallbacks" not in registry.snapshot()["counters"]
        _assert_no_leaked_segments()

    def test_interrupt_mid_submit_leaks_nothing(self, columns, test_hooks):
        """A Ctrl-C between submits still unlinks every segment."""
        procpool._TEST_INTERRUPT_AFTER_SUBMITS = 1
        with pytest.raises(KeyboardInterrupt):
            compress_relation(Relation("t", [columns["bitpack"]]), CONFIG, workers=WORKERS)
        _assert_no_leaked_segments()


# -- demotions inside a worker ------------------------------------------------


class TestWorkerDemotions:
    """A block demoted to Uncompressed in a worker — a scheme failing on the
    full block, or an un-estimated sole survivor losing to its raw bytes —
    is stored, traced and counted as the inline loop does it."""

    def test_encoder_failure_in_a_worker(self, monkeypatch, test_hooks):
        # Patched before the pool forks, so the workers inherit it.
        config = BtrBlocksConfig(block_size=1000)
        scheme = pick_non_uncompressed_scheme(REPEATED[:1000], ColumnType.INTEGER, config)
        failing(monkeypatch, scheme, full_size=1000)
        relation = Relation("t", [Column.ints("n", REPEATED)])  # 4 blocks
        inline_blocks, inline_decisions, inline = _compressed_picture(relation, 1, config)
        blocks, decisions, pooled = _compressed_picture(relation, WORKERS, config)
        assert (blocks, decisions) == (inline_blocks, inline_decisions)
        assert pooled["parallel.backend.process.runs"] == 1
        assert pooled["compressor.fallback.total"] == inline["compressor.fallback.total"] == 4

    def test_rejected_sole_survivor_in_a_worker(self):
        config = BtrBlocksConfig(block_size=16)
        relation = Relation("t", [Column.strings("blob", long_random_strings(rows=64))])
        inline_blocks, inline_decisions, inline = _compressed_picture(relation, 1, config)
        blocks, decisions, pooled = _compressed_picture(relation, WORKERS, config)
        assert (blocks, decisions) == (inline_blocks, inline_decisions)
        assert pooled["parallel.backend.process.runs"] == 1
        assert (
            pooled["selector.sole_survivor.rejected"]
            == inline["selector.sole_survivor.rejected"] == 4
        )


# -- pool lifecycle ------------------------------------------------------------


class TestPoolLifecycle:
    def test_pool_is_reused_while_worker_count_matches(self, columns):
        procpool.shutdown_pool()
        relation = Relation("t", [columns["rle"]])
        registry = MetricsRegistry()
        with use_registry(registry):
            for _ in range(3):
                compress_relation(relation, CONFIG, workers=WORKERS)
        counters = registry.snapshot()["counters"]
        assert counters["parallel.backend.process.pool_starts"] == 1
        assert counters["parallel.backend.process.pool_reuses"] == 2
        assert counters["parallel.backend.process.runs"] == 3

    def test_changing_worker_count_restarts_pool(self, columns):
        procpool.shutdown_pool()
        relation = Relation("t", [columns["rle"]])
        registry = MetricsRegistry()
        with use_registry(registry):
            compress_relation(relation, CONFIG, workers=2)
            compress_relation(relation, CONFIG, workers=3)
        assert registry.snapshot()["counters"]["parallel.backend.process.pool_starts"] == 2

    def test_report_rolls_up_pool_activity(self, columns):
        from repro.observe.report import build_report

        procpool.shutdown_pool()
        registry = MetricsRegistry()
        with use_registry(registry):
            compress_relation(Relation("t", [columns["rle"]]), CONFIG, workers=WORKERS)
        parallel = build_report(registry, SelectionTrace())["parallel"]
        assert parallel["compress_runs"] == 1
        assert parallel["process_pool"]["runs"] == 1
        assert parallel["process_pool"]["starts"] == 1
        assert parallel["process_pool"]["worker_deaths"] == 0
        assert parallel["shared_memory"]["segments"] == 1
        assert parallel["shared_memory"]["unlinked"] == 1
