"""Selective-scan acceptance: bytes moved must scale with selectivity.

The zone-map pushdown exists for exactly one measurable reason — a 1%
query over clustered data should move a small fraction of the bytes a
full scan moves, because whole blocks (and their GETs) are pruned from
the manifest before any data is requested. This sweeps 1/10/50/100%
selectivity at test size and gates the ratio.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cloud import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.relation import Relation
from repro.observe import MetricsRegistry, use_registry
from repro.query.predicates import Between
from repro.types import Column


def bench_selective_scan(rows: int, seed: int, block_size: int) -> dict:
    """Bytes fetched and rows returned across a selectivity sweep.

    Commits a clustered table (sort key + double payload), then runs
    ``scan(where=Between(...))`` at ~1% / 10% / 50% / 100% selectivity with a
    cold :class:`RemoteTable` per point, so every byte a query needs is a
    fresh GET.
    """
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, 1_000_000, rows)).astype(np.int32)
    relation = Relation("selective", [
        Column.ints("k", keys),
        Column.doubles("payload", rng.uniform(0.0, 1000.0, rows)),
    ])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=block_size)))

    sweep = {}
    lo = int(keys[0])
    for label, fraction in (("1%", 0.01), ("10%", 0.10), ("50%", 0.50), ("100%", 1.0)):
        hi = int(keys[min(rows - 1, max(0, int(rows * fraction) - 1))])
        table = RemoteTable.open(store, "selective")
        registry = MetricsRegistry()
        before_bytes = store.stats.bytes_downloaded
        before_requests = store.stats.get_requests
        start = time.perf_counter()
        with use_registry(registry):
            result = table.scan(columns=["payload"], where={"k": Between(lo, hi)})
        elapsed = time.perf_counter() - start
        sweep[label] = {
            "rows_returned": len(result.columns[0]),
            "bytes_fetched": store.stats.bytes_downloaded - before_bytes,
            "get_requests": store.stats.get_requests - before_requests,
            "pruned_blocks": int(registry.get("cloud.scan.pruned_blocks")),
            "pruned_bytes": int(registry.get("cloud.scan.pruned_bytes")),
            "decode_s": elapsed,
        }
    return {"sweep": sweep}


def test_selectivity_sweep_bytes_scale():
    report = bench_selective_scan(rows=40_000, seed=7, block_size=2000)
    sweep = report["sweep"]
    assert set(sweep) == {"1%", "10%", "50%", "100%"}
    full = sweep["100%"]
    assert full["rows_returned"] == 40_000
    # The acceptance bar: a 1% query moves < 25% of the full scan's bytes.
    assert sweep["1%"]["bytes_fetched"] < 0.25 * full["bytes_fetched"], (
        f"1% selectivity fetched {sweep['1%']['bytes_fetched']} of "
        f"{full['bytes_fetched']} bytes — pruning is not engaging"
    )
    # Bytes grow monotonically with selectivity on clustered data.
    ordered = [sweep[k]["bytes_fetched"] for k in ("1%", "10%", "50%", "100%")]
    assert ordered == sorted(ordered)
    # Narrow queries also prune whole blocks, not just bytes.
    assert sweep["1%"]["pruned_blocks"] > 0
    assert sweep["1%"]["pruned_bytes"] > 0
    for point in sweep.values():
        assert point["decode_s"] >= 0.0
        assert point["get_requests"] >= 1


def test_sweep_rows_match_selectivity():
    report = bench_selective_scan(rows=20_000, seed=11, block_size=1000)
    sweep = report["sweep"]
    for label, fraction in (("1%", 0.01), ("10%", 0.10), ("50%", 0.50)):
        returned = sweep[label]["rows_returned"]
        # Duplicated keys at the range boundary blur the edge a little.
        assert 0 < returned <= 20_000
        assert abs(returned - 20_000 * fraction) < 20_000 * 0.05, label


def test_point_query_fetches_few_blocks():
    """Single-value lookup on a clustered key: the purest pruning win."""
    rows = 30_000
    keys = np.arange(rows, dtype=np.int32)
    relation = Relation(
        "points",
        [
            Column.ints("k", keys),
            Column.doubles("v", np.linspace(0.0, 1.0, rows)),
        ],
    )
    store = SimulatedObjectStore()
    TableWriter(store).write(
        compress_relation(relation, BtrBlocksConfig(block_size=1000))
    )
    table = RemoteTable.open(store, "points")
    store.stats.reset()
    result = table.scan(columns=["v"], where={"k": Between(15_000, 15_010)})
    assert len(result.columns[0]) == 11
    full = store.object_size(table.column_entry("k")["file"]) + store.object_size(
        table.column_entry("v")["file"]
    )
    assert store.stats.bytes_downloaded < 0.25 * full
