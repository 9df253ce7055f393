#!/usr/bin/env python3
"""Querying compressed data: predicate pushdown + zone-map pruning.

The paper keeps statistics out of the data files (Section 2.1) and notes
that BtrBlocks can support processing compressed data (Section 7). This
example shows both layers working together on a sales table:

1. a zone map (the per-block min/max/null stats compression attaches,
   kept apart from the encoded data) prunes blocks whose range cannot match the predicate;
2. surviving blocks answer the predicate in the compressed domain where the
   encoding allows (One Value, Dictionary, RLE, Frequency fast paths);
3. only matching rows are materialised.

Run:  python examples/compressed_scan.py
"""

import time

import numpy as np

from repro.core.compressor import compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.metadata import pruned_scan
from repro.query import Between, Equals, filter_column, scan_column
from repro.types import Column


def main() -> None:
    rng = np.random.default_rng(5)
    n = 512_000
    block_size = 64_000

    # Sales amounts arriving roughly in chronological order: later blocks
    # hold larger order ids, so range predicates prune aggressively.
    order_ids = np.sort(rng.integers(0, 10_000_000, n)).astype(np.int32)
    status = Column.strings(
        "status", [["shipped", "pending", "returned", "lost"][i] for i in rng.integers(0, 4, n)]
    )

    config = BtrBlocksConfig(block_size=block_size)
    compressed_ids = compress_column(Column.ints("order_id", order_ids), config)
    compressed_status = compress_column(status, config)

    predicate = Between(4_000_000, 4_100_000)

    started = time.perf_counter()
    full = decompress_column(compressed_ids)
    naive_mask = predicate.evaluate(np.asarray(full.data))
    naive_seconds = time.perf_counter() - started

    started = time.perf_counter()
    matches, blocks_read = pruned_scan(compressed_ids, predicate)
    pruned_seconds = time.perf_counter() - started

    assert np.array_equal(matches.to_array(), np.nonzero(naive_mask)[0])
    print(f"rows: {n:,} in {len(compressed_ids.blocks)} blocks of {block_size:,}")
    print(f"predicate: order_id BETWEEN 4,000,000 AND 4,100,000 "
          f"({int(naive_mask.sum()):,} matching rows)")
    print(f"  decompress-then-filter: {naive_seconds * 1000:7.1f} ms "
          f"({len(compressed_ids.blocks)} blocks decompressed)")
    print(f"  zone-map pruned scan:   {pruned_seconds * 1000:7.1f} ms "
          f"({blocks_read} blocks read)")

    # Compressed-domain evaluation on a dictionary column: the predicate is
    # evaluated once per distinct string, not once per row.
    started = time.perf_counter()
    shipped = scan_column(compressed_status, Equals("shipped"))
    scan_seconds = time.perf_counter() - started
    print(f"\nstatus = 'shipped': {len(shipped):,} rows via compressed-domain "
          f"dictionary scan in {scan_seconds * 1000:.1f} ms")

    shipped_rows = filter_column(compressed_status, Equals("shipped"))
    assert set(shipped_rows.data.to_pylist()) == {b"shipped"}
    print(f"materialised {len(shipped_rows):,} matching strings ✓")

    # The same layers through the table-level API: commit once to a
    # (simulated) object store, then run filtered projections and
    # aggregates without ever holding the decompressed table in memory.
    from repro.cloud import RemoteTable, SimulatedObjectStore, TableWriter
    from repro.core.compressor import compress_relation
    from repro.core.relation import Relation

    amounts = np.round(rng.uniform(1.0, 500.0, n), 2)
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(
        Relation("orders", [
            Column.ints("order_id", order_ids),
            Column.doubles("amount", amounts),
            status,
        ]),
        config,
    ))
    table = RemoteTable.open(store, "orders")
    where = {"order_id": Between(4_000_000, 4_100_000), "status": Equals("shipped")}
    count = table.count(where)
    revenue = table.aggregate("amount", "sum", where)
    print(f"\nSQL-ish: SELECT SUM(amount) WHERE id BETWEEN ... AND status='shipped'")
    print(f"  -> {count:,} rows, revenue {revenue:,.2f}")


if __name__ == "__main__":
    main()
