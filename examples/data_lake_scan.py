#!/usr/bin/env python3
"""Data-lake scenario: store a table on (simulated) S3 and scan it.

Mirrors the paper's Section 6.7 setting: a Public-BI-like workbook is
compressed with BtrBlocks (one file per column + a versioned manifest)
and with the Parquet-like baseline (one file, footer at the end). The script
then runs two scans against the simulated object store:

1. a full-table scan, comparing simulated cost per format;
2. a single-column scan, showing why Parquet's footer design needs three
   dependent round trips while BtrBlocks needs one manifest read.

Run:  python examples/data_lake_scan.py
"""

from repro.cloud import ScanCostModel, SimulatedObjectStore, TableWriter
from repro.cloud.scan import (
    scan_btrblocks_columns,
    scan_parquet_like_columns,
    upload_parquet_like,
)
from repro.core.compressor import compress_relation
from repro.datagen.publicbi import generate_dataset
from repro.formats import parquet_family


def full_table_scans(table) -> None:
    print(f"table: {table.name}, {table.row_count:,} rows, {table.nbytes / 1e6:.1f} MB in memory\n")
    model = ScanCostModel()
    print(f"{'format':16s} {'ratio':>6s} {'T_c [Gbit/s]':>13s} {'bound':>6s} {'cost/scan':>12s}")
    for adapter in parquet_family():
        metrics = model.measure([table], adapter)
        cost = model.cost_usd(metrics)
        bound = "CPU" if metrics.cpu_bound else "NET"
        print(f"{metrics.label:16s} {metrics.compression_ratio:6.2f} "
              f"{metrics.t_c_gbit:13.1f} {bound:>6s} {cost * 1e6:10.3f} u$")


def single_column_scans(table) -> None:
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(table))

    from repro.baselines.parquet_like import ParquetLikeFormat

    parquet_file = ParquetLikeFormat("snappy").compress_relation(table)
    upload_parquet_like(store, table.name, parquet_file)

    wanted = table.column_names()[0]
    btr = scan_btrblocks_columns(store, table.name, [wanted])
    parquet = scan_parquet_like_columns(store, table.name, [wanted])

    print(f"\nsingle-column scan of {wanted!r}:")
    for result in (btr, parquet):
        print(f"  {result.label:10s} requests={result.requests:3d} "
              f"dependent_round_trips={result.dependent_round_trips} "
              f"bytes={result.bytes_downloaded / 1e3:8.1f} kB "
              f"cost={result.cost_usd(store) * 1e9:7.1f} n$")


def remote_query(table) -> None:
    """Query the table straight off the store: lazy, column-granular."""
    from repro.cloud import RemoteTable
    from repro.query import GreaterThan

    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(table))
    store.stats.reset()

    remote = RemoteTable.open(store, table.name)
    double_columns = [c.name for c in table.columns if c.ctype.value == "double"]
    target = double_columns[0]
    count = remote.count({target: GreaterThan(0.0)})
    print(f"\nremote query: COUNT(*) WHERE {target} > 0 -> {count:,} rows")
    print(f"  transferred {store.stats.bytes_downloaded / 1e3:.1f} kB in "
          f"{store.stats.get_requests} GETs (1 manifest + the filter column; "
          f"the other {len(table.columns) - 1} columns never left the store)")


def main() -> None:
    table = generate_dataset("CommonGovernment", rows=8_192)
    full_table_scans(table)
    single_column_scans(table)
    remote_query(table)


if __name__ == "__main__":
    main()
