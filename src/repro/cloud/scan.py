"""Column-granular S3 scans (paper Section 6.7, "Loading individual columns").

OLAP queries fetch individual columns, and the two formats differ in how
many *dependent* round trips that takes:

* **BtrBlocks** stores one file per column plus one metadata file per
  table (Section 2.1 / 6.7), here the manifest a
  :class:`~repro.cloud.remote_table.TableWriter` commits: a scan issues one
  manifest GET, then fetches the needed column files in parallel, chunked
  at 16 MB.
* **Parquet** bundles all columns into one file with a footer at the end:
  a client must (1) GET the footer length, (2) GET the footer, (3) GET the
  column byte ranges — three dependent requests before data arrives [54].

This module uploads the Parquet layout to the simulated store and replays
both request patterns, which is what makes single-column BtrBlocks scans ~9x
cheaper than compressed Parquet in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable
from repro.observe import get_registry


def _record_scan(result: "ColumnScanResult", store: SimulatedObjectStore) -> None:
    """Fold one column-granular scan into the scan-level counters."""
    registry = get_registry()
    registry.incr("cloud.scan.scans")
    registry.incr(f"cloud.scan.{result.label}.scans")
    registry.incr("cloud.scan.requests", result.requests)
    registry.incr("cloud.scan.bytes", result.bytes_downloaded)
    registry.incr("cloud.scan.cost_usd", result.cost_usd(store))
    if result.retries:
        registry.incr("cloud.scan.retries", result.retries)
    if result.backoff_seconds:
        registry.incr("cloud.scan.backoff_seconds", result.backoff_seconds)


@dataclass
class ColumnScanResult:
    """Accounting for one column-granular scan.

    ``retries`` / ``backoff_seconds`` account the retry layer's extra
    attempts and simulated backoff (zero on a fault-free store); backoff
    extends the scan's simulated time and therefore its compute cost.
    """

    label: str
    requests: int
    bytes_downloaded: int
    dependent_round_trips: int
    retries: int = 0
    backoff_seconds: float = 0.0

    def seconds(self, store: SimulatedObjectStore, data_scale: float = 1.0) -> float:
        """Simulated time: bulk transfer + round trips + retry backoff.

        ``data_scale`` linearly scales the byte volume (and the 16 MB chunk
        requests it implies) to model the paper's GB-sized columns when the
        benchmark itself runs on down-scaled synthetic data.
        """
        pricing = store.pricing
        bulk = self.bytes_downloaded * data_scale / pricing.s3_bytes_per_second
        return (
            bulk
            + self.dependent_round_trips * pricing.request_latency_seconds
            + self.backoff_seconds
        )

    def scaled_requests(self, store: SimulatedObjectStore, data_scale: float = 1.0) -> int:
        if data_scale == 1.0:
            return self.requests
        chunks = -(-int(self.bytes_downloaded * data_scale) // store.pricing.chunk_bytes)
        return self.dependent_round_trips + max(chunks, 1)

    def cost_usd(self, store: SimulatedObjectStore, data_scale: float = 1.0) -> float:
        pricing = store.pricing
        return pricing.compute_cost(self.seconds(store, data_scale)) + pricing.request_cost(
            self.scaled_requests(store, data_scale)
        )


def scan_btrblocks_columns(
    store: SimulatedObjectStore, table: str, column_names: list[str]
) -> ColumnScanResult:
    """Fetch selected columns of a committed table: 1 manifest GET, then
    parallel chunked GETs of each column object.

    The columns are read by :class:`~repro.cloud.remote_table.RemoteTable`
    (``open`` + ``fetch_column``), so every GET goes through the store's
    retry layer and damaged downloads are refetched; the accounting comes
    from ``store.stats``.
    """
    store.stats.reset()
    remote = RemoteTable.open(store, table)
    for name in column_names:
        remote.fetch_column(name)
    result = ColumnScanResult(
        label="btrblocks",
        requests=store.stats.get_requests,
        bytes_downloaded=store.stats.bytes_downloaded,
        dependent_round_trips=2,  # manifest, then (parallel) column fetches
        retries=store.stats.retries,
        backoff_seconds=store.stats.backoff_seconds,
    )
    _record_scan(result, store)
    return result


def upload_parquet_like(store: SimulatedObjectStore, table: str, file) -> None:
    """Upload a Parquet-like file as one object with a trailing footer.

    The object layout mirrors Parquet: rowgroup chunks back to back, footer
    at the end, 8-byte footer length last.
    """
    import struct

    chunks: list[bytes] = []
    index: list[tuple[str, int, int]] = []
    offset = 0
    for rg_index, rowgroup in enumerate(file.rowgroups):
        for chunk in rowgroup.chunks:
            index.append((f"{rg_index}/{chunk.name}", offset, len(chunk.data)))
            chunks.append(chunk.data)
            offset += len(chunk.data)
    import json

    footer = json.dumps([[name, start, size] for name, start, size in index]).encode()
    blob = b"".join(chunks) + footer + struct.pack("<Q", len(footer))
    store.put(f"{table}.parquet", blob)


def scan_parquet_like_columns(
    store: SimulatedObjectStore, table: str, column_names: list[str]
) -> ColumnScanResult:
    """Fetch selected columns with Parquet's three dependent request steps."""
    import json
    import struct

    store.stats.reset()
    key = f"{table}.parquet"
    size = store.object_size(key)
    # (1) footer length, (2) footer, (3) column ranges.
    (footer_len,) = struct.unpack("<Q", store.get_range(key, size - 8, 8))
    footer = json.loads(store.get_range(key, size - 8 - footer_len, footer_len))
    wanted = [(start, length) for name, start, length in footer
              if name.split("/", 1)[1] in column_names]
    for start, length in wanted:
        store.get_range(key, start, length)
    result = ColumnScanResult(
        label="parquet",
        requests=store.stats.get_requests,
        bytes_downloaded=store.stats.bytes_downloaded,
        dependent_round_trips=3,
        retries=store.stats.retries,
        backoff_seconds=store.stats.backoff_seconds,
    )
    _record_scan(result, store)
    return result
