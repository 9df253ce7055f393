"""Pipelined column fetches: readahead range GETs overlapped with decode.

The paper's scan loop (Section 6.7, Figure 1) keeps the network busy while
the CPU decompresses: chunk *i+1..i+K* download while chunk *i* decodes, so
scan time is governed by ``max(fetch, decode)`` per step instead of their
sum. This module reproduces that shape against the simulated store:

* :func:`pipeline_schedule` is the analytic recurrence. With a readahead
  window of ``K`` chunks, fetch *i* may start once fetch *i-1* finished
  (one connection) **and** decode *i-K* finished (bounded buffering);
  decode *i* starts once its fetch and decode *i-1* are done::

      F_i = max(F_{i-1}, D_{i-K}) + fetch_i
      D_i = max(F_i,     D_{i-1}) + decode_i      wall = D_n

  As ``K`` grows this converges to ``startup + max(sum fetch, sum decode)``
  — the Figure 1 crossover between network-bound and CPU-bound scans.

* :func:`pipelined_fetch_column` actually runs it: a one-thread fetch
  executor keeps up to ``K`` chunk GETs queued ahead (all store access
  stays on that thread) while the caller's thread incrementally parses
  (:class:`~repro.core.file_format.ColumnStreamParser`) and decodes each
  completed block into its preallocated slice — the same zero-copy path,
  decode cache and ``on_corrupt`` semantics as
  :func:`~repro.core.decompressor.decompress_column`. Fetch time is
  *simulated* from the pricing model (bandwidth + request latency + any
  retry backoff); decode time is measured; the schedule combines them.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.config import DEFAULT_SCAN_READAHEAD, DecodeLimits
from repro.core.decompressor import (
    CorruptBlockResult,
    _allocate,
    assemble_column_preallocated,
    fill_block,
    make_context,
)
from repro.core.file_format import ColumnStreamParser
from repro.exceptions import FormatError
from repro.observe import get_registry

__all__ = [
    "ColumnPipelineStats",
    "PipelineSchedule",
    "PipelinedScanReport",
    "pipeline_schedule",
    "pipelined_fetch_column",
    "simulated_fetch_seconds",
]


def simulated_fetch_seconds(
    pricing, nbytes: int, requests: int = 1, backoff_seconds: float = 0.0
) -> float:
    """Deterministic transfer time for one fetch under the pricing model:
    bandwidth + per-request latency + any retry backoff already accrued.

    The single formula shared by the chunk pipeline's per-step fetch times
    and the scan server's service-time model, so scheduled latencies and
    pipelined walls stay mutually consistent (and replayable — nothing here
    measures real time).
    """
    return (
        nbytes / pricing.s3_bytes_per_second
        + requests * pricing.request_latency_seconds
        + backoff_seconds
    )


@dataclass(frozen=True)
class PipelineSchedule:
    """Completion times of every fetch and decode step in a pipelined scan."""

    fetch_done: tuple[float, ...]
    decode_done: tuple[float, ...]
    readahead: int

    @property
    def wall_seconds(self) -> float:
        """When the last decode finishes — the scan's simulated duration."""
        return self.decode_done[-1] if self.decode_done else 0.0


def pipeline_schedule(
    fetch_seconds, decode_seconds, readahead: int = DEFAULT_SCAN_READAHEAD
) -> PipelineSchedule:
    """Schedule ``n`` chunk steps through a K-deep fetch/decode pipeline.

    ``fetch_seconds[i]`` / ``decode_seconds[i]`` are the isolated durations
    of step ``i``; the returned schedule overlaps them subject to one fetch
    stream, in-order decode, and at most ``readahead`` fetched-but-undecoded
    chunks buffered (fetch ``i`` waits for decode ``i - readahead``).
    """
    if readahead < 1:
        raise ValueError(f"readahead window must be >= 1, got {readahead}")
    fetch = list(fetch_seconds)
    decode = list(decode_seconds)
    if len(fetch) != len(decode):
        raise ValueError(
            f"{len(fetch)} fetch steps but {len(decode)} decode steps"
        )
    fetch_done: list[float] = []
    decode_done: list[float] = []
    for i in range(len(fetch)):
        start = fetch_done[i - 1] if i else 0.0
        if i >= readahead:
            start = max(start, decode_done[i - readahead])
        fetch_done.append(start + fetch[i])
        prev_decode = decode_done[i - 1] if i else 0.0
        decode_done.append(max(fetch_done[i], prev_decode) + decode[i])
    return PipelineSchedule(tuple(fetch_done), tuple(decode_done), readahead)


@dataclass(frozen=True)
class ColumnPipelineStats:
    """Accounting for one column fetched through the pipeline."""

    key: str
    chunks: int
    bytes_fetched: int
    requests: int
    fetch_seconds: float
    decode_seconds: float
    wall_seconds: float
    retry_seconds: float


@dataclass(frozen=True)
class PipelinedScanReport:
    """Fetch-vs-decode overlap breakdown for one pipelined scan.

    ``fetch_seconds`` and ``decode_seconds`` are the *serial* totals;
    ``wall_seconds`` is the pipelined duration, so ``overlap_seconds`` is
    the time the pipeline saved over fetching and decoding back to back.
    """

    readahead: int
    columns: int
    chunks: int
    bytes_fetched: int
    fetch_seconds: float
    decode_seconds: float
    wall_seconds: float
    retry_seconds: float
    fallbacks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def serial_seconds(self) -> float:
        return self.fetch_seconds + self.decode_seconds

    @property
    def overlap_seconds(self) -> float:
        return max(0.0, self.serial_seconds - self.wall_seconds)

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.wall_seconds if self.wall_seconds else 1.0

    @classmethod
    def from_columns(
        cls,
        stats: "list[ColumnPipelineStats]",
        readahead: int,
        fallbacks: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> "PipelinedScanReport":
        """Aggregate per-column stats (columns scan back to back)."""
        return cls(
            readahead=readahead,
            columns=len(stats),
            chunks=sum(s.chunks for s in stats),
            bytes_fetched=sum(s.bytes_fetched for s in stats),
            fetch_seconds=sum(s.fetch_seconds for s in stats),
            decode_seconds=sum(s.decode_seconds for s in stats),
            wall_seconds=sum(s.wall_seconds for s in stats),
            retry_seconds=sum(s.retry_seconds for s in stats),
            fallbacks=fallbacks,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )

    def to_dict(self) -> dict:
        return {
            "readahead": self.readahead,
            "columns": self.columns,
            "chunks": self.chunks,
            "bytes_fetched": self.bytes_fetched,
            "fetch_seconds": self.fetch_seconds,
            "decode_seconds": self.decode_seconds,
            "wall_seconds": self.wall_seconds,
            "serial_seconds": self.serial_seconds,
            "overlap_seconds": self.overlap_seconds,
            "speedup": self.speedup,
            "retry_seconds": self.retry_seconds,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def pipelined_fetch_column(
    store,
    key: str,
    readahead: int = DEFAULT_SCAN_READAHEAD,
    *,
    rows_hint: int,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
    executor: "ThreadPoolExecutor | None" = None,
):
    """Fetch + decode one column object with a K-chunk readahead pipeline.

    Returns ``(column, compressed, stats)``: the decoded
    :class:`~repro.types.Column`, the parsed
    :class:`~repro.core.blocks.CompressedColumn` (for the caller's column
    cache), and the :class:`ColumnPipelineStats` accounting. ``rows_hint``
    (the metadata row count) sizes the column's preallocation
    (:func:`~repro.core.decompressor.preallocate_column`'s target), and
    every completed block is filled into its slot by
    :func:`~repro.core.decompressor.fill_block` — the decode cache's gate
    and entries included — exactly as a batch decode does. This is a
    column's first download, so string blocks are looked up but not
    admitted (the rule lives on
    :func:`~repro.core.decompressor.decompress_column`).

    The streamed decode is always *strict*: any damage (checksum or parse
    failure in any block) raises immediately. Degrading a block here would
    skip the refetch the batch download path performs first — a damaged
    *download* is usually transient — so callers that hold an
    ``on_corrupt`` policy catch the raise and fall back to
    :meth:`RemoteTable._download_column_verified`, which owns the refetch budget
    and the final degrade decision.

    All store access happens on one fetch thread (the store's accounting
    is not thread-safe); the caller's thread parses and decodes. Per-chunk
    simulated fetch time is ``bytes/bandwidth + request latency + retry
    backoff``; decode time is measured wall clock.
    """
    if readahead < 1:
        raise ValueError(f"readahead window must be >= 1, got {readahead}")
    try:
        size = store.object_size(key)
    except KeyError:
        raise FormatError(f"no such object: {key}") from None
    pricing = store.pricing
    chunk_bytes = pricing.chunk_bytes
    offsets = list(range(0, size, chunk_bytes)) if size else []

    def fetch(offset: int):
        before_requests = store.stats.get_requests
        before_backoff = store.stats.backoff_seconds
        data = store.get_range(key, offset, min(chunk_bytes, size - offset))
        return (
            data,
            store.stats.get_requests - before_requests,
            store.stats.backoff_seconds - before_backoff,
        )

    parser = ColumnStreamParser(limits)
    ctx = make_context(True, limits=limits)
    total_rows = int(rows_hint)
    data = None
    parts: "list[CorruptBlockResult | None]" = []
    row_offset = 0
    fetch_times: list[float] = []
    decode_times: list[float] = []
    requests = 0
    bytes_fetched = 0
    retry_seconds = 0.0

    own_executor = executor is None
    if own_executor:
        executor = ThreadPoolExecutor(max_workers=1)
    try:
        pending = deque(
            executor.submit(fetch, offset) for offset in offsets[:readahead]
        )
        next_offset = readahead
        for _ in range(len(offsets)):
            chunk, chunk_requests, chunk_backoff = pending.popleft().result()
            if next_offset < len(offsets):
                pending.append(executor.submit(fetch, offsets[next_offset]))
                next_offset += 1
            requests += chunk_requests
            bytes_fetched += len(chunk)
            retry_seconds += chunk_backoff
            fetch_times.append(
                simulated_fetch_seconds(pricing, len(chunk), 1, chunk_backoff)
            )
            started = time.perf_counter()
            blocks = parser.feed(chunk)
            if data is None and parser.header_ready:
                data = _allocate(parser.column.ctype, total_rows)
            for block in blocks:
                if row_offset + block.count > total_rows:
                    raise FormatError(
                        f"column {key!r} declares more rows than its "
                        f"metadata ({total_rows})"
                    )
                parts.append(
                    fill_block(
                        data, row_offset, len(parts), block, parser.column.ctype, ctx,
                        cache, cache_key, admit_strings=False,
                    )
                )
                row_offset += block.count
            decode_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        compressed = parser.finish()
        if row_offset != total_rows:
            raise FormatError(
                f"column {key!r} holds {row_offset} rows but its metadata "
                f"declares {total_rows}"
            )
        column = assemble_column_preallocated(compressed, data, parts)
        if decode_times:
            decode_times[-1] += time.perf_counter() - started
        else:
            decode_times = [time.perf_counter() - started]
            fetch_times = [0.0]
    finally:
        if own_executor:
            executor.shutdown(wait=True)
    get_registry().observe_seconds("decompress", sum(decode_times))

    schedule = pipeline_schedule(fetch_times, decode_times, readahead)
    stats = ColumnPipelineStats(
        key=key,
        chunks=len(offsets),
        bytes_fetched=bytes_fetched,
        requests=requests,
        fetch_seconds=sum(fetch_times),
        decode_seconds=sum(decode_times),
        wall_seconds=schedule.wall_seconds,
        retry_seconds=retry_seconds,
    )
    return column, compressed, stats
