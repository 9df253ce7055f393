"""Cascading block compression (paper Section 3.2).

``compress_block`` is the entry point for a single value sequence; it wires a
:class:`~repro.core.selector.SchemeSelector` into a
:class:`~repro.encodings.base.CompressionContext` so that every scheme's
child data recursively flows through scheme selection until the cascade depth
is exhausted. ``compress_column`` / ``compress_relation`` chunk full columns
into 64k blocks, carrying NULL bitmaps alongside.
"""

from __future__ import annotations

from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.blockstats import compute_block_stats
from repro.core.config import BtrBlocksConfig
from repro.core.relation import Relation
from repro.core.selector import SchemeSelector
from repro.encodings.base import CompressionContext, Values, values_nbytes
from repro.encodings.uncompressed import UNCOMPRESSED_BY_TYPE
from repro.encodings.wire import wrap
from repro.exceptions import WorkerDiedError
from repro.observe import get_registry
from repro.types import Column, ColumnType


def _compress_node(
    values: Values, ctype: ColumnType, ctx: CompressionContext, selector: SchemeSelector
) -> bytes:
    scheme = selector.pick(values, ctype, ctx)
    # Claim the trace record now: cascade children picked inside
    # scheme.compress() will each produce their own decision.
    decision = selector.take_last_decision()
    uncompressed = UNCOMPRESSED_BY_TYPE[ctype]
    demoted = None  # the Uncompressed node, once it replaces the picked scheme's
    try:
        framed = wrap(scheme.scheme_id, len(values), scheme.compress(values, ctx))
    except Exception:
        # A scheme that passed viability + sampling can still fail against
        # the full block (sample-blind edge values, overflow in a child
        # transform). Dropping to Uncompressed sacrifices ratio for this
        # one block instead of aborting the whole column.
        if scheme.scheme_id == uncompressed.scheme_id:
            raise  # Uncompressed itself failing is not recoverable
        registry = get_registry()
        registry.incr("compressor.fallback.total")
        registry.incr(f"compressor.fallback.{scheme.name}")
        if decision is not None:
            decision.fallback = True
        demoted = wrap(uncompressed.scheme_id, len(values), uncompressed.compress(values, ctx))
    else:
        # A sole survivor was picked without an estimate, so the rule the
        # estimate stood in for applies to the real node: keep it only if
        # strictly smaller than Uncompressed. A node below the bare values
        # is; only otherwise does Uncompressed have to be materialised.
        if decision is not None and decision.sole_survivor and len(framed) >= decision.input_bytes:
            raw = wrap(uncompressed.scheme_id, len(values), uncompressed.compress(values, ctx))
            if len(raw) <= len(framed):
                get_registry().incr("selector.sole_survivor.rejected")
                decision.survivor_rejected = True
                demoted = raw
    if demoted is not None:
        if decision is not None:
            decision.chosen = uncompressed.name
        framed = demoted
    if decision is not None:
        decision.finish(len(framed))
    return framed


def make_context(selector: SchemeSelector) -> CompressionContext:
    """A compression context rooted at the configured cascade depth."""

    def compress_fn(values: Values, ctype: ColumnType, ctx: CompressionContext) -> bytes:
        return _compress_node(values, ctype, ctx, selector)

    return CompressionContext(selector.config, selector.config.max_cascade_depth, compress_fn)


def compress_block(
    values: Values,
    ctype: ColumnType,
    config: BtrBlocksConfig | None = None,
    selector: SchemeSelector | None = None,
) -> bytes:
    """Compress one block of values into a self-describing byte string."""
    selector = selector or SchemeSelector(config)
    ctx = make_context(selector)
    registry = get_registry()
    with registry.timer("compress"):
        blob = _compress_node(values, ctype, ctx, selector)
    registry.incr("compress.blocks")
    registry.incr("compress.rows", len(values))
    registry.incr("compress.input_bytes", values_nbytes(values))
    registry.incr("compress.output_bytes", len(blob))
    return blob


def iter_block_ranges(total: int, block_size: int):
    """Yield ``(index, start, stop)`` for every block of a column.

    An empty column still yields one (empty) block so the compressed file
    carries the column's existence and type.
    """
    if total == 0:
        yield 0, 0, 0
        return
    for index, start in enumerate(range(0, total, block_size)):
        yield index, start, min(start + block_size, total)


def compress_chunk_block(
    chunk: Column, index: int, selector: SchemeSelector
) -> CompressedBlock:
    """Compress one already-sliced block chunk of a column.

    The chunk carries the column's name/type plus the block's values and
    rebased NULLs, so this is a self-contained work unit: process-pool
    workers rebuild the chunk from shared memory and call this directly.
    """
    selector.trace_column = chunk.name
    selector.begin_block(index)
    data = compress_block(chunk.data, chunk.ctype, selector=selector)
    nulls = chunk.nulls.serialize() if chunk.nulls is not None else None
    stats = None
    if selector.config.collect_stats:
        stats = compute_block_stats(chunk, selector.config.stats_bloom_max_distinct)
    return CompressedBlock(len(chunk), data, nulls, stats=stats)


def compress_column_block(
    column: Column, index: int, start: int, stop: int, selector: SchemeSelector
) -> CompressedBlock:
    """Compress one block-range of a column.

    The selector is positioned with :meth:`SchemeSelector.begin_block`, so
    the result depends only on ``(column, index, config, seed)`` — never on
    which other blocks the selector processed before.
    """
    return compress_chunk_block(column.slice(start, stop), index, selector)


def compress_column(
    column: Column,
    config: BtrBlocksConfig | None = None,
    selector: SchemeSelector | None = None,
) -> CompressedColumn:
    """Chunk a column into blocks and compress each independently."""
    selector = selector or SchemeSelector(config)
    block_size = selector.config.block_size
    compressed = CompressedColumn(column.name, column.ctype)
    try:
        for index, start, stop in iter_block_ranges(len(column), block_size):
            compressed.blocks.append(
                compress_column_block(column, index, start, stop, selector)
            )
    finally:
        selector.trace_column = None
        selector.trace_block = None
    get_registry().incr("compress.columns")
    return compressed


def compress_relation(
    relation: Relation,
    config: BtrBlocksConfig | None = None,
    *,
    workers: int = 1,
) -> CompressedRelation:
    """Compress every column of a relation.

    Each column gets a fresh, identically-seeded selector so results do not
    depend on column order. ``workers > 1`` fans the ``(column, block)``
    tasks out to that many processes (:mod:`repro.procpool`); every block
    is positioned with :meth:`SchemeSelector.begin_block`, so the bytes,
    block statistics and selection decisions are the inline loop's. A
    relation of one block task, or a worker death mid-call, runs inline.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        get_registry().incr("parallel.compress_runs")
        block_size = (config or BtrBlocksConfig()).block_size
        tasks = sum(
            1 for column in relation.columns
            for _ in iter_block_ranges(len(column), block_size)
        )
        if tasks > 1:
            from repro import procpool

            try:
                return procpool.compress_relation_process(relation, config, workers)
            except WorkerDiedError:
                get_registry().incr("parallel.backend.fallbacks")
    out = CompressedRelation(relation.name)
    for column in relation.columns:
        out.columns.append(compress_column(column, selector=SchemeSelector(config)))
    return out


__all__ = [
    "compress_block",
    "compress_column",
    "compress_relation",
    "make_context",
]
