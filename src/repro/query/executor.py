"""Predicate evaluation over compressed blocks — in the compressed domain.

``scan_block`` answers a predicate over one compressed block through the
decoder's one cascade walk (:func:`~repro.core.decompressor._decode_node`
with a ``predicate``): every node at every depth passes the same gate as a
decode -- limits, type, the count its parent holds it to -- and then runs
its scheme's predicate rule, ``Scheme.scan``, which answers with as little
decoding as the encoding permits (the paper's Section 7 direction and
Rozenberg's computational model for processing compressed data). The rules
live beside each scheme's ``decompress`` (docs/SCHEMES.md,
"Compressed-domain fast paths"); a scheme without one decodes, then
evaluates. Because the rules push the predicate into their children, they
compose: a dictionary whose code stream is RLE over bit-packed run values
evaluates the compiled code predicate per *run*, and the run values' page
headers can reject runs without unpacking a word.

Behind a warm decode cache none of this runs for most number blocks:
:func:`block_mask`, the operator every scan driver computes a block's mask
with, answers a block the cache serves over its decoded values. On request
it also returns the values at the hit rows, built from what its route
decoded (runs repeated, codes through the pool, accepted pages unpacked with
the undecided ones), so a projected filter column is never decoded twice.

NULL semantics follow SQL: NULL rows never match a value predicate, and the
dedicated :class:`~repro.query.predicates.IsNull` matches exactly them.

``query.cdomain.*`` counters record what the compressed domain saved; see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.bitmap import RoaringBitmap, strictly_increasing
from repro.core.blocks import CompressedBlock, CompressedColumn
from repro.core.config import DEFAULT_DECODE_LIMITS, DecodeLimits
from repro.core.decompressor import (
    CorruptBlockResult,
    _block_is_intact,
    _decode_node,
    _open_node,
    cached_block,
    concat_values,
    decode_block,
    make_context,
)
from repro.encodings.base import get_scheme, kept_values
from repro.exceptions import BtrBlocksError, UnknownSchemeError
from repro.observe import get_registry
from repro.query.predicates import IsNull, Predicate
from repro.types import Column, ColumnType

_NO_ROWS = np.empty(0, dtype=np.int64)


def scan_block(
    blob: bytes,
    ctype: ColumnType,
    predicate: Predicate,
    nulls: RoaringBitmap | None = None,
    limits: "DecodeLimits | None" = None,
    values: bool = False,
):
    """Evaluate a predicate over one compressed block, returning a row mask;
    with ``values``, ``(mask, values at its hit rows)`` from what the route
    decoded (``None`` under :class:`IsNull` or if it decoded none of them).
    ``limits`` bind its declared count and every nested node. ``blob`` is
    parsed as it is: no checksum is verified here, that is the caller's job.
    Malformed bytes fail typed, as a decode of them would: every node is
    opened and held to its count by the decoder's dispatcher, and scheme
    code runs under its error typing."""
    ctx = make_context(limits=limits)
    if isinstance(predicate, IsNull):
        count = _open_node(blob, ctype, ctx)[1]
        mask = np.zeros(count, dtype=bool) if nulls is None else nulls.to_mask(count)
        hit_values = None
    else:
        mask, hit_values = _decode_node(
            blob, ctype, ctx, block_level=True, predicate=predicate, want=values
        )
        if nulls is not None and len(nulls):
            null_mask = nulls.to_mask(mask.size)
            if hit_values is not None:
                hit_values = kept_values(hit_values, ~null_mask[mask])
            mask &= ~null_mask
    get_registry().incr_many([("query.cdomain.blocks", 1), ("query.cdomain.rows", mask.size)])
    return (mask, hit_values) if values else mask


def _scan_beats_cache(data: bytes) -> bool:
    """Whether the block's root scheme scans as fast as a cache hit would
    (``Scheme.scan_beats_cache``); an unreadable root is left to the scan
    to raise."""
    try:
        return get_scheme(data[0]).scan_beats_cache
    except (IndexError, UnknownSchemeError):
        return False


# -- shared block-iteration driver --------------------------------------------


def enumerate_blocks(
    compressed: CompressedColumn,
) -> Iterator[tuple[int, CompressedBlock, int]]:
    """Yield ``(block index, block, column-row offset)`` for every block, in order."""
    offset = 0
    for index, block in enumerate(compressed.blocks):
        yield index, block, offset
        offset += block.count


def block_mask(
    index: int,
    block: CompressedBlock,
    ctype: ColumnType,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    entry=None,
    values: bool = False,
):
    """The one scan operator: ``(row mask, values at its hit rows)`` of
    block ``index`` for ``predicate``; the values only on request.

    A number block that a warm :class:`~repro.core.cache.DecodeCache` serves
    from the column's ``entry`` (``cache.get(cache_key)``) through
    :func:`~repro.core.decompressor.cached_block` — the gate
    ``decompress_column`` and ``read_rows`` use: limits, declared count, the
    CRC32 of the block in hand, hashed once per block object — is answered
    over its slice of the cached column. Every
    other block, and every block of a string column or under
    :class:`~repro.query.predicates.IsNull`, is evaluated in the compressed
    domain by :func:`scan_block` (string predicates compile into dictionary
    code space there; ``evaluate`` over a ``StringArray`` runs per row, and
    NULLs are answered from the bitmap), as are One Value and Uncompressed
    blocks, which it answers as fast as a hit would. Nothing is inserted into
    the cache. NULL rows never match a value predicate on either route.

    The hit values are what the route decoded anyway (:func:`scan_block`),
    so a materialising reader need not decode the block again; ``None``
    when nothing was handed. A handed block counts as a filtered decode
    (``query.cdomain.filtered.*``, plus ``reused_blocks``).
    """
    nulls = RoaringBitmap.deserialize(block.nulls) if block.nulls else None
    if (
        cache is not None
        and ctype is not ColumnType.STRING
        and not isinstance(predicate, IsNull)
        and not _scan_beats_cache(block.data)
    ):
        served = cached_block(cache, entry, [block], limits or DEFAULT_DECODE_LIMITS, [index])[0]
        cache.count(served is True, served is False)
        if served:
            cached = entry.span(index, index + 1)
            mask = np.asarray(predicate.evaluate(cached), dtype=bool)
            if nulls is not None and len(nulls):
                mask &= ~nulls.to_mask(block.count)
            return mask, _handed(block, np.compress(mask, cached) if values else None)
    scanned = scan_block(block.data, ctype, predicate, nulls, limits=limits, values=values)
    if not values:
        return scanned, None
    return scanned[0], _handed(block, scanned[1])


def _handed(block: CompressedBlock, hit_values):
    """Count a block whose hit values go on to materialisation."""
    if hit_values is not None and len(hit_values):
        get_registry().incr_many(
            [
                ("query.cdomain.filtered.blocks", 1),
                ("query.cdomain.filtered.rows_selected", len(hit_values)),
                ("query.cdomain.filtered.rows_total", block.count),
                ("query.cdomain.filtered.reused_blocks", 1),
            ]
        )
    return hit_values


def iter_matching_positions(
    block_iter: Iterable[tuple[int, CompressedBlock, int]],
    ctype: ColumnType,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
    values: bool = False,
) -> Iterator[tuple[CompressedBlock, int, np.ndarray, object]]:
    """The shared scan driver: yield ``(block, offset, hit rows, hit values)``
    per block.

    ``block_iter`` yields ``(block index, block, column-row offset)`` —
    callers control which blocks are seen (zone-map pruning on the remote
    path skips some) and what offsets they sit at. Each block's mask comes
    from :func:`block_mask`, which reads the column's entry in ``cache``
    under ``cache_key`` (the key
    :func:`~repro.core.decompressor.decompress_column` filled it under;
    looked up once) and, with ``values``, hands over the values at the hit
    rows (else ``None``). Blocks with no hits are consumed silently; hit rows
    are block-local, sorted and unique, ready for
    :func:`~repro.core.decompressor.decode_block`'s ``positions``; ``limits`` bind each.
    """
    entry = cache.get(cache_key) if cache is not None else None
    for index, block, offset in block_iter:
        mask, hit_values = block_mask(
            index, block, ctype, predicate, limits, cache, entry, values
        )
        hits = np.flatnonzero(mask)
        if hits.size:
            yield block, offset, hits, hit_values


def collect_matches(
    block_iter: Iterable[tuple[int, CompressedBlock, int]],
    ctype: ColumnType,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
    values: bool = False,
) -> "tuple[np.ndarray, tuple | None]":
    """:func:`iter_matching_positions` (same arguments) collected into
    ``(matching rows, handover)``: the rows are one strictly increasing
    ``int64`` array of column positions (blocks arrive in ascending row
    order, so their hits concatenate sorted). The handover is ``(column
    rows, their values)`` over every block that handed its hit values on —
    sorted rows, values in the same order — or ``None`` when no block did."""
    positions, covered, parts = [], [], []
    for _block, offset, hits, hit_values in iter_matching_positions(
        block_iter, ctype, predicate, limits, cache, cache_key, values
    ):
        positions.append(hits + offset)
        if hit_values is not None:
            covered.append(positions[-1])
            parts.append(hit_values)
    if not positions:
        return _NO_ROWS, None
    rows = np.concatenate(positions)
    assert strictly_increasing(rows), "blocks must arrive in ascending row order"
    if not parts:
        return rows, None
    return rows, (np.concatenate(covered), concat_values(parts, ctype))


def scan_column(
    compressed: CompressedColumn,
    predicate: Predicate,
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
) -> RoaringBitmap:
    """Evaluate a predicate over a whole compressed column.

    Returns a Roaring bitmap of matching row positions. Block checksums are
    not verified (:func:`filter_column` does; a ``cache`` hit verifies its
    block): a column read from untrusted bytes goes through
    :func:`~repro.core.file_format.verify_column` first.
    """
    return RoaringBitmap.from_positions(collect_matches(
        enumerate_blocks(compressed), compressed.ctype, predicate, limits, cache, cache_key
    )[0])


def filter_column(
    compressed: CompressedColumn,
    predicate: Predicate,
    on_corrupt: str = "raise",
) -> Column:
    """Materialise only the rows matching the predicate.

    The compressed-domain scan picks the matching rows per block and hands
    over the values it decoded at them (:func:`block_mask`); blocks with no
    hits are skipped entirely. A block whose route decoded none of its hits
    (:class:`~repro.query.predicates.IsNull`, an all-matching code-space
    compile) materialises *only* them through the selection-vector decode —
    dictionaries gather only matching codes, bit-packed pages unpack only
    where hits live — up to the dispatcher's crossover to a plain decode +
    take. No block decodes twice.

    Every block passes the decode's own policy gate first
    (:func:`~repro.core.decompressor._block_is_intact`): the policy is
    validated, a declared count over the limits raises under every policy,
    and a CRC mismatch raises :class:`~repro.exceptions.IntegrityError`
    under ``"raise"`` -- damaged bytes are never parsed -- and drops the
    block's rows under either degrade policy. A block whose payload fails
    to parse (the only damage signal checksum-less v1 blocks give) raises
    its typed error under ``"raise"`` and is dropped the same way under
    either degrade policy.
    """
    ctx = make_context()
    parts = []
    for index, block, _offset in enumerate_blocks(compressed):
        if not _block_is_intact(block, ctx, on_corrupt):
            continue
        try:
            mask, values = block_mask(index, block, compressed.ctype, predicate, values=True)
        except BtrBlocksError:
            if on_corrupt == "raise":
                raise
            continue  # degrade policies drop the block's matches
        if values is None:  # the route decoded none of its hits
            hits = np.flatnonzero(mask)
            if not hits.size:
                continue
            values = decode_block(
                block, compressed.ctype, ctx, positions=hits, on_corrupt=on_corrupt
            )
            if isinstance(values, CorruptBlockResult):
                continue
        parts.append(values)
    return Column(compressed.name, compressed.ctype, concat_values(parts, compressed.ctype))
