"""Per-block zone maps (min / max / null count / string digest) and pruning.

A :class:`ColumnZoneMap` lives outside the compressed column data,
mirroring the paper's "one file per column plus a metadata file" S3 layout:
on an object store its entries are the ``stats`` of the table manifest's
column entries, which :class:`~repro.cloud.remote_table.RemoteTable`
consults before any data GET. ``pruned_scan`` applies the map of an
in-memory column — the stats its own blocks carry, so the map lines up with
the blocks by construction — and skips blocks whose statistics cannot
satisfy the predicate without decoding a single compressed byte.

The per-block record itself is :class:`~repro.core.blockstats.BlockStats`
(re-exported here as :data:`ZoneMapEntry`): numeric min/max, null count,
conservative string byte-bounds and an optional Bloom digest of the block's
distinct strings. The same record is what v2 column files and table
manifests persist, so an in-memory zone map and a manifest-derived one
prune identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedColumn
from repro.core.blockstats import BlockStats, ZoneMapEntry
from repro.exceptions import FormatError
from repro.query.executor import collect_matches, enumerate_blocks
from repro.query.predicates import Predicate
from repro.types import ColumnType

__all__ = [
    "ZoneMapEntry",
    "ColumnZoneMap",
    "build_zone_map",
    "pruned_scan",
]


@dataclass
class ColumnZoneMap:
    """Zone-map entries for every block of one column."""

    column_name: str
    ctype: ColumnType
    entries: list[BlockStats]

    def pruned_blocks(self, predicate: Predicate) -> list[int]:
        """Indices of blocks that *may* contain matches."""
        return [i for i, entry in enumerate(self.entries) if entry.may_match(predicate)]

    def block_offsets(self) -> list[int]:
        """Starting row of each block plus the total (cumulative counts)."""
        offsets = [0]
        for entry in self.entries:
            offsets.append(offsets[-1] + entry.row_count)
        return offsets


def build_zone_map(compressed: CompressedColumn) -> ColumnZoneMap:
    """The zone map of a compressed column: the stats its blocks carry.

    Compression attaches one record per block when ``config.collect_stats``
    is on, so the map has exactly one entry per block. Raises
    :class:`~repro.exceptions.FormatError` when a block carries no stats or
    a file parser flagged them as damaged (``stats_invalid``).
    """
    stats = compressed.block_stats
    if stats is None or compressed.stats_invalid:
        raise FormatError(f"column {compressed.name!r} carries no valid block statistics")
    return ColumnZoneMap(compressed.name, compressed.ctype, stats)


def pruned_scan(
    compressed: CompressedColumn, predicate: Predicate
) -> tuple[RoaringBitmap, int]:
    """Zone-map-pruned predicate scan over the column's own block stats.

    Returns ``(matching_positions, blocks_read)``; pruned blocks contribute
    no reads and no matches. Surviving blocks go through the shared scan
    driver, :func:`~repro.query.executor.iter_matching_positions`.
    """
    survivors = set(build_zone_map(compressed).pruned_blocks(predicate))
    blocks = [item for item in enumerate_blocks(compressed) if item[0] in survivors]
    rows = collect_matches(blocks, compressed.ctype, predicate)[0]
    return RoaringBitmap.from_positions(rows), len(blocks)
