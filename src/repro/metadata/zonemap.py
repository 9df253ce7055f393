"""Per-block zone maps (min / max / null count / string digest) and pruning.

A :class:`ColumnZoneMap` lives outside the compressed column data,
mirroring the paper's "one file per column plus a metadata file" S3 layout:
on an object store it is the packed ``zone`` records (and string ``bounds``)
of the table manifest's column entries, which
:class:`~repro.cloud.remote_table.RemoteTable` consults before any data GET.
``pruned_scan`` applies the map of an in-memory column — the stats its own
blocks carry — and skips blocks whose statistics cannot satisfy the
predicate without decoding a single compressed byte. Both maps are one
:data:`~repro.core.blockstats.ZONE_RECORD` per block, so a numeric
predicate prunes every block in one array-safe ``may_match_range`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedColumn
from repro.core.blockstats import string_bounds_from_json, string_bounds_to_json, zone_records
from repro.exceptions import FormatError
from repro.query.executor import collect_matches, enumerate_blocks
from repro.query.predicates import IsNull, Predicate
from repro.types import ColumnType

__all__ = [
    "ColumnZoneMap",
    "build_zone_map",
    "pruned_scan",
]


@dataclass(eq=False)
class ColumnZoneMap:
    """One :data:`~repro.core.blockstats.ZONE_RECORD` per block of one
    column, and a string column's per-block ``[min, max, Bloom]`` in the
    manifest's JSON form (decoded on the first prune that reads them)."""

    column_name: str
    ctype: ColumnType
    entries: np.ndarray
    bounds: "list | None" = None
    _decoded: "list | None" = field(default=None, init=False, repr=False)

    def pruned_blocks(self, predicate: Predicate) -> list[int]:
        """Indices of blocks that *may* contain matches.

        A block without a numeric range (only NULLs or NaNs) answers every
        range test "maybe"; a block of only NULLs matches no value
        predicate. Raises :class:`~repro.exceptions.FormatError` when a
        string bound the test needs does not decode.
        """
        entries = self.entries
        if isinstance(predicate, IsNull):
            return np.flatnonzero(entries["nulls"] > 0).tolist()
        may = predicate.may_match_range(entries["lo"], entries["hi"]) | ~entries["has_range"]
        survivors = np.flatnonzero(may & (entries["nulls"] != entries["rows"])).tolist()
        if self.bounds is None:
            return survivors
        if self._decoded is None:
            self._decoded = [string_bounds_from_json(item) for item in self.bounds]
        probes = predicate.bloom_probes()
        kept = []
        for index in survivors:
            min_bytes, max_bytes, bloom = self._decoded[index]
            if min_bytes is not None and not predicate.may_match_bytes(min_bytes, max_bytes):
                continue
            if bloom is not None and probes is not None and not any(map(bloom.may_contain, probes)):
                continue
            kept.append(index)
        return kept

    # Built once per map, shared by every handle reading it: never mutated.
    @cached_property
    def block_offsets(self) -> list[int]:
        """Starting row of each block plus the total (cumulative counts)."""
        return list(accumulate(self.entries["rows"].tolist(), initial=0))

    @cached_property
    def block_extents(self) -> "list[tuple[int, int, int, int]]":
        """Each block's ``(rows, crc, offset, size)`` as Python ints."""
        return self.entries[["rows", "crc", "offset", "size"]].tolist()

    @cached_property
    def block_sizes(self) -> list[int]:
        return self.entries["size"].tolist()


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
    strings = compressed.ctype is ColumnType.STRING
    bounds = [string_bounds_to_json(s) for s in stats] if strings else None
    return ColumnZoneMap(compressed.name, compressed.ctype, zone_records(stats), bounds)


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
