"""A minimal scan engine over compressed tables.

Ties the layers together the way a data-lake consumer would use them:
conjunctive predicates evaluate per column in the compressed domain
(:mod:`repro.query.executor`), zone maps prune blocks before any bytes are
touched (:mod:`repro.metadata`), and only the surviving rows of the
requested columns are materialised.

Example::

    table = CompressedTable.from_relation(relation)
    hits = table.count(where={"price": GreaterThan(100.0)})
    result = table.scan(columns=["city", "price"],
                        where={"price": GreaterThan(100.0),
                               "city": Equals("PHOENIX")})
    total = table.aggregate("price", "sum", where={"city": Equals("PHOENIX")})
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.access import read_rows
from repro.core.blocks import CompressedRelation
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.file_format import verify_column
from repro.core.relation import Relation
from repro.metadata import ColumnZoneMap, build_zone_map, pruned_scan
from repro.query.executor import scan_column
from repro.query.predicates import Predicate
from repro.types import ColumnType

_AGGREGATES = {"sum", "min", "max", "mean", "count"}


class CompressedTable:
    """A compressed relation plus (optional) zone maps, queryable in place."""

    def __init__(
        self,
        compressed: CompressedRelation,
        zone_maps: "Mapping[str, ColumnZoneMap] | None" = None,
    ) -> None:
        # The scan kernels below verify no checksum, so damage stops here
        # (free for blocks compressed in memory, which carry none).
        for column in compressed.columns:
            verify_column(column)
        self.compressed = compressed
        self.zone_maps = dict(zone_maps or {})

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        config: BtrBlocksConfig | None = None,
        with_zone_maps: bool = True,
    ) -> "CompressedTable":
        """Compress a relation and (by default) build its zone maps.

        Compression already collects per-block statistics (unless
        ``config.collect_stats`` is off), so zone maps — string columns
        included — normally come straight off the compressed blocks; columns
        compressed without stats fall back to a separate collection pass.
        """
        compressed = compress_relation(relation, config)
        zone_maps = {}
        if with_zone_maps:
            block_size = (config or BtrBlocksConfig()).block_size
            for column, compressed_column in zip(relation.columns, compressed.columns):
                stats = compressed_column.block_stats
                if stats is not None:
                    zone_maps[column.name] = ColumnZoneMap(
                        column.name, column.ctype, stats
                    )
                else:
                    zone_maps[column.name] = build_zone_map(column, block_size)
        return cls(compressed, zone_maps)

    # -- properties ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.compressed.columns[0].count if self.compressed.columns else 0

    def column_names(self) -> list[str]:
        return [c.name for c in self.compressed.columns]

    # -- querying ----------------------------------------------------------------

    def matching_rows(self, where: Mapping[str, Predicate]) -> RoaringBitmap:
        """Row positions satisfying *all* predicates (conjunction).

        Each predicate runs in the compressed domain; zone maps prune blocks
        where available. Empty ``where`` matches every row.
        """
        result: RoaringBitmap | None = None
        for column_name, predicate in where.items():
            compressed_column = self.compressed.column(column_name)
            zone_map = self.zone_maps.get(column_name)
            if zone_map is not None:
                matches, _blocks = pruned_scan(compressed_column, zone_map, predicate)
            else:
                matches = scan_column(compressed_column, predicate)
            result = matches if result is None else (result & matches)
            if result is not None and len(result) == 0:
                return result
        if result is None:
            return RoaringBitmap.from_positions(np.arange(self.row_count))
        return result

    def count(self, where: Mapping[str, Predicate]) -> int:
        """Number of rows matching the conjunction."""
        return len(self.matching_rows(where))

    def scan(
        self,
        columns: "Iterable[str] | None" = None,
        where: "Mapping[str, Predicate] | None" = None,
    ) -> Relation:
        """Materialise the selected columns of the matching rows."""
        names = list(columns) if columns is not None else self.column_names()
        if where:
            rows = self.matching_rows(where).to_array().astype(np.int64)
            out = [read_rows(self.compressed.column(name), rows) for name in names]
        else:
            from repro.core.decompressor import decompress_column

            out = [decompress_column(self.compressed.column(name)) for name in names]
        return Relation(self.compressed.name, out)

    def aggregate(
        self,
        column: str,
        agg: str,
        where: "Mapping[str, Predicate] | None" = None,
    ) -> float:
        """Aggregate one numeric column over the matching rows.

        NULL rows are excluded, following SQL aggregate semantics.
        """
        if agg not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {agg!r}; choose from {sorted(_AGGREGATES)}")
        compressed_column = self.compressed.column(column)
        if compressed_column.ctype is ColumnType.STRING and agg != "count":
            raise ValueError("only 'count' is supported for string columns")
        if where:
            rows = self.matching_rows(where).to_array().astype(np.int64)
            materialised = read_rows(compressed_column, rows)
        else:
            from repro.core.decompressor import decompress_column

            materialised = decompress_column(compressed_column)
        mask = ~materialised.null_mask()
        if agg == "count":
            return int(mask.sum())
        values = np.asarray(materialised.data)[mask]
        if values.size == 0:
            return float("nan")
        return float({"sum": np.sum, "min": np.min, "max": np.max, "mean": np.mean}[agg](values))
