"""Decoupled metadata: zone maps for block pruning.

The paper argues metadata and statistics belong *outside* the data file so a
scan can "prune data using statistics and indices before accessing a file
through a high-latency network" (Section 2.1). This package implements that
layer: per-block min/max/null statistics collected at compression time,
persisted in the table manifest or serialized as a standalone object, and a
pruning scan that combines them with the predicate evaluation in
:mod:`repro.query`.
"""

from repro.metadata.zonemap import ColumnZoneMap, build_zone_map, pruned_scan

__all__ = ["ColumnZoneMap", "build_zone_map", "pruned_scan"]
