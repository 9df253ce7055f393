"""Query processing on compressed blocks.

The paper notes that "BtrBlocks can, in principle, also support processing
compressed data if the used schemes support it" (Section 7) while choosing
to optimise raw decompression first. This package implements that optional
layer: predicate evaluation that exploits block encodings without full
decompression —

* **One Value** blocks answer a predicate with a single comparison;
* **Dictionary** blocks evaluate the predicate once per *distinct* value and
  map the result over the code sequence;
* **RLE** blocks evaluate once per run and replicate;
* **Frequency** blocks test the top value once and only touch exceptions;
* anything else falls back to decompress-then-filter.

Combined with the zone-map layer in :mod:`repro.metadata`, scans skip whole
blocks before touching any compressed bytes.
"""

from repro.query.predicates import Between, Equals, GreaterThan, In, IsNull, LessThan, Predicate
from repro.query.executor import filter_column, scan_block, scan_column

__all__ = [
    "Predicate",
    "Equals",
    "Between",
    "GreaterThan",
    "LessThan",
    "In",
    "IsNull",
    "scan_block",
    "scan_column",
    "filter_column",
]
