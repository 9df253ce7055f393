"""Query processing on compressed blocks.

The paper notes that "BtrBlocks can, in principle, also support processing
compressed data if the used schemes support it" (Section 7) while choosing
to optimise raw decompression first. This package implements that optional
layer: predicate evaluation that exploits block encodings without full
decompression. Each scheme states its rule beside its decode
(``Scheme.scan``; docs/SCHEMES.md, "Compressed-domain fast paths" lists
them); a scheme without one decodes, then evaluates.

Combined with the zone-map layer in :mod:`repro.metadata`, scans skip whole
blocks before touching any compressed bytes.
"""

from repro.query.predicates import Between, Equals, GreaterThan, In, IsNull, LessThan, Predicate

_EXECUTOR_NAMES = ("filter_column", "scan_block", "scan_column")


def __getattr__(name: str):
    # The executor is imported on first use: it imports the decoder, which
    # imports every scheme, and the dictionaries import the predicates.
    if name in _EXECUTOR_NAMES:
        from repro.query import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
