"""BtrBlocks reproduction: efficient columnar compression for data lakes.

A from-scratch Python implementation of the SIGMOD 2023 paper *BtrBlocks:
Efficient Columnar Compression for Data Lakes* (Kuschewski, Sauerwein,
Alhomssi, Leis), including the cascading compression framework, the
sampling-based scheme selection algorithm, Pseudodecimal Encoding, and all
substrates the paper's evaluation depends on.

Quickstart::

    import numpy as np
    from repro import Column, Relation, compress_relation, decompress_relation

    table = Relation.from_dict("demo", {
        "price": np.round(np.random.uniform(1, 100, 64_000), 2),
        "status": ["shipped"] * 64_000,
    })
    compressed = compress_relation(table)
    print(table.nbytes / compressed.nbytes)      # compression ratio
    restored = decompress_relation(compressed)
"""

from repro.bitmap import RoaringBitmap
from repro.core import (
    BtrBlocksConfig,
    Relation,
    compress_block,
    compress_column,
    compress_relation,
    decompress_block,
    decompress_column,
    decompress_relation,
)
from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.file_format import (
    column_from_bytes,
    column_to_bytes,
    relation_from_bytes,
    relation_to_bytes,
)
from repro.core.sampling import SamplingStrategy
from repro.core.selector import SchemeSelector
from repro.observe import (
    MetricsRegistry,
    SelectionTrace,
    build_report,
    get_registry,
    get_trace,
    report_json,
)
from repro.types import Column, ColumnType, StringArray, columns_equal

__version__ = "1.0.0"

__all__ = [
    "BtrBlocksConfig",
    "Column",
    "ColumnType",
    "CompressedBlock",
    "CompressedColumn",
    "CompressedRelation",
    "MetricsRegistry",
    "Relation",
    "RoaringBitmap",
    "SamplingStrategy",
    "SchemeSelector",
    "SelectionTrace",
    "StringArray",
    "build_report",
    "get_registry",
    "get_trace",
    "report_json",
    "column_from_bytes",
    "column_to_bytes",
    "columns_equal",
    "compress_block",
    "compress_column",
    "compress_relation",
    "decompress_block",
    "decompress_column",
    "decompress_relation",
    "relation_from_bytes",
    "relation_to_bytes",
]
