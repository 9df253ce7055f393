"""Sole survivor verified vs estimated: the per-block cost of each rule.

A block whose viability filter leaves one scheme skips that scheme's sample
estimate and pays one integer compare on the encoded node instead; a block
whose survivor then *loses* to Uncompressed has paid the survivor's full
encode where the old rule paid its sample estimate. This sweep times both
rules on the shapes that decide which side a block lands on — the old rule
is ``tests/test_sole_survivor.py::ForcedEstimateSelector`` — and prints the
table ``docs/PERFORMANCE.md`` section 3 records. It is a record, not a gate:
the end-to-end claim is lakebench's ``write_mb_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from _harness import paired_speedup, print_table
from repro.core.compressor import compress_block
from repro.core.config import BtrBlocksConfig
from repro.core.selector import SchemeSelector
from repro.observe import SelectionTrace, use_trace
from repro.types import ColumnType

ALPHABETS = (4, 16, 64, 256)
LENGTHS = (8, 50, 200)
BLOCKS = (2_048, 16_384)
EXCEPTION_SHARES = (0.0, 0.25, 0.49)


def test_sole_survivor_rule_sweep():
    sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
    from test_sole_survivor import (
        ForcedEstimateSelector,
        doubles_with_exceptions,
        random_binary_strings,
    )

    cells = [
        (f"strings, alphabet {alphabet}, {length} B", rows, ColumnType.STRING,
         random_binary_strings(rows, length, alphabet=alphabet))
        for alphabet in ALPHABETS for length in LENGTHS for rows in BLOCKS
    ] + [
        (f"doubles, {share:.0%} exceptions", rows, ColumnType.DOUBLE,
         doubles_with_exceptions(rows, share))
        for share in EXCEPTION_SHARES for rows in BLOCKS
    ]
    config = BtrBlocksConfig()
    table, losing = [], []
    for label, rows, ctype, values in cells:
        trace = SelectionTrace()
        with use_trace(trace):
            new_blob = compress_block(values, ctype, selector=SchemeSelector(config))
        (top,) = [d for d in trace.decisions() if d.top_level]
        old_blob = compress_block(values, ctype, selector=ForcedEstimateSelector(config))
        assert new_blob == old_blob or len(new_blob) < len(old_blob)
        new_s, old_s, speedup = paired_speedup(
            lambda: compress_block(values, ctype, selector=SchemeSelector(config)),
            lambda: compress_block(values, ctype, selector=ForcedEstimateSelector(config)),
            repeats=2,
        )
        outcome = "-" if top.sole_survivor is None else (
            f"{top.sole_survivor} {'rejected' if top.survivor_rejected else 'kept'}"
        )
        table.append([label, rows, outcome, top.chosen, len(new_blob) / len(old_blob),
                      old_s * 1e3, new_s * 1e3, speedup])
        if round(speedup, 2) < 1.0:
            losing.append(f"{label} x {rows:,} ({outcome}): {speedup:.2f}x")
    print_table(
        "compress_block: sole survivor estimated (old) vs verified (new), median of >= 10 interleaved pairs",
        ["shape", "rows", "sole survivor", "stored as", "bytes new/old",
         "old ms", "new ms", "speedup"],
        table,
    )
    print("cells below 1.0x:", "; ".join(losing) or "none")
