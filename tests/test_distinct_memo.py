"""The distinct coding of a string block: computed once, never stale.

``encode_distinct`` memoises ``(codes, uniques)`` on the ``StringArray`` it
coded, so the selector's statistics, the dictionary / frequency schemes and
the zone-map statistics share one row split and one distinct pass per block.
That is only sound while a ``StringArray``'s buffers are final when it is
constructed and nothing but ``encode_distinct`` writes the memo; these tests
pin both, and the single pass itself.
"""

from __future__ import annotations

import pathlib
import re
import sys
import zlib
from collections import Counter

import numpy as np
import pytest

import repro
from repro.bitmap import RoaringBitmap
from repro.core import blockstats
from repro.core.access import read_rows
from repro.core.compressor import compress_chunk_block, compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.selector import SchemeSelector
from repro.encodings import strutil
from repro.query import Equals
from repro.query.executor import filter_column
from repro.types import Column, StringArray, columns_equal


def _string_blocks(rng) -> "dict[str, Column]":
    cities = [b"PHOENIX", b"RALEIGH", b"BETHESDA", b"ATHENS", b"OSLO"]
    skew = np.where(rng.random(6000) < 0.9, 0, rng.integers(1, 400, 6000))
    nulls = RoaringBitmap.from_positions(rng.choice(6000, 300, replace=False))
    return {
        "dictionary": Column.strings("city", [cities[i % 5] for i in range(6000)], nulls),
        "fsst": Column.strings(
            "url", [f"https://example.com/cat-{i % 40}/item?id={i}" for i in range(6000)]
        ),
        "frequency": Column.strings("skew", [b"value-%d" % v for v in skew]),
    }


def test_compressing_a_block_splits_its_rows_once(rng, monkeypatch):
    split = Counter()
    to_pylist = StringArray.to_pylist

    def counting(self):
        split[id(self)] += 1
        return to_pylist(self)

    monkeypatch.setattr(StringArray, "to_pylist", counting)
    for name, chunk in _string_blocks(rng).items():
        block = compress_chunk_block(chunk, 0, SchemeSelector(BtrBlocksConfig()))
        assert block.stats.min_bytes is not None
        assert split[id(chunk.data)] == 1, name
        assert split[id(strutil.encode_distinct(chunk.data)[1])] == 0, name  # nor its pool, ever


def test_block_statistics_split_nothing_the_selector_already_did(rng, monkeypatch):
    """The zone map's bounds and Bloom filter read the distinct rows off the
    memo: not the block again, and not the pool ``encode_distinct`` built from
    those very rows (2.6 ms per 16,384-row ``l_comment`` block when it did)."""
    blocks = _string_blocks(rng)
    blocks["all_unique"] = Column.strings("comment", [b"row %d, no remarks" % i for i in range(6000)])
    for name, chunk in blocks.items():
        expected = blockstats.compute_block_stats(
            Column(chunk.name, chunk.ctype, StringArray(chunk.data.buffer, chunk.data.offsets), chunk.nulls)
        )
        strutil.encode_distinct(chunk.data)  # what the selector's statistics pass leaves behind
        with monkeypatch.context() as patch:
            patch.setattr(StringArray, "to_pylist", lambda self: pytest.fail(f"{name}: rows split again"))
            stats = blockstats.compute_block_stats(chunk)
        assert stats == expected and stats.min_bytes is not None, name
        assert strutil.distinct_rows(chunk.data) == strutil.encode_distinct(chunk.data)[1].to_pylist()


def _lines_run_in_blockstats(chunk: Column) -> int:
    """Python lines executed inside ``core/blockstats.py`` for one chunk."""
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != blockstats.__file__:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        blockstats.compute_block_stats(chunk)
    finally:
        sys.settrace(previous)
    return lines


def test_blockstats_runs_no_python_statement_per_row():
    def chunk(rows: int) -> Column:
        values = [b"v%02d" % (i % 23) for i in range(rows)]
        return Column.strings("s", values, RoaringBitmap.from_positions([1, rows - 1]))

    assert _lines_run_in_blockstats(chunk(400)) == _lines_run_in_blockstats(chunk(40_000))


def test_only_encode_distinct_writes_the_memo():
    writers = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        if re.search(r"\._distinct\s*=[^=]", path.read_text(encoding="utf-8")):
            writers.add(path.name)
    # types.py initialises the slot to None; strutil.py holds encode_distinct.
    assert writers == {"types.py", "strutil.py"}


def test_read_paths_build_final_arrays_and_leave_the_memo_empty(rng, monkeypatch):
    def fingerprint(sa: StringArray) -> tuple:
        return zlib.crc32(sa.buffer.tobytes()), zlib.crc32(sa.offsets.tobytes())

    built: "list[tuple[StringArray, tuple]]" = []
    init = StringArray.__init__

    def recording_init(self, buffer, offsets):
        init(self, buffer, offsets)
        built.append((self, fingerprint(self)))

    config = BtrBlocksConfig(block_size=1500)
    for name, column in _string_blocks(rng).items():
        compressed = compress_column(column, config)
        with monkeypatch.context() as patch:
            patch.setattr(StringArray, "__init__", recording_init)
            whole = decompress_column(compressed)
            scalar = decompress_column(compressed, vectorized=False)
            some = read_rows(compressed, np.arange(7, 5000, 11))
            hits = filter_column(compressed, Equals(column.data[42]))
        assert columns_equal(whole, column) and columns_equal(scalar, column), name
        assert len(some) == len(np.arange(7, 5000, 11)) and len(hits) > 0
    assert built, "the read paths construct string arrays"
    for sa, at_construction in built:
        assert sa._distinct is None
        assert fingerprint(sa) == at_construction  # nothing was filled in afterwards
