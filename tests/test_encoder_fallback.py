"""Encoder fallback: a scheme failing mid-encode degrades one block.

A scheme that passed viability and sampling can still blow up against the
full block (sample-blind edge values, overflow in a child transform). The
compressor must fall back to ``Uncompressed`` for that block — sacrificing
ratio, never the column — count the event and flag it in the selection
trace.

The same demotion, minus the failure: a *sole survivor* of the viability
filter is picked without an estimate, so the compressor compares its real
node against Uncompressed and stores whichever is smaller
(``TestSoleSurvivorGuard``). That is a decision, not a fault — it has its
own counter and trace flag and leaves ``compressor.fallback.*`` at zero.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.compressor import compress_block, compress_column, make_context
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_block, decompress_column
from repro.core.selector import SchemeSelector
from repro.encodings.base import get_scheme
from repro.encodings.uncompressed import UNCOMPRESSED_BY_TYPE
from repro.encodings.wire import unwrap
from repro.observe import (
    MetricsRegistry,
    SelectionTrace,
    use_registry,
    use_trace,
)
from repro.types import Column, ColumnType, StringArray, columns_equal

from test_sole_survivor import random_binary_strings


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    with use_registry(reg):
        yield reg


def pick_non_uncompressed_scheme(values, ctype, config=None):
    """The scheme a fresh selector would choose, asserted non-trivial."""
    selector = SchemeSelector(config)
    scheme = selector.pick(values, ctype, make_context(selector))
    assert scheme.scheme_id != UNCOMPRESSED_BY_TYPE[ctype].scheme_id
    return scheme


def failing(monkeypatch, scheme, full_size=4000,
            exc=ValueError("synthetic mid-encode failure")):
    """Make ``scheme.compress`` fail on full blocks but survive sampling.

    This is the real failure shape the fallback exists for: the scheme
    estimates fine on the sample, wins selection, then blows up against
    the complete block.
    """
    original = type(scheme).compress

    def patched(self, values, ctx):
        if len(values) >= full_size:
            raise exc
        return original(self, values, ctx)

    monkeypatch.setattr(type(scheme), "compress", patched)


REPEATED = np.asarray([7] * 4000, dtype=np.int32)  # RLE / one-value bait


class TestFallback:
    def test_block_falls_back_to_uncompressed(self, registry, monkeypatch):
        scheme = pick_non_uncompressed_scheme(REPEATED, ColumnType.INTEGER)
        failing(monkeypatch, scheme)
        blob = compress_block(REPEATED, ColumnType.INTEGER)
        scheme_id, count, _ = unwrap(blob)
        assert scheme_id == UNCOMPRESSED_BY_TYPE[ColumnType.INTEGER].scheme_id
        assert count == len(REPEATED)
        np.testing.assert_array_equal(
            decompress_block(blob, ColumnType.INTEGER), REPEATED
        )

    def test_fallback_counters(self, registry, monkeypatch):
        scheme = pick_non_uncompressed_scheme(REPEATED, ColumnType.INTEGER)
        failing(monkeypatch, scheme)
        compress_block(REPEATED, ColumnType.INTEGER)
        assert registry.get("compressor.fallback.total") == 1
        assert registry.get(f"compressor.fallback.{scheme.name}") == 1

    def test_trace_flags_fallback(self, registry, monkeypatch):
        scheme = pick_non_uncompressed_scheme(REPEATED, ColumnType.INTEGER)
        failing(monkeypatch, scheme)
        trace = SelectionTrace()
        with use_trace(trace):
            column = Column.ints("n", REPEATED)
            compress_column(column)
        flagged = [d for d in trace.decisions() if d.fallback]
        assert flagged
        for decision in flagged:
            assert decision.chosen == "uncompressed"
            assert decision.to_dict()["fallback"] is True

    def test_uncompressed_failure_is_not_swallowed(self, registry, monkeypatch):
        uncompressed = UNCOMPRESSED_BY_TYPE[ColumnType.INTEGER]
        err = RuntimeError("even the fallback failed")
        monkeypatch.setattr(
            type(uncompressed), "compress", lambda self, values, ctx: (_ for _ in ()).throw(err)
        )
        with pytest.raises(RuntimeError):
            compress_block(np.arange(10, dtype=np.int32), ColumnType.INTEGER)

    def test_every_block_degrades_on_its_own(self, registry, monkeypatch):
        # Every block runs its own selection, so a scheme that wins and then
        # fails on each full block is demoted block by block, never column-wide.
        config = BtrBlocksConfig(block_size=1000)
        column = Column.ints("n", REPEATED)  # 4 blocks of 1000
        scheme = pick_non_uncompressed_scheme(
            REPEATED[:1000], ColumnType.INTEGER, config
        )
        failing(monkeypatch, scheme, full_size=1000)
        compressed = compress_column(column, selector=SchemeSelector(config))
        assert registry.get("compressor.fallback.total") == 4
        assert compressed.scheme_histogram() == {"uncompressed": 4}
        np.testing.assert_array_equal(decompress_column(compressed).data, REPEATED)

    def test_fallback_column_round_trips_with_nulls(self, registry, monkeypatch):
        from repro.bitmap import RoaringBitmap

        scheme = pick_non_uncompressed_scheme(REPEATED, ColumnType.INTEGER)
        failing(monkeypatch, scheme)
        nulls = RoaringBitmap.from_positions(np.arange(0, 4000, 13))
        column = Column.ints("n", REPEATED, nulls=nulls)
        decoded = decompress_column(compress_column(column))
        np.testing.assert_array_equal(decoded.data, REPEATED)
        assert decoded.nulls is not None
        np.testing.assert_array_equal(
            decoded.nulls.to_array(), nulls.to_array()
        )


#: Seeds the incompressible payloads below; CI's write-fault-matrix job runs
#: this file once fixed and once with a random ``REPRO_FAULT_SEED``.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "1337"))


def long_random_strings(rows: int = 64) -> StringArray:
    """FSST is the only viable scheme (Dictionary and Frequency are out above
    90% unique) and cannot win: nothing to learn, and with this few rows the
    offsets it saves do not pay for its symbol table."""
    return random_binary_strings(rows, 3000, seed=SEED)


class TestSoleSurvivorGuard:
    def test_rejected_survivor_is_stored_uncompressed(self, registry):
        values = long_random_strings()
        blob = compress_block(values, ColumnType.STRING)
        uncompressed = UNCOMPRESSED_BY_TYPE[ColumnType.STRING]
        assert unwrap(blob)[0] == uncompressed.scheme_id
        # Byte for byte what a pool holding nothing but Uncompressed stores.
        only_raw = BtrBlocksConfig().with_pool({uncompressed.scheme_id})
        assert blob == compress_block(values, ColumnType.STRING, only_raw)
        assert decompress_block(blob, ColumnType.STRING) == values

    def test_rejection_has_its_own_counters(self, registry):
        compress_block(long_random_strings(), ColumnType.STRING)
        assert registry.get("selector.sole_survivor.picks") == 1
        assert registry.get("selector.sole_survivor.rejected") == 1
        assert registry.get("selector.chosen.fsst") == 1  # what the selector returned
        assert registry.get("compressor.fallback.total") == 0  # nothing failed

    def test_trace_records_survivor_and_outcome(self, registry):
        trace = SelectionTrace()
        with use_trace(trace):
            compress_column(Column.strings("blob", long_random_strings()))
        (decision,) = [d for d in trace.decisions() if d.top_level]
        assert decision.chosen == "uncompressed"
        assert decision.candidates == {} and decision.estimated_ratio is None
        assert not decision.fallback
        assert decision.achieved_ratio < 1.0  # framing only; the old rule could expand further
        as_dict = decision.to_dict()
        assert as_dict["sole_survivor"] == "fsst" and as_dict["survivor_rejected"] is True

    def test_kept_survivor_is_not_flagged(self, registry):
        values = StringArray.from_pylist([f"ticket {i:06d}: printer on fire" for i in range(2000)])
        trace = SelectionTrace()
        with use_trace(trace):
            blob = compress_block(values, ColumnType.STRING)
        (decision,) = [d for d in trace.decisions() if d.top_level]
        assert (decision.sole_survivor, decision.survivor_rejected) == ("fsst", False)
        assert decision.chosen == "fsst" == get_scheme(unwrap(blob)[0]).name
        assert registry.get("selector.sole_survivor.rejected") == 0

    def test_every_block_rejects_its_own_survivor(self, registry):
        config = BtrBlocksConfig(block_size=16)
        column = Column.strings("blob", long_random_strings(rows=64))  # 4 blocks
        compressed = compress_column(column, selector=SchemeSelector(config))
        assert registry.get("selector.sole_survivor.rejected") == 4
        assert registry.get("compressor.fallback.total") == 0
        assert compressed.scheme_histogram() == {"uncompressed": 4}
        assert columns_equal(decompress_column(compressed), column)

    def test_a_kept_survivor_is_picked_unestimated_on_every_block(self, registry):
        config = BtrBlocksConfig(block_size=500)
        column = Column.strings(
            "note", [f"ticket {i:06d}: printer on fire" for i in range(2000)]
        )
        trace = SelectionTrace()
        with use_trace(trace):
            compressed = compress_column(column, selector=SchemeSelector(config))
        assert registry.get("selector.sole_survivor.picks") == 4
        assert registry.get("selector.sole_survivor.rejected") == 0
        top_level = [d for d in trace.decisions() if d.top_level]
        assert len(top_level) == 4
        assert all(d.chosen == "fsst" and d.estimated_ratio is None for d in top_level)
        assert compressed.scheme_histogram() == {"fsst": 4}
        assert columns_equal(decompress_column(compressed), column)

    def test_rejected_column_round_trips_with_nulls(self, registry):
        from repro.bitmap import RoaringBitmap

        nulls = RoaringBitmap.from_positions(np.arange(0, 64, 5))
        column = Column.strings("blob", long_random_strings(), nulls=nulls)
        decoded = decompress_column(compress_column(column))
        assert columns_equal(decoded, column)
        assert registry.get("selector.sole_survivor.rejected") == 1
