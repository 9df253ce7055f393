"""Tests for the optional extension schemes.

:func:`register_extension_schemes` mutates the global registry; the
``scheme_registry`` fixture in ``conftest.py`` restores it after the module,
so the default-pool scheme choices other modules assert hold in any order.
"""

import numpy as np
import pytest

from repro.core.compressor import compress_block
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_block
from repro.core.stats import compute_stats
from repro.encodings.base import SchemeId
from repro.encodings.extensions import (
    DELTA_ZIGZAG_INT_ID,
    TRUNCATION_INT_ID,
    DeltaZigZagInt,
    TruncationInt,
    register_extension_schemes,
)
from repro.encodings.wire import unwrap
from repro.observe import SelectionTrace, use_trace
from repro.types import Column, ColumnType

from conftest import scheme_round_trip
from test_sole_survivor import assert_equal_or_smaller

CONFIG = BtrBlocksConfig()


@pytest.fixture(scope="module", autouse=True)
def extensions():
    return register_extension_schemes()


class TestRegistration:
    def test_idempotent(self):
        first = register_extension_schemes()
        second = register_extension_schemes()
        assert [s.scheme_id for s in first] == [s.scheme_id for s in second]

    def test_in_default_pool_after_registration(self):
        from repro.encodings.base import default_pool

        ids = {s.scheme_id for s in default_pool(ColumnType.INTEGER)}
        assert TRUNCATION_INT_ID in ids
        assert DELTA_ZIGZAG_INT_ID in ids


class TestTruncation:
    def test_viability_needs_narrow_range(self):
        scheme = TruncationInt()
        narrow = compute_stats(np.arange(100, dtype=np.int32) + 10**6, ColumnType.INTEGER)
        wide = compute_stats(np.array([0, 2**30], dtype=np.int32), ColumnType.INTEGER)
        assert scheme.is_viable(narrow, CONFIG)
        assert not scheme.is_viable(wide, CONFIG)

    def test_round_trip_byte_width(self, rng):
        values = (rng.integers(0, 200, 2000) + 5_000_000).astype(np.int32)
        payload, out = scheme_round_trip(TruncationInt(), values)
        assert np.array_equal(out, values)
        assert len(payload) < 2100  # ~1 byte per value

    def test_round_trip_two_byte_width(self, rng):
        values = (rng.integers(0, 40_000, 2000) - 20_000).astype(np.int32)
        _, out = scheme_round_trip(TruncationInt(), values)
        assert np.array_equal(out, values)


class TestDeltaZigZag:
    def test_sorted_keys_round_trip(self, rng):
        values = np.cumsum(rng.integers(1, 10, 5000)).astype(np.int32) + 10**8
        payload, out = scheme_round_trip(DeltaZigZagInt(), values)
        assert np.array_equal(out, values)
        assert len(payload) < values.nbytes / 3

    def test_descending_values(self):
        values = np.arange(5000, 0, -1, dtype=np.int32)
        _, out = scheme_round_trip(DeltaZigZagInt(), values)
        assert np.array_equal(out, values)

    def test_extreme_jumps_take_fallback(self):
        values = np.array([-(2**31), 2**31 - 1, 0, -(2**31)], dtype=np.int32)
        _, out = scheme_round_trip(DeltaZigZagInt(), values)
        assert np.array_equal(out, values)

    def test_selector_picks_it_for_sorted_keys(self, rng):
        values = np.cumsum(rng.integers(1, 20, 64_000)).astype(np.int32) + 10**7
        blob = compress_block(values, ColumnType.INTEGER)
        scheme_id, _, _ = unwrap(blob)
        # Sorted wide-range keys: delta coding should beat plain bit-packing.
        assert scheme_id == DELTA_ZIGZAG_INT_ID
        assert np.array_equal(decompress_block(blob, ColumnType.INTEGER), values)

    def test_improves_ratio_on_sorted_keys(self, rng):
        values = np.cumsum(rng.integers(1, 20, 64_000)).astype(np.int32)
        with_ext = len(compress_block(values, ColumnType.INTEGER))
        without = len(compress_block(
            values, ColumnType.INTEGER,
            BtrBlocksConfig(excluded_schemes=frozenset({DELTA_ZIGZAG_INT_ID, TRUNCATION_INT_ID})),
        ))
        assert with_ext < without


class TestSoleSurvivor:
    """An extension scheme as the only viable one: it needs no hook to be
    verified by achieved size instead of estimated (old rule as oracle)."""

    @staticmethod
    def _top(values, config):
        trace = SelectionTrace()
        with use_trace(trace):
            blob = compress_block(values, ColumnType.INTEGER, config)
        (top,) = [d for d in trace.decisions() if d.top_level]
        return unwrap(blob)[0], top

    def test_kept_when_it_beats_uncompressed(self, rng):
        config = BtrBlocksConfig().with_pool({SchemeId.UNCOMPRESSED_INT, TRUNCATION_INT_ID})
        values = (rng.integers(0, 200, 8000) + 5_000_000).astype(np.int32)
        scheme_id, top = self._top(values, config)
        assert scheme_id == TRUNCATION_INT_ID
        assert (top.sole_survivor, top.survivor_rejected) == ("truncation", False)
        assert top.candidates == {} and top.achieved_ratio > 3.9
        assert assert_equal_or_smaller(Column.ints("narrow", values), config)[0] == 0

    def test_rejected_when_it_does_not(self, rng):
        # Deltas of uniform int32 noise need 32 bits, and a pool without a
        # bit-packer stores them raw: the node is Uncompressed plus headers.
        config = BtrBlocksConfig().with_pool({SchemeId.UNCOMPRESSED_INT, DELTA_ZIGZAG_INT_ID})
        values = rng.integers(-(2**30), 2**30, 8000).astype(np.int32)
        scheme_id, top = self._top(values, config)
        assert scheme_id == SchemeId.UNCOMPRESSED_INT
        assert (top.sole_survivor, top.survivor_rejected) == ("delta_zigzag", True)
        assert_equal_or_smaller(Column.ints("noise", values), config)
