"""Tests for Frequency encoding (top value + bitmap + exceptions)."""

import numpy as np

from repro.core.config import BtrBlocksConfig
from repro.core.stats import compute_stats
from repro.encodings.base import SchemeId, get_scheme
from repro.types import ColumnType, StringArray

from conftest import scheme_round_trip

CONFIG = BtrBlocksConfig()
FREQ_INT = get_scheme(SchemeId.FREQUENCY_INT)
FREQ_DOUBLE = get_scheme(SchemeId.FREQUENCY_DOUBLE)
FREQ_STRING = get_scheme(SchemeId.FREQUENCY_STRING)


def dominant_ints(rng, n=5000, top=7, fraction=0.8):
    values = np.full(n, top, dtype=np.int32)
    exceptions = rng.random(n) >= fraction
    values[exceptions] = rng.integers(100, 200, int(exceptions.sum()))
    return values


class TestViability:
    def test_excluded_above_unique_threshold(self):
        stats = compute_stats(np.arange(100, dtype=np.int32), ColumnType.INTEGER)
        assert not FREQ_INT.is_viable(stats, CONFIG)

    def test_single_value_not_viable(self):
        # One Value handles that case strictly better.
        stats = compute_stats(np.zeros(100, dtype=np.int32), ColumnType.INTEGER)
        assert not FREQ_INT.is_viable(stats, CONFIG)

    def test_dominant_value_viable(self, rng):
        values = dominant_ints(rng)
        stats = compute_stats(values, ColumnType.INTEGER)
        FREQ_INT.prepare_stats(values, stats, CONFIG)  # the selector measures first
        assert FREQ_INT.is_viable(stats, CONFIG)


class TestNumericFrequency:
    def test_int_round_trip(self, rng):
        values = dominant_ints(rng)
        _, out = scheme_round_trip(FREQ_INT, values)
        assert np.array_equal(out, values)

    def test_double_round_trip(self, rng):
        values = np.zeros(2000)
        exc = rng.random(2000) >= 0.9
        values[exc] = np.round(rng.uniform(0, 10, int(exc.sum())), 2)
        _, out = scheme_round_trip(FREQ_DOUBLE, values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))

    def test_scalar_matches_vectorized(self, rng):
        values = dominant_ints(rng, n=500)
        _, fast = scheme_round_trip(FREQ_INT, values, vectorized=True)
        _, slow = scheme_round_trip(FREQ_INT, values, vectorized=False)
        assert np.array_equal(fast, slow)

    def test_compresses_dominant_value(self, rng):
        values = dominant_ints(rng, n=64_000, fraction=0.95)
        payload, _ = scheme_round_trip(FREQ_INT, values)
        assert len(payload) < values.nbytes / 5

    def test_exceptions_preserved_in_order(self, rng):
        values = np.zeros(100, dtype=np.int32)
        values[[3, 50, 99]] = [11, 22, 33]
        _, out = scheme_round_trip(FREQ_INT, values)
        assert out[3] == 11 and out[50] == 22 and out[99] == 33

    def test_nan_top_value(self):
        values = np.full(100, np.nan)
        values[::10] = 1.5
        _, out = scheme_round_trip(FREQ_DOUBLE, values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))


class TestStringFrequency:
    def test_round_trip(self, rng):
        pool = ["dominant"] * 90 + ["rare-a", "rare-b"] * 5
        values = StringArray.from_pylist([pool[i % len(pool)] for i in range(3000)])
        _, out = scheme_round_trip(FREQ_STRING, values)
        assert out == values

    def test_scalar_matches_vectorized(self):
        values = StringArray.from_pylist((["x"] * 9 + ["other"]) * 50)
        _, fast = scheme_round_trip(FREQ_STRING, values, vectorized=True)
        _, slow = scheme_round_trip(FREQ_STRING, values, vectorized=False)
        assert fast == slow

    def test_empty_string_dominant(self):
        values = StringArray.from_pylist(([""] * 9 + ["rare"]) * 30)
        _, out = scheme_round_trip(FREQ_STRING, values)
        assert out == values


class TestExceptionCountHeldOnEveryRoute:
    """The exceptions child must fill exactly the rows the top value's
    bitmap leaves: one check where the payload is parsed. An exceptions
    child one value too long once decoded without error through the scalar
    and ``positions=`` routes while the full decode raised."""

    def test_every_route_raises(self, rng):
        import pytest

        from repro.core.blocks import CompressedBlock
        from repro.core.decompressor import decode_block, decompress_block, make_context
        from repro.encodings.wire import Reader, Writer, wrap
        from repro.exceptions import CorruptBlockError

        values = dominant_ints(rng, n=2000)
        payload, _ = scheme_round_trip(FREQ_INT, values)
        reader = Reader(payload)
        top, bitmap = reader.array(), reader.blob()
        raw = get_scheme(SchemeId.UNCOMPRESSED_INT)
        long_by_one = np.append(values[values != 7], 7).astype(np.int32)
        child = wrap(raw.scheme_id, long_by_one.size, raw.compress(long_by_one, None))
        block = CompressedBlock(2000, wrap(
            FREQ_INT.scheme_id, 2000, Writer().array(top).blob(bitmap).blob(child).getvalue()
        ))
        ctx = make_context()
        routes = {
            "full": lambda: decompress_block(block.data, ColumnType.INTEGER),
            "out": lambda: decode_block(
                block, ColumnType.INTEGER, ctx, out=np.empty(2000, dtype=np.int32)
            ),
            "positions": lambda: decode_block(
                block, ColumnType.INTEGER, ctx, positions=np.asarray([0, 1, 1999])
            ),
            "scalar": lambda: decompress_block(block.data, ColumnType.INTEGER, vectorized=False),
        }
        for route, decode in routes.items():
            with pytest.raises(CorruptBlockError, match="do not fill the rows"):
                decode()
