"""Tests for Pseudodecimal Encoding (paper Section 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BtrBlocksConfig
from repro.core.stats import compute_stats
from repro.encodings.base import SchemeId, get_scheme
from repro.encodings.pseudodecimal import (
    EXPONENT_EXCEPTION,
    FRAC10,
    encode_block,
    exception_fraction,
)
from repro.types import ColumnType

from conftest import scheme_round_trip

PDE = get_scheme(SchemeId.PSEUDODECIMAL)
CONFIG = BtrBlocksConfig()


class TestEncodeBlock:
    def test_paper_example_3_25(self):
        digits, exponents, patches = encode_block(np.array([3.25]))
        assert digits[0] == 325
        assert exponents[0] == 2
        assert not patches[0]

    def test_paper_example_0_99(self):
        # The double nearest 0.99 must encode as (99, 2), not the full
        # 17-digit expansion (Section 4.1).
        digits, exponents, patches = encode_block(np.array([0.99]))
        assert digits[0] == 99
        assert exponents[0] == 2

    def test_integers_use_exponent_zero(self):
        digits, exponents, _ = encode_block(np.array([42.0, -7.0]))
        assert digits.tolist() == [42, -7]
        assert exponents.tolist() == [0, 0]

    def test_negative_sign_in_digits(self):
        digits, exponents, _ = encode_block(np.array([-6.425]))
        assert digits[0] == -6425
        assert exponents[0] == 3

    def test_negative_zero_is_exception(self):
        digits, exponents, patches = encode_block(np.array([-0.0]))
        assert patches[0]
        assert exponents[0] == EXPONENT_EXCEPTION

    def test_positive_zero_encodes(self):
        digits, exponents, patches = encode_block(np.array([0.0]))
        assert not patches[0]
        assert digits[0] == 0

    def test_nan_and_inf_are_exceptions(self):
        _, _, patches = encode_block(np.array([np.nan, np.inf, -np.inf]))
        assert patches.all()

    def test_tiny_subnormal_is_exception(self):
        # 5.5e-42 from the paper cannot be expressed with 22 exponents.
        _, _, patches = encode_block(np.array([5.5e-42]))
        assert patches[0]

    def test_digits_overflow_is_exception(self):
        # More than 31 bits of significant digits must be patched.
        _, _, patches = encode_block(np.array([12345678901.0]))
        assert patches[0]

    def test_high_precision_is_exception(self):
        _, _, patches = encode_block(np.array([0.1234567890123456789]))
        assert patches[0]

    def test_smallest_exponent_wins(self):
        digits, exponents, _ = encode_block(np.array([2.5]))
        assert (digits[0], exponents[0]) == (25, 1)


class TestExceptionFraction:
    def test_clean_data(self):
        values = np.round(np.linspace(0, 100, 1000), 2)
        assert exception_fraction(values) == 0.0

    def test_dirty_data(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        assert exception_fraction(values) > 0.9

    def test_empty(self):
        assert exception_fraction(np.empty(0)) == 0.0


class TestViability:
    def test_low_unique_fraction_excluded(self):
        # Few unique values: dictionaries compress as well and decode faster.
        values = np.tile(np.round(np.arange(10) * 1.5, 1), 100)
        stats = compute_stats(values, ColumnType.DOUBLE)
        PDE.prepare_stats(values, stats, CONFIG)
        assert not PDE.is_viable(stats, CONFIG)

    def test_many_exceptions_excluded(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000)
        stats = compute_stats(values, ColumnType.DOUBLE)
        PDE.prepare_stats(values, stats, CONFIG)
        assert not PDE.is_viable(stats, CONFIG)

    def test_clean_unique_decimals_viable(self):
        rng = np.random.default_rng(0)
        values = np.round(rng.uniform(0, 1000, 1000), 2)
        stats = compute_stats(values, ColumnType.DOUBLE)
        PDE.prepare_stats(values, stats, CONFIG)
        assert PDE.is_viable(stats, CONFIG)


class TestRoundTrip:
    def test_prices(self, price_doubles):
        payload, out = scheme_round_trip(PDE, price_doubles)
        assert np.array_equal(out.view(np.uint64), price_doubles.view(np.uint64))
        assert len(payload) < price_doubles.nbytes / 1.5

    def test_mixed_with_patches(self, rng):
        values = np.round(rng.uniform(0, 100, 1000), 2)
        values[::50] = np.nan
        values[1::50] = rng.standard_normal(20)
        _, out = scheme_round_trip(PDE, values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))

    def test_scalar_matches_vectorized(self, rng):
        values = np.round(rng.uniform(-50, 50, 400), 1)
        values[5] = np.inf
        values[6] = -0.0
        _, fast = scheme_round_trip(PDE, values, vectorized=True)
        _, slow = scheme_round_trip(PDE, values, vectorized=False)
        assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))

    def test_all_exceptions_block(self, rng):
        values = rng.standard_normal(200)
        _, out = scheme_round_trip(PDE, values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))

    def test_cascade_example_from_paper(self):
        values = np.array([0.99, 3.25, -6.425, 5.5e-42])
        digits, exponents, patches = encode_block(values)
        assert digits.tolist()[:3] == [99, 325, -6425]
        assert exponents.tolist()[:3] == [2, 2, 3]
        assert patches.tolist() == [False, False, False, True]


class TestFilteredDecode:
    """``decompress(positions=)`` == full decode + take, bit for bit on doubles."""

    def _selections(self, rng, count):
        yield np.empty(0, dtype=np.int64)
        yield np.asarray([0]), np.asarray([count - 1])
        for size in (7, count // 10, count // 2, count):
            yield np.sort(rng.choice(count, size=size, replace=False))
        yield np.arange(count // 3, count // 3 + 200)

    def test_bitwise_including_nan_payloads_and_patches(self, rng):
        from repro.core.decompressor import make_context

        values = np.round(rng.uniform(-500, 500, 6000), 2)
        # Exceptions of every kind, each with its exact bits: a NaN with a
        # payload, infinities, negative zero, non-decimal doubles.
        values[::97] = np.frombuffer(np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), np.float64)[0]
        values[1::211] = np.inf
        values[2::211] = -np.inf
        values[3::89] = -0.0
        values[4::61] = rng.standard_normal(len(values[4::61]))
        payload, full = scheme_round_trip(PDE, values)
        assert np.array_equal(full.view(np.uint64), values.view(np.uint64))
        ctx = make_context()
        for selection in self._selections(rng, len(values)):
            for positions in (selection if isinstance(selection, tuple) else (selection,)):
                got = PDE.decompress(payload, len(values), ctx, positions=positions)
                assert got.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), values[positions].view(np.uint64))

    def test_no_exceptions_and_all_exceptions(self, rng):
        from repro.core.decompressor import make_context

        ctx = make_context()
        for values in (np.round(rng.uniform(0, 10, 3000), 1), rng.standard_normal(3000)):
            payload, _ = scheme_round_trip(PDE, values)
            positions = np.sort(rng.choice(3000, size=40, replace=False))
            got = PDE.decompress(payload, 3000, ctx, positions=positions)
            assert np.array_equal(got.view(np.uint64), values[positions].view(np.uint64))

    def test_mismatched_patch_list_is_a_typed_error(self, rng):
        from repro.core.decompressor import make_context
        from repro.encodings.wire import Reader, Writer
        from repro.exceptions import CorruptBlockError

        values = np.round(rng.uniform(0, 10, 2000), 1)
        values[::100] = np.nan
        payload, _ = scheme_round_trip(PDE, values)
        reader = Reader(payload)
        digits, exponents, bitmap, patches = reader.blob(), reader.blob(), reader.blob(), reader.array()
        short = Writer().blob(digits).blob(exponents).blob(bitmap).array(patches[:-1]).getvalue()
        with pytest.raises(CorruptBlockError):
            PDE.decompress(short, 2000, make_context(), positions=np.asarray([0, 100, 1999]))


class TestPatchCountHeldOnEveryRoute:
    """A bitmap that marks more exceptions than the patch array stores is
    one structural check, made where the payload is parsed: a real block
    re-framed with ``patches[:0]`` once decoded its 52 marked rows as
    ``digits * 10^-23`` garbage through the full and ``out=`` routes while
    the ``positions=`` route raised."""

    ROWS = 5000

    def _block(self, rng):
        from repro.core.blocks import CompressedBlock
        from repro.encodings.wire import Reader, Writer, wrap

        values = np.round(rng.uniform(0, 100, self.ROWS), 2)
        values[::97] = np.nan  # 52 exceptions
        payload, _ = scheme_round_trip(PDE, values)
        reader = Reader(payload)
        digits, exponents, bitmap, patches = reader.blob(), reader.blob(), reader.blob(), reader.array()
        assert patches.size == 52
        emptied = Writer().blob(digits).blob(exponents).blob(bitmap).array(patches[:0]).getvalue()
        return CompressedBlock(self.ROWS, wrap(PDE.scheme_id, self.ROWS, emptied))

    def test_every_route_raises(self, rng):
        from repro.core.decompressor import decode_block, decompress_block, make_context
        from repro.exceptions import CorruptBlockError

        block = self._block(rng)
        ctx = make_context()
        routes = {
            "full": lambda: decompress_block(block.data, ColumnType.DOUBLE),
            "out": lambda: decode_block(
                block, ColumnType.DOUBLE, ctx, out=np.empty(self.ROWS, dtype=np.float64)
            ),
            "positions": lambda: decode_block(
                block, ColumnType.DOUBLE, ctx, positions=np.asarray([0, 97, 4999])
            ),
            "scalar": lambda: decompress_block(block.data, ColumnType.DOUBLE, vectorized=False),
        }
        for route, decode in routes.items():
            with pytest.raises(CorruptBlockError, match="marks 52 exceptions but stores 0"):
                decode()


class TestFrac10Table:
    def test_has_23_entries(self):
        assert FRAC10.size == 23

    def test_matches_decimal_literals(self):
        assert FRAC10[0] == 1.0
        assert FRAC10[1] == 0.1
        assert FRAC10[2] == 0.01


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        st.decimals(min_value=-10**6, max_value=10**6, places=2).map(float),
    ),
    min_size=1, max_size=200,
))
def test_property_bitwise_lossless(values):
    arr = np.array(values, dtype=np.float64)
    _, out = scheme_round_trip(PDE, arr)
    assert np.array_equal(out.view(np.uint64), arr.view(np.uint64))
