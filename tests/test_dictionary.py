"""Tests for dictionary encoding (all types) and the fused RLE+Dict decode."""

import numpy as np
import pytest

from repro.core.config import BtrBlocksConfig
from repro.core.stats import compute_stats
from repro.encodings.base import SchemeId, get_scheme
from repro.encodings.wire import unwrap
from repro.types import ColumnType, StringArray

from conftest import scheme_round_trip

CONFIG = BtrBlocksConfig()
DICT_INT = get_scheme(SchemeId.DICT_INT)
DICT_DOUBLE = get_scheme(SchemeId.DICT_DOUBLE)
DICT_STRING = get_scheme(SchemeId.DICT_STRING)


class TestViability:
    def test_needs_repetition(self):
        unique = compute_stats(np.arange(100, dtype=np.int32), ColumnType.INTEGER)
        assert not DICT_INT.is_viable(unique, CONFIG)

    def test_low_cardinality_viable(self):
        stats = compute_stats(np.repeat(np.arange(5), 20).astype(np.int32), ColumnType.INTEGER)
        assert DICT_INT.is_viable(stats, CONFIG)

    def test_unique_fraction_threshold(self):
        values = np.arange(100, dtype=np.int32)
        values[::10] = 0  # 91 distinct out of 100
        stats = compute_stats(values, ColumnType.INTEGER)
        assert not DICT_INT.is_viable(stats, CONFIG)


class TestNumericDict:
    def test_int_round_trip(self, rng):
        values = rng.integers(0, 50, 5000).astype(np.int32)
        _, out = scheme_round_trip(DICT_INT, values)
        assert np.array_equal(out, values)

    def test_double_round_trip(self, rng):
        pool = np.round(rng.uniform(0, 100, 20), 2)
        values = pool[rng.integers(0, 20, 5000)]
        _, out = scheme_round_trip(DICT_DOUBLE, values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))

    def test_double_with_nan_pool(self):
        values = np.array([np.nan, 1.0, np.nan, 1.0] * 100)
        _, out = scheme_round_trip(DICT_DOUBLE, values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))

    def test_scalar_matches_vectorized(self, rng):
        values = rng.integers(0, 10, 1000).astype(np.int32)
        _, fast = scheme_round_trip(DICT_INT, values, vectorized=True)
        _, slow = scheme_round_trip(DICT_INT, values, vectorized=False)
        assert np.array_equal(fast, slow)

    def test_compresses_low_cardinality(self, rng):
        values = rng.integers(0, 4, 64_000).astype(np.int32)
        payload, _ = scheme_round_trip(DICT_INT, values)
        assert len(payload) < values.nbytes / 8

    def test_negative_values(self):
        values = np.array([-1, -1, -2, -2, -1] * 100, dtype=np.int32)
        _, out = scheme_round_trip(DICT_INT, values)
        assert np.array_equal(out, values)


class TestStringDict:
    def test_round_trip(self, city_strings):
        _, out = scheme_round_trip(DICT_STRING, city_strings)
        assert out == city_strings

    def test_scalar_matches_vectorized(self, city_strings):
        _, fast = scheme_round_trip(DICT_STRING, city_strings, vectorized=True)
        _, slow = scheme_round_trip(DICT_STRING, city_strings, vectorized=False)
        assert fast == slow

    def test_pool_fsst_compression_kicks_in(self, url_strings):
        # URL dictionaries share substrings, so the pool should be
        # FSST-compressed and the payload smaller than the raw pool.
        payload, out = scheme_round_trip(DICT_STRING, url_strings)
        assert out == url_strings

    def test_empty_strings(self):
        sa = StringArray.from_pylist(["", "", "a", ""])
        _, out = scheme_round_trip(DICT_STRING, sa)
        assert out == sa

    def test_binary_safe(self):
        sa = StringArray.from_pylist([b"\x00\xff", b"\x00\xff", b"ok"] * 50)
        _, out = scheme_round_trip(DICT_STRING, sa)
        assert out == sa

    def test_first_appearance_code_order(self):
        from repro.encodings.strutil import encode_distinct

        sa = StringArray.from_pylist(["b", "a", "b", "c"])
        codes, uniques = encode_distinct(sa)
        assert codes.tolist() == [0, 1, 0, 2]
        assert uniques.to_pylist() == [b"b", b"a", b"c"]


class TestFusedRLEDict:
    def _payload_with_rle_codes(self, avg_run):
        values = np.repeat(np.arange(100, dtype=np.int32), avg_run)
        payload, out = scheme_round_trip(DICT_INT, values)
        return values, payload, out

    def test_long_runs_round_trip_through_fusion(self):
        values, payload, out = self._payload_with_rle_codes(avg_run=50)
        assert np.array_equal(out, values)

    def test_codes_actually_rle_compressed(self):
        values = np.repeat(np.arange(100, dtype=np.int32), 50)
        from repro.core.compressor import compress_block
        blob = compress_block(values, ColumnType.INTEGER)
        # Either Dict->RLE codes or direct RLE wins: both exercise run logic.
        scheme_id, _, _ = unwrap(blob)
        assert scheme_id in (SchemeId.DICT_INT, SchemeId.RLE_INT)

    def test_short_runs_take_unfused_path(self):
        values, payload, out = self._payload_with_rle_codes(avg_run=2)
        assert np.array_equal(out, values)

    def test_fused_string_path(self):
        sa = StringArray.from_pylist(
            [c for c in ["AAA", "BB", "CCCC"] for _ in range(200)]
        )
        _, out = scheme_round_trip(DICT_STRING, sa)
        assert out == sa


class TestOutOfRangeCodes:
    """Codes outside ``[0, len(pool))`` are a typed error on every decode path.

    ``ndarray.take`` and fancy indexing wrap negative codes, so before the
    shared check the *full* and fused-RLE paths decoded pool ``[a, bb, ccc]``
    with codes ``[0, -2, 2, -3]`` to ``[a, cc, ccc, b]`` — strings that are
    not even pool entries — on checksum-less blocks.
    """

    POOL = StringArray.from_pylist(["a", "bb", "ccc"])
    UNIQ = np.array([10, 20, 30], dtype=np.int32)

    @staticmethod
    def _codes_blob(codes, rle: bool) -> bytes:
        """``codes`` as an uncompressed child, or RLE-compressed (runs > 3)."""
        from repro.core.compressor import make_context
        from repro.core.selector import SchemeSelector
        from repro.encodings.wire import wrap

        codes = np.asarray(codes, dtype=np.int32)
        scheme = get_scheme(SchemeId.RLE_INT if rle else SchemeId.UNCOMPRESSED_INT)
        payload = scheme.compress(codes, make_context(SchemeSelector()))
        return wrap(scheme.scheme_id, len(codes), payload)

    def _string_payload(self, codes, rle: bool) -> bytes:
        from repro.encodings.wire import Writer

        raw_pool = Writer().array(self.POOL.buffer).array(self.POOL.offsets).getvalue()
        writer = Writer().u8(0).u32(len(self.POOL)).blob(raw_pool)
        return writer.blob(self._codes_blob(codes, rle)).getvalue()

    def _numeric_payload(self, codes, rle: bool) -> bytes:
        from repro.encodings.wire import Writer

        return Writer().array(self.UNIQ).blob(self._codes_blob(codes, rle)).getvalue()

    @staticmethod
    def _decodes(scheme, payload: bytes, count: int, empty_out):
        """Every decode path of ``scheme`` over one payload, as thunks."""
        from repro.core.decompressor import make_context

        rows = np.arange(count, dtype=np.int64)
        paths = {
            "full": lambda: scheme.decompress(payload, count, make_context(True)),
            "scalar": lambda: scheme.decompress(payload, count, make_context(False)),
            "filtered": lambda: scheme.decompress(
                payload, count, make_context(True), positions=rows
            ),
        }
        if empty_out is not None:
            paths["into"] = lambda: scheme.decompress(
                payload, count, make_context(True), out=empty_out(count)
            )
        return paths

    @pytest.mark.parametrize("rle", [False, True], ids=["plain", "fused-rle"])
    @pytest.mark.parametrize("bad", [-1, -2, -3, -4, 3, 2**31 - 1], ids=str)
    def test_string_dictionary_rejects_the_code_on_every_path(self, bad, rle):
        from repro.exceptions import FormatError

        codes = np.repeat([0, bad, 2, 1], 5)
        payload = self._string_payload(codes, rle)
        for name, decode in self._decodes(DICT_STRING, payload, len(codes), None).items():
            with pytest.raises(FormatError, match="out of pool range"):
                decode()

    @pytest.mark.parametrize("rle", [False, True], ids=["plain", "fused-rle"])
    @pytest.mark.parametrize("bad", [-1, -3, -4, 3], ids=str)
    def test_numeric_dictionary_rejects_the_code_on_every_path(self, bad, rle):
        from repro.exceptions import FormatError

        codes = np.repeat([0, bad, 2, 1], 5)
        payload = self._numeric_payload(codes, rle)
        empty = lambda count: np.empty(count, dtype=np.int32)  # noqa: E731
        for name, decode in self._decodes(DICT_INT, payload, len(codes), empty).items():
            with pytest.raises(FormatError, match="out of pool range"):
                decode()

    @pytest.mark.parametrize("rle", [False, True], ids=["plain", "fused-rle"])
    def test_in_range_codes_decode_identically_on_every_path(self, rle):
        codes = np.repeat([0, 2, 2, 1, 0], 5)
        want = [self.POOL[int(c)] for c in codes]
        payload = self._string_payload(codes, rle)
        for name, decode in self._decodes(DICT_STRING, payload, len(codes), None).items():
            assert decode().to_pylist() == want, name
        payload = self._numeric_payload(codes, rle)
        empty = lambda count: np.empty(count, dtype=np.int32)  # noqa: E731
        for name, decode in self._decodes(DICT_INT, payload, len(codes), empty).items():
            got = decode()
            if got is not None:
                assert got.tolist() == self.UNIQ[codes].tolist(), name

    def test_block_level_decode_surfaces_the_typed_error(self):
        """Through the public node decoder (a v1 / in-memory block: no CRC)."""
        from repro.core.decompressor import decompress_block
        from repro.encodings.wire import wrap
        from repro.exceptions import FormatError

        payload = self._string_payload([0, -2, 2, -3], rle=False)
        blob = wrap(SchemeId.DICT_STRING, 4, payload)
        for vectorized in (True, False):
            with pytest.raises(FormatError, match="out of pool range"):
                decompress_block(blob, ColumnType.STRING, vectorized=vectorized)
