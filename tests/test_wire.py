"""Tests for the binary wire helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings.wire import Reader, Writer, unwrap, wrap
from repro.exceptions import CorruptBlockError


class TestFraming:
    def test_wrap_unwrap(self):
        blob = wrap(7, 123, b"payload")
        scheme_id, count, payload = unwrap(blob)
        assert (scheme_id, count, payload) == (7, 123, b"payload")

    def test_unwrap_too_short(self):
        with pytest.raises(CorruptBlockError):
            unwrap(b"\x01")


class TestWriterReader:
    def test_scalars(self):
        blob = Writer().u8(200).u32(70_000).i64(-5).f64(2.5).getvalue()
        reader = Reader(blob)
        assert reader.u8() == 200
        assert reader.u32() == 70_000
        assert reader.i64() == -5
        assert reader.f64() == 2.5
        assert reader.remaining() == 0

    @pytest.mark.parametrize("dtype", ["uint8", "int32", "int64", "float64", "uint16", "uint32", "uint64"])
    def test_array_round_trip(self, dtype):
        arr = np.arange(10).astype(dtype)
        blob = Writer().array(arr).getvalue()
        out = Reader(blob).array()
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, arr)

    def test_empty_array(self):
        blob = Writer().array(np.empty(0, dtype=np.int32)).getvalue()
        assert Reader(blob).array().size == 0

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            Writer().array(np.zeros(2, dtype=np.float32))

    def test_dtype_spellings_share_a_code_and_foreign_byte_order_is_rejected(self):
        # The code is looked up by dtype object: every spelling of a native
        # dtype is that object, a byte-swapped one is not (its raw bytes
        # would decode as different numbers under the native code).
        for spelling in ("<i4", "=i4", "i", np.int32, np.intc):
            assert Writer().array(np.arange(3, dtype=spelling)).getvalue()[0] == 1
        assert Writer().array(np.arange(3, dtype=np.longlong)).getvalue()[0] == 2
        with pytest.raises(ValueError, match="unsupported dtype"):
            Writer().array(np.arange(3, dtype=">i4"))

    def test_blob(self):
        blob = Writer().blob(b"abc").blob(b"").getvalue()
        reader = Reader(blob)
        assert reader.blob() == b"abc"
        assert reader.blob() == b""

    def test_truncated_read_raises(self):
        blob = Writer().u32(1).getvalue()
        reader = Reader(blob[:2])
        with pytest.raises(CorruptBlockError):
            reader.u32()

    def test_truncated_blob_raises(self):
        blob = Writer().blob(b"abcdef").getvalue()
        with pytest.raises(CorruptBlockError):
            Reader(blob[:-3]).blob()

    def test_mixed_sequence(self):
        writer = Writer()
        writer.u8(1).array(np.array([1, 2], dtype=np.int64)).blob(b"x").u32(9)
        reader = Reader(writer.getvalue())
        assert reader.u8() == 1
        assert reader.array().tolist() == [1, 2]
        assert reader.blob() == b"x"
        assert reader.u32() == 9


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 255),
    st.integers(0, 2**32 - 1),
    st.binary(max_size=64),
)
def test_property_frame_round_trip(scheme_id, count, payload):
    assert unwrap(wrap(scheme_id, count, payload)) == (scheme_id, count, payload)
