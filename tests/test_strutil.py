"""Tests for the shared string utilities (gather, concat, runs)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings.strutil import (
    average_run_length,
    concat,
    encode_distinct,
    gather,
    run_boundaries,
)
from repro.types import StringArray

from test_roundtrip_fuzz import STRING_CASES  # the adversarial string corpus


def _dict_loop_encode_distinct(strings: StringArray):
    """The row-by-row coder ``encode_distinct`` replaced, kept as its oracle."""
    seen: dict[bytes, int] = {}
    codes = np.empty(len(strings), dtype=np.int32)
    uniques: list[bytes] = []
    for i in range(len(strings)):
        value = strings[i]
        code = seen.get(value)
        if code is None:
            code = len(uniques)
            seen[value] = code
            uniques.append(value)
        codes[i] = code
    return codes, uniques


class TestEncodeDistinct:
    def test_codes_reconstruct_input(self):
        sa = StringArray.from_pylist(["x", "y", "x", "z", "y"])
        codes, uniques = encode_distinct(sa)
        assert gather(uniques, codes) == sa

    def test_empty(self):
        codes, uniques = encode_distinct(StringArray.empty(0))
        assert codes.size == 0
        assert len(uniques) == 0

    def test_all_same(self):
        codes, uniques = encode_distinct(StringArray.from_pylist(["a"] * 10))
        assert len(uniques) == 1
        assert (codes == 0).all()

    @pytest.mark.parametrize("name,values", STRING_CASES, ids=[n for n, _ in STRING_CASES])
    def test_equals_dict_loop_on_fuzz_corpus(self, name, values):
        codes, uniques = encode_distinct(values)
        want_codes, want_uniques = _dict_loop_encode_distinct(values)
        assert codes.dtype == np.int32 and codes.shape == (len(values),)
        assert np.array_equal(codes, want_codes)
        assert uniques.to_pylist() == want_uniques  # first-appearance order

    def test_result_is_memoised_read_only_and_not_pickled(self):
        sa = StringArray.from_pylist(["x", "y", "x"])
        assert sa._distinct is None
        codes, uniques = encode_distinct(sa)
        again = encode_distinct(sa)
        assert again[0] is codes and again[1] is uniques
        with pytest.raises(ValueError):
            codes[0] = 7
        clone = pickle.loads(pickle.dumps(sa))
        assert clone == sa and clone._distinct is None
        fresh = pickle.dumps(StringArray.from_pylist(["x", "y", "x"]))
        assert pickle.dumps(sa) == fresh


class TestGather:
    def test_matches_scalar_take(self):
        pool = StringArray.from_pylist(["", "a", "bb", "ccc"])
        idx = np.array([3, 0, 1, 3, 2, 2])
        assert gather(pool, idx) == pool.take(idx)

    def test_empty_indices(self):
        pool = StringArray.from_pylist(["a"])
        out = gather(pool, np.empty(0, dtype=np.int64))
        assert len(out) == 0

    def test_all_empty_strings(self):
        pool = StringArray.from_pylist(["", ""])
        out = gather(pool, np.array([0, 1, 0]))
        assert out.to_pylist() == [b"", b"", b""]

    def test_large_gather(self, rng):
        pool = StringArray.from_pylist([f"value-{i}" for i in range(100)])
        idx = rng.integers(0, 100, 50_000)
        out = gather(pool, idx)
        assert len(out) == 50_000
        assert out[123] == pool[int(idx[123])]


class TestConcat:
    def test_two_arrays(self):
        a = StringArray.from_pylist(["x", "y"])
        b = StringArray.from_pylist(["z"])
        assert concat([a, b]).to_pylist() == [b"x", b"y", b"z"]

    def test_empty_list(self):
        assert len(concat([])) == 0

    def test_with_empty_array(self):
        a = StringArray.from_pylist(["x"])
        assert concat([a, StringArray.empty(0)]).to_pylist() == [b"x"]


class TestRuns:
    def test_run_boundaries(self):
        codes = np.array([1, 1, 2, 2, 2, 1])
        assert run_boundaries(codes).tolist() == [0, 2, 5]

    def test_average_run_length(self):
        assert average_run_length(np.array([5, 5, 5, 5])) == 4.0
        assert average_run_length(np.array([1, 2, 3])) == 1.0
        assert average_run_length(np.empty(0, dtype=np.int64)) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.binary(max_size=8), min_size=1, max_size=20),
    st.lists(st.integers(0, 19), max_size=100),
)
def test_property_gather_matches_python(pool_values, raw_indices):
    pool = StringArray.from_pylist(pool_values)
    indices = np.array([i % len(pool_values) for i in raw_indices], dtype=np.int64)
    out = gather(pool, indices)
    assert out.to_pylist() == [pool_values[int(i)] for i in indices]
