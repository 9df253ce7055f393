"""Tests for the Roaring bitmap substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import RoaringBitmap
from repro.bitmap.roaring import ARRAY_MAX, _Container
from repro.exceptions import CorruptBlockError


class TestConstruction:
    def test_empty(self):
        bm = RoaringBitmap.from_positions([])
        assert len(bm) == 0
        assert not bm
        assert bm.to_array().size == 0

    def test_single_value(self):
        bm = RoaringBitmap.from_positions([42])
        assert len(bm) == 1
        assert 42 in bm
        assert 41 not in bm

    def test_duplicates_collapse(self):
        bm = RoaringBitmap.from_positions([7, 7, 7, 3, 3])
        assert len(bm) == 2
        assert sorted(bm) == [3, 7]

    def test_unsorted_input(self):
        bm = RoaringBitmap.from_positions([9, 1, 5, 3])
        assert bm.to_array().tolist() == [1, 3, 5, 9]

    def test_negative_positions_rejected(self):
        with pytest.raises(ValueError):
            RoaringBitmap.from_positions([-1])

    def test_above_uint32_rejected(self):
        with pytest.raises(ValueError):
            RoaringBitmap.from_positions([2**32])

    def test_from_bools(self):
        mask = np.array([True, False, True, True, False])
        bm = RoaringBitmap.from_bools(mask)
        assert bm.to_array().tolist() == [0, 2, 3]

    @pytest.mark.parametrize(
        "positions",
        [[], [7], [3, 9, 70_000, 70_001, 2**31], [9, 3, 3, 70_001, 9], [5, 5], [2, 1]],
        ids=["empty", "single", "increasing", "shuffled-duplicated", "duplicate", "descending"],
    )
    def test_sorted_fast_path_and_sort_path_agree(self, positions, monkeypatch):
        """Strictly increasing input skips sort + dedupe; anything else is
        normalised exactly as before. Both build identical bitmaps."""
        expected = sorted(set(positions))
        increasing = positions == expected
        calls = []
        original = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or original(*a, **k))
        bm = RoaringBitmap.from_positions(np.asarray(positions, dtype=np.int64))
        monkeypatch.undo()
        assert bm.to_array().tolist() == expected
        assert len(bm) == len(expected)
        assert bool(calls) == (not increasing and bool(positions))
        assert bm == RoaringBitmap.deserialize(bm.serialize())

    def test_from_bools_never_sorts(self, monkeypatch):
        mask = np.zeros(200_000, dtype=bool)
        mask[::3] = True
        monkeypatch.setattr(np, "unique", lambda *a, **k: pytest.fail("from_bools re-sorted"))
        bm = RoaringBitmap.from_bools(mask)
        monkeypatch.undo()
        assert np.array_equal(bm.to_array(), np.flatnonzero(mask))
        assert len(RoaringBitmap.from_bools(np.zeros(5, dtype=bool))) == 0
        assert RoaringBitmap.from_bools(np.asarray([False, True])).to_array().tolist() == [1]

    @pytest.mark.parametrize("bad", [[0, 2**32], [-1, 4], [4, -1], [2**32, 0]])
    def test_range_check_holds_on_both_paths(self, bad):
        with pytest.raises(ValueError):
            RoaringBitmap.from_positions(bad)

    def test_spans_multiple_chunks(self):
        positions = [0, 65535, 65536, 200_000, 2**31]
        bm = RoaringBitmap.from_positions(positions)
        assert sorted(bm) == sorted(positions)
        assert len(bm._keys) == 4


class TestContainerSelection:
    def test_sparse_uses_array(self):
        bm = RoaringBitmap.from_positions([1, 100, 5000])
        assert bm.container_kinds() == ["run"] or bm.container_kinds() == ["array"]

    def test_dense_random_uses_bitmap(self):
        rng = np.random.default_rng(0)
        positions = rng.choice(65536, size=30_000, replace=False)
        bm = RoaringBitmap.from_positions(positions)
        assert bm.container_kinds() == ["bitmap"]

    def test_long_run_uses_run_container(self):
        bm = RoaringBitmap.from_positions(np.arange(40_000))
        assert bm.container_kinds() == ["run"]
        assert len(bm) == 40_000

    def test_run_container_is_small(self):
        bm = RoaringBitmap.from_positions(np.arange(40_000))
        assert bm.nbytes() < 64

    def test_array_container_bound(self):
        # Exactly ARRAY_MAX scattered values must still round trip.
        rng = np.random.default_rng(1)
        positions = np.sort(rng.choice(65536, size=ARRAY_MAX, replace=False))
        bm = RoaringBitmap.from_positions(positions)
        assert np.array_equal(bm.to_array(), positions)


class TestQueries:
    def test_contains_many(self):
        bm = RoaringBitmap.from_positions([2, 4, 100_000])
        probe = np.array([1, 2, 3, 4, 100_000, 100_001])
        assert bm.contains_many(probe).tolist() == [False, True, False, True, True, False]

    def test_contains_many_empty_bitmap(self):
        bm = RoaringBitmap()
        assert not bm.contains_many(np.array([1, 2, 3])).any()

    def test_to_mask(self):
        bm = RoaringBitmap.from_positions([0, 3])
        assert bm.to_mask(5).tolist() == [True, False, False, True, False]

    def test_to_mask_clips_out_of_range(self):
        bm = RoaringBitmap.from_positions([2, 99])
        assert bm.to_mask(4).tolist() == [False, False, True, False]

    def test_intersects_range(self):
        bm = RoaringBitmap.from_positions([10, 20])
        assert bm.intersects_range(5, 11)
        assert bm.intersects_range(20, 21)
        assert not bm.intersects_range(11, 20)
        assert not bm.intersects_range(21, 100)

    def test_iteration_order(self):
        bm = RoaringBitmap.from_positions([70_000, 3, 65_536])
        assert list(bm) == [3, 65_536, 70_000]


class TestSetAlgebra:
    def test_union(self):
        a = RoaringBitmap.from_positions([1, 2])
        b = RoaringBitmap.from_positions([2, 3])
        assert (a | b).to_array().tolist() == [1, 2, 3]

    def test_intersection(self):
        a = RoaringBitmap.from_positions([1, 2, 70_000])
        b = RoaringBitmap.from_positions([2, 70_000, 90_000])
        assert (a & b).to_array().tolist() == [2, 70_000]

    def test_difference(self):
        a = RoaringBitmap.from_positions([1, 2, 3])
        b = RoaringBitmap.from_positions([2])
        assert (a - b).to_array().tolist() == [1, 3]

    def test_equality(self):
        a = RoaringBitmap.from_positions([5, 10])
        b = RoaringBitmap.from_positions([10, 5, 5])
        assert a == b
        assert a != RoaringBitmap.from_positions([5])


class TestSerialization:
    def test_round_trip_mixed_containers(self):
        rng = np.random.default_rng(2)
        positions = np.concatenate([
            np.arange(30_000),                                  # run
            65_536 + rng.choice(65_536, 100, replace=False),    # array
            131_072 + rng.choice(65_536, 30_000, replace=False),  # bitmap
        ])
        bm = RoaringBitmap.from_positions(positions)
        restored = RoaringBitmap.deserialize(bm.serialize())
        assert restored == bm

    def test_round_trip_empty(self):
        bm = RoaringBitmap()
        assert RoaringBitmap.deserialize(bm.serialize()) == bm

    def test_bad_magic_raises(self):
        with pytest.raises(CorruptBlockError):
            RoaringBitmap.deserialize(b"XXXX\x00\x00\x00\x00")

    def test_truncated_raises(self):
        blob = RoaringBitmap.from_positions([1, 2, 3]).serialize()
        with pytest.raises(CorruptBlockError):
            RoaringBitmap.deserialize(blob[:-2])


class TestContainerInternals:
    def test_bitmap_container_round_trip(self):
        rng = np.random.default_rng(3)
        low = np.sort(rng.choice(65_536, 20_000, replace=False)).astype(np.uint16)
        container = _Container.from_sorted(low)
        assert np.array_equal(container.values(), low)

    def test_run_container_values(self):
        low = np.concatenate([np.arange(100), np.arange(500, 600)]).astype(np.uint16)
        container = _Container.from_sorted(low)
        assert np.array_equal(container.values(), low)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=300_000), max_size=300))
def test_property_round_trip(positions):
    bm = RoaringBitmap.from_positions(positions)
    expected = sorted(set(positions))
    assert bm.to_array().tolist() == expected
    assert RoaringBitmap.deserialize(bm.serialize()).to_array().tolist() == expected
    for p in expected[:20]:
        assert p in bm


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=100),
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=100),
)
def test_property_set_algebra_matches_python_sets(a_list, b_list):
    a, b = set(a_list), set(b_list)
    bm_a = RoaringBitmap.from_positions(list(a))
    bm_b = RoaringBitmap.from_positions(list(b))
    assert set((bm_a | bm_b).to_array().tolist()) == a | b
    assert set((bm_a & bm_b).to_array().tolist()) == a & b
    assert set((bm_a - bm_b).to_array().tolist()) == a - b
