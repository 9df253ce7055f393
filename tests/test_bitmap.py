"""Tests for the Roaring bitmap substrate."""

import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.bitmap import RoaringBitmap
from repro.bitmap.roaring import ARRAY_MAX, _Container
from repro.encodings.base import locate_sorted
from repro.exceptions import CorruptBlockError

#: Seeds the rank properties; CI's fault-matrix job also runs them randomised.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20261017"), 0)


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
    def test_rank(self):
        bm = RoaringBitmap.from_positions([2, 4, 100_000])
        before, present = bm.rank(np.array([1, 2, 3, 4, 100_000, 100_001]))
        assert present.tolist() == [False, True, False, True, True, False]
        assert before.tolist() == [0, 0, 1, 1, 2, 3]

    def test_rank_empty_bitmap(self):
        before, present = RoaringBitmap().rank(np.array([1, 2, 3]))
        assert not present.any() and not before.any()

    def test_to_mask(self):
        bm = RoaringBitmap.from_positions([0, 3])
        assert bm.to_mask(5).tolist() == [True, False, False, True, False]

    def test_to_mask_clips_out_of_range(self):
        bm = RoaringBitmap.from_positions([2, 99])
        assert bm.to_mask(4).tolist() == [False, False, True, False]

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


def test_declared_numpy_floor_counts_bits():
    """Bitmap containers count their bits with ``np.bitwise_count``, new in
    NumPy 2.0: the declared dependency floor must provide it, whichever
    NumPy runs this suite."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)', pyproject)
    assert floor is not None and int(floor.group(1)) >= 2


def _serialized(*containers) -> bytes:
    """Serialized bytes of ``(key, kind, declared cardinality, payload)`` containers."""
    parts = [b"RB01", np.uint32(len(containers)).tobytes()]
    for key, kind, card, payload in containers:
        raw = np.asarray(payload).tobytes()
        parts += [np.array([key, kind, card, len(raw)], dtype=np.uint32).tobytes(), raw]
    return b"".join(parts)


class TestHostileContainers:
    """A rank counts what the containers declare, so every container is
    held to its kind's geometry and its declared cardinality on the way in:
    anything else is a typed error, never a wrong rank."""

    WORDS = np.full(1024, 0x5, dtype=np.uint64)  # two bits per word: 2,048 positions

    def test_the_honest_containers_deserialize(self):
        blob = _serialized(
            (0, 0, 3, np.array([1, 5, 9], dtype=np.uint16)),
            (1, 1, 2048, self.WORDS),
            (2, 2, 150, np.array([[0, 99], [200, 49]], dtype=np.uint16)),
        )
        before, present = RoaringBitmap.deserialize(blob).rank(np.array([5, 65_538, 131_272]))
        assert before.tolist() == [1, 3 + 1, 3 + 2048 + 100] and present.all()

    @pytest.mark.parametrize(
        "container, match",
        [
            ((0, 1, 1024, WORDS[:512]), "bitmap container of 4096 bytes"),
            ((0, 1, 2048, np.concatenate([WORDS, WORDS[:1]])), "bitmap container"),
            ((0, 2, 1001, np.array([[65_000, 1000]], dtype=np.uint16)), "overflow"),
            ((0, 2, 20, np.array([[0, 9], [5, 9]], dtype=np.uint16)), "overlap"),
            ((0, 2, 20, np.array([[50, 9], [0, 9]], dtype=np.uint16)), "overlap"),
            ((0, 0, 4, np.array([1, 5, 9], dtype=np.uint16)), "declares 4 positions, holds 3"),
            ((0, 1, 2047, WORDS), "declares 2047 positions, holds 2048"),
            ((0, 2, 99, np.array([[0, 99]], dtype=np.uint16)), "declares 99 positions, holds 100"),
            ((0, 0, 0, np.empty(0, dtype=np.uint16)), "declares 0 positions, holds 0"),
            ((0, 0, 3, np.array([1, 9, 5], dtype=np.uint16)), "strictly increasing"),
        ],
        ids=["bitmap-short", "bitmap-long", "run-overflow", "runs-overlap", "runs-unsorted",
             "array-card", "bitmap-card", "run-card", "empty", "array-unsorted"],
    )
    def test_hostile_container_raises_typed(self, container, match):
        with pytest.raises(CorruptBlockError, match=match):
            RoaringBitmap.deserialize(_serialized(container))

    def test_keys_out_of_order_raise_typed(self):
        array = np.array([1], dtype=np.uint16)
        with pytest.raises(CorruptBlockError, match="keys"):
            RoaringBitmap.deserialize(_serialized((3, 0, 1, array), (3, 0, 1, array)))


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


def _container_lows(kind: str, rng: np.random.Generator) -> np.ndarray:
    """Low values that ``_Container.from_sorted`` stores as a ``kind`` container."""
    if kind == "array":
        return rng.choice(65_536, int(rng.integers(1, ARRAY_MAX + 1)), replace=False)
    if kind == "bitmap":
        return rng.choice(65_536, int(rng.integers(ARRAY_MAX + 1, 40_000)), replace=False)
    starts = np.sort(rng.choice(np.arange(0, 65_536, 2_048), int(rng.integers(1, 8)), replace=False))
    return np.concatenate([s + np.arange(int(rng.integers(200, 2_048))) for s in starts])


@seed(FAULT_SEED)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["array", "bitmap", "run"]), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_property_rank_matches_to_array_and_locate_sorted(kinds, draw):
    """Array, bitmap and run containers, alone or several keys deep (with
    gaps between keys), and the empty bitmap: the in-place rank is exactly
    the expanded positions' ``locate_sorted``, for members, non-members,
    positions between and beyond the containers."""
    rng = np.random.default_rng(draw)
    keys = np.cumsum(rng.integers(1, 3, len(kinds))) - 1
    parts = [
        (int(key) << 16) + np.sort(_container_lows(kind, rng)) for key, kind in zip(keys, kinds)
    ]
    positions = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    bm = RoaringBitmap.deserialize(RoaringBitmap.from_positions(positions).serialize())
    assert bm.container_kinds() == list(kinds)
    universe = (int(keys[-1]) + 2) << 16 if len(kinds) else 1 << 17
    probes = np.union1d(
        rng.choice(universe, 2_000, replace=False), rng.choice(positions, min(positions.size, 500))
    ).astype(np.int64) if positions.size else np.sort(rng.choice(universe, 2_000, replace=False))
    before, present = bm.rank(probes)
    expected_before, expected_present = locate_sorted(bm.to_array().astype(np.int64), probes)
    assert np.array_equal(before, expected_before)
    assert np.array_equal(present, expected_present)
