"""A from-scratch Roaring bitmap.

Roaring bitmaps partition the 32-bit integer universe into 2^16 chunks keyed
by the high 16 bits of each value. Each chunk stores its low 16 bits in one
of three container kinds, chosen by local density:

* ``array``  -- a sorted ``uint16`` array, used for sparse chunks
  (at most ``ARRAY_MAX`` entries).
* ``bitmap`` -- a fixed 8 KiB bitset (1024 ``uint64`` words), used for dense
  chunks.
* ``run``    -- sorted ``(start, length-1)`` pairs, used when the chunk is
  dominated by long runs (the common case for NULL columns that are almost
  entirely NULL or entirely non-NULL).

The public surface mirrors what BtrBlocks needs from CRoaring: bulk
construction from positions, rank and membership, iteration, cardinality,
set algebra, and a compact serialization that rides inside compressed blocks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import CorruptBlockError

ARRAY_MAX = 4096
BITMAP_WORDS = 1024

_KIND_ARRAY = 0
_KIND_BITMAP = 1
_KIND_RUN = 2
#: Payload word size of the array and bitmap containers.
_WORD_BYTES = {_KIND_ARRAY: 2, _KIND_BITMAP: 8}

_MAGIC = b"RB01"


def strictly_increasing(values: np.ndarray) -> bool:
    """True when ``values`` is sorted and duplicate-free.

    This is the selection-vector contract: positions that satisfy it can be
    sliced per block, ranked and bounds-checked at their endpoints without
    ever being re-sorted. One vectorised comparison.
    """
    return values.size < 2 or bool((values[1:] > values[:-1]).all())


def _bitmap_from_values(low: np.ndarray) -> np.ndarray:
    """Build a 1024-word uint64 bitset from uint16 values."""
    words = np.zeros(BITMAP_WORDS, dtype=np.uint64)
    idx = low >> 6
    bit = np.uint64(1) << (low.astype(np.uint64) & np.uint64(63))
    np.bitwise_or.at(words, idx, bit)
    return words


def _bitmap_to_values(words: np.ndarray) -> np.ndarray:
    """Expand a 1024-word uint64 bitset back to sorted uint16 values."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.nonzero(bits)[0].astype(np.uint16)


def _runs_from_sorted(low: np.ndarray) -> np.ndarray:
    """Convert sorted unique uint16 values to (start, length-1) run pairs."""
    if low.size == 0:
        return np.empty((0, 2), dtype=np.uint16)
    as32 = low.astype(np.int32)
    breaks = np.nonzero(np.diff(as32) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [low.size - 1]))
    pairs = np.empty((starts.size, 2), dtype=np.uint16)
    pairs[:, 0] = low[starts]
    pairs[:, 1] = (as32[ends] - as32[starts]).astype(np.uint16)
    return pairs


def _runs_to_values(pairs: np.ndarray) -> np.ndarray:
    """Expand (start, length-1) run pairs to sorted uint16 values."""
    if pairs.shape[0] == 0:
        return np.empty(0, dtype=np.uint16)
    lengths = pairs[:, 1].astype(np.int64) + 1
    ends = np.cumsum(lengths)
    # Value i of run r is start[r] + (i - first index of run r).
    shift = pairs[:, 0].astype(np.int64) - (ends - lengths)
    return (np.arange(ends[-1]) + np.repeat(shift, lengths)).astype(np.uint16)


class _Container:
    """One Roaring container: the low 16 bits of values in a 64 Ki chunk."""

    __slots__ = ("kind", "payload", "cardinality")

    def __init__(self, kind: int, payload: np.ndarray, cardinality: int):
        self.kind = kind
        self.payload = payload
        self.cardinality = cardinality

    @classmethod
    def from_sorted(cls, low: np.ndarray) -> "_Container":
        """Pick the cheapest container kind for sorted unique uint16 values."""
        card = int(low.size)
        runs = _runs_from_sorted(low)
        run_bytes = 4 * runs.shape[0]
        array_bytes = 2 * card
        bitmap_bytes = 8 * BITMAP_WORDS
        best = min(run_bytes, array_bytes, bitmap_bytes)
        if best == run_bytes:
            return cls(_KIND_RUN, runs, card)
        if best == array_bytes:
            return cls(_KIND_ARRAY, low.copy(), card)
        return cls(_KIND_BITMAP, _bitmap_from_values(low), card)

    def values(self) -> np.ndarray:
        """Return the sorted uint16 values stored in this container."""
        if self.kind == _KIND_ARRAY:
            return self.payload
        if self.kind == _KIND_BITMAP:
            return _bitmap_to_values(self.payload)
        return _runs_to_values(self.payload)

    def rank(self, low: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(values below each, is it present?)`` for sorted int64 ``low``,
        counted in place: a binary search of the array or the run starts, or
        the bitmap's per-word popcounts."""
        if self.kind == _KIND_ARRAY:
            below = np.searchsorted(self.payload, low)
            return below, self.payload[np.minimum(below, self.payload.size - 1)] == low
        if self.kind == _KIND_BITMAP:
            word = low >> 6
            shift = (low & 63).astype(np.uint64)
            words = self.payload[word]
            counts = np.bitwise_count(self.payload)
            below = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))[word]
            below += np.bitwise_count(words & ((np.uint64(1) << shift) - np.uint64(1)))
            return below, ((words >> shift) & np.uint64(1)).astype(bool)
        starts = self.payload[:, 0].astype(np.int64)
        lengths = self.payload[:, 1].astype(np.int64) + 1
        run = np.maximum(np.searchsorted(starts, low, side="right") - 1, 0)
        offset = low - starts[run]
        before = np.concatenate(([0], np.cumsum(lengths)))[run] + np.clip(offset, 0, lengths[run])
        return before, (offset >= 0) & (offset < lengths[run])

    def nbytes(self) -> int:
        return int(self.payload.nbytes)


class RoaringBitmap:
    """A set of uint32 positions with density-adaptive containers.

    The typical producer in this library is
    :meth:`RoaringBitmap.from_positions`, called with the NULL positions of a
    column block or the exception positions of an encoding. Containers are
    immutable once built; set algebra returns new bitmaps.
    """

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._containers: list[_Container] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_positions(cls, positions: Iterable[int] | np.ndarray) -> "RoaringBitmap":
        """Build a bitmap from (possibly unsorted, possibly duplicated) positions."""
        arr = np.asarray(positions, dtype=np.int64)
        bm = cls()
        if arr.size == 0:
            return bm
        # Scans, masks and ``to_array`` hand over strictly increasing
        # positions; only other input pays for the sort + dedupe.
        if not strictly_increasing(arr):
            arr = np.unique(arr)
        if arr[0] < 0 or arr[-1] > 0xFFFFFFFF:
            raise ValueError("positions must be uint32")
        arr = arr.astype(np.uint32)
        highs = (arr >> 16).astype(np.uint32)
        lows = (arr & 0xFFFF).astype(np.uint16)
        boundaries = np.nonzero(np.diff(highs))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [arr.size]))
        for s, e in zip(starts, ends):
            bm._keys.append(int(highs[s]))
            bm._containers.append(_Container.from_sorted(lows[s:e]))
        return bm

    @classmethod
    def from_bools(cls, mask: np.ndarray) -> "RoaringBitmap":
        """Build a bitmap from a boolean mask; set positions are True indices."""
        return cls.from_positions(np.nonzero(np.asarray(mask, dtype=bool))[0])

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(c.cardinality for c in self._containers)

    def __bool__(self) -> bool:
        return bool(self._containers)

    def __contains__(self, value: int) -> bool:
        return 0 <= value <= 0xFFFFFFFF and bool(self.rank(np.array([value]))[1][0])

    def __iter__(self) -> Iterator[int]:
        for key, container in zip(self._keys, self._containers):
            base = key << 16
            for low in container.values():
                yield base + int(low)

    def to_array(self) -> np.ndarray:
        """Return all set positions as a sorted uint32 array."""
        parts = []
        for key, container in zip(self._keys, self._containers):
            parts.append(container.values().astype(np.uint32) + np.uint32(key << 16))
        if not parts:
            return np.empty(0, dtype=np.uint32)
        return np.concatenate(parts)

    def to_mask(self, length: int) -> np.ndarray:
        """Return a boolean mask of the given length with set positions True."""
        mask = np.zeros(length, dtype=bool)
        positions = self.to_array()
        positions = positions[positions < length]
        mask[positions] = True
        return mask

    def rank(self, positions: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(set positions before each, is it set?)`` for sorted ``positions``.

        What ``locate_sorted(self.to_array(), positions)`` returns, counted
        per container without expanding one: the containers wholly below a
        position count their cardinality, the one holding it ranks in place.
        """
        positions = np.asarray(positions, dtype=np.int64)
        keys = np.asarray(self._keys, dtype=np.int64)
        cards = np.cumsum([c.cardinality for c in self._containers], dtype=np.int64)
        highs = positions >> 16
        before = np.concatenate(([0], cards))[np.searchsorted(keys, highs)]
        present = np.zeros(positions.size, dtype=bool)
        first, stop = np.searchsorted(highs, keys), np.searchsorted(highs, keys, side="right")
        for i in np.flatnonzero(stop > first):
            part = slice(first[i], stop[i])
            below, present[part] = self._containers[i].rank(positions[part] & 0xFFFF)
            before[part] += below
        return before, present

    def container_kinds(self) -> list[str]:
        """Container kind names in key order (useful for tests/introspection)."""
        names = {_KIND_ARRAY: "array", _KIND_BITMAP: "bitmap", _KIND_RUN: "run"}
        return [names[c.kind] for c in self._containers]

    def nbytes(self) -> int:
        """Approximate in-memory payload size (what serialization will cost)."""
        return sum(c.nbytes() + 8 for c in self._containers)

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "RoaringBitmap") -> "RoaringBitmap":
        mine, theirs = self.to_array(), other.to_array()
        return RoaringBitmap.from_positions(np.union1d(mine, theirs))

    def intersection(self, other: "RoaringBitmap") -> "RoaringBitmap":
        mine, theirs = self.to_array(), other.to_array()
        return RoaringBitmap.from_positions(np.intersect1d(mine, theirs))

    def difference(self, other: "RoaringBitmap") -> "RoaringBitmap":
        mine, theirs = self.to_array(), other.to_array()
        return RoaringBitmap.from_positions(np.setdiff1d(mine, theirs))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        return np.array_equal(self.to_array(), other.to_array())

    def __repr__(self) -> str:
        return f"RoaringBitmap(card={len(self)}, containers={self.container_kinds()})"

    # -- serialization -------------------------------------------------------

    def serialize(self) -> bytes:
        """Serialize to a compact, self-describing byte string."""
        parts = [_MAGIC, np.uint32(len(self._keys)).tobytes()]
        for key, container in zip(self._keys, self._containers):
            payload = container.payload.tobytes()
            header = np.array(
                [key, container.kind, container.cardinality, len(payload)],
                dtype=np.uint32,
            )
            parts.append(header.tobytes())
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, data: bytes) -> "RoaringBitmap":
        """Inverse of :meth:`serialize`."""
        if data[:4] != _MAGIC:
            raise CorruptBlockError("bad roaring bitmap magic")
        if len(data) < 8:
            raise CorruptBlockError("truncated roaring bitmap header")
        count = int(np.frombuffer(data, dtype=np.uint32, count=1, offset=4)[0])
        bm = cls()
        offset = 8
        for _ in range(count):
            if offset + 16 > len(data):
                raise CorruptBlockError("truncated roaring bitmap header")
            key, kind, card, size = np.frombuffer(data, dtype=np.uint32, count=4, offset=offset)
            offset += 16
            if int(key) > 0xFFFF:
                # Keys are the high 16 bits of a 32-bit position; anything
                # larger would overflow position reconstruction (key << 16).
                raise CorruptBlockError(f"roaring container key {int(key)} exceeds 16 bits")
            raw = data[offset : offset + int(size)]
            if len(raw) != int(size):
                raise CorruptBlockError("truncated roaring bitmap payload")
            offset += int(size)
            if kind in _WORD_BYTES and size % _WORD_BYTES[kind]:
                raise CorruptBlockError("roaring container payload is not whole words")
            if bm._keys and int(key) <= bm._keys[-1]:
                raise CorruptBlockError("roaring container keys are not strictly increasing")
            if kind == _KIND_ARRAY:
                payload = np.frombuffer(raw, dtype=np.uint16)
                if not strictly_increasing(payload):
                    raise CorruptBlockError("array container values are not strictly increasing")
                held = payload.size
            elif kind == _KIND_BITMAP:
                if size != 8 * BITMAP_WORDS:
                    raise CorruptBlockError(f"bitmap container of {size} bytes, not {8 * BITMAP_WORDS}")
                payload = np.frombuffer(raw, dtype=np.uint64)
                held = int(np.bitwise_count(payload).sum())
            elif kind == _KIND_RUN:
                if size % 4:
                    raise CorruptBlockError("run container payload not (start, length) pairs")
                payload = np.frombuffer(raw, dtype=np.uint16).reshape(-1, 2)
                # Runs must be sorted, disjoint and end inside the container's
                # 2^16 values: an overflowing one would wrap on expansion, and
                # ranks search the starts.
                starts = payload[:, 0].astype(np.int64)
                ends = starts + payload[:, 1]
                if ends.size and (ends[-1] > 0xFFFF or (starts[1:] <= ends[:-1]).any()):
                    raise CorruptBlockError("run container runs overflow or overlap")
                held = int((ends - starts).sum()) + ends.size
            else:
                raise CorruptBlockError(f"unknown container kind {kind}")
            if held != int(card) or not held:
                raise CorruptBlockError(
                    f"roaring container declares {int(card)} positions, holds {held}"
                )
            bm._keys.append(int(key))
            bm._containers.append(_Container(int(kind), payload, int(card)))
        return bm
