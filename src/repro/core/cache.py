"""Bounded byte-budget caches for the remote scan path.

Two consumers share the same LRU core:

* :class:`ByteBudgetLRU` — a thread-safe mapping capped by the *byte size*
  of its values rather than an entry count. :class:`~repro.cloud.
  remote_table.RemoteTable` bounds its downloaded-column cache with one so
  a wide-table scan cannot hold every compressed column in memory forever.
* :class:`DecodeCache` — decoded columns of all three types, one entry
  per column keyed by ``(object key, version)``. Re-scanning a remote
  column serves it with one look-up, one gate call (each block in hand held
  to its CRC32, hashed once per block object) and one copy (a string column
  is handed the cached buffer and offsets); reading rows of it is one take;
  filtering a block reads its slice. A partly served column fills its
  served blocks from slices of the entry and decodes the rest.

Both record ``{prefix}.hit`` / ``{prefix}.miss`` / ``{prefix}.evict``
counters into the active metrics registry, resolved at call time so
:func:`~repro.observe.use_registry` scopes apply; the decode cache counts
hits and misses per block.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import accumulate
from typing import Any, Hashable

import numpy as np

from repro.observe import get_registry
from repro.types import StringArray


class ByteBudgetLRU:
    """A thread-safe LRU mapping bounded by total value bytes.

    ``put`` evicts least-recently-used entries until the new value fits;
    a value larger than the whole budget is simply not cached (the caller
    keeps its reference — the cache never owns the only copy). A zero or
    negative ``capacity_bytes`` disables storage entirely, turning every
    lookup into a miss, which is how callers switch caching off without
    branching.
    """

    def __init__(self, capacity_bytes: int, metric_prefix: "str | None" = None) -> None:
        self.capacity_bytes = int(capacity_bytes)
        self.metric_prefix = metric_prefix
        #: Counter names ``get`` bumps, formatted once: ``(miss, hit)``.
        self._lookup_counters = (
            None if metric_prefix is None else (f"{metric_prefix}.miss", f"{metric_prefix}.hit")
        )
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0

    # -- mapping ---------------------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recent) or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if self._lookup_counters is not None:
            get_registry().incr(self._lookup_counters[entry is not None])
        return entry[0] if entry is not None else default

    def put(self, key: Hashable, value: Any, nbytes: int) -> int:
        """Insert/replace ``key``; evicts LRU entries to stay under budget
        and returns how many went."""
        nbytes = int(nbytes)
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if nbytes > self.capacity_bytes:
                return 0  # never cacheable; don't flush the working set for it
            while self._bytes + nbytes > self.capacity_bytes and self._entries:
                _, (_, freed) = self._entries.popitem(last=False)
                self._bytes -= freed
                evicted += 1
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
        if evicted and self.metric_prefix is not None:
            get_registry().incr(f"{self.metric_prefix}.evict", evicted)
        return evicted

    def __contains__(self, key: Hashable) -> bool:
        """Presence probe; records no metrics and does not touch recency."""
        with self._lock:
            return key in self._entries

    def values(self) -> list:
        """A snapshot of every cached value, least recent first."""
        with self._lock:
            return [value for value, _ in self._entries.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes currently held (always ``<= capacity_bytes``)."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0


def _frozen(owned: np.ndarray) -> np.ndarray:
    owned.setflags(write=False)
    return owned


class CachedColumn:
    """One decoded column as :class:`DecodeCache` holds it.

    ``values`` is a number column's one frozen array, or a string column's
    frozen ``(buffer, offsets)`` pair -- two plain columns (Rozenberg), the
    offsets ``int64`` as a :class:`StringArray` holds them, so serving the
    whole column copies nothing. ``starts`` are the blocks' first rows (plus
    the row count) and ``blocks`` each block's ``(declared count, CRC32)``:
    what the block in hand must match before its rows are served.
    """

    __slots__ = ("values", "starts", "blocks")

    def __init__(self, values, starts: "list[int]", blocks: "tuple[tuple[int, int], ...]") -> None:
        self.values = values
        self.starts = starts
        self.blocks = blocks

    def span(self, first: int, stop: int) -> "np.ndarray | StringArray":
        """The rows of blocks ``[first, stop)``: a read-only view of a number
        column (copy it out before writing), or a new :class:`StringArray`
        over the read-only buffer -- the whole column hands over the entry's
        frozen offsets as they are, a slice gets its own rebased copy -- so
        no ``encode_distinct`` memo rides on cache memory."""
        start, stop = self.starts[first], self.starts[stop]
        if not isinstance(self.values, tuple):
            return self.values[start:stop]
        buffer, offsets = self.values
        if stop - start + 1 == offsets.size:  # the whole column
            return StringArray(buffer, offsets)
        lo = int(offsets[start])
        return StringArray(buffer[lo : int(offsets[stop])], offsets[start : stop + 1] - lo)


class DecodeCache:
    """Bounded cache of *successfully* decoded columns.

    An entry is one whole :class:`CachedColumn` under the column's key --
    callers use ``(object key, version)``, which identifies the exact bytes
    that were decoded. Only checksummed (v2) columns are worth caching:
    without a CRC32 per block, an object overwritten in place could serve
    stale rows. Columns with a corrupt or degraded block are never
    inserted, and a block is served only while the block in hand declares
    the count and CRC32 the entry recorded (the CRC32 is seeded with the
    count) *and* passes that checksum -- a damaged download therefore
    degrades through ``on_corrupt`` exactly as it would without the cache.
    Both are checked by :func:`~repro.core.decompressor.cached_block`, one
    call per request; :func:`~repro.core.file_format.verify_block` hashes a
    block object once (a fresh download is a new object, and is hashed).

    Entries are read-only copies that own their memory, charged at the bytes
    of their arrays (8 per string offset), so nothing cached is a view onto
    a block payload or can be mutated through a served value. A column
    larger than the whole budget is declined (``{prefix}.declined``): with
    the budget below the largest hot column, that column decodes on every
    scan. (The representation is a measured choice: docs/PERFORMANCE.md §5.)

    ``len()`` is the number of blocks the cache can serve; ``{prefix}.hit``
    / ``{prefix}.miss`` are counted per block by the readers (:meth:`count`),
    ``{prefix}.evict`` per column entry pushed out for room.
    """

    def __init__(self, capacity_bytes: int, metric_prefix: str = "decode.cache") -> None:
        self._lru = ByteBudgetLRU(capacity_bytes)  # hits are counted by the readers
        self.metric_prefix = metric_prefix
        self._counters = (f"{metric_prefix}.hit", f"{metric_prefix}.miss")

    @property
    def capacity_bytes(self) -> int:
        return self._lru.capacity_bytes

    @property
    def current_bytes(self) -> int:
        return self._lru.current_bytes

    def __len__(self) -> int:
        return sum(len(entry.blocks) for entry in self._lru.values())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def get(self, key: Hashable) -> "CachedColumn | None":
        """The column entry under ``key`` (marking it most recent), or
        ``None``; one look-up per column, no counters."""
        return self._lru.get(key)

    def count(self, hits: int, misses: int) -> None:
        """Record ``hits`` blocks served and ``misses`` decoded instead."""
        registry = get_registry()
        if hits:
            registry.incr(self._counters[0], hits)
        if misses:
            registry.incr(self._counters[1], misses)

    def put(self, key: Hashable, values: "np.ndarray | StringArray", blocks) -> None:
        """Cache a read-only copy of one column's decoded ``values``, the
        cleanly decoded ``blocks`` they came from recorded beside them."""
        strings = isinstance(values, StringArray)
        nbytes = values.buffer.nbytes + values.offsets.nbytes if strings else values.nbytes
        if nbytes > self.capacity_bytes:
            get_registry().incr(f"{self.metric_prefix}.declined")
            return
        if strings:
            stored = (_frozen(values.buffer.copy()), _frozen(values.offsets.copy()))
        else:
            stored = _frozen(np.array(values, copy=True))
        starts = [0, *accumulate(block.count for block in blocks)]
        entry = CachedColumn(stored, starts, tuple((block.count, block.checksum) for block in blocks))
        evicted = self._lru.put(key, entry, nbytes)
        if evicted:
            get_registry().incr(f"{self.metric_prefix}.evict", evicted)

    def clear(self) -> None:
        self._lru.clear()


__all__ = ["ByteBudgetLRU", "CachedColumn", "DecodeCache"]
