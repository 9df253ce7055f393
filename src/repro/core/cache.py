"""Bounded byte-budget caches for the remote scan path.

Two consumers share the same LRU core:

* :class:`ByteBudgetLRU` — a thread-safe mapping capped by the *byte size*
  of its values rather than an entry count. :class:`~repro.cloud.
  remote_table.RemoteTable` bounds its downloaded-column cache with one so
  a wide-table scan cannot hold every compressed column in memory forever.
* :class:`DecodeCache` — decoded block values of all three column types,
  keyed by ``(object key, version, block index, checksum)``. Re-scanning a
  remote column, or reading rows of it, serves previously decoded blocks
  (numbers with one ``memcpy`` into the preallocated output, strings with
  one rebase of their offsets into the column's) instead of a cascade
  decode.

Both record ``{prefix}.hit`` / ``{prefix}.miss`` / ``{prefix}.evict``
counters into the active metrics registry, resolved at call time so
:func:`~repro.observe.use_registry` scopes apply.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
        if self.metric_prefix is not None:
            get_registry().incr(
                f"{self.metric_prefix}.hit" if entry is not None else f"{self.metric_prefix}.miss"
            )
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


class DecodeCache:
    """Bounded cache of *successfully* decoded block values.

    Keys must identify the exact bytes that were decoded — callers use
    ``(object key, version, block index, checksum)``, where the CRC32 is
    seeded with the block's declared count, so a block whose payload (or
    count) changed can never alias a stale entry. Only checksummed (v2)
    blocks are worth caching: without a checksum in the key, an object
    overwritten in place could serve stale rows. Corrupt or degraded
    blocks are never inserted, and a *hit* still requires the block in
    hand to pass its checksum — a damaged download therefore degrades
    through ``on_corrupt`` exactly as it would without the cache.

    Entries are read-only copies that own their memory — a number block one
    array, a string block two plain columns (Rozenberg): its ``buffer`` and
    its ``offsets`` in the narrowest unsigned dtype that holds them, charged
    at the bytes of both — so nothing cached is a view onto a block payload
    or can be mutated through a served value. (The representation is a
    measured choice: docs/PERFORMANCE.md §5 has the three candidates.)
    """

    def __init__(self, capacity_bytes: int, metric_prefix: str = "decode.cache") -> None:
        self._lru = ByteBudgetLRU(capacity_bytes)  # hits are counted here, when served
        self.metric_prefix = metric_prefix

    @property
    def capacity_bytes(self) -> int:
        return self._lru.capacity_bytes

    @property
    def current_bytes(self) -> int:
        return self._lru.current_bytes

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def lookup(self, key: Hashable, block, verify) -> "np.ndarray | tuple[np.ndarray, np.ndarray] | None":
        """The cached values of ``block`` if they may be served, else ``None``.

        Served means present, as long as the block in hand declares (the
        count its caller held to its own limits) and ``verify(block)`` — the
        caller's ``verify_block`` — passing on the bytes in hand.
        ``{prefix}.hit`` counts exactly the served look-ups, ``{prefix}.miss``
        the rest, which the caller decodes. The entry comes back as stored
        and read-only: a number block's array (copy it out), a string
        block's ``(buffer, offsets)`` pair with the offsets still narrow —
        what a column assembler rebases straight into its own offsets
        (:class:`~repro.encodings.strutil.StringSlots`); wrap it in a
        ``StringArray`` only to read rows out of it. No ``encode_distinct``
        memo can ride on cache memory.
        """
        entry = self._lru.get(key)
        served = entry is not None and entry[0] == block.count and verify(block)
        get_registry().incr(f"{self.metric_prefix}.{'hit' if served else 'miss'}")
        if not served:
            return None
        return entry[1]

    def put(self, key: Hashable, values: "np.ndarray | StringArray") -> None:
        """Cache a read-only copy of one block's decoded values."""
        if isinstance(values, StringArray):
            narrow = np.min_scalar_type(values.buffer.size)
            stored = (_frozen(values.buffer.copy()), _frozen(values.offsets.astype(narrow)))
            nbytes = stored[0].nbytes + stored[1].nbytes
        else:
            stored = _frozen(np.array(values, copy=True))
            nbytes = stored.nbytes
        evicted = self._lru.put(key, (len(values), stored), nbytes)
        if evicted:
            get_registry().incr(f"{self.metric_prefix}.evict", evicted)

    def clear(self) -> None:
        self._lru.clear()


__all__ = ["ByteBudgetLRU", "DecodeCache"]
