"""The per-token loop trainer FSST training ran on until it moved to arrays.

``repro.encodings.fsst.train_symbol_table`` parses and counts each generation
in NumPy; what it replaced — a Python statement per token, ``bytes``-keyed
count dicts, a ``sorted`` per generation — lives on here, verbatim, as the
reference its tables are held to bit for bit (``test_fsst_training.py``) and
as the parent-commit trainers the selection tests hold fixed.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.fsst import (
    _SCHEDULE,
    MAX_SYMBOL_LENGTH,
    MAX_SYMBOLS,
    SymbolTable,
    _take_sample,
)


def compress_counting(table: SymbolTable, data: bytes) -> tuple[dict[bytes, int], dict[bytes, int]]:
    """Greedy longest-match parse, counting symbol hits and adjacent concatenations.

    Returns ``(symbol_counts, pair_counts)`` where pair keys are the
    concatenated bytes of two adjacent matches (capped at 8 bytes); both
    dicts list their keys in first-occurrence scan order.
    """
    if not table.symbols:
        return _count_literals(data)
    singles: dict[bytes, int] = {}
    pairs: dict[bytes, int] = {}
    long_by_prefix = table._long_by_prefix
    short_codes = table._short_codes
    symbols = table.symbols
    startswith = data.startswith
    pos = 0
    n = len(data)
    last = n - 1
    prev: bytes | None = None
    while pos < n:
        first = data[pos]
        match = None
        if pos < last:
            cands = long_by_prefix.get((first << 8) | data[pos + 1])
            if cands is not None:
                for _code, length, sym in cands:
                    if length == 2 or startswith(sym, pos):
                        match = sym
                        break
        if match is None:
            code = short_codes[first]
            match = symbols[code] if code >= 0 else data[pos : pos + 1]
        singles[match] = singles.get(match, 0) + 1
        if prev is not None and len(prev) + len(match) <= MAX_SYMBOL_LENGTH:
            joined = prev + match
            pairs[joined] = pairs.get(joined, 0) + 1
        prev = match
        pos += len(match)
    return singles, pairs


def _count_literals(data: bytes) -> tuple[dict[bytes, int], dict[bytes, int]]:
    """:func:`compress_counting` against an empty table: every position is a
    1-byte literal, so singles are per-byte histograms and pairs adjacent
    2-byte histograms, listed in first-occurrence order like the loop's."""
    singles: dict[bytes, int] = {}
    pairs: dict[bytes, int] = {}
    codes = np.frombuffer(data, dtype=np.uint8)
    if codes.size == 0:
        return singles, pairs
    values, first_seen, counts = np.unique(codes, return_index=True, return_counts=True)
    for i in np.argsort(first_seen, kind="stable"):
        singles[bytes([values[i]])] = int(counts[i])
    if codes.size > 1:
        pair_keys = (codes[:-1].astype(np.int32) << 8) | codes[1:]
        values2, first_seen2, counts2 = np.unique(pair_keys, return_index=True, return_counts=True)
        for i in np.argsort(first_seen2, kind="stable"):
            key = int(values2[i])
            pairs[bytes([key >> 8, key & 0xFF])] = int(counts2[i])
    return singles, pairs


def ranked_candidates(table: SymbolTable, part: bytes) -> list[tuple[bytes, int]]:
    """``(candidate, gain)`` of one generation, best first: count ``part`` under
    ``table``, gain = frequency x length; the sort is stable, so ties keep the
    dicts' insertion order — singles before pairs, each in scan order."""
    singles, pairs = compress_counting(table, part)
    gains: dict[bytes, int] = {}
    for sym, freq in singles.items():
        gains[sym] = gains.get(sym, 0) + freq * len(sym)
    for sym, freq in pairs.items():
        gains[sym] = gains.get(sym, 0) + freq * len(sym)
    return sorted(gains.items(), key=lambda kv: kv[1], reverse=True)


def next_table(table: SymbolTable, part: bytes) -> SymbolTable:
    """One generation: the 255 highest-gain candidates."""
    return SymbolTable([sym for sym, _gain in ranked_candidates(table, part)[:MAX_SYMBOLS]])


def train_loop(buffer: bytes) -> SymbolTable:
    """``train_symbol_table`` as of PR 22: today's schedule, counted by the loop."""
    sample = _take_sample(buffer)
    chunk = -(-len(sample) // 8) or 1
    table = SymbolTable([])
    for share in _SCHEDULE:
        prefix = -(-chunk * share // 128)
        part = b"".join(sample[i : i + prefix] for i in range(0, len(sample), chunk))
        table = next_table(table, part)
    return table


def train_five_full_passes(buffer: bytes) -> SymbolTable:
    """The trainer before PR 22: every generation counts the whole sample."""
    sample = _take_sample(buffer)
    table = SymbolTable([])
    for _generation in range(5):
        table = next_table(table, sample)
    return table
