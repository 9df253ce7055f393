"""FSST training counts each generation on a growing share of its sample.

``train_symbol_table`` keeps the 8-chunk x 2 KiB sample but counts generation
*g* on the first ``_SCHEDULE[g] / 128`` of every chunk, as FSST's reference
construction does: every table but the last is replaced anyway. The trainer
this replaced — five full passes — lives on here as
:func:`train_five_full_passes` (the oracle ``tests/test_selection_filters.py``
holds the trainer to when it isolates the Frequency filter), and the
properties below hold for the new one on tiny, sub-sample and large buffers
and on data built from every adversarial table of ``tests/test_fsst.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings import fsst
from repro.encodings.fsst import (
    MAX_SYMBOL_LENGTH,
    MAX_SYMBOLS,
    SymbolTable,
    _take_sample,
    decode_stream_scalar,
    decode_stream_vectorized,
    train_symbol_table,
)
from repro.types import StringArray

from test_fsst import ADVERSARIAL_TABLES, _adversarial_data


def train_five_full_passes(buffer: bytes) -> SymbolTable:
    """The parent commit's trainer: every generation counts the whole sample."""
    sample = _take_sample(buffer)
    table = SymbolTable([])
    for _generation in range(5):
        singles, pairs = table.compress_counting(sample)
        gains: dict[bytes, int] = {}
        for sym, freq in singles.items():
            gains[sym] = gains.get(sym, 0) + freq * len(sym)
        for sym, freq in pairs.items():
            gains[sym] = gains.get(sym, 0) + freq * len(sym)
        best = sorted(gains.items(), key=lambda kv: kv[1], reverse=True)[:MAX_SYMBOLS]
        table = SymbolTable([sym for sym, _gain in best])
    return table


def _comment_bytes(rows: int) -> bytes:
    from repro.datagen.tpch import lineitem

    relation = lineitem(rows, np.random.default_rng([100, 0]))
    return next(c for c in relation.columns if c.name == "l_comment").data.buffer.tobytes()


def _buffers() -> dict[str, bytes]:
    rng = np.random.default_rng(22)
    comments = _comment_bytes(4096)  # ~110 KiB of TPC-H comment text
    buffers = {
        "empty": b"",
        "one_byte": b"x",
        "tiny_7": b"abcabca",
        "tiny_8": b"abcdefgh",  # one byte per chunk
        "tiny_127": comments[:127],
        "sub_sample_1k": comments[:1024],
        "sub_sample_16k_minus_1": comments[: 16 * 1024 - 1],
        "exactly_16k": comments[: 16 * 1024],
        "large_text": comments,
        "large_random": bytes(rng.integers(0, 256, 40_000, dtype=np.uint8)),
        "large_ff_chains": bytes(rng.integers(250, 256, 20_000, dtype=np.uint8)),
        "large_one_symbol": b"abcdefgh" * 4000,
    }
    for name, symbols in ADVERSARIAL_TABLES.items():
        buffers[f"adversarial_{name}"] = _adversarial_data(list(symbols), rng, pieces=400)
    return buffers


BUFFERS = _buffers()


def _counting_calls(monkeypatch, train, buffer: bytes) -> list[tuple[bytes, int, bool]]:
    """``(data counted on, tokens matched, went through the per-token loop)``
    for every generation of one training run."""
    calls = []
    real = SymbolTable.compress_counting

    def recording(self, data):
        singles, pairs = real(self, data)
        calls.append((data, sum(singles.values()), bool(self.symbols)))
        return singles, pairs

    monkeypatch.setattr(SymbolTable, "compress_counting", recording)
    try:
        train(buffer)
    finally:
        monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", sorted(BUFFERS))
def test_trained_table_is_well_formed_round_trips_and_is_deterministic(name):
    data = BUFFERS[name]
    table = train_symbol_table(data)
    assert len(table.symbols) <= MAX_SYMBOLS
    assert all(1 <= len(sym) <= MAX_SYMBOL_LENGTH for sym in table.symbols)
    assert len(set(table.symbols)) == len(table.symbols)
    assert train_symbol_table(data).symbols == table.symbols
    symbols = StringArray.from_pylist(table.symbols)
    stream = table.compress(data)
    assert decode_stream_scalar(stream, symbols).tobytes() == data
    assert decode_stream_vectorized(stream, symbols, len(data)).tobytes() == data


@pytest.mark.parametrize("name", sorted(BUFFERS))
def test_generations_count_on_growing_prefixes_and_the_last_on_the_whole_sample(name, monkeypatch):
    data = BUFFERS[name]
    sample = _take_sample(data)
    calls = _counting_calls(monkeypatch, train_symbol_table, data)
    counted = [part for part, _tokens, _loop in calls]
    assert len(counted) == len(fsst._SCHEDULE) == 5
    assert counted[-1] == sample
    assert [len(part) for part in counted] == sorted(len(part) for part in counted)
    # Each generation reads the same prefix share of *every* chunk, so an
    # early one already sees the far end of the block.
    chunk = -(-len(sample) // 8)
    for part, share in zip(counted, fsst._SCHEDULE):
        prefix = -(-chunk * share // 128)
        assert part == b"".join(sample[i : i + prefix] for i in range(0, len(sample), max(chunk, 1)))
    if len(sample) >= 8 * 128:
        assert len(counted[0]) <= len(sample) // 8  # 8/128 of each chunk, rounded up


def test_the_loop_visits_at_most_70_percent_of_the_old_token_count(monkeypatch):
    """Trace and count on a full 16 KiB sample: tokens the per-token Python
    loop matches, summed over the generations that run it (the empty-table
    first generation is a NumPy histogram under either trainer)."""
    data = BUFFERS["large_text"]
    assert len(_take_sample(data)) == 16 * 1024

    def loop_tokens(train) -> int:
        return sum(tokens for _part, tokens, loop in _counting_calls(monkeypatch, train, data) if loop)

    new, old = loop_tokens(train_symbol_table), loop_tokens(train_five_full_passes)
    assert 0 < new <= 0.7 * old


def test_the_schedule_costs_under_two_percent_of_stream_size_on_text():
    """What the shorter early generations give up, on the text the write
    benchmarks train on: the final table compresses within 2% of the
    five-full-pass table's stream (measured: -0.4% ... +0.4%)."""
    data = BUFFERS["large_text"]
    new = len(train_symbol_table(data).compress(data))
    old = len(train_five_full_passes(data).compress(data))
    assert new <= 1.02 * old


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=127))
def test_property_tiny_buffers(data):
    table = train_symbol_table(data)
    assert len(table.symbols) <= MAX_SYMBOLS
    assert all(1 <= len(sym) <= MAX_SYMBOL_LENGTH for sym in table.symbols)
    symbols = StringArray.from_pylist(table.symbols)
    assert decode_stream_vectorized(table.compress(data), symbols).tobytes() == data
    assert train_symbol_table(data).symbols == table.symbols


def test_tables_that_only_train_never_build_the_starter_lut():
    """Training constructs six tables per call and none of them encodes:
    the starter LUT belongs to ``_compress_loop`` alone and is built on its
    first ``_next_starter``."""
    data = BUFFERS["sub_sample_1k"]
    table = train_symbol_table(data)
    assert table._starter_lut is None
    table.compress_counting(data)
    table._compress_tokenizer(data)
    assert table._starter_lut is None
    table.compress(data)  # 1 KiB: the loop, >= 64 bytes so it asks for starters
    assert table._starter_lut is not None and table._starter_lut.dtype == np.bool_
    assert set(np.flatnonzero(table._starter_lut)) == {sym[0] for sym in table.symbols}
