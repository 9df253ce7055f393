"""FSST training: the schedule it counts on, and the arrays it counts in.

``train_symbol_table`` keeps the 8-chunk x 2 KiB sample but counts generation
*g* on the first ``_SCHEDULE[g] / 128`` of every chunk, as FSST's reference
construction does: every table but the last is replaced anyway. Each
generation is parsed and counted in NumPy; the per-token loop that did it
before lives on in ``tests/fsst_reference.py`` — ``train_loop`` (same
schedule: the tables must be *equal*, symbol for symbol and in order) and
``train_five_full_passes`` (the trainer before the schedule, the oracle
``tests/test_selection_filters.py`` holds the trainer to when it isolates the
Frequency filter). The properties below hold on tiny, sub-sample and large
buffers, on data built from every adversarial table of ``tests/test_fsst.py``
and on the benchmark's own string columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsst_reference
from fsst_reference import train_five_full_passes, train_loop
from repro.encodings import fsst
from repro.encodings.fsst import (
    MAX_SYMBOL_LENGTH,
    MAX_SYMBOLS,
    _take_sample,
    decode_stream_scalar,
    decode_stream_vectorized,
    train_symbol_table,
)
from repro.types import ColumnType, StringArray

from test_fsst import ADVERSARIAL_TABLES, _adversarial_data


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


def _generation_parts(monkeypatch, buffer: bytes) -> list[bytes]:
    """The ``part`` every generation of one ``train_symbol_table`` run counts on."""
    parts = []
    real = fsst._next_generation

    def recording(part, words, lens):
        parts.append(part)
        return real(part, words, lens)

    monkeypatch.setattr(fsst, "_next_generation", recording)
    try:
        train_symbol_table(buffer)
    finally:
        monkeypatch.undo()
    return parts


def _parsed_tokens(monkeypatch, train, buffer: bytes) -> int:
    """Tokens one training run parses against a non-empty table (the first
    generation's table is empty under either trainer: a histogram, no parse)."""
    tokens = []
    real_parse, real_counting = fsst._greedy_parse, fsst_reference.compress_counting

    def recording_parse(length):
        starts = real_parse(length)
        tokens.append(len(starts))
        return starts

    def recording_counting(table, data):
        singles, pairs = real_counting(table, data)
        if table.symbols:
            tokens.append(sum(singles.values()))
        return singles, pairs

    monkeypatch.setattr(fsst, "_greedy_parse", recording_parse)
    monkeypatch.setattr(fsst_reference, "compress_counting", recording_counting)
    try:
        train(buffer)
    finally:
        monkeypatch.undo()
    return sum(tokens)


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
    counted = _generation_parts(monkeypatch, data)
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
    """Trace and count on a full 16 KiB sample: tokens parsed (the orbit's
    size, one list index each), summed over the generations that parse,
    against the tokens the five-full-pass loop matched one statement at a
    time. The loop under today's schedule parses exactly as many."""
    data = BUFFERS["large_text"]
    assert len(_take_sample(data)) == 16 * 1024
    new = _parsed_tokens(monkeypatch, train_symbol_table, data)
    old = _parsed_tokens(monkeypatch, train_five_full_passes, data)
    assert 0 < new <= 0.7 * old
    assert new == _parsed_tokens(monkeypatch, train_loop, data)


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
    """Training hands arrays from generation to generation and builds its one
    ``SymbolTable`` last, without encoding: the starter LUT belongs to
    ``_compress_loop`` alone and is built on its first ``_next_starter``."""
    data = BUFFERS["sub_sample_1k"]
    table = train_symbol_table(data)
    assert table._starter_lut is None
    table._compress_tokenizer(data)
    assert table._starter_lut is None
    table.compress(data)  # 1 KiB: the loop, >= 64 bytes so it asks for starters
    assert table._starter_lut is not None and table._starter_lut.dtype == np.bool_
    assert set(np.flatnonzero(table._starter_lut)) == {sym[0] for sym in table.symbols}


# -- the array trainer is the loop trainer, table for table ---------------------


def assert_same_table(data: bytes):
    assert train_symbol_table(data).symbols == train_loop(data).symbols


@pytest.mark.parametrize("name", sorted(BUFFERS))
def test_tables_equal_the_loops(name):
    data = BUFFERS[name]
    assert_same_table(data)
    for cut in (1, 2, 9, 300, 1300, 4096):  # the last bytes of a short buffer end mid-symbol
        assert_same_table(data[:cut])


def test_tables_equal_the_loops_on_every_lakebench_string_column(lakebench):
    columns = 0
    for relation in lakebench.relations(100).values():
        for column in relation.columns:
            if column.ctype is ColumnType.STRING:
                buffer = column.data.buffer.tobytes()
                assert_same_table(buffer)
                assert_same_table(buffer[: len(buffer) // 29])  # about one 2,048-row block
                columns += 1
    assert columns >= 3 * lakebench.partitions


@pytest.mark.parametrize("seed", range(1, 7))
def test_ties_at_the_cut_keep_first_appearance_order(seed, monkeypatch):
    """Every byte value once per 256 bytes: gains are small multiples of a
    length, far more than 255 candidates share them, and the table is decided
    by the order candidates first appeared in — singles before pairs."""
    rng = np.random.default_rng(seed)
    data = b"".join(rng.permutation(256).astype(np.uint8).tobytes() for _ in range(1 + 2 * seed))
    tied_cuts = []
    real = fsst_reference.ranked_candidates

    def recording(table, part):
        ranked = real(table, part)
        tied_cuts.append(len(ranked) > MAX_SYMBOLS and ranked[MAX_SYMBOLS - 1][1] == ranked[MAX_SYMBOLS][1])
        return ranked

    monkeypatch.setattr(fsst_reference, "ranked_candidates", recording)
    assert_same_table(data)
    assert any(tied_cuts)


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=20_000))
def test_property_tables_equal_the_loops_on_any_bytes(data):
    assert_same_table(data)


#: Symbols that differ only in trailing zero bytes, 0xFF runs, a pair whose
#: concatenation is another symbol (ab + ab), 8-byte symbols and their prefixes.
PIECES = [
    b"\x00", b"\xff", b"a", b"b", b"a\x00", b"a\x00\x00", b"\x00a", b"ab", b"ba", b"abab",
    b"\xff\xff\xff", b"\xfa\xfb", b"abcdefg", b"abcdefg\x00", b"abcdefgh", b"\x00" * 8,
]


@settings(max_examples=120, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(PIECES), max_size=300),
    repeat=st.integers(1, 60),
    tail=st.binary(max_size=9),
)
def test_property_tables_equal_the_loops_on_small_alphabets(pieces, repeat, tail):
    assert_same_table(b"".join(pieces) * repeat + tail)
