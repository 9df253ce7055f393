"""Tests for the FSST string compression scheme."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings import fsst
from repro.encodings.base import SchemeId, get_scheme
from repro.encodings.fsst import (
    ESCAPE,
    MAX_SYMBOLS,
    SymbolTable,
    _escape_positions,
    decode_stream_scalar,
    decode_stream_vectorized,
    train_symbol_table,
)
from repro.exceptions import CorruptBlockError
from repro.types import StringArray

from conftest import scheme_round_trip

FSST = get_scheme(SchemeId.FSST)


class TestSymbolTable:
    def test_empty_table_escapes_everything(self):
        table = SymbolTable([])
        out = table.compress(b"ab")
        assert out == bytes([ESCAPE, ord("a"), ESCAPE, ord("b")])

    def test_longest_match_wins(self):
        table = SymbolTable([b"ab", b"abcd"])
        out = table.compress(b"abcdab")
        assert out == bytes([1, 0])

    def test_max_symbols_enforced(self):
        with pytest.raises(ValueError):
            SymbolTable([bytes([i]) for i in range(256)])

    def test_compress_decompress_identity(self):
        table = SymbolTable([b"http", b"://", b"www.", b".com"])
        data = b"http://www.example.com"
        stream = table.compress(data)
        symbols = StringArray.from_pylist(table.symbols)
        assert decode_stream_scalar(stream, symbols).tobytes() == data
        assert decode_stream_vectorized(stream, symbols).tobytes() == data


class TestTraining:
    def test_learns_repeated_substrings(self):
        data = b"https://example.com/page " * 500
        table = train_symbol_table(data)
        assert len(table.symbols) <= MAX_SYMBOLS
        compressed = table.compress(data)
        assert len(compressed) < len(data) / 3

    def test_handles_empty_input(self):
        table = train_symbol_table(b"")
        assert table.compress(b"") == b""

    def test_symbols_bounded_to_8_bytes(self):
        table = train_symbol_table(b"abcdefghijklmnop" * 300)
        assert all(1 <= len(s) <= 8 for s in table.symbols)


class TestEscapeResolution:
    def test_no_escapes(self):
        assert _escape_positions(np.array([1, 2, 3], dtype=np.uint8)).size == 0

    def test_single_escape(self):
        codes = np.array([1, ESCAPE, 65, 2], dtype=np.uint8)
        assert _escape_positions(codes).tolist() == [1]

    def test_escaped_255_literal(self):
        # ESCAPE followed by a literal 255 byte: only position 0 is an escape.
        codes = np.array([ESCAPE, ESCAPE, 3], dtype=np.uint8)
        assert _escape_positions(codes).tolist() == [0]

    def test_chain_of_escaped_255s(self):
        # Four 255s = two escape/literal pairs.
        codes = np.array([ESCAPE] * 4 + [1], dtype=np.uint8)
        assert _escape_positions(codes).tolist() == [0, 2]

    def test_odd_run_consumes_following_byte(self):
        # Three 255s: escapes at 0 and 2; the byte after the run is a literal.
        codes = np.array([ESCAPE] * 3 + [7], dtype=np.uint8)
        assert _escape_positions(codes).tolist() == [0, 2]

    def test_scalar_and_vectorized_agree_on_255_data(self):
        table = SymbolTable([])
        data = bytes([255, 255, 65, 255])
        stream = table.compress(data)
        symbols = StringArray.from_pylist([])
        assert decode_stream_scalar(stream, symbols).tobytes() == data
        assert decode_stream_vectorized(stream, symbols).tobytes() == data

    def test_truncated_escape_raises(self):
        symbols = StringArray.from_pylist([])
        with pytest.raises(CorruptBlockError):
            decode_stream_scalar(bytes([ESCAPE]), symbols)
        with pytest.raises(CorruptBlockError):
            decode_stream_vectorized(bytes([ESCAPE]), symbols)


class TestFSSTScheme:
    def test_round_trip_urls(self, url_strings):
        payload, out = scheme_round_trip(FSST, url_strings)
        assert out == url_strings
        assert len(payload) < url_strings.nbytes / 2

    def test_round_trip_scalar(self, url_strings):
        _, out = scheme_round_trip(FSST, url_strings, vectorized=False)
        assert out == url_strings

    def test_empty_strings_survive(self):
        sa = StringArray.from_pylist(["", "abc", "", "abcabc"] * 100)
        _, out = scheme_round_trip(FSST, sa)
        assert out == sa

    def test_binary_data_with_255_bytes(self):
        sa = StringArray.from_pylist([b"\xff\xff\x00data", b"\xffmore\xff"] * 100)
        _, out = scheme_round_trip(FSST, sa)
        assert out == sa

    def test_stores_only_uncompressed_lengths(self, url_strings):
        # Decoding needs the lengths child but no per-string offsets: the
        # scheme output must be smaller than lengths + offsets would allow.
        payload, out = scheme_round_trip(FSST, url_strings)
        assert out.lengths().tolist() == url_strings.lengths().tolist()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(max_size=30), min_size=1, max_size=60))
def test_property_fsst_round_trip(values):
    sa = StringArray.from_pylist(values)
    if sa.buffer.size < 16:
        return  # below the viability threshold; scheme never sees such blocks
    _, out = scheme_round_trip(FSST, sa)
    assert out == sa


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_property_stream_decoders_agree(data):
    table = train_symbol_table(data)
    stream = table.compress(data)
    symbols = StringArray.from_pylist(table.symbols)
    scalar = decode_stream_scalar(stream, symbols).tobytes()
    vectorized = decode_stream_vectorized(stream, symbols).tobytes()
    assert scalar == data
    assert vectorized == data


# Symbol tables a regex-compiled matcher could get wrong.
_METACHARS = rb".^$*+?{}[]\\|()-&~# " + b"\t\n\r\v\f"
ADVERSARIAL_TABLES = {
    "empty": [],
    "metachars": [bytes([c]) for c in _METACHARS]
    + [b".*", b"+?", b"(|)", b"[a-", b"-]", b"\\d", b"^$", b"{2}", b"(?:", b"a|b"],
    "newline_nul_ff": [b"\n", b"\x00", b"\xff\xff", b"\x00\n", b"\xff\x00\xff", b"a\nb"],
    # b"ab" is a proper prefix of b"abcdefgh", whose continuation only fails
    # at its last byte: the matcher must back up five bytes to b"ab".
    "late_backtrack": [b"ab", b"abcdefgh", b"abcx", b"cdefgh", b"c"],
    # No 1-byte fallback under a long symbol: a failed match escapes.
    "no_short_fallback": [b"abcd", b"bcde"],
    "nested_prefixes": [b"a", b"aa", b"aaa", b"aaaa", b"aaaaa", b"aaaaaa", b"aaaaaaa", b"aaaaaaaa"],
    "duplicates": [b"ab", b"ab", b"a", b"a", b"abc", b"abc"],
    "full_255": [bytes([i]) for i in range(150)]
    + [bytes([i, 255 - i]) for i in range(60)]
    + [bytes([i, i, i]) for i in range(45)],
}


def _adversarial_data(symbols: list[bytes], rng, pieces: int = 60) -> bytes:
    """Symbols, symbols cut short, and bytes from in and outside their alphabet."""
    alphabet = sorted(set(b"".join(symbols))) or [0x61]
    parts = []
    for _ in range(pieces):
        kind = rng.integers(0, 4)
        if symbols and kind <= 1:
            sym = symbols[rng.integers(0, len(symbols))]
            parts.append(sym if kind == 0 else sym[: rng.integers(0, len(sym) + 1)])
        elif kind == 2:
            parts.append(bytes([alphabet[rng.integers(0, len(alphabet))]]))
        else:
            parts.append(bytes(rng.integers(0, 256, rng.integers(1, 4), dtype=np.uint8)))
    return b"".join(parts)


class TestMatcherEquivalence:
    """The indexed loop and the tokenizer must equal a straightforward greedy scan.

    ``SymbolTable.compress`` dispatches between a candidate-index loop and,
    from ``_TOKENIZER_THRESHOLD`` bytes, the table compiled into a
    longest-match regular expression run over ``_TOKENIZER_CHUNK``-byte
    windows. Both are rewrites of the original per-byte matcher, whose
    semantics — longest match first, lowest code on ties, escape otherwise —
    this reference re-implements directly.
    """

    @staticmethod
    def _reference_compress(table: SymbolTable, data: bytes) -> bytes:
        out = bytearray()
        pos = 0
        while pos < len(data):
            best_code, best_len = None, 0
            for code, sym in enumerate(table.symbols):
                if len(sym) > best_len and data.startswith(sym, pos):
                    best_code, best_len = code, len(sym)
            if best_code is None:
                out += bytes([ESCAPE, data[pos]])
                pos += 1
            else:
                out.append(best_code)
                pos += best_len
        return bytes(out)

    def _assert_all_agree(self, table: SymbolTable, data: bytes) -> None:
        expected = self._reference_compress(table, data)
        assert table.compress(data) == expected
        assert table._compress_loop(data) == expected
        assert table._compress_tokenizer(data) == expected

    def _training_corpus(self, rng) -> bytes:
        words = [b"http", b"://", b"www.", b".com", b"/id/", b"abc", b"q=1", b"\xff\xff"]
        corpus = b"".join(words[i] for i in rng.integers(0, len(words), 2400))
        return corpus + bytes(rng.integers(0, 256, 800, dtype=np.uint8))  # escape runs

    def test_matches_reference_across_tokenizer_threshold(self, rng, monkeypatch):
        # A small crossover keeps the quadratic reference cheap; the real
        # constant is straddled (against the loop) in the test below.
        monkeypatch.setattr(fsst, "_TOKENIZER_THRESHOLD", 1024)
        monkeypatch.setattr(fsst, "_TOKENIZER_CHUNK", 512)
        corpus = self._training_corpus(rng)
        table = train_symbol_table(corpus)
        assert table.symbols, "training should learn symbols from this corpus"
        for size in (0, 1, 2, 63, 300, 1023, 1024, 1025, 1024 + 512, 4000):
            self._assert_all_agree(table, corpus[:size])
        assert table._tokenizer is not None, "sizes past the crossover take the tokenizer"

    def test_tokenizer_equals_loop_at_the_real_constants(self, rng):
        corpus = self._training_corpus(rng)
        table = train_symbol_table(corpus)
        data = corpus * (2 * fsst._TOKENIZER_CHUNK // len(corpus) + 2)
        sizes = [fsst._TOKENIZER_THRESHOLD + d for d in (-1, 0, 1)]
        sizes += [k * fsst._TOKENIZER_CHUNK + d for k in (1, 2) for d in (-8, -1, 0, 1, 8)]
        for size in sizes:
            assert table.compress(data[:size]) == table._compress_loop(data[:size]), size

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_TABLES))
    def test_adversarial_tables_at_every_chunk_offset(self, name, rng, monkeypatch):
        # 16-byte windows put a window edge at every offset of every symbol;
        # every prefix length ends the data mid-symbol somewhere.
        monkeypatch.setattr(fsst, "_TOKENIZER_CHUNK", 16)
        table = SymbolTable(list(ADVERSARIAL_TABLES[name]))
        data = _adversarial_data(table.symbols, rng)
        for size in range(0, min(len(data), 120)):
            self._assert_all_agree(table, data[:size])
        self._assert_all_agree(table, data)
        self._assert_all_agree(table, bytes(range(256)) * 2)

    def test_longest_match_crossing_a_window_edge(self, monkeypatch):
        monkeypatch.setattr(fsst, "_TOKENIZER_CHUNK", 32)
        table = SymbolTable(list(ADVERSARIAL_TABLES["late_backtrack"]))
        for shift in range(24, 41):  # b"abcdefgh" starts before, on and after the edge
            for tail in (b"abcdefgh", b"abcdefg", b"abcdefgX", b"ab"):
                data = b"x" * shift + tail
                self._assert_all_agree(table, data)
                self._assert_all_agree(table, data + b"cdefghab" * 9)

    def test_escape_only_data(self, monkeypatch):
        monkeypatch.setattr(fsst, "_TOKENIZER_CHUNK", 16)
        table = SymbolTable([b"ab", b"abcdefgh"])
        self._assert_all_agree(table, b"\xff" * 100)
        self._assert_all_agree(table, b"zyx\x00\n" * 30)

    @settings(max_examples=60, deadline=None)
    @given(
        symbols=st.lists(st.binary(min_size=1, max_size=8), max_size=40),
        picks=st.lists(st.integers(0, 10_000), max_size=80),
        noise=st.binary(max_size=40),
        chunk=st.integers(1, 48),
    )
    def test_property_tokenizer_equals_reference(self, symbols, picks, noise, chunk):
        table = SymbolTable(symbols)
        pool = symbols + [bytes([b]) for b in noise] or [b"a"]
        data = b"".join(pool[i % len(pool)] for i in picks) + noise
        with mock.patch.object(fsst, "_TOKENIZER_CHUNK", chunk):
            self._assert_all_agree(table, data)

    def test_tokenizer_patterns_do_not_accumulate(self):
        # One pattern per block: were they kept anywhere (re's module-wide
        # cache holds up to 512), traced memory would grow with every table
        # (~70 KiB over these 200; bypassing the cache leaves it flat).
        def tokenize_with_fresh_table(i: int) -> None:
            symbols = [b"%03d%c" % (i, c) for c in range(48, 80)] + [b"ab", b"abc"]
            SymbolTable(symbols)._compress_tokenizer(b"abc%03d!" % i * 8)

        tracemalloc.start()
        try:
            for i in range(20):
                tokenize_with_fresh_table(i)
            before, _peak = tracemalloc.get_traced_memory()
            for i in range(20, 220):
                tokenize_with_fresh_table(i)
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 16 * 1024

    def test_counting_preserves_first_occurrence_order(self, rng):
        # Training's gain sort is stable and ties break on first appearance,
        # so the reference trainer's vectorised empty-table counter must list
        # singles and pairs in first-occurrence scan order, like a naive loop.
        from fsst_reference import compress_counting

        data = bytes(rng.integers(0, 64, 1000, dtype=np.uint8))
        singles, pairs = compress_counting(SymbolTable([]), data)
        naive_singles, naive_pairs = {}, {}
        for i in range(len(data)):
            s = data[i : i + 1]
            naive_singles[s] = naive_singles.get(s, 0) + 1
            if i:
                p = data[i - 1 : i + 1]
                naive_pairs[p] = naive_pairs.get(p, 0) + 1
        assert list(singles.items()) == list(naive_singles.items())
        assert list(pairs.items()) == list(naive_pairs.items())


def _decode_both(stream: bytes, symbols: list[bytes]):
    """``(scalar, vectorised)`` outcomes: decoded bytes, or the error raised."""
    table = StringArray.from_pylist(symbols)
    outcomes = []
    for decode in (decode_stream_scalar, decode_stream_vectorized):
        try:
            outcomes.append(decode(stream, table).tobytes())
        except CorruptBlockError as exc:
            outcomes.append(exc)
    return outcomes


def _assert_decoders_agree(stream: bytes, symbols: list[bytes]):
    scalar, vectorised = _decode_both(stream, symbols)
    if isinstance(scalar, CorruptBlockError):
        assert isinstance(vectorised, CorruptBlockError), (stream, vectorised)
    else:
        assert vectorised == scalar, stream
    return scalar


class TestDecoderEquivalence:
    """The word-take decoder against the byte-by-byte one, kept as its oracle."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_TABLES))
    def test_adversarial_tables_round_trip_through_both(self, name, rng):
        table = SymbolTable(list(ADVERSARIAL_TABLES[name]))
        for _ in range(8):
            data = _adversarial_data(table.symbols, rng)
            assert _assert_decoders_agree(table.compress(data), table.symbols) == data

    def test_trained_tables(self, rng, url_strings):
        corpora = [
            url_strings.buffer.tobytes(),
            bytes(rng.integers(0, 256, 20_000, dtype=np.uint8)),  # nearly all escapes
            bytes(rng.integers(250, 256, 5_000, dtype=np.uint8)),  # chains of 0xFF
            b"abcdefgh" * 4000,  # only 8-byte symbols
        ]
        for data in corpora:
            table = train_symbol_table(data)
            assert _assert_decoders_agree(table.compress(data), table.symbols) == data

    @pytest.mark.parametrize("run", range(1, 9))
    @pytest.mark.parametrize("tail", [b"", b"\x00", b"\x01\x00"], ids=["end", "sym", "syms"])
    def test_escape_chains_of_every_parity(self, run, tail):
        # ``run`` 255s then ``tail``: an even run is run/2 escaped 0xFF
        # literals; an odd one's last escape consumes tail's first byte, or
        # is an escape at the end of the stream.
        symbols = [b"<zero>", b"<one>"]
        outcome = _assert_decoders_agree(bytes([ESCAPE]) * run + tail, symbols)
        if run % 2 and not tail:
            assert isinstance(outcome, CorruptBlockError)
        elif run % 2:
            assert outcome == b"\xff" * (run // 2) + tail[:1] + b"<zero>" * (len(tail) - 1)
        else:
            assert outcome == b"\xff" * (run // 2) + {0: b"", 1: b"<zero>", 2: b"<one><zero>"}[len(tail)]

    def test_runs_separated_by_symbols_and_literals(self):
        symbols = [b"ab", b"c"]
        stream = bytes([0, 255, 255, 1, 255, 7, 255, 255, 255, 255, 0, 255, 254, 255, 255, 255, 0])
        want = b"ab\xffc\x07\xff\xffab\xfe\xff\x00"
        assert _assert_decoders_agree(stream, symbols) == want

    def test_escape_as_last_byte_is_corrupt(self):
        for stream in (bytes([ESCAPE]), bytes([0, 0, ESCAPE]), bytes([ESCAPE, ESCAPE, ESCAPE])):
            scalar, vectorised = _decode_both(stream, [b"sym"])
            assert "escape at end" in str(scalar) and "escape at end" in str(vectorised)

    def test_empty_symbol_table(self):
        assert _assert_decoders_agree(bytes([255, 65, 255, 255, 255, 0]), []) == b"A\xff\x00"
        assert _assert_decoders_agree(b"", []) == b""

    def test_literals_only_under_a_full_table(self):
        symbols = ADVERSARIAL_TABLES["full_255"]
        assert len(symbols) == MAX_SYMBOLS
        stream = b"".join(bytes([ESCAPE, b]) for b in range(256))
        assert _assert_decoders_agree(stream, symbols) == bytes(range(256))
        every_code = bytes(range(255))
        assert _assert_decoders_agree(every_code, symbols) == b"".join(symbols)

    @pytest.mark.parametrize("symbols", [[], [b"a"], [b"a", b"bcdefghi"[:8], b"xyz"]], ids=len)
    def test_code_outside_the_symbol_table_raises_the_scalar_error(self, symbols):
        # Formerly the vectorised decoder decoded unknown codes to nothing.
        n = len(symbols)
        for stream in (bytes([n]), bytes([254]), bytes([ESCAPE, 65, n, ESCAPE, 66])):
            scalar, vectorised = _decode_both(stream, symbols)
            assert isinstance(scalar, CorruptBlockError)
            assert str(vectorised) == str(scalar)
            assert "outside symbol table" in str(scalar)
        # ...while the same byte values as escaped literals are data.
        stream = bytes([ESCAPE, n, ESCAPE, 254])
        assert _assert_decoders_agree(stream, symbols) == bytes([n, 254])

    def test_expected_size_is_checked_before_any_output_exists(self, monkeypatch):
        symbols = StringArray.from_pylist([b"12345678"])
        stream = bytes(1000)
        assert decode_stream_vectorized(stream, symbols, expected_size=8000).size == 8000
        monkeypatch.setattr(fsst.strutil, "compact_words", None)  # would raise if reached
        for wrong in (0, 7999, 8001):
            with pytest.raises(CorruptBlockError, match="does not match string lengths"):
                decode_stream_vectorized(stream, symbols, expected_size=wrong)

    @settings(max_examples=200, deadline=None)
    @given(
        symbols=st.lists(st.binary(min_size=0, max_size=8), max_size=12),
        stream=st.lists(
            st.one_of(st.integers(0, 14), st.sampled_from([ESCAPE, ESCAPE, 254, 128])), max_size=60
        ),
    )
    def test_property_arbitrary_streams(self, symbols, stream):
        """Any byte stream over any table: same bytes, or both reject it."""
        _assert_decoders_agree(bytes(stream), symbols)


class TestDecodeStructure:
    """The vectorised block decode moves words, not rows or bytes, in Python."""

    @staticmethod
    def _comment_block(rows: int) -> StringArray:
        from repro.datagen.tpch import lineitem

        relation = lineitem(rows, np.random.default_rng([100, 0]))
        return next(c for c in relation.columns if c.name == "l_comment").data

    @staticmethod
    def _compressed(values: StringArray) -> bytes:
        from repro.core.compressor import make_context
        from repro.core.selector import SchemeSelector

        return FSST.compress(values, make_context(SchemeSelector()))

    @staticmethod
    def _decode(payload: bytes, count: int) -> StringArray:
        from repro.core.decompressor import make_context

        return FSST.decompress(payload, count, make_context(True))

    def test_decode_splits_and_rebuilds_no_python_rows(self, monkeypatch):
        values = self._comment_block(2048)
        payload = self._compressed(values)
        calls = []
        for name in ("to_pylist", "from_pylist"):
            monkeypatch.setattr(
                StringArray, name, lambda *args, _name=name, **kwargs: calls.append(_name)
            )
        out = self._decode(payload, len(values))
        assert calls == []
        assert np.array_equal(out.buffer, values.buffer)
        assert np.array_equal(out.offsets, values.offsets)

    def test_python_lines_do_not_grow_with_the_block(self):
        import sys

        from repro.encodings import strutil

        files = {fsst.__file__, strutil.__file__}

        def lines_run(rows: int) -> int:
            values = self._comment_block(rows)
            payload = self._compressed(values)
            lines = 0

            def tracer(frame, event, arg):
                nonlocal lines
                if frame.f_code.co_filename not in files:
                    return None
                if event == "line":
                    lines += 1
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                out = self._decode(payload, len(values))
            finally:
                sys.settrace(previous)
            assert out == values
            return lines

        assert lines_run(2048) == lines_run(65_536)

    def test_peak_allocation_per_output_byte_is_no_higher_than_the_index_kernel(self):
        """The per-byte-index decoder peaked at 17.7 traced bytes per output
        byte on an ``l_comment`` block (int64 tokens + int32 byte index); the
        word decoder's padded bytes, masks and ``compress``'s transient index
        must stay below that."""
        values = self._comment_block(16_384)
        payload = self._compressed(values)
        self._decode(payload, len(values))  # warm caches outside the trace
        tracemalloc.start()
        try:
            out = self._decode(payload, len(values))
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == values
        assert peak / values.buffer.size <= 17.7
