"""Fast Static Symbol Table (FSST) string compression.

FSST (Boncz, Neumann, Leis [26]) replaces frequently occurring substrings of
up to 8 bytes with 1-byte codes from an immutable, 255-entry symbol table
built per block. Code 255 is an escape: the next stream byte is a literal.

This is a from-scratch implementation of the same format:

* **Training** follows the FSST bottom-up construction: several generations
  of (a) parsing a sample with the current table while counting symbol
  hits and adjacent-symbol pairs, then (b) keeping the 255 highest-gain
  candidates (gain = frequency x length). A generation is whole-array work
  on ``(word, length)`` keys; only the final table becomes ``bytes``.
* **Compression** greedily emits the longest matching symbol per position.
  Small buffers walk a first-two-byte candidate index; large ones are
  tokenised by the symbol table compiled into one longest-match byte-trie
  regular expression, so no Python statement runs per token.
* **Decompression** follows the paper's BtrBlocks integration (Section 5):
  the whole block is decoded as one stream (no per-string API calls) and only
  *uncompressed* string lengths are stored — compressed offsets are not
  needed. The vectorised decoder resolves escapes with run arithmetic, takes
  one 8-byte word and one keep-mask per token from a 512-row table and
  compacts the kept bytes once; the scalar fallback walks the stream byte by
  byte.
"""

from __future__ import annotations

import re

import numpy as np

from repro.encodings import strutil
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    deliver,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
from repro.types import ColumnType, StringArray

try:  # re.compile minus its module-wide cache, where a pattern per block would pile up
    from re import _compiler as _sre_compile
except ImportError:  # Python 3.10
    import sre_compile as _sre_compile

ESCAPE = 255
MAX_SYMBOLS = 255
MAX_SYMBOL_LENGTH = 8
#: 128ths of each sample chunk a training generation counts on, as in FSST's
#: reference construction: every table but the last is replaced anyway.
_SCHEDULE = (8, 38, 68, 98, 128)
_SAMPLE_TARGET = 16 * 1024
#: FSST is not estimated beside a viable Dictionary whose dedupe saving per
#: row is at least this many code widths. Measured from both sides
#: (docs/PERFORMANCE.md section 3): FSST's lead on its best text is 7% at 3.4
#: and under 4% from 3.7 up; one-byte flags with 3-4 values read just under
#: 4.0, where FSST is 1.5x Dictionary.
MIN_DEDUPE_SAVING = 3.75
#: Buffers at least this large amortise compiling the tokenizer pattern
#: (~3 ms per table; measured crossover, docs/PERFORMANCE.md section 2).
_TOKENIZER_THRESHOLD = 64 * 1024
#: Tokenizer window: bounds the token list (unbounded, ~12% peak RSS).
_TOKENIZER_CHUNK = 128 * 1024


class SymbolTable:
    """An immutable FSST symbol table: code -> byte string (1..8 bytes).

    Matching priority is longest-first, then lowest code. The matcher keys
    symbols of length >= 2 by their first *two* bytes so a single dict probe
    rules out nearly every candidate; 1-byte symbols live in a flat 256-entry
    code array. A per-call "next possible match" index lets runs of bytes
    that start no symbol be emitted as escapes in one batch instead of two
    appends per byte.

    For large buffers :meth:`compress` compiles the table (once, lazily)
    into a tokenizer: a byte-trie regular expression whose ``findall`` yields
    exactly the greedy parse, plus a token -> output-bytes map.
    """

    __slots__ = (
        "symbols",
        "_long_by_prefix",
        "_short_codes",
        "_starter_lut",
        "_tokenizer",
    )

    def __init__(self, symbols: list[bytes]):
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError("at most 255 symbols")
        self.symbols = symbols
        long_by_prefix: dict[int, list[tuple[int, int, bytes]]] = {}
        short_codes = [-1] * 256
        for code, sym in enumerate(symbols):
            if len(sym) == 1:
                if short_codes[sym[0]] < 0:
                    short_codes[sym[0]] = code
            else:
                key = (sym[0] << 8) | sym[1]
                long_by_prefix.setdefault(key, []).append((code, len(sym), sym))
        for entries in long_by_prefix.values():
            entries.sort(key=lambda e: (-e[1], e[0]))
        self._long_by_prefix = long_by_prefix
        self._short_codes = short_codes
        self._starter_lut: np.ndarray | None = None  # built by the one reader, _next_starter
        self._tokenizer: tuple | None = None

    def _build_tokenizer(self) -> tuple:
        """``(findall, emit, lookahead)`` for :meth:`_compress_tokenizer`.

        The pattern is the symbols' byte trie as nested alternations, every
        node's children *before* its own end, so backtracking stops at the
        longest symbol prefixing the input; the last top-level alternative
        is "any byte". ``emit`` maps a token to its output: the symbol's
        (lowest) code, or the escape pair. ``lookahead`` is the longest symbol.
        """
        trie: dict = {}
        emit: dict[bytes, bytes] = {}
        for code, sym in enumerate(self.symbols):
            emit.setdefault(sym, bytes([code]))  # lowest code wins a tie
            node = trie
            for byte in sym:
                node = node.setdefault(byte, {})
            node[None] = True  # a symbol ends here
        for byte in range(256):
            emit.setdefault(bytes([byte]), bytes([ESCAPE, byte]))
        branches = _trie_branches(trie) + [rb"[\x00-\xff]"]
        findall = _sre_compile.compile(b"|".join(branches), 0).findall
        return findall, emit, max(map(len, self.symbols), default=1)

    def _next_starter(self, data: bytes) -> "np.ndarray | None":
        """``next_starter[i]`` = first position >= i whose byte can start a
        symbol (``len(data)`` past the last). ``None`` when every byte can."""
        if self._starter_lut is None:
            self._starter_lut = np.zeros(256, dtype=bool)
            self._starter_lut[[sym[0] for sym in self.symbols]] = True
        codes = np.frombuffer(data, dtype=np.uint8)
        starter = self._starter_lut[codes]
        if starter.all():
            return None
        idx = np.where(starter, np.arange(codes.size, dtype=np.int64), codes.size)
        ns = np.minimum.accumulate(idx[::-1])[::-1]
        return np.append(ns, codes.size)

    def compress(self, data: bytes) -> bytes:
        """Greedy longest-match encoding of a byte string."""
        if len(data) >= _TOKENIZER_THRESHOLD:
            return self._compress_tokenizer(data)
        return self._compress_loop(data)

    def _compress_loop(self, data: bytes) -> bytes:
        """The indexed per-token loop: small buffers, and the tokenizer's oracle."""
        n = len(data)
        out = bytearray()
        long_by_prefix = self._long_by_prefix
        short_codes = self._short_codes
        next_starter = self._next_starter(data) if n >= 64 else None
        append = out.append
        startswith = data.startswith
        pos = 0
        last = n - 1
        while pos < n:
            first = data[pos]
            if pos < last:
                cands = long_by_prefix.get((first << 8) | data[pos + 1])
                if cands is not None:
                    matched = False
                    for code, length, sym in cands:
                        # Length-2 candidates already matched via the key.
                        if length == 2 or startswith(sym, pos):
                            append(code)
                            pos += length
                            matched = True
                            break
                    if matched:
                        continue
            code = short_codes[first]
            if code >= 0:
                append(code)
                pos += 1
            elif next_starter is None:
                append(ESCAPE)
                append(first)
                pos += 1
            else:
                # This byte escapes, and so does every following byte that
                # cannot start a symbol: emit the whole run in one batch.
                stop = int(next_starter[pos + 1])
                seg = data[pos:stop]
                esc = bytearray(2 * len(seg))
                esc[::2] = b"\xff" * len(seg)
                esc[1::2] = seg
                out += esc
                pos = stop
        return bytes(out)

    def _compress_tokenizer(self, data: bytes) -> bytes:
        """Large-buffer path: tokenise and emit inside C loops.

        Each window's ``findall`` may read ``lookahead`` bytes past ``stop``;
        tokens that *start* at or after ``stop`` are dropped and re-parsed by
        the next window, so every kept token matched with its full lookahead
        in view and the windowed parse equals the unbounded one.
        """
        if self._tokenizer is None:
            self._tokenizer = self._build_tokenizer()
        findall, emit, lookahead = self._tokenizer
        out = bytearray()
        pos = 0
        while pos < len(data):
            stop = pos + _TOKENIZER_CHUNK
            tokens = findall(data, pos, stop + lookahead)
            pos = min(stop + lookahead, len(data))  # any byte matches: tokens tile the window
            while pos - len(tokens[-1]) >= stop:
                pos -= len(tokens.pop())
            out += b"".join(map(emit.__getitem__, tokens))
        return bytes(out)


_ESCAPED_BYTES = [re.escape(bytes([byte])) for byte in range(256)]


def _trie_branches(node: dict) -> list[bytes]:
    """One regex alternative per child byte of a symbol-trie node, the leaves
    among them as one character class (siblings differ in this byte, so their
    order cannot change the parse)."""
    branches, leaves = [], []
    for byte, child in node.items():
        if byte is None:
            continue
        if len(child) == 1 and None in child:
            leaves.append(_ESCAPED_BYTES[byte])
            continue
        tails = _trie_branches(child)
        if None in child:
            tails.append(b"")  # tried last: the symbol ending here
        tail = tails[0] if len(tails) == 1 else b"(?:" + b"|".join(tails) + b")"
        branches.append(_ESCAPED_BYTES[byte] + tail)
    if len(leaves) > 1:
        return branches + [b"[" + b"".join(leaves) + b"]"]
    return branches + leaves


def _take_sample(buffer: bytes, target: int = _SAMPLE_TARGET) -> bytes:
    """Up to ``target`` bytes spread across the buffer in 8 chunks."""
    if len(buffer) <= target:
        return buffer
    chunk = target // 8
    stride = len(buffer) // 8
    parts = [buffer[i * stride : i * stride + chunk] for i in range(8)]
    return b"".join(parts)


#: ``_LOW_BYTES[n]``: the low ``n`` bytes of a little-endian 8-byte window.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(MAX_SYMBOL_LENGTH + 1)], dtype="<u8")


def _match_lengths(windows: np.ndarray, words: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Length of the longest symbol of ``(words, lens)`` at every position, 1 where
    none matches: one pass per symbol length, longest first, over the positions
    whose 2-byte prefix starts such a symbol and that no longer symbol claimed."""
    n = windows.size
    length = np.ones(n, dtype=np.uint8)
    # Bit L of a 2-byte prefix: a symbol of length L starts with it.
    prefixes = np.zeros(1 << 16, dtype=np.uint16)
    np.bitwise_or.at(prefixes, words.astype(np.uint16), np.left_shift(1, lens, dtype=np.uint16))
    unclaimed = prefixes.take(windows.astype(np.uint16))
    for size in range(MAX_SYMBOL_LENGTH, 1, -1):
        symbols = words[lens == size]
        if not symbols.size:
            continue
        fits = max(n - size + 1, 0)  # the zero padding past the end is not data
        at = np.flatnonzero(unclaimed[:fits] & (1 << size))
        if size > 2:  # a 2-byte symbol is its prefix
            symbols.sort()
            window = windows[at] & _LOW_BYTES[size]
            slot = np.minimum(symbols.searchsorted(window), symbols.size - 1)
            at = at[symbols[slot] == window]
        length[at] = size
        unclaimed[at] = 0
    return length


def _greedy_parse(length: np.ndarray) -> list[int]:
    """Token start positions: the orbit of 0 under ``i -> i + length[i]``."""
    steps = length.tolist()
    count = len(steps)
    starts = []
    append = starts.append
    pos = 0
    while pos < count:
        append(pos)
        pos += steps[pos]
    return starts


def _next_generation(part: bytes, words: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``part`` with the table ``(words, lens)`` — symbols as zero-padded
    little-endian ``uint64`` — and keep the 255 highest-gain candidates.

    Candidates are the parse's tokens, then its adjacent pairs of at most 8
    bytes, each in scan order; gain = frequency x length (a 1-byte symbol
    saves the escape byte, a longer one its length minus the output code)
    and ties keep first-appearance order.
    """
    if not part:
        return words, lens
    # The 8 bytes at every position as one word, zeros past the end: what
    # ``strutil.pool_words`` reads, for every start and without its index.
    windows = np.ndarray(len(part), "<u8", part + bytes(MAX_SYMBOL_LENGTH - 1), strides=(1,)).copy()
    if words.size:
        length = _match_lengths(windows, words, lens)
        starts = np.array(_greedy_parse(length), dtype=np.intp)
        token_lens = length[starts]
        tokens = windows[starts] & _LOW_BYTES[token_lens]
    else:  # every byte is a literal
        token_lens = np.ones(windows.size, dtype=np.uint8)
        tokens = windows & _LOW_BYTES[1]
    pair_lens = token_lens[:-1] + token_lens[1:]
    first = np.flatnonzero(pair_lens <= MAX_SYMBOL_LENGTH)
    pairs = tokens[first] | (tokens[first + 1] << (8 * token_lens[first]).astype("<u8"))
    cand_words = np.concatenate((tokens, pairs))
    cand_lens = np.concatenate((token_lens, pair_lens[first]))
    order = np.lexsort((cand_words, cand_lens))  # stable: a group's first row is its first appearance
    cand_words, cand_lens = cand_words[order], cand_lens[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (cand_words[1:] != cand_words[:-1]) | (cand_lens[1:] != cand_lens[:-1])
    heads = np.flatnonzero(new)
    counts = np.diff(np.append(heads, order.size))
    seen = np.argsort(order[heads])  # first appearance: tokens before pairs, each in scan order
    heads, counts = heads[seen], counts[seen]
    gains = counts * cand_lens[heads]
    best = heads[np.argsort(-gains, kind="stable")[:MAX_SYMBOLS]]
    return cand_words[best], cand_lens[best]


def train_symbol_table(buffer: bytes) -> SymbolTable:
    """Build a symbol table with the FSST bottom-up iteration.

    Each generation counts on a growing prefix of *every* sample chunk, so
    all of them see the block's whole spread and the last the whole sample.
    Generations hand each other arrays; only the last table becomes ``bytes``.
    """
    sample = _take_sample(buffer)
    chunk = -(-len(sample) // 8) or 1
    words, lens = np.empty(0, dtype="<u8"), np.empty(0, dtype=np.uint8)
    for share in _SCHEDULE:
        prefix = -(-chunk * share // 128)
        part = b"".join(sample[i : i + prefix] for i in range(0, len(sample), chunk))
        words, lens = _next_generation(part, words, lens)
    raw = words.tobytes()
    return SymbolTable([raw[8 * i : 8 * i + size] for i, size in enumerate(lens.tolist())])


def _escape_positions(codes: np.ndarray) -> np.ndarray:
    """Positions of escape bytes, resolving chains of 255s with run parity.

    Within a maximal run of 255 bytes, escapes sit at even offsets; an
    odd-length run's final escape consumes the byte after the run. Only the
    255 bytes themselves are touched, never a stream-length temporary.
    """
    candidates = np.flatnonzero(codes == ESCAPE)
    if candidates.size < 2:
        return candidates
    run_start = candidates.copy()
    run_start[1:][candidates[1:] == candidates[:-1] + 1] = 0  # inside a run
    np.maximum.accumulate(run_start, out=run_start)
    return candidates[((candidates - run_start) & 1) == 0]


def decode_stream_vectorized(
    stream: bytes, symbols: StringArray, expected_size: "int | None" = None
) -> np.ndarray:
    """Decode a full FSST stream: one 8-byte word take plus one compaction.

    Every token is a row of a 512-row ``uint64`` table and its keep-mask
    (symbols are <= 8 bytes by format): rows 0..254 the symbols, row 255 the
    escape byte under an *empty* mask, so escapes vanish in the compaction,
    rows 256..511 the literals. The masks alone give the output size, held
    to ``expected_size`` before any output byte exists.
    """
    codes = np.frombuffer(stream, dtype=np.uint8)
    count = len(symbols)
    words, masks = np.zeros((2, 512), dtype="<u8")
    words[:count] = strutil.pool_words(symbols.buffer, symbols.offsets[:-1])
    masks[:count] = strutil.KEEP_WORDS.take(symbols.lengths())
    words[256:] = np.arange(256)
    masks[256:] = strutil.KEEP_WORDS[1]
    esc = _escape_positions(codes)
    if esc.size and esc[-1] + 1 >= codes.size:
        raise CorruptBlockError("escape at end of FSST stream")
    unknown = codes >= min(count, ESCAPE)
    unknown[esc] = unknown[esc + 1] = False  # escapes and the literals they introduce
    if unknown.any():
        raise CorruptBlockError(f"FSST code {codes[unknown.argmax()]} outside symbol table")
    tokens = codes.astype(np.intp)
    tokens[esc + 1] += 256  # literal marker
    keep = masks.take(tokens)
    if expected_size is not None and np.count_nonzero(keep.view(np.bool_)) != expected_size:
        raise CorruptBlockError("FSST output size does not match string lengths")
    words = words.take(tokens)
    del tokens  # the compaction is the allocation peak: 8 bytes per code less under it
    return strutil.compact_words(words, keep)


def decode_stream_scalar(stream: bytes, symbols: StringArray) -> np.ndarray:
    """Byte-by-byte decode (scalar ablation / reference implementation)."""
    table = symbols.to_pylist()
    out = bytearray()
    i = 0
    n = len(stream)
    while i < n:
        code = stream[i]
        if code == ESCAPE:
            if i + 1 >= n:
                raise CorruptBlockError("escape at end of FSST stream")
            out.append(stream[i + 1])
            i += 2
        else:
            if code >= len(table):
                raise CorruptBlockError(f"FSST code {code} outside symbol table")
            out += table[code]
            i += 1
    return np.frombuffer(bytes(out), dtype=np.uint8)


class FSSTString(Scheme):
    """FSST applied to a block of strings as one concatenated stream."""

    scheme_id = SchemeId.FSST
    name = "fsst"
    ctype = ColumnType.STRING

    def is_viable(self, stats, config) -> bool:
        # FSST needs actual string content to find symbols in.
        return stats.count > 0 and stats.total_string_bytes >= 16

    def dominated_by(self, stats, survivors):
        """A viable string Dictionary whose dedupe saving per row clears
        :data:`MIN_DEDUPE_SAVING` times the width of one of its codes."""
        saving = (1.0 - stats.unique_fraction) * stats.avg_string_length
        code_bytes = (stats.distinct_count - 1).bit_length() / 8
        if saving >= MIN_DEDUPE_SAVING * code_bytes:
            return survivors.get(SchemeId.DICT_STRING)
        return None

    def estimate_ratio(self, sample: StringArray, stats, ctx) -> float:
        """Holdout estimate: train the table on half the sample only.

        On a full block the symbol table is trained on a ~16 KiB sample and
        applied to megabytes — near-zero overfit. A 640-tuple estimation
        sample *is* the training data, so compressing it with its own table
        wildly over-estimates the achievable ratio. Training on the first
        half and measuring on the untouched second half restores an unbiased
        estimate (at the cost of a slightly noisier one).
        """
        buffer = sample.buffer.tobytes()
        if len(buffer) < 64:
            return 0.0
        table = train_symbol_table(buffer[: len(buffer) // 2])
        held_out = buffer[len(buffer) // 2 :]
        stream_ratio = len(table.compress(held_out)) / max(len(held_out), 1)
        symbols = StringArray.from_pylist(table.symbols)
        lengths = sample.lengths().astype(np.int32)
        lengths_cost = len(ctx.child().compress_child(lengths, ColumnType.INTEGER))
        estimated = (
            20  # headers and length prefixes
            + symbols.buffer.size + symbols.offsets.nbytes
            + lengths_cost
            + stream_ratio * len(buffer)
        )
        return sample.nbytes / max(estimated, 32.0)

    def compress(self, values: StringArray, ctx: CompressionContext) -> bytes:
        buffer = values.buffer.tobytes()
        table = train_symbol_table(buffer)
        stream = table.compress(buffer)
        lengths = values.lengths().astype(np.int32)
        symbols = StringArray.from_pylist(table.symbols)
        writer = Writer()
        writer.u8(len(table.symbols))
        writer.array(symbols.buffer)
        writer.array(symbols.offsets)
        writer.blob(stream)
        writer.blob(ctx.compress_child(lengths, ColumnType.INTEGER))
        return writer.getvalue()

    @staticmethod
    def _parse(payload: bytes) -> "tuple[StringArray, bytes, bytes]":
        """``(symbol table, compressed stream, string lengths blob)``, the
        table held to its declared size and symbol length."""
        reader = Reader(payload)
        symbol_count = reader.u8()
        symbols = strutil.untrusted_strings(reader.array(), reader.array())
        longest = int(symbols.lengths().max(initial=0))
        if len(symbols) != symbol_count or longest > MAX_SYMBOL_LENGTH:  # bounds every token
            raise CorruptBlockError("FSST symbol table is malformed")
        return symbols, reader.blob(), reader.blob()

    def children(self, payload, count):
        return [("lengths", self._parse(payload)[2])]

    def decompress(self, payload, count, ctx, positions=None, out=None):
        symbols, stream, lengths_blob = self._parse(payload)
        lengths = ctx.decompress_child(lengths_blob, ColumnType.INTEGER)
        if lengths.size and int(lengths.min()) < 0:
            raise CorruptBlockError("negative FSST string length")
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths.astype(np.int64), out=offsets[1:])
        if ctx.vectorized:
            buffer = decode_stream_vectorized(stream, symbols, int(offsets[-1]))
        else:
            buffer = decode_stream_scalar(stream, symbols)
        if int(offsets[-1]) != buffer.size:
            raise CorruptBlockError("FSST output size does not match string lengths")
        return deliver(StringArray(buffer, offsets), count, positions, out)


FSST_SCHEME = register_scheme(FSSTString())
