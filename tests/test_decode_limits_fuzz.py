"""Adversarial decoder fuzz: mutated column files must fail *typed*.

Structure-aware mutations of real v1/v2 column files — patched count and
length fields, truncations, and random byte flips — are fed to the full
parse + decode path. The contract under test:

* every failure is a :class:`~repro.exceptions.BtrBlocksError` subclass
  (``FormatError``, ``DecodeLimitError``, ``IntegrityError``,
  ``CorruptBlockError``, ...) — never a raw ``struct.error``,
  ``zlib.error``, ``OverflowError`` or interpreter crash;
* declared counts/lengths are validated *before* allocation, so a
  few-byte adversarial header cannot request a giant buffer
  (``tracemalloc``-verified against tiny :class:`DecodeLimits`);
* nothing hangs — the whole corpus decodes in test-suite time.

Seeded via ``REPRO_FAULT_SEED`` like the fault-injection suites, so CI's
randomized leg explores a fresh mutation corpus every run.
"""

from __future__ import annotations

import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig, DecodeLimits
from repro.core.decompressor import decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.bitmap import RoaringBitmap
from repro.core.relation import Relation
from repro.exceptions import BtrBlocksError, FormatError
from repro.types import Column, ColumnType

SEED = int(os.environ.get("REPRO_FAULT_SEED", "192024773"), 0)

#: The only way untrusted bytes may fail. Raw struct/zlib/numpy/Overflow
#: errors escaping the decoder are the bug class this suite exists to catch.
TYPED = BtrBlocksError

TINY_LIMITS = DecodeLimits(
    max_rows_per_block=1 << 16,
    max_bytes_per_block=1 << 20,
    max_blocks_per_column=256,
    max_name_bytes=256,
)

#: Peak-allocation ceiling while decoding one mutant under TINY_LIMITS.
#: Generous versus the ~1 MB limit, but orders of magnitude below what a
#: successful 4 GB count/length bomb would allocate.
ALLOC_CEILING = 32 << 20

#: Values an attacker would patch into a 32-bit count/length field.
BOMB_VALUES = (0xFFFFFFFF, 0x7FFFFFFF, 0x10000000, 1 << 20, 65537)


def build_corpus(config: "BtrBlocksConfig | None" = None) -> "dict[str, bytes]":
    rng = np.random.default_rng(SEED)
    rows = 900
    strings = [f"city-{i % 7}" for i in range(rows)]
    nulls = RoaringBitmap.from_positions(np.flatnonzero(rng.random(rows) < 0.1))
    relation = Relation("fuzz", [
        Column.ints("id", np.arange(rows)),
        Column.doubles("price", np.round(rng.uniform(0, 50, rows), 2)),
        Column.strings("city", strings),
        Column.ints("maybe", rng.integers(0, 9, rows), nulls=nulls),
    ])
    compressed = compress_relation(relation, config)
    corpus = {}
    for column in compressed.columns:
        corpus[f"{column.name}.v1"] = column_to_bytes(column, version=1)
        corpus[f"{column.name}.v2"] = column_to_bytes(column, version=2)
    return corpus


CORPUS = build_corpus()
#: The same columns cut into three 300-row blocks.
THREE_BLOCKS = build_corpus(BtrBlocksConfig(block_size=300))


def decode_mutant(data: bytes) -> None:
    """Full untrusted path: parse, then decode every block strictly."""
    column = column_from_bytes(data, limits=TINY_LIMITS)
    decompress_column(column, on_corrupt="raise", limits=TINY_LIMITS)


def assert_fails_typed_and_bounded(data: bytes, label: str) -> None:
    """The mutant may decode fine or fail typed; nothing else — and it may
    not allocate past the ceiling while trying."""
    tracemalloc.start()
    try:
        decode_mutant(data)
    except TYPED:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < ALLOC_CEILING, (
        f"{label}: decoding allocated {peak:,} bytes (ceiling {ALLOC_CEILING:,})"
    )


def u32_field_offsets(data: bytes) -> "list[int]":
    """Offsets of every declared 32-bit count/length field in the file."""
    version = 1 if data[:4] == b"BTRC" else 2
    (name_len,) = struct.unpack_from("<H", data, 5)
    pos = 7 + name_len
    offsets = [pos]  # block_count
    (block_count,) = struct.unpack_from("<I", data, pos)
    pos += 4 + (4 if version == 2 else 0)  # skip header CRC in v2
    header_size = 12 if version == 1 else 16
    for _ in range(block_count):
        if pos + header_size > len(data):
            break
        offsets.extend((pos, pos + 4, pos + 8))  # count, data_len, nulls_len
        count, data_len, nulls_len = struct.unpack_from("<III", data, pos)
        pos += header_size + data_len + nulls_len
    return offsets


class TestFieldBombs:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_every_count_and_length_field_bombed(self, name):
        data = CORPUS[name]
        for offset in u32_field_offsets(data):
            for bomb in BOMB_VALUES:
                mutant = bytearray(data)
                struct.pack_into("<I", mutant, offset, bomb)
                assert_fails_typed_and_bounded(
                    bytes(mutant), f"{name} @{offset} <- {bomb:#x}"
                )

    def test_block_count_bomb_rejected_before_allocation(self):
        data = CORPUS["id.v1"]
        (name_len,) = struct.unpack_from("<H", data, 5)
        mutant = bytearray(data)
        struct.pack_into("<I", mutant, 7 + name_len, 0xFFFFFFFF)
        with pytest.raises(TYPED):
            column_from_bytes(bytes(mutant), limits=TINY_LIMITS)

    def test_name_length_bomb(self):
        data = CORPUS["id.v1"]
        mutant = bytearray(data)
        struct.pack_into("<H", mutant, 5, 0xFFFF)
        with pytest.raises(TYPED):
            column_from_bytes(bytes(mutant), limits=TINY_LIMITS)


class TestTruncation:
    @pytest.mark.parametrize("name", ["id.v1", "id.v2", "city.v1", "city.v2"])
    def test_every_truncation_point(self, name):
        data = CORPUS[name]
        cuts = range(len(data)) if len(data) < 512 else sorted(
            set(range(0, 64)) | {len(data) - d for d in range(1, 65)}
            | set(np.random.default_rng(SEED).integers(0, len(data), 64).tolist())
        )
        for cut in cuts:
            assert_fails_typed_and_bounded(data[:cut], f"{name}[:{cut}]")

    def test_empty_and_garbage_prefixes(self):
        for blob in (b"", b"\x00", b"BTRC", b"BTR2", b"BTRX" + b"\x00" * 64,
                     b"\xff" * 128):
            assert_fails_typed_and_bounded(blob, repr(blob[:8]))


class TestByteFlips:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_random_flips_fail_typed(self, name):
        data = CORPUS[name]
        rng = np.random.default_rng(SEED ^ zlib.crc32(name.encode()))
        for trial in range(60):
            mutant = bytearray(data)
            for offset in rng.integers(0, len(data), rng.integers(1, 4)):
                mutant[offset] ^= int(rng.integers(1, 256))
            assert_fails_typed_and_bounded(bytes(mutant), f"{name} trial {trial}")

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_payload_splices_fail_typed(self, name):
        # Structure-aware splice: overwrite a run of payload bytes with a
        # chunk copied from elsewhere in the same file, preserving framing
        # plausibility better than random flips do.
        data = CORPUS[name]
        rng = np.random.default_rng((~SEED & 0xFFFFFFFF) ^ zlib.crc32(name.encode()))
        for trial in range(20):
            mutant = bytearray(data)
            length = int(rng.integers(4, 32))
            if len(data) <= 2 * length:
                break
            src = int(rng.integers(0, len(data) - length))
            dst = int(rng.integers(0, len(data) - length))
            mutant[dst : dst + length] = data[src : src + length]
            assert_fails_typed_and_bounded(bytes(mutant), f"{name} splice {trial}")


class TestLimitsEnforcement:
    def test_legitimate_file_passes_default_limits(self):
        for name, data in CORPUS.items():
            column = column_from_bytes(data)
            decompress_column(column, on_corrupt="raise")

    def test_tiny_row_limit_rejects_legitimate_file(self):
        limits = DecodeLimits(max_rows_per_block=10)
        with pytest.raises(TYPED):
            decode_mutant_with(CORPUS["id.v1"], limits)

    def test_tiny_byte_limit_rejects_legitimate_file(self):
        limits = DecodeLimits(max_bytes_per_block=8)
        with pytest.raises(TYPED):
            decode_mutant_with(CORPUS["price.v2"], limits)

    def test_degrade_policies_still_bound_counts(self):
        # null_block must not become the bomb vector: an oversized declared
        # count raises even under the lenient policies.
        data = CORPUS["id.v1"]
        offsets = u32_field_offsets(data)
        mutant = bytearray(data)
        struct.pack_into("<I", mutant, offsets[1], 0x7FFFFFFF)  # first block count
        column = None
        try:
            column = column_from_bytes(bytes(mutant), limits=TINY_LIMITS)
        except TYPED:
            return  # rejected even earlier: also fine
        for policy in ("skip", "null_block"):
            with pytest.raises(TYPED):
                decompress_column(column, on_corrupt=policy, limits=TINY_LIMITS)


def decode_mutant_with(data: bytes, limits: DecodeLimits) -> None:
    column = column_from_bytes(data, limits=limits)
    decompress_column(column, on_corrupt="raise", limits=limits)


class TestHostileFSSTTables:
    """An FSST payload can lie about its symbol table and its output size.

    Before these checks the decoder ignored its symbol-count byte, never
    bounded symbol lengths and compared sizes only *after* materialising the
    whole output: 9 KB declaring 4 rows (one 4,000-byte "symbol", 5,000
    stream bytes) allocated 160 MB before it was rejected. Every hostile
    payload must now be rejected having allocated token- and mask-sized
    temporaries only — never an output.
    """

    @staticmethod
    def _payload(symbols, stream: bytes, lengths, count_byte=None) -> bytes:
        from repro.core.compressor import make_context
        from repro.core.selector import SchemeSelector
        from repro.encodings.wire import Writer
        from repro.types import ColumnType, StringArray

        table = StringArray.from_pylist(symbols)
        lengths = np.asarray(lengths, dtype=np.int32)
        child = make_context(SchemeSelector()).compress_child(lengths, ColumnType.INTEGER)
        writer = Writer().u8(len(symbols) & 0xFF if count_byte is None else count_byte)
        writer.array(table.buffer).array(table.offsets).blob(stream).blob(child)
        return writer.getvalue()

    def _assert_rejected_cheaply(self, payload: bytes, rows: int, match: str) -> None:
        from repro.core.decompressor import decompress_block
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import wrap
        from repro.exceptions import CorruptBlockError
        from repro.types import ColumnType

        blob = wrap(SchemeId.FSST, rows, payload)
        for vectorized in (True, False):
            tracemalloc.start()
            try:
                with pytest.raises(CorruptBlockError, match=match):
                    decompress_block(blob, ColumnType.STRING, vectorized=vectorized)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 32 * len(payload) + (64 << 10), (vectorized, peak, len(payload))

    def test_the_allocation_bomb(self):
        payload = self._payload([b"S" * 4000], bytes(5000), [1, 1, 1, 1])
        assert len(payload) < 9100
        self._assert_rejected_cheaply(payload, 4, "symbol table is malformed")

    def test_symbol_longer_than_the_format_allows(self):
        payload = self._payload([b"ok", b"123456789"], bytes(64), [128])
        self._assert_rejected_cheaply(payload, 1, "symbol table is malformed")

    def test_more_symbols_than_codes(self):
        symbols = [b"%03d" % i for i in range(300)]
        payload = self._payload(symbols, bytes(64), [192])
        self._assert_rejected_cheaply(payload, 1, "symbol table is malformed")

    @pytest.mark.parametrize("count_byte", [0, 2, 4, 255])
    def test_count_byte_disagreeing_with_the_table(self, count_byte):
        payload = self._payload([b"a", b"bc", b"def"], bytes([0, 1, 2]), [6], count_byte)
        self._assert_rejected_cheaply(payload, 1, "symbol table is malformed")

    def test_stream_decoding_to_more_than_the_declared_lengths(self):
        # Legal 8-byte symbols: 100,000 codes would decode to 800 KB against
        # four declared bytes. The vectorised path predicts the size from the
        # tokens' keep-masks and rejects before compacting anything.
        payload = self._payload([b"12345678"], bytes(100_000), [1, 1, 1, 1])
        self._assert_rejected_cheaply(payload, 4, "does not match string lengths")

    def test_stream_decoding_to_less_than_the_declared_lengths(self):
        payload = self._payload([b"12345678"], bytes(10), [1 << 20])
        self._assert_rejected_cheaply(payload, 1, "does not match string lengths")

    def test_code_outside_the_symbol_table(self):
        payload = self._payload([b"a", b"b"], bytes([0, 1, 2, 0]), [3])
        self._assert_rejected_cheaply(payload, 1, "FSST code 2 outside symbol table")

    def test_honest_payload_still_decodes(self):
        from repro.core.decompressor import decompress_block
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import wrap
        from repro.types import ColumnType

        payload = self._payload([b"ab", b"c"], bytes([0, 1, 255, 0, 0]), [2, 2, 2])
        blob = wrap(SchemeId.FSST, 3, payload)
        for vectorized in (True, False):
            out = decompress_block(blob, ColumnType.STRING, vectorized=vectorized)
            assert out.to_pylist() == [b"ab", b"c\x00", b"ab"]


class TestHostileDictionaryRuns:
    """A dictionary node's RLE-coded child can claim more values than any block.

    The child goes through ``decompress_child``'s gate, which holds its count
    to ``max_rows_per_block`` before the RLE decoder repeats anything (a
    route that read the child's header with a bare ``unwrap`` and repeated
    by its run lengths would not be). Four declared rows over a child of two
    runs claiming 16.8M values is a ``DecodeLimitError`` having allocated
    nothing value-sized (a repeat would be 64 MB), on all three routes that
    read the child.
    """

    CHILD_ROWS = (1 << 24) + 2  # two runs, just past DEFAULT_DECODE_LIMITS

    @classmethod
    def _hostile_codes(cls) -> bytes:
        from repro.core.compressor import make_context
        from repro.core.selector import SchemeSelector
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import Writer, wrap
        from repro.types import ColumnType

        child = make_context(SchemeSelector()).compress_child
        runs = Writer().u32(2)
        runs.blob(child(np.array([0, 1], dtype=np.int32), ColumnType.INTEGER))
        runs.blob(child(np.full(2, cls.CHILD_ROWS // 2, dtype=np.int32), ColumnType.INTEGER))
        return wrap(SchemeId.RLE_INT, cls.CHILD_ROWS, runs.getvalue())

    @classmethod
    def _blocks(cls):
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import Writer, wrap
        from repro.types import ColumnType, StringArray

        codes = cls._hostile_codes()
        pool = StringArray.from_pylist(["a", "bb"])
        raw_pool = Writer().array(pool.buffer).array(pool.offsets).getvalue()
        payloads = {
            (SchemeId.DICT_INT, ColumnType.INTEGER): Writer().array(np.arange(2, dtype=np.int32)),
            (SchemeId.DICT_DOUBLE, ColumnType.DOUBLE): Writer().array(np.array([0.5, 1.5])),
            (SchemeId.DICT_STRING, ColumnType.STRING): Writer().u8(0).u32(2).blob(raw_pool),
        }
        return [
            (wrap(scheme_id, 4, writer.blob(codes).getvalue()), ctype)
            for (scheme_id, ctype), writer in payloads.items()
        ]

    def test_child_count_is_held_before_anything_repeats(self):
        from repro.core.decompressor import decode_block, decompress_block, make_context
        from repro.core.file_format import CompressedBlock
        from repro.exceptions import DecodeLimitError
        from repro.types import ColumnType

        def into(blob, ctype):
            out = np.empty(4, dtype=np.int32 if ctype is ColumnType.INTEGER else np.float64)
            decode_block(CompressedBlock(4, blob, None), ctype, make_context(), out=out)

        for blob, ctype in self._blocks():
            routes = [decompress_block] if ctype is ColumnType.STRING else [decompress_block, into]
            for route in routes:
                tracemalloc.start()
                try:
                    with pytest.raises(DecodeLimitError, match="limit is"):
                        route(blob, ctype)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 32 * len(blob) + (64 << 10), (ctype, route.__name__, peak)


class TestHostilePageWidths:
    """A bit-packed page may not declare a width wider than its int32 deltas.

    No writer emits one, and at 59, 61, 62 and 63 bits the lane kernel's
    shift plus width overflows its 64-bit word, so such a page decoded to
    wrong values without an error. Every width above 32 is now a typed error
    on the full, scalar and row routes of both bit-packers.
    """

    @staticmethod
    def _blocks(width: int):
        from repro.encodings.base import SchemeId
        from repro.encodings.bitpack import PAGE, pack_pages
        from repro.encodings.wire import Writer, wrap

        pages = 3
        deltas = np.random.default_rng(width).integers(0, 1 << 58, (pages, PAGE), dtype=np.uint64)
        deltas[:, 0] = np.uint64((1 << width) - 1)
        widths = np.full(pages, width, dtype=np.uint8)
        head = Writer().array(np.zeros(pages, dtype=np.int32)).array(widths)
        no_exceptions = (
            Writer().array(np.zeros(pages, dtype=np.uint8)).array(np.empty(0, dtype=np.uint8))
            .array(np.empty(0, dtype=np.uint64))
        )
        packed = Writer().blob(pack_pages(deltas, widths))
        return {
            SchemeId.FAST_BP128: wrap(
                SchemeId.FAST_BP128, pages * PAGE, head.getvalue() + packed.getvalue()
            ),
            SchemeId.FAST_PFOR: wrap(
                SchemeId.FAST_PFOR, pages * PAGE,
                head.getvalue() + no_exceptions.getvalue() + packed.getvalue(),
            ),
        }

    @pytest.mark.parametrize("width", [33, 57, 59, 61, 62, 63, 64])
    def test_wider_than_int32_is_rejected_on_every_route(self, width):
        from repro.core.decompressor import decompress_block, make_context
        from repro.encodings.base import get_scheme
        from repro.encodings.wire import unwrap
        from repro.exceptions import CorruptBlockError
        from repro.types import ColumnType

        for scheme_id, blob in self._blocks(width).items():
            scheme, (_, count, payload) = get_scheme(scheme_id), unwrap(blob)
            routes = {
                "vectorized": lambda: decompress_block(blob, ColumnType.INTEGER),
                "scalar": lambda: decompress_block(blob, ColumnType.INTEGER, vectorized=False),
                "rows": lambda: scheme.decompress(
                    payload, count, make_context(), positions=np.array([0, 300])
                ),
            }
            for route, decode in routes.items():
                with pytest.raises(CorruptBlockError, match="page widths"):
                    decode()


class TestHostileExceptionGeometry:
    """FastPFOR finds an exception by its row key ``page * 128 + slot``: the
    full decode scatters by it and the row route searches the keys for the
    selected rows. A slot of 128 or more would land on the next page's row,
    a negative one on the previous page's, and keys out of order or
    repeated would let the search and the scatter pick different
    exceptions, so one geometry check runs before any route and every
    hostile header fails it, on every route, with the same typed error.
    Headers are cut from a seeded honest block (``REPRO_FAULT_SEED``)."""

    PAGES = 6

    @classmethod
    def _honest(cls):
        from repro.encodings.base import SchemeId, get_scheme
        from repro.encodings.bitpack import PAGE
        from repro.encodings.wire import Reader

        rng = np.random.default_rng(SEED)
        values = rng.integers(0, 64, cls.PAGES * PAGE)
        outliers = rng.choice(values.size, 24, replace=False)
        outliers[:2] = (2 * PAGE + 5, 2 * PAGE + 9)  # a page with two exceptions
        values[outliers] = rng.integers(1 << 20, 1 << 28, outliers.size)
        payload = get_scheme(SchemeId.FAST_PFOR).compress(values.astype(np.int32), None)
        reader = Reader(payload)
        arrays = [reader.array() for _ in range(5)]
        return values, arrays, reader.blob()

    @classmethod
    def _mutants(cls):
        values, (refs, widths, per_page, slots, exc), packed = cls._honest()
        two = int(np.cumsum(per_page)[1])  # the first exception of page 2
        assert per_page[2] >= 2 and slots[two] < slots[two + 1]
        beyond, swapped, repeated, miscounted = (slots.copy() for _ in range(4))
        beyond[two] += 128  # -> row 5 of page 3
        # Slot -1 of the first exception keeps the keys increasing and every
        # slot below 128: only the writer's u8 dtype rules it out.
        negative = slots.astype(np.int64)
        negative[0] = -1
        swapped[[two, two + 1]] = slots[[two + 1, two]]
        repeated[two + 1] = slots[two]
        miscounted_pages = per_page.copy()
        miscounted_pages[2] += 1
        return values, {
            "slot-past-its-page": (refs, widths, per_page, beyond, exc, packed),
            "negative-slot": (refs, widths, per_page, negative, exc, packed),
            "keys-out-of-order": (refs, widths, per_page, swapped, exc, packed),
            "key-repeated": (refs, widths, per_page, repeated, exc, packed),
            "counts-exceed-values": (refs, widths, miscounted_pages, slots, exc, packed),
            "values-exceed-counts": (refs, widths, per_page, slots[:-1], exc[:-1], packed),
        }

    @staticmethod
    def _payload(arrays, packed) -> bytes:
        from repro.encodings.wire import Writer

        writer = Writer()
        for array in arrays:
            writer.array(array)
        return writer.blob(packed).getvalue()

    @staticmethod
    def _routes(payload: bytes, count: int):
        """The full (vectorised and scalar) and row routes."""
        from repro.core.decompressor import make_context
        from repro.encodings.base import SchemeId, get_scheme
        from repro.encodings.bitpack import PAGE

        scheme, ctx = get_scheme(SchemeId.FAST_PFOR), make_context()
        rows = np.concatenate(([5, 2 * PAGE + 5, 2 * PAGE + 9], np.arange(3 * PAGE, 4 * PAGE)))
        return {
            "full": (lambda: scheme.decompress(payload, count, ctx), slice(None)),
            "scalar": (
                lambda: scheme.decompress(payload, count, make_context(vectorized=False)),
                slice(None),
            ),
            "rows": (lambda: scheme.decompress(payload, count, ctx, positions=rows), rows),
        }

    @pytest.mark.parametrize(
        "mutant",
        ["slot-past-its-page", "negative-slot", "keys-out-of-order", "key-repeated",
         "counts-exceed-values", "values-exceed-counts"],
    )
    def test_every_route_raises_the_same_typed_error(self, mutant):
        from repro.exceptions import CorruptBlockError

        values, mutants = self._mutants()
        *arrays, packed = mutants[mutant]
        for route, (decode, _) in self._routes(self._payload(arrays, packed), values.size).items():
            with pytest.raises(CorruptBlockError, match="FastPFOR"):
                decode()

    def test_the_honest_header_decodes_on_every_route(self):
        values, arrays, packed = self._honest()
        for route, (decode, rows) in self._routes(self._payload(arrays, packed), values.size).items():
            assert np.array_equal(decode(), values[rows]), route


def rows_of(column) -> list:
    data = column.data
    return data.to_pylist() if hasattr(data, "to_pylist") else data.tolist()


class TestBlockCountDisagreesWithNode:
    """A v1 block's declared count and its node's are tied by nothing but
    the decode (there is no CRC32), so a count one off is damage every route
    must see: a typed failure under ``"raise"``, a degraded block -- its own
    declared rows NULL, or none -- under the lenient policies, and never a
    raw numpy error or a slot left uninitialised. The declared count sizes
    the block's slot of the column, which the string and scalar routes fill
    from what the node decodes.
    """

    @staticmethod
    def _mutant(corpus, name: str, block: int, delta: int):
        data = bytearray(corpus[name])
        at = u32_field_offsets(bytes(data))[1 + 3 * block]
        (count,) = struct.unpack_from("<I", data, at)
        struct.pack_into("<I", data, at, count + delta)
        return column_from_bytes(bytes(data), limits=TINY_LIMITS), count + delta

    CASES = [
        pytest.param(corpus, name, block, id=f"{label}-{name}-block{block}")
        for label, corpus, blocks in (("one", CORPUS, (0,)), ("three", THREE_BLOCKS, (0, 1, 2)))
        for name in ("city.v1", "id.v1", "price.v1")
        for block in blocks
    ]

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("corpus, name, block", CASES)
    def test_off_by_one_fails_typed_or_degrades(self, corpus, name, block, delta, vectorized):
        intact = column_from_bytes(corpus[name])
        blocks = intact.blocks
        expected = rows_of(decompress_column(intact))
        before = sum(b.count for b in blocks[:block])
        after = expected[before + blocks[block].count :]
        column, declared = self._mutant(corpus, name, block, delta)
        with pytest.raises(FormatError, match=f"{declared}"):
            decompress_column(column, vectorized, on_corrupt="raise", limits=TINY_LIMITS)
        placeholder = b"" if name == "city.v1" else 0
        for policy, emitted in (("null_block", declared), ("skip", 0)):
            back = decompress_column(column, vectorized, on_corrupt=policy, limits=TINY_LIMITS)
            assert rows_of(back) == expected[:before] + [placeholder] * emitted + after
            nulls = back.nulls.to_array().tolist() if back.nulls is not None else []
            assert nulls == list(range(before, before + emitted))


class TestChildCountHeldToParent:
    """A cascaded child's declared count is held to its parent's on every
    route. A selection alone reads nothing past its last row, so before the
    parent handed its count down, a 1,000-row Pseudodecimal node whose
    digits child was re-framed to declare 999 rows answered
    ``positions=[0, 500]`` while its full decode raised ``FormatError``."""

    ROWS = 1000

    @classmethod
    def _node(cls, kind: str, child: str, delta: int) -> "tuple[bytes, ColumnType]":
        from conftest import scheme_round_trip
        from repro.encodings.base import SchemeId, get_scheme
        from repro.encodings.wire import Reader, Writer, unwrap, wrap
        from repro.types import StringArray

        def reframed(blob: bytes) -> bytes:
            scheme_id, count, payload = unwrap(blob)
            return wrap(scheme_id, count + delta, payload)

        rng = np.random.default_rng(3)
        if kind == "pseudodecimal":
            scheme, ctype = get_scheme(SchemeId.PSEUDODECIMAL), ColumnType.DOUBLE
            payload, _ = scheme_round_trip(scheme, np.round(rng.uniform(0, 100, cls.ROWS), 2))
            reader = Reader(payload)
            parts = {"digits": reader.blob(), "exponents": reader.blob()}
            parts[child] = reframed(parts[child])
            bitmap, patches = reader.blob(), reader.array()
            writer = Writer().blob(parts["digits"]).blob(parts["exponents"]).blob(bitmap)
            payload = writer.array(patches).getvalue()
        elif kind == "dict_int":
            scheme, ctype = get_scheme(SchemeId.DICT_INT), ColumnType.INTEGER
            payload, _ = scheme_round_trip(scheme, rng.integers(0, 50, cls.ROWS).astype(np.int32))
            reader = Reader(payload)
            pool, codes = reader.array(), reader.blob()
            payload = Writer().array(pool).blob(reframed(codes)).getvalue()
        else:
            scheme, ctype = get_scheme(SchemeId.DICT_STRING), ColumnType.STRING
            vocab = [b"open", b"shipped", b"lost", b"returned"]
            values = StringArray.from_pylist([vocab[i] for i in rng.integers(0, 4, cls.ROWS)])
            payload, _ = scheme_round_trip(scheme, values)
            reader = Reader(payload)
            pool_kind, pool_count, pool, codes = (
                reader.u8(), reader.u32(), reader.blob(), reader.blob()
            )
            writer = Writer()
            writer.u8(pool_kind)
            writer.u32(pool_count)
            payload = writer.blob(pool).blob(reframed(codes)).getvalue()
        return wrap(scheme.scheme_id, cls.ROWS, payload), ctype

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize(
        "kind, child",
        [("pseudodecimal", "digits"), ("pseudodecimal", "exponents"),
         ("dict_int", "codes"), ("dict_string", "codes")],
    )
    def test_every_route_raises(self, kind, child, delta):
        from repro.core.blocks import CompressedBlock
        from repro.core.decompressor import decode_block, decompress_block, make_context
        from repro.query.executor import scan_block
        from repro.query.predicates import Between, Equals

        blob, ctype = self._node(kind, child, delta)
        ctx = make_context()
        block = CompressedBlock(self.ROWS, blob)
        predicate = Equals(b"open") if kind == "dict_string" else Between(0, 10)
        routes = {
            "full": lambda: decompress_block(blob, ctype),
            "positions": lambda: decode_block(block, ctype, ctx, positions=np.asarray([0, 500])),
            "one row": lambda: decode_block(block, ctype, ctx, positions=np.asarray([7])),
            "scan": lambda: scan_block(blob, ctype, predicate, values=True),
        }
        if ctype is not ColumnType.STRING:
            out = np.empty(self.ROWS, dtype=np.float64 if kind == "pseudodecimal" else np.int32)
            routes["out"] = lambda: decode_block(block, ctype, ctx, out=out)
        for route, decode in routes.items():
            with pytest.raises(FormatError, match=f"{self.ROWS + delta}"):
                decode()

class TestScanBitFlips:
    """The compressed-domain scan parses the same untrusted bytes a decode
    does and fails the same way: one-bit flips of the v1 golden fixtures
    (1,500 per file, bit offsets from ``default_rng(5)``) through
    ``filter_column`` raise only typed errors, allocate within the ceiling
    (an RLE scan once repeated its run verdicts by unchecked run lengths —
    ~1 GiB, then 8 GiB), and under ``skip`` / ``null_block`` raise only where
    ``decompress_column(on_corrupt="skip")`` raises too."""

    FLIPS = 1_500
    GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

    @staticmethod
    def _predicates():
        from repro.query.predicates import Between, Equals, In

        return {
            "column_city.btrc": Equals("OSLO"),
            "column_price.btrc": Between(1.0, 10.0),
            "column_runs.btrc": In([3, 4, 5]),
        }

    @staticmethod
    def _fails(call, data: bytes) -> bool:
        try:
            call(column_from_bytes(data))
        except TYPED:
            return True
        return False

    @pytest.mark.parametrize("name", ["column_city.btrc", "column_price.btrc", "column_runs.btrc"])
    def test_one_bit_flips_scan_typed_and_degrade_like_decode(self, name):
        from repro.query.executor import filter_column

        predicate = self._predicates()[name]
        with open(os.path.join(self.GOLDEN, name), "rb") as fh:
            data = fh.read()
        bits = np.random.default_rng(5).integers(0, len(data) * 8, self.FLIPS).tolist()
        peak = 0
        for bit in bits:
            mutant = bytearray(data)
            mutant[bit // 8] ^= 1 << (bit % 8)
            mutant = bytes(mutant)
            decode_fails = self._fails(
                lambda column: decompress_column(column, on_corrupt="skip"), mutant
            )
            tracemalloc.start()  # (the decode may size rows from a flipped count)
            try:
                self._fails(lambda column: filter_column(column, predicate), mutant)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            for policy in ("skip", "null_block"):
                scan_fails = self._fails(
                    lambda column: filter_column(column, predicate, on_corrupt=policy), mutant
                )
                assert decode_fails or not scan_fails, f"{name} bit {bit} under {policy}"
        assert peak < ALLOC_CEILING, f"{name}: a scan allocated {peak:,} bytes"


class TestScannedChildrenPassTheGate:
    """A scan opens every child node through the decoder's gate, as a decode
    does: limits, declared type and the count the parent holds the child to
    bind at every depth, before any scheme code sizes an allocation from
    the child's header. A ~100-byte block whose child declares 2**26 rows
    once cost a scan 67 MB (RLE run values) or 68 MB (dictionary codes)
    before it raised, under any limits; now it raises having allocated
    nothing value-sized."""

    BOMB_ROWS = 1 << 26
    PEAK = 1 << 20

    @staticmethod
    def _child(values: np.ndarray) -> bytes:
        from repro.core.compressor import make_context
        from repro.core.selector import SchemeSelector

        return make_context(SchemeSelector()).compress_child(values, ColumnType.INTEGER)

    @classmethod
    def _rle_over_one_value(cls) -> bytes:
        """A 4-row RLE block whose one run's value is a One Value node
        declaring 2**26 rows."""
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import Writer, wrap

        values = wrap(SchemeId.ONE_VALUE_INT, cls.BOMB_ROWS, Writer().i64(7).getvalue())
        runs = Writer().u32(1).blob(values).blob(cls._child(np.array([4], dtype=np.int32)))
        return wrap(SchemeId.RLE_INT, 4, runs.getvalue())

    @classmethod
    def _dict_over_rle_codes(cls) -> bytes:
        """A 4-row integer dictionary of 100 entries whose codes child is an
        RLE node of two runs covering 2**26 rows."""
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import Writer, wrap

        runs = Writer().u32(2)
        runs.blob(cls._child(np.array([3, 40], dtype=np.int32)))
        runs.blob(cls._child(np.full(2, cls.BOMB_ROWS // 2, dtype=np.int32)))
        codes = wrap(SchemeId.RLE_INT, cls.BOMB_ROWS, runs.getvalue())
        pool = np.arange(100, dtype=np.int32) * 10
        return wrap(SchemeId.DICT_INT, 4, Writer().array(pool).blob(codes).getvalue())

    @pytest.mark.parametrize("limits", [None, DecodeLimits(max_rows_per_block=1000)],
                             ids=["default limits", "1,000-row limit"])
    @pytest.mark.parametrize("bomb", ["rle over one value", "dictionary over rle codes"])
    def test_bomb_raises_before_allocating(self, bomb, limits):
        from repro.query.executor import scan_block
        from repro.query.predicates import Equals, In

        if bomb == "rle over one value":
            blob, predicate = self._rle_over_one_value(), Equals(7)
        else:  # 50 scattered pool hits
            blob, predicate = self._dict_over_rle_codes(), In(list(range(0, 1000, 20)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):  # DecodeLimitError is one
                scan_block(blob, ColumnType.INTEGER, predicate, limits=limits, values=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK, f"{bomb}: the scan allocated {peak:,} bytes"

    def test_child_type_is_held_to_its_slot(self):
        """A string One Value as an integer RLE's run values is a
        ``TypeMismatchError`` on the scan route, as on the decode."""
        from repro.core.decompressor import decompress_block
        from repro.encodings.base import SchemeId
        from repro.encodings.wire import Writer, wrap
        from repro.exceptions import TypeMismatchError
        from repro.query.executor import scan_block
        from repro.query.predicates import Equals

        values = wrap(SchemeId.ONE_VALUE_STRING, 1, Writer().blob(b"seven").getvalue())
        runs = Writer().u32(1).blob(values).blob(self._child(np.array([4], dtype=np.int32)))
        blob = wrap(SchemeId.RLE_INT, 4, runs.getvalue())
        for route in (lambda: decompress_block(blob, ColumnType.INTEGER),
                      lambda: scan_block(blob, ColumnType.INTEGER, Equals(7))):
            with pytest.raises(TypeMismatchError):
                route()
