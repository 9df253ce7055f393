"""Tests for the shared string utilities (gather, concat / StringSlots, runs)."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings import strutil
from repro.encodings.strutil import (
    average_run_length,
    concat,
    encode_distinct,
    gather,
    run_boundaries,
)
from repro.types import StringArray

import assembly_reference
from test_roundtrip_fuzz import STRING_CASES  # the adversarial string corpus


def _dict_loop_encode_distinct(strings: StringArray):
    """The row-by-row coder ``encode_distinct`` replaced, kept as its oracle."""
    seen: dict[bytes, int] = {}
    codes = np.empty(len(strings), dtype=np.int32)
    uniques: list[bytes] = []
    for i in range(len(strings)):
        value = strings[i]
        code = seen.get(value)
        if code is None:
            code = len(uniques)
            seen[value] = code
            uniques.append(value)
        codes[i] = code
    return codes, uniques


class TestEncodeDistinct:
    def test_codes_reconstruct_input(self):
        sa = StringArray.from_pylist(["x", "y", "x", "z", "y"])
        codes, uniques = encode_distinct(sa)
        assert gather(uniques, codes) == sa

    def test_empty(self):
        codes, uniques = encode_distinct(StringArray.empty(0))
        assert codes.size == 0
        assert len(uniques) == 0

    def test_all_same(self):
        codes, uniques = encode_distinct(StringArray.from_pylist(["a"] * 10))
        assert len(uniques) == 1
        assert (codes == 0).all()

    @pytest.mark.parametrize("name,values", STRING_CASES, ids=[n for n, _ in STRING_CASES])
    def test_equals_dict_loop_on_fuzz_corpus(self, name, values):
        codes, uniques = encode_distinct(values)
        want_codes, want_uniques = _dict_loop_encode_distinct(values)
        assert codes.dtype == np.int32 and codes.shape == (len(values),)
        assert np.array_equal(codes, want_codes)
        assert uniques.to_pylist() == want_uniques  # first-appearance order

    def test_result_is_memoised_read_only_and_not_pickled(self):
        sa = StringArray.from_pylist(["x", "y", "x"])
        assert sa._distinct is None
        codes, uniques = encode_distinct(sa)
        again = encode_distinct(sa)
        assert again[0] is codes and again[1] is uniques
        with pytest.raises(ValueError):
            codes[0] = 7
        clone = pickle.loads(pickle.dumps(sa))
        assert clone == sa and clone._distinct is None
        fresh = pickle.dumps(StringArray.from_pylist(["x", "y", "x"]))
        assert pickle.dumps(sa) == fresh


def _reference_gather(pool: StringArray, indices: np.ndarray) -> StringArray:
    """The per-byte-index kernel ``gather`` was until ISSUE 17, kept as oracle:
    one int32 source index per output byte, then one fancy-indexing pass."""
    indices = np.asarray(indices, dtype=np.int64)
    out_lengths = pool.lengths()[indices]
    out_offsets = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(out_lengths, out=out_offsets[1:])
    total = int(out_offsets[-1])
    if total == 0:
        return StringArray(np.empty(0, dtype=np.uint8), out_offsets)
    deltas = pool.offsets[indices] - out_offsets[:-1]
    byte_src = np.arange(total, dtype=np.int32)
    byte_src += np.repeat(deltas.astype(np.int32), out_lengths)
    return StringArray(pool.buffer[byte_src], out_offsets)


def _random_pool(rng, entries: int, shortest: int, longest: int) -> StringArray:
    lengths = rng.integers(shortest, longest + 1, entries)
    offsets = np.zeros(entries + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return StringArray(rng.integers(0, 256, int(offsets[-1]), dtype=np.uint8), offsets)


def _uniform_pool(rng, entries: int, length: int) -> StringArray:
    return _random_pool(rng, entries, length, length)


@pytest.fixture
def kernels(monkeypatch):
    """Which of ``gather``'s kernels ran: the word table and the block copy
    are counted, the index kernel is whatever is left."""
    ran = {"word": 0, "block": 0}

    def counting(name):
        kernel = getattr(strutil, name)

        def wrapper(*args):
            ran["word" if name == "pool_words" else "block"] += 1
            return kernel(*args)

        monkeypatch.setattr(strutil, name, wrapper)

    counting("pool_words")
    counting("_copy_rows")
    return ran


def _assert_gather_is_reference(pool: StringArray, indices) -> StringArray:
    got, want = gather(pool, indices), _reference_gather(pool, indices)
    assert got.buffer.dtype == np.uint8 and got.offsets.dtype == np.int64
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.buffer, want.buffer)
    return got


class TestGatherKernels:
    """Every kernel of ``gather`` is buffer- and offsets-equal to the per-byte
    reference, on both sides of each constant its selection turns on."""

    W = strutil._WORD_MIN_ROWS

    @pytest.mark.parametrize("rows,kernel", [(W - 1, "index"), (W, "word"), (W + 1, "word")])
    def test_word_kernel_starts_at_its_row_crossover(self, rng, kernels, rows, kernel):
        pool = _random_pool(rng, 7, 0, 8)
        _assert_gather_is_reference(pool, rng.integers(0, 7, rows))
        assert kernels == {"word": int(kernel == "word"), "block": 0}

    @pytest.mark.parametrize("longest,kernel", [(1, "word"), (8, "word"), (9, "index")])
    def test_word_kernel_needs_rows_of_at_most_8_bytes(self, rng, kernels, longest, kernel):
        pool = _random_pool(rng, 40, 0, longest)
        pool = concat([pool, _uniform_pool(rng, 1, longest)])  # the bound is reached
        _assert_gather_is_reference(pool, np.append(rng.integers(0, 41, self.W), 40))
        assert kernels["word"] == int(kernel == "word")

    def test_word_kernel_judges_the_gathered_rows_not_the_pool(self, rng, kernels):
        pool = concat([_random_pool(rng, 30, 1, 8), _uniform_pool(rng, 3, 300)])
        _assert_gather_is_reference(pool, rng.integers(0, 30, self.W))
        assert kernels["word"] == 1

    @pytest.mark.parametrize("entries,kernel", [(W - 1, "word"), (W, "word"), (W + 1, "index")])
    def test_word_kernel_builds_no_table_larger_than_the_request(
        self, rng, kernels, entries, kernel
    ):
        pool = _random_pool(rng, entries, 2, 8)
        _assert_gather_is_reference(pool, rng.integers(0, entries, self.W))
        assert kernels["word"] == int(kernel == "word")

    @pytest.mark.parametrize("extra,kernel", [(0, "word"), (8, "index")])
    def test_word_kernel_copies_no_pool_larger_than_the_request(self, rng, kernels, extra, kernel):
        # Ten short entries and one long one nobody selects: the table's
        # padded copy of the pool may be as large as the request's 8 * rows.
        short = _random_pool(rng, 10, 1, 8)
        filler = 8 * self.W - short.buffer.size + extra
        pool = concat([short, _uniform_pool(rng, 1, filler)])
        assert pool.buffer.size // 8 == self.W + extra // 8
        _assert_gather_is_reference(pool, rng.integers(0, 10, self.W))
        assert kernels["word"] == int(kernel == "word")

    @pytest.mark.parametrize("length", [1, 3, 8])
    def test_uniform_short_rows_skip_the_compaction(self, rng, kernels, monkeypatch, length):
        monkeypatch.setattr(strutil, "compact_words", None)  # would raise if called
        pool = _uniform_pool(rng, 5, length)
        _assert_gather_is_reference(pool, rng.integers(0, 5, self.W))
        assert kernels["word"] == 1

    # One distinct length: the copy runs once the bytes beyond 20 per row
    # reach 16 KiB -- 1024 rows of 36 bytes sit exactly on the line.
    @pytest.mark.parametrize(
        "rows,length,kernel",
        [(1023, 36, "index"), (1024, 36, "block"), (1025, 36, "block"), (1024, 35, "index"),
         (300, 80, "block"), (300, 70, "index"), (40_000, 20, "index"), (40_000, 21, "block")],
    )
    def test_block_kernel_starts_where_the_output_outweighs_its_costs(
        self, rng, kernels, rows, length, kernel
    ):
        assert (strutil._BLOCK_ROW_BYTES, strutil._BLOCK_CALL_BYTES) == (20, 16384)
        pool = _uniform_pool(rng, 50, length)
        _assert_gather_is_reference(pool, rng.integers(0, 50, rows))
        assert kernels == {"word": 0, "block": int(kernel == "block")}

    @pytest.mark.parametrize("counts,kernel", [((512, 512, 512, 512), "block"),
                                               ((512, 512, 513, 511), "index"),
                                               ((512, 512, 511, 513), "block")])
    def test_block_kernel_pays_per_distinct_length(self, rng, kernels, counts, kernel):
        # 2,048 rows of 50/51/53/54 bytes: 512 of each leave 32 spare bytes
        # per row, exactly four 16 KiB calls' worth; one byte less does not.
        pool = concat([_uniform_pool(rng, 1, length) for length in (50, 51, 53, 54)])
        indices = rng.permutation(np.repeat(np.arange(4), counts))
        _assert_gather_is_reference(pool, indices)
        assert kernels["block"] == int(kernel == "block")

    @pytest.mark.parametrize("longest,kernel", [(65535, "block"), (65536, "index")])
    def test_block_kernel_sorts_16_bit_lengths_only(self, rng, kernels, longest, kernel):
        pool = concat([_uniform_pool(rng, 2, 40), _uniform_pool(rng, 1, longest)])
        _assert_gather_is_reference(pool, np.array([2, 0, 1, 2, 0]))
        assert kernels["block"] == int(kernel == "block")

    def test_block_kernel_with_many_lengths_and_empty_rows(self, rng, kernels):
        pool = concat([_random_pool(rng, 300, 0, 0), _random_pool(rng, 3000, 100, 180)])
        out = _assert_gather_is_reference(pool, rng.integers(0, 3300, 60_000))
        assert kernels["block"] == 1 and np.unique(out.lengths()).size > 64

    def test_block_kernel_allocates_no_per_byte_index(self, rng, kernels):
        pool = _random_pool(rng, 4095, 60, 80)
        indices = rng.integers(0, 4095, 32_768)
        total = int(pool.lengths()[indices].sum())
        tracemalloc.start()
        out = gather(pool, indices)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert kernels["block"] == 1 and out.buffer.size == total
        assert peak < 2 * total  # an int32 index per byte alone is 4 * total

    @pytest.mark.parametrize("entries,rows", [(60_000, 300), (60_000, 40), (3, 100_000)])
    def test_pool_far_larger_and_far_smaller_than_the_request(self, rng, kernels, entries, rows):
        for shortest, longest in ((0, 8), (3, 22), (60, 80)):
            pool = _random_pool(rng, entries, shortest, longest)
            _assert_gather_is_reference(pool, rng.integers(0, entries, rows))

    def test_small_request_does_nothing_per_pool_entry(self, rng, monkeypatch):
        pool = _random_pool(rng, 60_000, 3, 22)
        monkeypatch.setattr(StringArray, "lengths", None)  # O(pool): would raise if called
        want = [pool[i] for i in (59_999, 0, 31_337)]
        assert gather(pool, np.array([59_999, 0, 31_337])).to_pylist() == want

    @pytest.mark.parametrize("longest", [8, 30, 90], ids=["word", "index", "block"])
    def test_repeated_descending_and_edge_rows(self, rng, longest):
        pool = _random_pool(rng, 500, 0, longest)
        for indices in (
            np.arange(499, -1, -1).repeat(20),
            np.full(self.W, 499),  # the pool's last row: nothing is read past its end
            np.tile([0, 499, 0, 250], 3000),
        ):
            _assert_gather_is_reference(pool, indices)

    @pytest.mark.parametrize("longest", [8, 30, 90], ids=["word", "index", "block"])
    def test_read_only_pool_over_bytes_is_neither_written_nor_overrun(self, rng, longest):
        pool = _random_pool(rng, 400, 1, longest)
        raw = pool.buffer.tobytes()
        # The pool is a read-only window inside a larger sentinel-filled
        # buffer: a write raises, an overrun would leak sentinel bytes.
        backing = np.frombuffer(b"\xaa" * 64 + raw + b"\xaa" * 64, dtype=np.uint8)
        window = StringArray(backing[64 : 64 + len(raw)], pool.offsets)
        assert not window.buffer.flags.writeable
        indices = np.append(rng.integers(0, 400, self.W), [399, 0])
        assert gather(window, indices) == _reference_gather(pool, indices)
        assert backing.tobytes() == b"\xaa" * 64 + raw + b"\xaa" * 64

    def test_degenerate_requests(self, rng):
        empty_pool = StringArray.empty(0)
        assert len(gather(empty_pool, np.empty(0, dtype=np.int64))) == 0
        with pytest.raises(IndexError):
            gather(empty_pool, np.array([0]))
        pool = _random_pool(rng, 9, 0, 12)
        assert len(_assert_gather_is_reference(pool, np.empty(0, dtype=np.int64))) == 0
        with pytest.raises(IndexError):
            gather(pool, np.array([0, 9]))
        blanks = StringArray.empty(4)
        out = _assert_gather_is_reference(blanks, rng.integers(0, 4, self.W))
        assert out.buffer.size == 0 and len(out) == self.W
        for dtype in (np.int32, np.uint8, np.int64):
            _assert_gather_is_reference(pool, np.array([8, 0, 3], dtype=dtype))

    @pytest.mark.parametrize("name,values", STRING_CASES, ids=[n for n, _ in STRING_CASES])
    def test_fuzz_corpus_through_every_kernel(self, name, values, rng, monkeypatch):
        if len(values) == 0:
            return
        indices = rng.integers(0, len(values), 3 * len(values))
        want = _reference_gather(values, indices)
        for word_rows, call_bytes in ((1, 1 << 40), (1 << 40, 1), (1 << 40, 1 << 40)):
            monkeypatch.setattr(strutil, "_WORD_MIN_ROWS", word_rows)
            monkeypatch.setattr(strutil, "_BLOCK_CALL_BYTES", call_bytes)
            got = gather(values, indices)
            assert np.array_equal(got.buffer, want.buffer)
            assert np.array_equal(got.offsets, want.offsets)


class TestGather:
    def test_matches_scalar_take(self):
        pool = StringArray.from_pylist(["", "a", "bb", "ccc"])
        idx = np.array([3, 0, 1, 3, 2, 2])
        assert gather(pool, idx) == pool.take(idx)

    def test_empty_indices(self):
        pool = StringArray.from_pylist(["a"])
        out = gather(pool, np.empty(0, dtype=np.int64))
        assert len(out) == 0

    def test_all_empty_strings(self):
        pool = StringArray.from_pylist(["", ""])
        out = gather(pool, np.array([0, 1, 0]))
        assert out.to_pylist() == [b"", b"", b""]

    def test_large_gather(self, rng):
        pool = StringArray.from_pylist([f"value-{i}" for i in range(100)])
        idx = rng.integers(0, 100, 50_000)
        out = gather(pool, idx)
        assert len(out) == 50_000
        assert out[123] == pool[int(idx[123])]


class TestConcat:
    def test_two_arrays(self):
        a = StringArray.from_pylist(["x", "y"])
        b = StringArray.from_pylist(["z"])
        assert concat([a, b]).to_pylist() == [b"x", b"y", b"z"]

    def test_empty_list(self):
        assert len(concat([])) == 0

    def test_with_empty_array(self):
        a = StringArray.from_pylist(["x"])
        assert concat([a, StringArray.empty(0)]).to_pylist() == [b"x"]

    def test_single_part_is_returned_not_copied(self):
        a = StringArray.from_pylist(["x", "yy"])
        assert concat([a]) is a


def _assert_same_strings(got: StringArray, want: StringArray) -> None:
    assert got.offsets.dtype == np.int64 and np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.buffer, want.buffer)


class TestStringSlots:
    """The rebasing assembly against the concatenating one it replaced
    (``assembly_reference.concat``), byte for byte."""

    @pytest.mark.parametrize("narrow", [np.uint8, np.uint16, np.uint32, np.int64])
    def test_narrow_offsets_rebase_like_wide_ones(self, narrow):
        rng = np.random.default_rng(7)
        # Buffers straddling each narrow dtype's range, rebased past it.
        longest = {np.uint8: 250, np.uint16: 65_000, np.uint32: 70_000, np.int64: 9}[narrow]
        parts = [_uniform_pool(rng, count, longest // max(count, 1)) for count in (1, 0, 3, 1, 2)]
        slots = strutil.StringSlots(sum(map(len, parts)))
        row = 0
        for part in parts:
            slots.fill(row, part.buffer, part.offsets.astype(narrow))
            row += len(part)
        _assert_same_strings(slots.finish(row), assembly_reference.concat(parts))

    def test_one_block_adopts_its_offsets(self):
        part = StringArray.from_pylist(["ab", "", "cde"])
        slots = strutil.StringSlots(3)
        slots.fill(0, part.buffer, part.offsets)
        got = slots.finish(3)
        assert got.offsets is part.offsets and got.buffer is part.buffer

    def test_holes_compact_and_placeholders_are_empty(self):
        """A skipped block's rows are a hole the caller shifts later ends
        over (no bytes were added); a placeholder's rows are empty strings."""
        a, b = StringArray.from_pylist(["x", "yy"]), StringArray.from_pylist(["zzz"])
        slots = strutil.StringSlots(2 + 4 + 2 + 1)
        slots.fill(0, a.buffer, a.offsets)
        # rows 2-5: a skipped block's hole; rows 6-7: a NULL block
        slots.fill_empty(6, 2)
        slots.fill(8, b.buffer, b.offsets)
        slots.ends[2:5] = slots.ends[6:9]
        got = slots.finish(5)
        assert got.to_pylist() == [b"x", b"yy", b"", b"", b"zzz"]
        assert not np.shares_memory(got.offsets, slots.offsets)

    def test_concat_of_nothing_is_empty(self):
        assert len(concat([])) == 0 and concat([]).buffer.size == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.binary(max_size=40), max_size=12), max_size=8),
    st.lists(st.sampled_from(["<u1", "<u2", "<u4", "<i8"]), min_size=8, max_size=8),
)
def test_property_slots_equal_the_concatenating_assembly(blocks, dtypes):
    """Any blocks, offsets in any dtype they fit (the decode cache's narrow
    entries), assemble to the reference's exact offsets and buffer."""
    parts = [StringArray.from_pylist(rows) for rows in blocks]
    slots = strutil.StringSlots(sum(map(len, parts)))
    row = 0
    for part, dtype in zip(parts, dtypes):
        if part.buffer.size >= np.iinfo(dtype).max:
            dtype = "<i8"
        slots.fill(row, part.buffer, part.offsets.astype(dtype))
        row += len(part)
    _assert_same_strings(slots.finish(row), assembly_reference.concat(parts))
    if len(parts) != 1:
        _assert_same_strings(concat(parts), assembly_reference.concat(parts))


class TestRuns:
    def test_run_boundaries(self):
        codes = np.array([1, 1, 2, 2, 2, 1])
        assert run_boundaries(codes).tolist() == [0, 2, 5]

    def test_average_run_length(self):
        assert average_run_length(np.array([5, 5, 5, 5])) == 4.0
        assert average_run_length(np.array([1, 2, 3])) == 1.0
        assert average_run_length(np.empty(0, dtype=np.int64)) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.binary(max_size=8), min_size=1, max_size=20),
    st.lists(st.integers(0, 19), max_size=100),
)
def test_property_gather_matches_python(pool_values, raw_indices):
    pool = StringArray.from_pylist(pool_values)
    indices = np.array([i % len(pool_values) for i in raw_indices], dtype=np.int64)
    out = gather(pool, indices)
    assert out.to_pylist() == [pool_values[int(i)] for i in indices]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.binary(max_size=40), min_size=1, max_size=30),
    st.lists(st.integers(0, 29), max_size=120),
    st.sampled_from([(1, 1 << 40), (1 << 40, 1), (1 << 40, 64), (8, 256), (1 << 40, 1 << 40)]),
)
def test_property_every_kernel_matches_the_reference(pool_values, raw_indices, constants):
    """Random pools x selections under shrunken selection constants, so word,
    block and index kernels all run on Hypothesis-sized inputs."""
    pool = StringArray.from_pylist(pool_values)
    indices = np.array([i % len(pool_values) for i in raw_indices], dtype=np.int64)
    saved = strutil._WORD_MIN_ROWS, strutil._BLOCK_CALL_BYTES
    strutil._WORD_MIN_ROWS, strutil._BLOCK_CALL_BYTES = constants
    try:
        got = gather(pool, indices)
    finally:
        strutil._WORD_MIN_ROWS, strutil._BLOCK_CALL_BYTES = saved
    want = _reference_gather(pool, indices)
    assert np.array_equal(got.buffer, want.buffer) and np.array_equal(got.offsets, want.offsets)
    assert got.to_pylist() == [pool_values[int(i)] for i in indices]
