"""Bit-identity of the zero-copy decode path and the decode cache.

The contract: ``decompress_column``'s preallocated path (number
blocks decoded into their slice, string blocks' offsets rebased into the
column's) and cache-served decodes must be byte-equal to the legacy per-block
assembly (``decode_block`` + the concatenating ``assemble_column`` kept in
``assembly_reference.py``) for every scheme family ×
dtype × NULL layout — including when ~5% of blocks are damaged, under every
``on_corrupt`` mode. A warm cache must never mask fresh corruption, and
``DecodeLimits`` must bind before the cache can serve anything — for
number and string blocks alike, on the scan path and on ``read_rows``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core.access import read_rows
from repro.core.blocks import CompressedBlock
from repro.core.cache import DecodeCache
from repro.core.compressor import compress_column
from repro.core.config import BtrBlocksConfig, DEFAULT_DECODE_LIMITS
from repro.core.decompressor import ON_CORRUPT_MODES, decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.encodings import strutil
from repro.encodings.base import SchemeId, all_schemes
from repro.encodings.wire import unwrap
from repro.exceptions import BtrBlocksError, DecodeLimitError, IntegrityError
from repro.observe import MetricsRegistry, use_registry
from repro.types import Column, ColumnType, StringArray

import assembly_reference

SEED = int(os.environ.get("REPRO_FAULT_SEED", "418"), 0)
ROWS = 3000
#: Small blocks so every column spans several of them (~6 at ROWS=3000) —
#: multi-block is what exercises slice offsets and compaction.
CONFIG = BtrBlocksConfig(block_size=512)


def _scheme_columns() -> "dict[str, Column]":
    """One workload per scheme family, shaped to make that scheme win."""
    rng = np.random.default_rng(SEED)
    fastpfor = rng.integers(0, 64, ROWS)
    outliers = rng.random(ROWS) < 0.02
    fastpfor[outliers] = rng.integers(2**20, 2**28, int(outliers.sum()))
    vocab = [f"category-{i:04d}" for i in range(64)]
    return {
        "one_value": Column.ints("v", np.full(ROWS, 7, dtype=np.int64)),
        "rle": Column.ints("v", np.repeat(rng.integers(0, 50, ROWS // 20 + 1), 20)[:ROWS]),
        "frequency": Column.ints(
            "v", np.where(rng.random(ROWS) < 0.9, 42, rng.integers(0, 10_000, ROWS))
        ),
        "bitpack": Column.ints("v", rng.integers(0, 255, ROWS)),
        "fastpfor": Column.ints("v", fastpfor),
        "pseudodecimal": Column.doubles("v", np.round(rng.uniform(0, 10_000, ROWS), 2)),
        "dictionary": Column.strings(
            "v", [vocab[i] for i in rng.integers(0, len(vocab), ROWS)]
        ),
        "fsst": Column.strings(
            "v", [f"https://example.com/api/v2/item/{int(x):08x}" for x in
                  rng.integers(0, 2**31, ROWS)]
        ),
    }


NULL_LAYOUTS = {
    "no_nulls": None,
    "sparse_nulls": lambda n: np.arange(0, n, 97),
    "dense_nulls": lambda n: np.arange(0, n, 2),
}


def _with_nulls(column: Column, layout: str) -> Column:
    make = NULL_LAYOUTS[layout]
    if make is None:
        return column
    nulls = RoaringBitmap.from_positions(make(len(column)))
    return Column(column.name, column.ctype, column.data, nulls)


def _compressed(column: Column, config: BtrBlocksConfig = CONFIG):
    """A checksummed (v2) in-memory column, as a remote read would see it."""
    return column_from_bytes(column_to_bytes(compress_column(column, config)))


def _string_columns(columns: "dict[str, Column]") -> "dict[str, tuple[int, Column]]":
    """``root scheme id, column`` per string scheme a cached block can come from."""
    rng = np.random.default_rng(SEED + 2)
    rare = [f"exception-{int(x):07x}" for x in rng.integers(0, 2**28, ROWS)]
    common = rng.random(ROWS) < 0.9
    raw = rng.integers(0, 256, (ROWS, 12), dtype=np.uint8)
    return {
        "fsst": (SchemeId.FSST, columns["fsst"]),
        "dictionary": (SchemeId.DICT_STRING, columns["dictionary"]),
        "frequency": (
            SchemeId.FREQUENCY_STRING,
            Column.strings("v", ["most-common" if c else r for c, r in zip(common, rare)]),
        ),
        "uncompressed": (
            SchemeId.UNCOMPRESSED_STRING,
            Column.strings("v", StringArray.from_pylist([row.tobytes() for row in raw])),
        ),
    }


def _cache_cases():
    """``(case id, source column, compressed)``: the number column the cache
    tests always used, then every string scheme x NULLs x multi- / single-block
    (a single-block column adopts its one block's offsets)."""
    integers = {s.scheme_id for s in all_schemes() if s.ctype is ColumnType.INTEGER}
    columns = _scheme_columns()
    cases = [("bitpack", columns["bitpack"], _compressed(columns["bitpack"]))]
    for name, (root, column) in _string_columns(columns).items():
        pool = integers | {root, SchemeId.UNCOMPRESSED_STRING}
        for layout in ("no_nulls", "sparse_nulls"):
            for blocks, block_size in (("multi", 512), ("single", 4096)):
                source = _with_nulls(column, layout)
                compressed = _compressed(
                    source, BtrBlocksConfig(block_size=block_size).with_pool(pool)
                )
                assert len(compressed.blocks) == (1 if blocks == "single" else 6)
                assert {unwrap(block.data)[0] for block in compressed.blocks} == {root}
                cases.append((f"{name}-{layout}-{blocks}", source, compressed))
    return cases


def _legacy_decode(compressed, on_corrupt: str = "raise") -> Column:
    """The path before the preallocated assembly: per-block decode + concatenation."""
    return assembly_reference.decode_column(compressed, on_corrupt)


def _assert_bit_identical(a: Column, b: Column) -> None:
    assert a.name == b.name and a.ctype is b.ctype
    if a.ctype is ColumnType.STRING:
        assert isinstance(a.data, StringArray) and isinstance(b.data, StringArray)
        assert np.array_equal(a.data.offsets, b.data.offsets)
        assert np.array_equal(a.data.buffer, b.data.buffer)
    else:
        assert a.data.dtype == b.data.dtype
        assert a.data.tobytes() == b.data.tobytes()
    assert (a.nulls or RoaringBitmap()) == (b.nulls or RoaringBitmap())


def _damage(compressed, rate: float = 0.05):
    """Flip one payload byte in ~rate of the blocks (at least one)."""
    damaged = column_from_bytes(column_to_bytes(compressed))
    rng = np.random.default_rng(SEED + 1)
    hits = [i for i in range(len(damaged.blocks)) if rng.random() < rate]
    if not hits:
        hits = [len(damaged.blocks) // 2]
    for index in hits:
        block = damaged.blocks[index]
        data = bytearray(block.data)
        data[len(data) // 2] ^= 0x40
        damaged.blocks[index] = dataclasses.replace(block, data=bytes(data))
    return damaged, hits


_CASES = [
    (scheme, layout)
    for scheme in _scheme_columns()
    for layout in NULL_LAYOUTS
]


@pytest.fixture(scope="module")
def columns():
    return _scheme_columns()


@pytest.fixture(scope="module")
def cache_cases():
    return _cache_cases()


@pytest.mark.parametrize("scheme,layout", _CASES, ids=[f"{s}-{l}" for s, l in _CASES])
def test_zero_copy_matches_legacy(columns, scheme, layout):
    compressed = _compressed(_with_nulls(columns[scheme], layout))
    assert len(compressed.blocks) > 1
    _assert_bit_identical(decompress_column(compressed), _legacy_decode(compressed))


@pytest.mark.parametrize("scheme,layout", _CASES, ids=[f"{s}-{l}" for s, l in _CASES])
def test_cache_hit_matches_legacy(columns, scheme, layout):
    compressed = _compressed(_with_nulls(columns[scheme], layout))
    registry = MetricsRegistry()
    cache = DecodeCache(64 << 20)
    with use_registry(registry):
        first = decompress_column(compressed, cache=cache, cache_key=("obj", 1))
        second = decompress_column(compressed, cache=cache, cache_key=("obj", 1))
    legacy = _legacy_decode(compressed)
    _assert_bit_identical(first, legacy)
    _assert_bit_identical(second, legacy)
    # Every type takes the cached path: the first pass misses and fills,
    # the second is served entirely from the cache.
    assert registry.get("decode.cache.miss") == len(compressed.blocks)
    assert registry.get("decode.cache.hit") == len(compressed.blocks)


@pytest.mark.parametrize("mode", [m for m in ON_CORRUPT_MODES if m != "raise"])
@pytest.mark.parametrize("scheme,layout", _CASES, ids=[f"{s}-{l}" for s, l in _CASES])
def test_damaged_blocks_degrade_identically(columns, scheme, layout, mode):
    compressed = _compressed(_with_nulls(columns[scheme], layout))
    damaged, hits = _damage(compressed)
    assert hits
    _assert_bit_identical(
        decompress_column(damaged, on_corrupt=mode),
        _legacy_decode(damaged, on_corrupt=mode),
    )


@pytest.mark.parametrize("scheme,layout", _CASES, ids=[f"{s}-{l}" for s, l in _CASES])
def test_damaged_blocks_raise_identically(columns, scheme, layout):
    damaged, _hits = _damage(_compressed(_with_nulls(columns[scheme], layout)))
    with pytest.raises(IntegrityError):
        decompress_column(damaged)
    with pytest.raises(IntegrityError):
        _legacy_decode(damaged)


@pytest.mark.parametrize("mode", ON_CORRUPT_MODES)
def test_warm_cache_never_masks_damage(cache_cases, mode):
    """A cache warmed with the clean rows must not hide later corruption.

    The damaged block keeps its stored checksum, so its cache key still
    matches the clean entry — the CRC32 of the block in hand is the only
    thing standing between a warm cache and silently serving stale rows.
    ``verify_block`` hashes each block object once, and the damaged block
    is a new object (as every fresh download is), so it is hashed and
    turned down. A turned-down entry is decoded, so it is billed as a
    miss, not a hit.
    """
    for case, _source, compressed in cache_cases:
        cache = DecodeCache(64 << 20)
        key = ("obj", 1)
        decompress_column(compressed, cache=cache, cache_key=key)
        assert len(cache) == len(compressed.blocks), case
        damaged, hits = _damage(compressed)
        registry = MetricsRegistry()
        with use_registry(registry):
            if mode == "raise":
                with pytest.raises(IntegrityError):
                    decompress_column(damaged, on_corrupt=mode, cache=cache, cache_key=key)
            else:
                _assert_bit_identical(
                    decompress_column(damaged, on_corrupt=mode, cache=cache, cache_key=key),
                    _legacy_decode(damaged, on_corrupt=mode),
                )
        # "raise" stops at the first damaged block; the others run through.
        blocks = hits[0] + 1 if mode == "raise" else len(compressed.blocks)
        damaged_seen = 1 if mode == "raise" else len(hits)
        assert registry.get("decode.cache.miss") == damaged_seen, case
        assert registry.get("decode.cache.hit") == blocks - damaged_seen, case
        assert len(cache) == len(compressed.blocks), case  # nothing degraded went in


def test_decode_limits_bind_before_cache(cache_cases):
    """``max_rows_per_block`` rejects the column even with every block cached —
    on a scan and on a ``read_rows`` that every touched block could serve."""
    limits = dataclasses.replace(DEFAULT_DECODE_LIMITS, max_rows_per_block=100)
    for case, _source, compressed in cache_cases:
        cache = DecodeCache(64 << 20)
        decompress_column(compressed, cache=cache, cache_key=("obj", 1))
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(DecodeLimitError):
                decompress_column(compressed, limits=limits, cache=cache, cache_key=("obj", 1))
            with pytest.raises(DecodeLimitError):
                read_rows(compressed, [0, 5], limits=limits, cache=cache, cache_key=("obj", 1))
        assert registry.get("decode.cache.hit") == 0, case


def test_cache_capacity_zero_never_serves(columns, cache_cases):
    cases = [("rle", _compressed(columns["rle"]))] + [(c, z) for c, _s, z in cache_cases]
    for case, compressed in cases:
        registry = MetricsRegistry()
        cache = DecodeCache(0)
        with use_registry(registry):
            decompress_column(compressed, cache=cache, cache_key=("obj", 1))
            out = decompress_column(compressed, cache=cache, cache_key=("obj", 1))
        assert registry.get("decode.cache.hit") == 0, case
        assert len(cache) == 0, case
        _assert_bit_identical(out, _legacy_decode(compressed))


# -- what a cached entry is ------------------------------------------------------


def _arrays(column: Column) -> "list[np.ndarray]":
    data = column.data
    return [data.buffer, data.offsets] if isinstance(data, StringArray) else [data]


def test_writing_into_a_served_column_cannot_reach_the_cache(cache_cases):
    """Served arrays are either read-only or the caller's own copy."""
    for case, _source, compressed in cache_cases:
        cache = DecodeCache(64 << 20)
        decompress_column(compressed, cache=cache, cache_key=("obj", 1))
        served = decompress_column(compressed, cache=cache, cache_key=("obj", 1))
        for array in _arrays(served):
            try:
                array[...] = 1
            except ValueError:
                assert not array.flags.writeable, case
        again = decompress_column(compressed, cache=cache, cache_key=("obj", 1))
        _assert_bit_identical(again, _legacy_decode(compressed))


def _blocks(*counts: int) -> "list[CompressedBlock]":
    """Blocks as a column entry records them: declared counts, a CRC32 each."""
    return [CompressedBlock(count, b"", checksum=index) for index, count in enumerate(counts)]


def test_string_entries_are_charged_evicted_and_bounded_like_number_entries():
    def strings(rows: int, width: int) -> StringArray:
        return StringArray.from_pylist([b"x" * width] * rows)

    small = strings(100, 2)  # 200 bytes + 101 eight-byte offsets
    wide = strings(100, 3)  # 300 bytes + 101 eight-byte offsets
    registry = MetricsRegistry()
    with use_registry(registry):
        cache = DecodeCache(2400)
        cache.put("small", small, _blocks(60, 40))
        assert cache.current_bytes == 200 + 8 * 101 and len(cache) == 2
        cache.put("wide", wide, _blocks(100))
        assert cache.current_bytes == 200 + 8 * 101 + 300 + 8 * 101
        cache.put("ints", np.arange(40, dtype=np.int32), _blocks(40))
        assert cache.current_bytes == 2116 + 160 and len(cache) == 4
        # Touch the oldest entry: the next insert evicts "wide", not it.
        assert cache.get("small").span(0, 2) == small
        cache.put("again", strings(100, 2), _blocks(100))
        assert "wide" not in cache and "small" in cache and "ints" in cache
        assert registry.get("decode.cache.evict") == 1
        before = cache.current_bytes
        cache.put("too-big", strings(100, 16), _blocks(100))  # 1600 bytes + offsets > budget
        assert "too-big" not in cache and cache.current_bytes == before
        assert cache.get("too-big") is None
        assert registry.get("decode.cache.declined") == 1


def test_string_entry_owns_its_memory_and_carries_no_memo(cache_cases):
    """No entry is a view onto a block payload, an entry is stored as a
    read-only pair (``int64`` offsets) and served as a new ``StringArray``
    -- the whole column over the entry's own offsets, a slice over a rebased
    copy -- and ``encode_distinct``'s memo on a served column never rides
    back into the cache."""
    payload = bytes(range(256)) * 4
    offsets = np.arange(0, len(payload) + 1, 8)
    view = StringArray(np.frombuffer(payload, dtype=np.uint8), offsets)
    assert view.buffer.base is not None
    cache = DecodeCache(1 << 20)
    cache.put("k", view, _blocks(3, 4, len(view) - 7))
    entry = cache.get("k")
    buffer, stored = entry.values
    assert entry.span(0, 3) == view and stored.dtype == np.int64
    assert entry.span(0, 3) is not entry.span(0, 3)
    assert entry.span(0, 3).offsets is stored
    assert entry.span(1, 2) == StringArray.from_pylist(view.to_pylist()[3:7])
    assert entry.span(0, 2).offsets is not stored and entry.span(0, 2).offsets.flags.owndata
    assert buffer.flags.owndata and not buffer.flags.writeable and not stored.flags.writeable
    assert not np.shares_memory(buffer, view.buffer)
    assert not np.shares_memory(stored, offsets)
    # The same through the real decode: Uncompressed strings decode to a
    # view of the block payload, and what the cache serves is not one.
    case, _source, compressed = next(c for c in cache_cases if c[0] == "uncompressed-no_nulls-single")
    decode_cache = DecodeCache(1 << 20)
    decoded = decompress_column(compressed, cache=decode_cache, cache_key=("obj", 1))
    assert isinstance(decoded.data.buffer.base, bytes), case
    served = decompress_column(compressed, cache=decode_cache, cache_key=("obj", 1))
    assert served.data.buffer.flags.owndata, case
    strutil.encode_distinct(served.data)
    again = decompress_column(compressed, cache=decode_cache, cache_key=("obj", 1))
    assert again.data._distinct is None, case


# -- read_rows through the cache -------------------------------------------------


def _selections(rows: int, nulls: "RoaringBitmap | None") -> "dict[str, np.ndarray]":
    rng = np.random.default_rng(SEED + 3)
    selections = {
        "sorted": np.unique(rng.integers(0, rows, rows // 7)),
        "unsorted_duplicates": rng.integers(0, rows, 400),
        "empty": np.empty(0, dtype=np.int64),
        "one_block": np.arange(600, 700),
        "everything": np.arange(rows),
    }
    if nulls is not None:
        selections["only_nulls"] = nulls.to_array()[::3].astype(np.int64)
    return selections


def _oracle_rows(source: Column, rows: np.ndarray) -> Column:
    """NumPy oracle: index the *source* column, NULLs by mask."""
    if isinstance(source.data, StringArray):
        values = source.data.to_pylist()
        data = StringArray.from_pylist([values[i] for i in rows.tolist()])
    else:
        data = source.data[rows]
    null_rows = np.flatnonzero(source.null_mask()[rows])
    nulls = RoaringBitmap.from_positions(null_rows) if null_rows.size else None
    return Column(source.name, source.ctype, data, nulls)


def _read_rows_cases(columns, cache_cases):
    doubles = _with_nulls(columns["pseudodecimal"], "sparse_nulls")
    return cache_cases + [("pseudodecimal-sparse_nulls", doubles, _compressed(doubles))]


_FILTERED = [f"query.cdomain.filtered.{name}" for name in ("blocks", "rows_selected", "rows_total")]


def test_read_rows_hit_matches_miss_matches_oracle(columns, cache_cases):
    for case, source, compressed in _read_rows_cases(columns, cache_cases):
        warm, key = DecodeCache(64 << 20), ("obj", 1)
        decompress_column(compressed, cache=warm, cache_key=key)
        for name, rows in _selections(len(source), source.nulls).items():
            label = f"{case}/{name}"
            touched = len(np.unique(rows // compressed.blocks[0].count))
            cold, missed, hit = DecodeCache(64 << 20), MetricsRegistry(), MetricsRegistry()
            with use_registry(missed):
                from_miss = read_rows(compressed, rows, cache=cold, cache_key=key)
            with use_registry(hit):
                from_hit = read_rows(compressed, rows, cache=warm, cache_key=key)
            oracle = _oracle_rows(source, rows)
            _assert_bit_identical(from_miss, oracle)
            _assert_bit_identical(from_hit, oracle)
            _assert_bit_identical(read_rows(compressed, rows), oracle)
            # A selective read never fills the cache; a warm one serves
            # every touched block; both count the same touched rows.
            assert len(cold) == 0, label
            assert missed.get("decode.cache.miss") == touched, label
            assert hit.get("decode.cache.hit") == touched, label
            assert hit.get("decode.cache.miss") == 0, label
            assert hit.get("query.cdomain.filtered.full_decodes") == 0, label
            assert [hit.get(n) for n in _FILTERED] == [missed.get(n) for n in _FILTERED], label
            assert (hit.get("query.cdomain.filtered.rows_total") > 0) == (touched > 0), label


def _outcome(read):
    try:
        return read()
    except BtrBlocksError as exc:
        return type(exc)


def test_read_rows_damage_behind_a_warm_cache_takes_the_miss_path(cache_cases):
    """``read_rows`` does not verify what it decodes (its callers verified
    the download); a cached entry is still only served for an intact block,
    so a damaged one gets exactly the uncached treatment."""
    for case, source, compressed in cache_cases:
        warm, key = DecodeCache(64 << 20), ("obj", 1)
        decompress_column(compressed, cache=warm, cache_key=key)
        damaged, hits = _damage(compressed)
        rows = np.arange(len(source))
        registry = MetricsRegistry()
        with use_registry(registry):
            cached = _outcome(lambda: read_rows(damaged, rows, cache=warm, cache_key=key))
        plain = _outcome(lambda: read_rows(damaged, rows))
        if isinstance(plain, Column):
            _assert_bit_identical(cached, plain)
            assert registry.get("decode.cache.miss") == len(hits), case
            assert registry.get("decode.cache.hit") == len(compressed.blocks) - len(hits), case
        else:
            assert cached is plain, case
