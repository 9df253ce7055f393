"""Compressed-domain scan + selective materialisation vs the NumPy oracle.

The compressed-domain executor answers predicates without materialising
values (code-space compilation, per-run RLE evaluation, page-header
reject/accept), and the selection-vector decode materialises only chosen
rows (``decode_block(positions=)``). Both are pure optimisations, so this
suite locks down the only property that matters: they can never change an
answer. Every check compares against an oracle computed independently over
the uncompressed data:

* ``scan_column`` positions == NumPy mask positions, across data shapes
  crafted to steer the selector into every scheme family (and their
  cascades), four NULL layouts and every predicate type;
* ``filter_column`` values == decompress-evaluate-gather, bit-for-bit;
* ``decode_block(positions=)`` == full decode + take, for random
  selections, on every block of every shape;
* ``RemoteTable.scan`` with conjunctions == the same
  oracle, over a committed table;
* corrupted blocks produce the same typed errors and degrade results
  (``raise`` / ``skip`` / ``null_block``) on every route of
  ``decode_block`` — whole, ``positions=``, ``out=`` — and ``filter_column``
  holds blocks to the same gate — never silently wrong values.

Seeds follow ``REPRO_FAULT_SEED`` so CI's randomized fault-matrix run
replays through this suite too.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from manifest_forge import forge_crc32
from repro.bitmap import RoaringBitmap
from repro.cloud import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core.blocks import CompressedBlock
from repro.core.blockstats import unpack_zone
from repro.core.compressor import compress_block, compress_column, compress_relation
from repro.core.decompressor import (
    CorruptBlockResult,
    ON_CORRUPT_MODES,
    decode_block,
    decompress_block,
    decompress_column,
    make_context,
)
from repro.core.config import BtrBlocksConfig
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.core.relation import Relation
from repro.encodings import strutil
from repro.encodings.base import SchemeId
from repro.encodings.dictionary import clear_string_pool_cache, string_pool_cache
from repro.encodings.fsst import FSST_SCHEME
from repro.encodings.wire import Writer, unwrap, wrap
from repro.exceptions import (
    BtrBlocksError,
    CorruptBlockError,
    DecodeLimitError,
    IntegrityError,
)
from repro.observe import MetricsRegistry, use_registry
from repro.query.executor import filter_column, scan_block, scan_column
from repro.query.predicates import Between, Equals, GreaterThan, In, IsNull, LessThan
from repro.types import Column, ColumnType, StringArray

ROWS = 2048
BLOCK = 512
SEED = int(os.environ.get("REPRO_FAULT_SEED", "20240808"), 0)

CITIES = ["OSLO", "PARIS", "ROME", "ATHENS", "PHOENIX", "RALEIGH", "BERGEN"]


# -- data shapes: one per scheme family (and cascade) --------------------------


def _shape_one_value(rng):
    return Column.ints("v", np.full(ROWS, 42, dtype=np.int32))


def _shape_rle(rng):
    # Sorted run values: RLE whose values child is FOR/bit-packed — the
    # cascade where per-run evaluation meets page-header bounds.
    runs = np.sort(rng.integers(0, 5_000, ROWS // 16)).astype(np.int32)
    return Column.ints("v", np.repeat(runs, 16)[:ROWS])


def _shape_bitpack(rng):
    return Column.ints("v", rng.integers(0, 255, ROWS).astype(np.int32))


def _shape_sorted(rng):
    return Column.ints("v", np.sort(rng.integers(0, 100_000, ROWS)).astype(np.int32))


def _shape_fastpfor(rng):
    values = rng.integers(0, 64, ROWS)
    outliers = rng.random(ROWS) < 0.02
    values[outliers] = rng.integers(2**20, 2**28, int(outliers.sum()))
    return Column.ints("v", values.astype(np.int32))


def _shape_frequency(rng):
    values = np.where(rng.random(ROWS) < 0.9, 7, rng.integers(0, 10_000, ROWS))
    return Column.ints("v", values.astype(np.int32))


def _shape_dict_int(rng):
    vocab = np.asarray([3, 52, 77, 901, 4096, 70_001, 900_017], dtype=np.int32)
    return Column.ints("v", vocab[rng.integers(0, vocab.size, ROWS)])


def _shape_decimal(rng):
    return Column.doubles("v", np.round(rng.uniform(0.0, 500.0, ROWS), 2))


def _shape_dict_double(rng):
    vocab = np.asarray([0.25, 1.5, 3.75, 99.875, -12.5], dtype=np.float64)
    return Column.doubles("v", vocab[rng.integers(0, vocab.size, ROWS)])


def _shape_dict_string(rng):
    return Column.strings("v", [CITIES[i] for i in rng.integers(0, len(CITIES), ROWS)])


def _shape_dict_string_runs(rng):
    # Long categorical runs: dictionary whose code stream fuses into RLE —
    # the compiled code predicate evaluates once per run.
    ids = np.repeat(rng.integers(0, len(CITIES), ROWS // 32), 32)[:ROWS]
    return Column.strings("v", [CITIES[i] for i in ids])


def _shape_fsst(rng):
    return Column.strings(
        "v",
        [
            f"https://example.com/api/v2/item/{int(i):06d}?tag={CITIES[int(i) % 7]}"
            for i in rng.integers(0, 900, ROWS)
        ],
    )


SHAPES = {
    "one_value": _shape_one_value,
    "rle": _shape_rle,
    "bitpack": _shape_bitpack,
    "sorted": _shape_sorted,
    "fastpfor": _shape_fastpfor,
    "frequency": _shape_frequency,
    "dict_int": _shape_dict_int,
    "decimal": _shape_decimal,
    "dict_double": _shape_dict_double,
    "dict_string": _shape_dict_string,
    "dict_string_runs": _shape_dict_string_runs,
    "fsst": _shape_fsst,
}

NULL_LAYOUTS = ["none", "sparse", "dense", "blocky"]


def _null_bitmap(rng, layout: str) -> "RoaringBitmap | None":
    if layout == "none":
        return None
    if layout == "sparse":
        positions = rng.choice(ROWS, size=max(1, ROWS // 20), replace=False)
    elif layout == "dense":
        positions = rng.choice(ROWS, size=ROWS // 2, replace=False)
    else:  # "blocky": a NULL run straddling block boundaries
        start = int(rng.integers(0, ROWS // 2))
        positions = np.arange(start, min(ROWS, start + ROWS // 3))
    return RoaringBitmap.from_positions(np.sort(positions))


def _make_column(shape: str, null_layout: str) -> Column:
    rng = np.random.default_rng(SEED + hash(shape) % 10_000)
    column = SHAPES[shape](rng)
    return Column(column.name, column.ctype, column.data, _null_bitmap(rng, null_layout))


# -- predicates derived from the data ------------------------------------------


def _predicates(column: Column) -> list:
    """(id, predicate) pairs that straddle real values for this column."""
    if column.ctype is ColumnType.STRING:
        values = list(column.data)
        present = values[0].decode()
        return [
            ("eq", Equals(present)),
            ("eq-absent", Equals("ZANZIBAR")),
            ("between", Between("A", "P")),
            ("in", In([present, "BERGEN", "NOWHERE"])),
            ("isnull", IsNull()),
        ]
    data = np.asarray(column.data)
    lo = data.min()
    q10, q50, q90 = np.quantile(data, [0.1, 0.5, 0.9])
    present = data[len(data) // 3]
    caster = float if column.ctype is ColumnType.DOUBLE else int
    return [
        ("eq", Equals(caster(present))),
        ("eq-absent", Equals(caster(lo) - 17)),
        ("between", Between(caster(q10), caster(q50))),
        ("between-empty", Between(caster(data.max()) + 10, caster(data.max()) + 20)),
        ("gt", GreaterThan(caster(q90))),
        ("gt-inclusive", GreaterThan(caster(q50), inclusive=True)),
        ("lt-inclusive", LessThan(caster(q10), inclusive=True)),
        ("in", In([caster(present), caster(q90), caster(lo) - 99])),
        ("isnull", IsNull()),
    ]


# -- the oracle ----------------------------------------------------------------


def _oracle_mask(column: Column, predicate) -> np.ndarray:
    nulls = np.zeros(len(column), dtype=bool)
    if column.nulls is not None:
        nulls[column.nulls.to_array()] = True
    if isinstance(predicate, IsNull):
        return nulls
    return np.asarray(predicate.evaluate(column.data), dtype=bool) & ~nulls


def _gather(ctype: ColumnType, values, positions: np.ndarray):
    if ctype is ColumnType.STRING:
        return strutil.gather(values, np.asarray(positions, dtype=np.int64))
    return np.asarray(values)[positions]


def _values_equal(ctype: ColumnType, got, expected) -> bool:
    if ctype is ColumnType.STRING:
        return list(got) == list(expected)
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape or got.dtype != expected.dtype:
        return False
    # Bit-for-bit, so NaN payloads and negative zero count too.
    return bool(np.array_equal(got.view(np.uint8), expected.view(np.uint8)))


# -- scan / filter / filtered-decode equivalence -------------------------------


@pytest.mark.parametrize("null_layout", NULL_LAYOUTS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_scan_and_filter_match_oracle(shape, null_layout):
    column = _make_column(shape, null_layout)
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    decoded = decompress_column(compressed)
    assert _values_equal(column.ctype, decoded.data, column.data)

    for case_id, predicate in _predicates(column):
        mask = _oracle_mask(column, predicate)
        context = f"{shape}/{null_layout}/{case_id}"

        got = scan_column(compressed, predicate).to_array()
        assert np.array_equal(got, np.flatnonzero(mask)), context

        if isinstance(predicate, IsNull):
            continue  # filter_column materialises value rows only
        filtered = filter_column(compressed, predicate)
        expected = _gather(column.ctype, column.data, np.flatnonzero(mask))
        assert _values_equal(column.ctype, filtered.data, expected), context


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_filtered_decode_matches_full_decode_take(shape):
    """decode_block(positions=) == decode + take, on every block."""
    rng = np.random.default_rng(SEED + 1)
    column = _make_column(shape, "none")
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    ctx = make_context()
    for block in compressed.blocks:
        full = decode_block(block, compressed.ctype, ctx)
        for size in (0, 1, 7, block.count):
            if size > block.count:
                continue
            positions = np.sort(rng.choice(block.count, size=size, replace=False))
            got = decode_block(block, compressed.ctype, ctx, positions=positions)
            expected = _gather(compressed.ctype, full, positions)
            assert _values_equal(compressed.ctype, got, expected), (shape, size)


def test_matrix_exercises_multiple_scheme_families():
    """The shape matrix must actually steer the selector broadly, or the
    oracle checks above silently degrade to testing one code path."""
    roots = set()
    for shape in SHAPES:
        column = _make_column(shape, "none")
        compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
        roots.update(block.root_scheme_name for block in compressed.blocks)
    assert len(roots) >= 5, f"only {sorted(roots)} reached"


def test_filtered_decode_positions_contract():
    """Out-of-range positions are an integrity violation, not an index bug."""
    column = _make_column("bitpack", "none")
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    ctx = make_context()
    block = compressed.blocks[0]
    with pytest.raises(CorruptBlockError):
        decode_block(
            block, compressed.ctype, ctx, positions=np.asarray([block.count], dtype=np.int64)
        )
    with pytest.raises(CorruptBlockError):
        decode_block(block, compressed.ctype, ctx, positions=np.asarray([-1], dtype=np.int64))


def test_filtered_decode_counters_scale_with_selectivity():
    column = _make_column("sorted", "none")
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    data = np.asarray(column.data)

    def rows_selected(fraction: float) -> int:
        hi = int(np.quantile(data, fraction))
        registry = MetricsRegistry()
        with use_registry(registry):
            filter_column(compressed, Between(int(data.min()), hi))
        return int(registry.get("query.cdomain.filtered.rows_selected"))

    narrow, wide = rows_selected(0.01), rows_selected(0.5)
    assert 0 < narrow < wide
    assert narrow <= ROWS * 0.05  # decode work tracks selectivity


def _fsst_pool_table():
    """A committed one-column table whose every block is a dictionary with
    an FSST-compressed pool: ``(store, relation)``."""
    rng = np.random.default_rng(SEED + 3)
    urls = [f"https://lake.example.com/tenant/{i % 7}/object-{i:05d}.parquet" for i in range(300)]
    column = Column.strings("url", [urls[i] for i in rng.integers(0, len(urls), ROWS)])
    relation = Relation("pools", [column])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=BLOCK)))
    for block in RemoteTable.open(store, relation.name).fetch_column("url").blocks:
        _scheme, _count, payload = unwrap(block.data)
        assert _scheme == SchemeId.DICT_STRING and payload[0] == 1  # pool kind: FSST
    return store, relation


def test_string_pool_cache_hits_on_repeat_scans(monkeypatch):
    column = _make_column("dict_string", "none")
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    clear_string_pool_cache()
    registry = MetricsRegistry()
    with use_registry(registry):
        first = filter_column(compressed, Equals(CITIES[0]))
        second = filter_column(compressed, Equals(CITIES[0]))
    assert list(first.data) == list(second.data)
    assert registry.get("query.cdomain.pool_cache.miss") > 0
    assert registry.get("query.cdomain.pool_cache.hit") > 0

    # The full route: a second fresh handle's scan decodes no FSST pool.
    store, relation = _fsst_pool_table()
    pool_decodes = []
    fsst_decompress = FSST_SCHEME.decompress
    monkeypatch.setattr(
        FSST_SCHEME, "decompress", lambda *a: pool_decodes.append(1) or fsst_decompress(*a)
    )
    RemoteTable.open(store, relation.name).scan()
    assert pool_decodes
    pool_decodes.clear()
    registry = MetricsRegistry()
    with use_registry(registry):
        warm = RemoteTable.open(store, relation.name).scan()
    assert not pool_decodes
    assert registry.get("query.cdomain.pool_cache.hit") == ROWS // BLOCK
    assert registry.get("query.cdomain.pool_cache.miss") == 0
    clear_string_pool_cache()
    cold = RemoteTable.open(store, relation.name).scan()
    assert warm.columns[0].data == cold.columns[0].data == relation.column("url").data

    # A block that fails its CRC32 is never decoded, so it caches no pool.
    entry = RemoteTable.open(store, relation.name).column_entry("url")
    offset, size = unpack_zone(entry["zone"])[["offset", "size"]][1].tolist()
    damaged = bytearray(store._objects[entry["file"]])
    damaged[offset + size // 2] ^= 0x40
    store._objects[entry["file"]] = bytes(damaged)
    clear_string_pool_cache()
    with pytest.raises(IntegrityError):
        RemoteTable.open(store, relation.name).scan()
    assert len(string_pool_cache()) == 0
    clear_string_pool_cache()


def test_a_pool_with_a_forged_crc32_decodes_to_its_own_strings():
    """Two raw pools with the same kind, length, count and CRC32 but other
    bytes: every route serves each block its own pool, in either order."""
    def raw_pool(strings):
        offsets = np.cumsum([0] + [len(s) for s in strings], dtype=np.int64)
        return Writer().array(np.frombuffer(b"".join(strings), np.uint8)).array(offsets).getvalue()

    pools = [
        [b"alpha", b"bravo", b"charlie", b"zulu"],
        [b"ALPHA", b"BRAVO", b"CHARLIE", b"????"],
    ]
    lower = raw_pool(pools[0])
    at = 5 + len(b"ALPHABRAVOCHARLIE")  # "????": past the buffer array's header and three strings
    upper = forge_crc32(raw_pool(pools[1]), range(8 * at, 8 * at + 32), zlib.crc32(lower))
    pools[1][3] = upper[at : at + 4]
    assert len(upper) == len(lower) and upper != lower
    codes = np.random.default_rng(SEED).integers(0, 4, ROWS).astype(np.int32)
    codes_blob = compress_block(codes, ColumnType.INTEGER)
    blocks = [
        wrap(SchemeId.DICT_STRING, ROWS, Writer().u8(0).u32(4).blob(pool).blob(codes_blob).getvalue())
        for pool in (lower, upper)
    ]
    picks = np.flatnonzero(codes == 0)[:5]
    for order in ((0, 1), (1, 0)):
        clear_string_pool_cache()
        for i in order * 2:
            expected = [pools[i][c] for c in codes]
            assert decompress_block(blocks[i], ColumnType.STRING).to_pylist() == expected
            block = CompressedBlock(ROWS, blocks[i])
            got = decode_block(block, ColumnType.STRING, make_context(), positions=picks)
            assert got.to_pylist() == [pools[i][0]] * picks.size
            mask, hits = scan_block(blocks[i], ColumnType.STRING, Equals(pools[i][1]), values=True)
            assert np.array_equal(mask, codes == 1)
            assert hits.to_pylist() == [pools[i][1]] * int(mask.sum())
    clear_string_pool_cache()


# -- remote surfaces: committed table, conjunctions ----------------------------


def _remote_relation() -> Relation:
    rng = np.random.default_rng(SEED + 2)
    key = np.sort(rng.integers(0, 100_000, ROWS)).astype(np.int32)
    price = np.round(rng.uniform(0.0, 500.0, ROWS), 2)
    city = [CITIES[i] for i in rng.integers(0, len(CITIES), ROWS)]
    return Relation(
        "cdomain",
        [
            Column.ints("key", key, nulls=_null_bitmap(rng, "sparse")),
            Column.doubles("price", price),
            Column.strings("city", city, nulls=_null_bitmap(rng, "sparse")),
        ],
    )


def _relation_oracle_mask(relation: Relation, where: dict) -> np.ndarray:
    mask = np.ones(len(relation.columns[0]), dtype=bool)
    for name, predicate in where.items():
        mask &= _oracle_mask(relation.column(name), predicate)
    return mask


def test_remote_scan_surfaces_match_oracle():
    relation = _remote_relation()
    compressed = compress_relation(relation, BtrBlocksConfig(block_size=BLOCK))
    store = SimulatedObjectStore()
    TableWriter(store).write(compressed)
    key = np.asarray(relation.column("key").data)
    lo, hi = int(np.quantile(key, 0.02)), int(np.quantile(key, 0.25))
    cases = [
        ("range", {"key": Between(lo, hi)}),
        ("eq-str", {"city": Equals("OSLO")}),
        ("conjunction", {"key": Between(lo, int(np.quantile(key, 0.9))),
                         "city": In(["ROME", "PARIS"])}),
        ("conjunction-null", {"price": GreaterThan(100.0), "city": IsNull()}),
    ]
    for case_id, where in cases:
        mask = _relation_oracle_mask(relation, where)
        positions = np.flatnonzero(mask)
        expected_keys = np.asarray(relation.column("key").data)[positions]

        table = RemoteTable.open(store, relation.name)
        got = table.scan(columns=["key"], where=where)
        assert _values_equal(ColumnType.INTEGER, got.columns[0].data, expected_keys), case_id


# -- corruption: every decode route keeps one contract -------------------------


CORRUPT_SHAPES = ["rle", "sorted", "fastpfor", "frequency", "dict_string", "fsst"]
STRING_SHAPES = {"dict_string", "fsst"}

# The crossover routes a selection to the filtered kernel, to full-decode-
# then-take or to a plain whole-block decode. Damage must surface the same
# way whichever one a selection lands on -- and on the whole-block and
# into-a-slot routes too.
DISPATCH_SELECTIONS = ["sparse", "dense", "whole"]

CORRUPT_ROUTES = [
    pytest.param(shape, route, id=f"{shape}-{route}")
    for shape in CORRUPT_SHAPES
    for route in ["full", "out", *DISPATCH_SELECTIONS]
    if not (route == "out" and shape in STRING_SHAPES)  # only number blocks decode into a slot
]


def _checksummed(compressed):
    """Round-trip through the v2 container so blocks carry stored CRC32s."""
    return column_from_bytes(column_to_bytes(compressed))


def _dispatch_positions(rng, count: int, selection: str) -> np.ndarray:
    if selection == "whole":
        return np.arange(count, dtype=np.int64)
    size = 3 if selection == "sparse" else (3 * count) // 4
    return np.sort(rng.choice(count, size=size, replace=False))


@pytest.mark.parametrize("on_corrupt", ON_CORRUPT_MODES)
@pytest.mark.parametrize("shape, route", CORRUPT_ROUTES)
def test_corrupt_block_matrix_on_every_route(shape, route, on_corrupt):
    """A payload flip surfaces identically on every route of ``decode_block``
    (the whole block, a selection on each dispatcher path, the block into
    its slot): IntegrityError under ``raise``, no rows under ``skip``, a
    NULL placeholder of exactly the rows asked for under ``null_block`` --
    a slot zero-filled. Clean, each route gives decode-then-take's values."""
    rng = np.random.default_rng(SEED + 4)
    column = _make_column(shape, "none")
    compressed = _checksummed(compress_column(column, BtrBlocksConfig(block_size=BLOCK)))
    ctype, ctx = compressed.ctype, make_context()
    block = compressed.blocks[1]
    full = decode_block(block, ctype, ctx)
    route_args, expected = {}, full
    if route == "out":
        route_args["out"] = np.empty(block.count, dtype=full.dtype)
    elif route != "full":
        route_args["positions"] = _dispatch_positions(rng, block.count, route)
        expected = _gather(ctype, full, route_args["positions"])
    clean = decode_block(block, ctype, ctx, **route_args)
    if route == "out":
        assert clean is None and np.array_equal(route_args["out"], full)
        route_args["out"].fill(1)  # a degraded slot must not keep what it held
    else:
        assert _values_equal(ctype, clean, expected)

    payload = bytearray(block.data)
    payload[len(payload) // 2] ^= 0xFF
    block.data = bytes(payload)
    if on_corrupt == "raise":
        with pytest.raises(IntegrityError):
            decode_block(block, ctype, ctx, on_corrupt=on_corrupt, **route_args)
        return
    result = decode_block(block, ctype, ctx, on_corrupt=on_corrupt, **route_args)
    assert isinstance(result, CorruptBlockResult)
    assert len(result) == (len(expected) if on_corrupt == "null_block" else 0)
    if route == "out" and on_corrupt == "null_block":
        assert not route_args["out"].any()


@pytest.mark.parametrize(
    "on_corrupt, error",
    [("raise", DecodeLimitError), ("skip", DecodeLimitError), ("null_block", DecodeLimitError),
     ("bogus", ValueError)],
)
def test_filter_column_holds_blocks_to_the_decode_gate(on_corrupt, error):
    """``filter_column`` passes every block through the decode's own policy
    gate: a block declaring more rows than the limit raises DecodeLimitError
    under every policy -- its wrong CRC32 notwithstanding -- and an unknown
    policy is a ValueError, never a silently dropped block."""
    column = _make_column("bitpack", "none")
    compressed = _checksummed(compress_column(column, BtrBlocksConfig(block_size=BLOCK)))
    block = compressed.blocks[1]
    block.count = make_context().limits.max_rows_per_block + 1
    block.checksum ^= 1
    with pytest.raises(error):
        decode_block(block, compressed.ctype, make_context(), on_corrupt=on_corrupt)
    with pytest.raises(error):
        filter_column(compressed, Between(0, 255), on_corrupt=on_corrupt)


@pytest.mark.parametrize("shape", CORRUPT_SHAPES)
def test_corrupt_block_filter_column_degrades_cleanly(shape):
    """filter_column under degrade policies answers exactly the clean blocks'
    matches — the damaged block's rows vanish, nothing else changes."""
    column = _make_column(shape, "none")
    compressed = _checksummed(compress_column(column, BtrBlocksConfig(block_size=BLOCK)))
    corrupt_index = 1
    block = compressed.blocks[corrupt_index]
    payload = bytearray(block.data)
    payload[len(payload) // 2] ^= 0xFF
    block.data = bytes(payload)

    _case_id, predicate = _predicates(column)[0]  # Equals on a present value
    with pytest.raises(IntegrityError):
        filter_column(compressed, predicate, on_corrupt="raise")

    # The oracle, restricted to rows outside the damaged block.
    start = sum(b.count for b in compressed.blocks[:corrupt_index])
    mask = _oracle_mask(column, predicate)
    mask[start : start + block.count] = False
    expected = _gather(column.ctype, column.data, np.flatnonzero(mask))
    for policy in ("skip", "null_block"):
        got = filter_column(compressed, predicate, on_corrupt=policy)
        assert _values_equal(column.ctype, got.data, expected), policy


@pytest.mark.parametrize("selection", DISPATCH_SELECTIONS)
@pytest.mark.parametrize("shape", CORRUPT_SHAPES + ["decimal"])
def test_raw_node_flips_on_every_dispatcher_path(shape, selection):
    """Checksum-less damage: typed error, or a result of the requested length
    — and when the flip happens to be harmless, the right values."""
    import struct

    acceptable = (
        BtrBlocksError, ValueError, KeyError, IndexError, OverflowError, EOFError, struct.error,
    )
    rng = np.random.default_rng(SEED + 5)
    column = _make_column(shape, "none")
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    ctx = make_context()
    block = compressed.blocks[0]
    positions = _dispatch_positions(rng, block.count, selection)
    for offset in rng.integers(0, len(block.data), 40):
        damaged = bytearray(block.data)
        damaged[int(offset)] ^= 0x40
        clone = type(block)(count=block.count, data=bytes(damaged), nulls=block.nulls)
        try:
            result = decode_block(clone, compressed.ctype, ctx, positions=positions)
        except acceptable:
            continue
        assert len(result) == positions.size, f"offset {int(offset)}"
        # Whatever survived parsing must agree with the full decode of the
        # same damaged bytes: the dispatcher's choice may not change answers.
        try:
            full = decode_block(clone, compressed.ctype, ctx)
        except acceptable:
            continue
        assert _values_equal(
            compressed.ctype, result, _gather(compressed.ctype, full, positions)
        ), f"offset {int(offset)}"


def test_page_counters_count_only_nodes_served_page_wise():
    """``query.cdomain.pages*`` describe pages decided from headers. A node
    whose headers leave too many pages undecided decodes whole, and then none
    of its pages may be reported as skipped or accepted."""

    def page_counters(shape: str, predicate) -> "tuple[int, int, int]":
        compressed = compress_column(
            _make_column(shape, "none"), BtrBlocksConfig(block_size=BLOCK)
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            scan_column(compressed, predicate)
        return tuple(
            int(registry.get(f"query.cdomain.{name}"))
            for name in ("pages", "pages_skipped", "pages_accepted")
        )

    data = np.asarray(_make_column("sorted", "none").data)
    pages, skipped, _accepted = page_counters(
        "sorted", Between(int(data.min()), int(np.quantile(data, 0.05)))
    )
    assert pages > 0 and skipped > 0  # sorted values: headers decide most pages
    # Uniform values: every page's interval straddles the range, all undecided.
    assert page_counters("bitpack", Between(100, 150)) == (0, 0, 0)


def test_in_accepts_pages_whose_one_value_it_holds():
    """Page headers and zone maps share one interval test per predicate, so
    ``In`` accepts a bit-packed page whose bounds collapse onto one of its
    values (``lo == hi``) without unpacking it, as ``Equals`` does."""
    from repro.encodings.bitpack import FASTBP128_SCHEME
    from repro.encodings.wire import wrap
    from repro.query.executor import scan_block

    values = np.repeat(np.arange(64, dtype=np.int32) * 1000, 128)  # one value per page
    blob = wrap(FASTBP128_SCHEME.scheme_id, values.size, FASTBP128_SCHEME.compress(values, None))
    predicate = In([0, 5000, 7777])
    registry = MetricsRegistry()
    with use_registry(registry):
        mask, hits = scan_block(blob, ColumnType.INTEGER, predicate, values=True)
    assert np.array_equal(mask, predicate.evaluate(values))
    assert np.array_equal(hits, values[mask])
    counters = {name: int(registry.get(f"query.cdomain.{name}"))
                for name in ("pages", "pages_skipped", "pages_accepted")}
    assert counters == {"pages": 64, "pages_skipped": 62, "pages_accepted": 2}
