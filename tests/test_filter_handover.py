"""The filter hands its values to materialisation: a projected filter column
is decoded once.

``executor.block_mask`` returns a block's mask and, on request, the values at
its hit rows, built from what its route decoded (the decode cache's values,
a full decode, undecided and accepted bit-packed pages, RLE run values
repeated by their lengths, dictionary codes through the pool, Frequency's top
value plus exceptions, a One Value fill). ``RemoteTable.scan`` materialises a
projected filter column from them, also under a second predicate; the
in-memory ``filter_column`` does the same. Every answer here must be
bit-identical to the NumPy mask-then-gather oracle and to the column's own
decode-then-take, for every number scheme family at the root of the cascade
and string Dictionary (raw and FSST pool) x NULL layout x predicate kind x
a fresh handle on a zone-mapped table / on a stats-less one / a warm handle x
one or two predicates x the filter column projected or not.

The dictionary scan's pool-mask fallback holds every code to the pool, as
the decoder does (``TestOutOfRangeCodes``).

Seeds follow ``REPRO_FAULT_SEED`` like the fault-injection suites.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud import SimulatedObjectStore
from repro.cloud import remote_table
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core import access
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column, make_context
from repro.core.relation import Relation
from repro.encodings.base import SchemeId, get_scheme, take_values
from repro.encodings.wire import Reader, Writer, unwrap, wrap
from repro.exceptions import FormatError
from repro.observe import MetricsRegistry, use_registry
from repro.query.executor import filter_column, scan_block
from repro.query.predicates import Between, Equals, GreaterThan, In, IsNull
from repro.types import Column, ColumnType, StringArray

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20261017"), 0)
ROWS = 4096
BLOCK = 1024
BLOCKS = ROWS // BLOCK
LEAVES = {
    SchemeId.UNCOMPRESSED_INT, SchemeId.UNCOMPRESSED_DOUBLE, SchemeId.UNCOMPRESSED_STRING,
    SchemeId.FAST_BP128,
}
#: The second predicate, on ``id``: the middle half of the rows.
SECOND = Between(ROWS // 4, 3 * ROWS // 4 - 1)
_POOL_RAW, _POOL_FSST = 0, 1


def _families() -> "dict[str, tuple[int, Column]]":
    """``root scheme id, column`` per root family a filter column can have."""
    rng = np.random.default_rng(SEED)
    runs = np.repeat(rng.integers(0, 50, ROWS // 16), 16)
    rare = rng.integers(0, 10_000, ROWS)
    common = rng.random(ROWS) < 0.9
    pfor = rng.integers(0, 64, ROWS)
    outliers = rng.random(ROWS) < 0.02
    pfor[outliers] = rng.integers(2**20, 2**28, int(outliers.sum()))
    sparse = rng.integers(0, 12, ROWS) * 1_000_003
    modes = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
    urls = [f"https://lake.example.org/warehouse/part-{i:05d}/data.btr" for i in range(300)]
    return {
        "one_value_int": (SchemeId.ONE_VALUE_INT, Column.ints("v", np.full(ROWS, 7))),
        "rle_int": (SchemeId.RLE_INT, Column.ints("v", runs)),
        "dict_int": (SchemeId.DICT_INT, Column.ints("v", sparse)),
        "frequency_int": (SchemeId.FREQUENCY_INT, Column.ints("v", np.where(common, 42, rare))),
        "fastbp128": (SchemeId.FAST_BP128, Column.ints("v", rng.integers(0, 255, ROWS))),
        "fastpfor": (SchemeId.FAST_PFOR, Column.ints("v", pfor)),
        "uncompressed_int": (
            SchemeId.UNCOMPRESSED_INT,
            Column.ints("v", rng.integers(-(2**31), 2**31 - 1, ROWS)),
        ),
        "one_value_double": (SchemeId.ONE_VALUE_DOUBLE, Column.doubles("v", np.full(ROWS, 2.5))),
        "rle_double": (SchemeId.RLE_DOUBLE, Column.doubles("v", runs * 0.25)),
        "dict_double": (SchemeId.DICT_DOUBLE, Column.doubles("v", sparse * 0.5)),
        "frequency_double": (
            SchemeId.FREQUENCY_DOUBLE, Column.doubles("v", np.where(common, 4.25, rare * 0.5))
        ),
        "pseudodecimal": (
            SchemeId.PSEUDODECIMAL, Column.doubles("v", np.round(rng.uniform(0, 1e4, ROWS), 2))
        ),
        "uncompressed_double": (
            SchemeId.UNCOMPRESSED_DOUBLE, Column.doubles("v", rng.standard_normal(ROWS) * 1e300)
        ),
        "dict_string_raw_pool": (
            SchemeId.DICT_STRING, Column.strings("v", [modes[i] for i in rng.integers(0, 7, ROWS)])
        ),
        "dict_string_fsst_pool": (
            SchemeId.DICT_STRING, Column.strings("v", [urls[i] for i in rng.integers(0, 300, ROWS)])
        ),
    }


FAMILIES = _families()

NULL_LAYOUTS = {
    "no_nulls": None,
    "sparse_nulls": lambda n: np.arange(3, n, 97),
    "dense_nulls": lambda n: np.arange(0, n, 2),
}


def _with_nulls(column: Column, layout: str) -> Column:
    make = NULL_LAYOUTS[layout]
    if make is None:
        return column
    return Column(column.name, column.ctype, column.data, RoaringBitmap.from_positions(make(ROWS)))


def _raw(column: Column) -> np.ndarray:
    """The column as one comparable NumPy array (bytes objects for strings)."""
    if column.ctype is ColumnType.STRING:
        return np.array(column.data.to_pylist(), dtype=object)
    return np.asarray(column.data)


def _predicates(column: Column) -> "dict[str, object]":
    """Each predicate kind, with constants drawn from the column's values."""
    ordered = np.sort(_raw(column))
    low, mid, high = (ordered[int(q * (ROWS - 1))] for q in (0.25, 0.5, 0.75))
    if column.ctype is not ColumnType.STRING:
        low, mid, high = low.item(), mid.item(), high.item()
    return {
        "equals": Equals(mid),
        "in": In([low, high]),
        "between": Between(low, high),
        "greater_than": GreaterThan(mid),
        "is_null": IsNull(),
    }


def _mask(column: Column, predicate) -> np.ndarray:
    nulls = column.null_mask()
    if isinstance(predicate, IsNull):
        return nulls
    return np.asarray(predicate.evaluate(column.data), dtype=bool) & ~nulls


def _tables(column: Column, root: int) -> SimulatedObjectStore:
    """``zoned`` (manifest stats) and ``plain`` (``with_stats=False``)."""
    relation = Relation("zoned", [column, Column.ints("id", np.arange(ROWS))])
    compressed = compress_relation(
        relation, BtrBlocksConfig(block_size=BLOCK).with_pool(LEAVES | {root})
    )
    assert {unwrap(block.data)[0] for block in compressed.columns[0].blocks} == {root}
    store = SimulatedObjectStore()
    writer = TableWriter(store)
    writer.write(compressed)
    compressed.name = "plain"
    writer.write(compressed, with_stats=False)
    return store


def _same(got: Column, expected: Column) -> bool:
    """Bit-identical data and the same NULL rows."""
    if got.ctype is not expected.ctype or got.null_mask().tolist() != expected.null_mask().tolist():
        return False
    if got.ctype is ColumnType.STRING:
        return got.data.to_pylist() == expected.data.to_pylist()
    a, b = np.asarray(got.data), np.asarray(expected.data)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _scan(table: RemoteTable, columns, where):
    """``(relation, registry, read_rows calls, block-level filtered decodes)``."""
    registry = MetricsRegistry()
    with use_registry(registry), mock.patch.object(
        remote_table, "read_rows", wraps=remote_table.read_rows
    ) as reads, mock.patch.object(
        access, "_decode_node", wraps=access._decode_node
    ) as decodes:
        relation = table.scan(columns=columns, where=where)
    return relation, registry, reads.call_count, decodes.call_count


@pytest.mark.parametrize("layout", sorted(NULL_LAYOUTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scan_matches_the_oracle_and_decodes_once(family, layout):
    root, source = FAMILIES[family]
    column = _with_nulls(source, layout)
    store = _tables(column, root)
    warm = RemoteTable.open(store, "zoned")
    # What materialisation took its rows from before the handover: the
    # column's decode (NULL rows included, whatever they hold).
    decoded = warm.scan().column("v")
    for label, predicate in _predicates(column).items():
        for handle in ("fresh", "stats_less", "warm"):
            for second in (False, True):
                where = {"v": predicate, "id": SECOND} if second else {"v": predicate}
                mask = _mask(column, predicate)
                if second:
                    mask[: ROWS // 4] = mask[3 * ROWS // 4:] = False
                rows = np.flatnonzero(mask)
                for projected in (True, False):
                    case = f"{label}/{handle}/second={second}/projected={projected}"
                    table = {
                        "fresh": lambda: RemoteTable.open(store, "zoned"),
                        "stats_less": lambda: RemoteTable.open(store, "plain"),
                        "warm": lambda: warm,
                    }[handle]()
                    # Every projected column is a filter column, or ``id`` alone.
                    columns = (["v"] + ["id"] * second) if projected else ["id"]
                    relation, registry, reads, decodes = _scan(table, columns, where)
                    if "id" in columns:
                        assert np.array_equal(relation.column("id").data, rows), case
                    reused = registry.get("query.cdomain.filtered.reused_blocks")
                    if not projected:
                        assert reused == 0 or second, case  # only ``id`` is handed on
                        continue
                    got = relation.column("v")
                    expected = Column("v", column.ctype, take_values(decoded.data, rows),
                                      RoaringBitmap.from_positions(np.flatnonzero(
                                          column.null_mask()[rows])))
                    assert _same(got, expected), case
                    # The oracle: mask, then gather the source's non-NULL values.
                    present = ~got.null_mask()
                    assert _raw(got)[present].tolist() == _raw(column)[rows][present].tolist(), case
                    if isinstance(predicate, IsNull) or not rows.size:
                        continue
                    # Every route here decoded its hits: nothing is read again.
                    assert reads == 0 and decodes == 0, case
                    assert reused >= 1, case


@pytest.mark.parametrize("ctype", [ColumnType.INTEGER, ColumnType.STRING])
def test_a_block_that_handed_nothing_is_read_and_merged_in_row_order(ctype):
    """A Dictionary block whose every entry matches compiles to "all rows"
    and decodes no code: its rows are read (``read_rows``), the other
    blocks' come from the handover, and the column is in row order."""
    rng = np.random.default_rng(SEED)
    entries = [[1, 2], [1, 2, 3, 4], [3, 4], [1, 2, 5]]  # all, some, none, some
    codes = np.concatenate([rng.choice(block, BLOCK) for block in entries])
    if ctype is ColumnType.STRING:
        column = Column.strings("v", [f"entry-{code}" for code in codes])
        predicate, root = In(["entry-1", "entry-2"]), SchemeId.DICT_STRING
    else:
        column = Column.ints("v", codes * 1_000_003)
        predicate, root = In([1_000_003, 2_000_006]), SchemeId.DICT_INT
    store = _tables(column, root)
    decoded = RemoteTable.open(store, "zoned").scan().column("v")
    for where in ({"v": predicate}, {"v": predicate, "id": Between(BLOCK // 2, ROWS - BLOCK // 2)}):
        rows = np.flatnonzero(codes <= 2)
        if len(where) == 2:
            rows = rows[(rows >= BLOCK // 2) & (rows <= ROWS - BLOCK // 2)]
        relation, registry, reads, _decodes = _scan(
            RemoteTable.open(store, "zoned"), list(where), where
        )
        assert reads == 1  # block 0's rows, nothing else
        assert registry.get("query.cdomain.filtered.reused_blocks") == 2 + (len(where) == 2) * 4
        assert _same(relation.column("v"), Column("v", ctype, take_values(decoded.data, rows)))


def test_reused_blocks_are_counted_as_filtered_decodes():
    """A handed block counts like the filtered decode it replaces: one
    block, its hit rows of its rows, and one ``reused_blocks``."""
    root, column = FAMILIES["fastbp128"]
    store = _tables(column, root)
    predicate = Between(0, 10)
    hits = int(_mask(column, predicate).sum())
    _relation, registry, reads, _decodes = _scan(
        RemoteTable.open(store, "zoned"), ["v"], {"v": predicate}
    )
    assert reads == 0
    assert registry.get("query.cdomain.filtered.reused_blocks") == BLOCKS
    assert registry.get("query.cdomain.filtered.blocks") == BLOCKS
    assert registry.get("query.cdomain.filtered.rows_selected") == hits
    assert registry.get("query.cdomain.filtered.rows_total") == ROWS


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_filter_column_decodes_each_block_once(family):
    """``filter_column`` takes its values from the scan: no filtered decode
    for a block whose route decoded its hits, and the values of
    decompress-evaluate-gather."""
    root, source = FAMILIES[family]
    compressed = compress_column(source, BtrBlocksConfig(block_size=BLOCK).with_pool(LEAVES | {root}))
    full = decompress_column(compressed)
    for label, predicate in _predicates(source).items():
        if isinstance(predicate, IsNull):
            continue  # filter_column materialises value rows only
        with mock.patch(
            "repro.query.executor.decode_block"
        ) as second_decode:
            got = filter_column(compressed, predicate)
        hits = np.flatnonzero(_mask(source, predicate))
        expected = Column("v", source.ctype, take_values(full.data, hits))
        assert _same(got, expected), label
        assert second_decode.call_count == 0, label


def test_pool_kinds_are_both_covered():
    """The two string families root in Dictionary with a raw / FSST pool."""
    kinds = {}
    for family in ("dict_string_raw_pool", "dict_string_fsst_pool"):
        root, column = FAMILIES[family]
        compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK).with_pool(LEAVES | {root}))
        kinds[family] = {Reader(unwrap(block.data)[2]).u8() for block in compressed.blocks}
    assert kinds == {"dict_string_raw_pool": {_POOL_RAW}, "dict_string_fsst_pool": {_POOL_FSST}}


# -- out-of-range dictionary codes on the scan route ---------------------------


def _uncompressed(codes: np.ndarray) -> bytes:
    scheme = get_scheme(SchemeId.UNCOMPRESSED_INT)
    return wrap(SchemeId.UNCOMPRESSED_INT, codes.size, scheme.compress(codes, None))


def _rle(codes: np.ndarray) -> bytes:
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    lengths = np.diff(np.append(starts, codes.size)).astype(np.int32)
    payload = Writer().u32(starts.size)
    payload.blob(_uncompressed(codes[starts]))
    payload.blob(_uncompressed(lengths))
    return wrap(SchemeId.RLE_INT, codes.size, payload.getvalue())


class TestOutOfRangeCodes:
    """A v1 ``DICT_DOUBLE`` node, 100-entry pool, 200 codes, one of them out
    of the pool: the decoder raises ``FormatError("dictionary code out of
    pool range")``, and the scan's pool-mask fallback (``In`` over 50
    scattered entries compiles to no code predicate) must too, instead of
    reading ``pool[-1]`` or past the end."""

    POOL = np.arange(100, dtype=np.float64) * 0.5

    def _node(self, bad: int, coder) -> bytes:
        rng = np.random.default_rng(SEED)
        codes = np.repeat(rng.integers(0, 100, 50), 4).astype(np.int32)
        codes[4:8] = bad  # one run of the RLE form; row 7 in both
        payload = Writer().array(self.POOL).blob(coder(codes)).getvalue()
        return wrap(SchemeId.DICT_DOUBLE, codes.size, payload)

    @pytest.mark.parametrize("coder", [_uncompressed, _rle], ids=["plain", "rle"])
    @pytest.mark.parametrize("bad", [-1, 100, 2**31 - 1])
    def test_scan_raises_what_the_decoder_raises(self, bad, coder):
        node = self._node(bad, coder)
        predicate = In(self.POOL[1::2].tolist())
        with pytest.raises(FormatError, match="out of pool range"):
            make_context().decompress_child(node, ColumnType.DOUBLE)
        with pytest.raises(FormatError, match="out of pool range"):
            scan_block(node, ColumnType.DOUBLE, predicate)
        with pytest.raises(FormatError, match="out of pool range"):
            scan_block(node, ColumnType.DOUBLE, predicate, values=True)

    @pytest.mark.parametrize("coder", [_uncompressed, _rle], ids=["plain", "rle"])
    def test_in_range_codes_scan_and_hand_over_their_values(self, coder):
        node = self._node(3, coder)
        predicate = In(self.POOL[1::2].tolist())
        values = make_context().decompress_child(node, ColumnType.DOUBLE)
        mask, hits = scan_block(node, ColumnType.DOUBLE, predicate, values=True)
        assert np.array_equal(mask, np.asarray(predicate.evaluate(values)))
        assert hits.tobytes() == values[mask].tobytes()


def test_string_pool_values_are_checked_too():
    """The handed-over values of a string dictionary go through the same
    check: a code past the pool is the decoder's error, not a wrapped row."""
    pool = StringArray.from_pylist([f"s{i:03d}" for i in range(100)])
    raw_pool = Writer().array(pool.buffer).array(pool.offsets).getvalue()
    codes = np.arange(200, dtype=np.int32) % 100
    codes[7] = 100
    payload = Writer().u8(_POOL_RAW).u32(100).blob(raw_pool).blob(_uncompressed(codes))
    node = wrap(SchemeId.DICT_STRING, codes.size, payload.getvalue())
    predicate = In([f"s{i:03d}" for i in range(1, 100, 2)])
    with pytest.raises(FormatError, match="out of pool range"):
        scan_block(node, ColumnType.STRING, predicate, values=True)
