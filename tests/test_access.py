"""Tests for random (point) access into compressed columns."""

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core.access import read_rows
from repro.core.compressor import compress_column
from repro.types import Column


@pytest.fixture
def int_column(rng, small_config):
    values = rng.integers(0, 1000, 3500).astype(np.int32)
    return values, compress_column(Column.ints("c", values), small_config)


class TestReadRows:
    def test_single_row(self, int_column):
        values, compressed = int_column
        out = read_rows(compressed, [1234])
        assert out.data.tolist() == [values[1234]]

    def test_rows_across_blocks(self, int_column):
        values, compressed = int_column
        picks = [0, 999, 1000, 2500, 3499]
        out = read_rows(compressed, picks)
        assert out.data.tolist() == [int(values[i]) for i in picks]

    def test_order_and_duplicates_preserved(self, int_column):
        values, compressed = int_column
        picks = [3000, 5, 3000, 5]
        out = read_rows(compressed, picks)
        assert out.data.tolist() == [int(values[i]) for i in picks]

    def test_out_of_range_raises(self, int_column):
        _, compressed = int_column
        with pytest.raises(IndexError):
            read_rows(compressed, [3500])
        with pytest.raises(IndexError):
            read_rows(compressed, [-1])

    def test_empty_request(self, int_column):
        _, compressed = int_column
        assert len(read_rows(compressed, [])) == 0

    def test_string_rows(self, small_config):
        values = [f"row-{i % 13}" for i in range(2500)]
        compressed = compress_column(Column.strings("s", values), small_config)
        out = read_rows(compressed, [7, 1300, 2499])
        assert out.data.to_pylist() == [b"row-7", b"row-0", b"row-3"]

    def test_double_rows_bitwise(self, rng, small_config):
        values = np.round(rng.uniform(0, 10, 1500), 2)
        values[42] = np.nan
        compressed = compress_column(Column.doubles("d", values), small_config)
        out = read_rows(compressed, [42, 43])
        assert np.array_equal(
            np.asarray(out.data).view(np.uint64), values[[42, 43]].view(np.uint64)
        )

    def test_null_rows_flagged(self, rng, small_config):
        column = Column.ints("c", rng.integers(0, 5, 2000),
                             RoaringBitmap.from_positions([1500]))
        compressed = compress_column(column, small_config)
        out = read_rows(compressed, [10, 1500])
        assert out.nulls.to_array().tolist() == [1]


# -- property suite: read_rows == decompress-then-take, on every path ----------
#
# ``read_rows`` is pure optimisation over "decompress the column, take the
# rows", so the only property that matters is that it can never change an
# answer: values bit for bit, NULL positions exactly, in request order.

from test_compressed_scan import (  # noqa: E402  (shared shape matrix)
    BLOCK,
    NULL_LAYOUTS,
    ROWS,
    SEED,
    SHAPES,
    _make_column,
    _values_equal,
)

from repro.core.blocks import CompressedBlock, CompressedColumn  # noqa: E402
from repro.core.config import BtrBlocksConfig  # noqa: E402
from repro.core.decompressor import (  # noqa: E402
    decode_block,
    decompress_column,
    make_context,
)
from repro.datagen.scheme_workloads import SCHEME_WORKLOADS  # noqa: E402
from repro.encodings.base import take_values  # noqa: E402
from repro.encodings.bitpack import PAGE, FastBP128  # noqa: E402
from repro.observe import MetricsRegistry, use_registry  # noqa: E402


def _oracle(decoded: Column, rows: np.ndarray):
    """(values, NULL positions in the result) by decompress-then-take."""
    rows = np.asarray(rows, dtype=np.int64)
    values = take_values(decoded.data, rows)
    if decoded.nulls is None or rows.size == 0:
        return values, []
    return values, np.flatnonzero(decoded.null_mask()[rows]).tolist()


def _assert_rows_match(compressed, decoded: Column, rows, context) -> None:
    got = read_rows(compressed, rows)
    values, null_rows = _oracle(decoded, rows)
    assert _values_equal(decoded.ctype, got.data, values), context
    got_nulls = [] if got.nulls is None else got.nulls.to_array().tolist()
    assert got_nulls == null_rows, context


def _selections(rng, total: int) -> dict:
    sorted_rows = np.sort(rng.choice(total, size=total // 7, replace=False))
    return {
        "sorted": sorted_rows,
        "shuffled": rng.permutation(sorted_rows),
        "duplicated": rng.choice(sorted_rows, size=sorted_rows.size * 2),
        "one-block": np.arange(BLOCK + 3, BLOCK + 40),
        "everything": np.arange(total),
        "empty": np.empty(0, dtype=np.int64),
    }


@pytest.mark.parametrize("null_layout", NULL_LAYOUTS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_read_rows_equals_decompress_then_take(shape, null_layout):
    rng = np.random.default_rng(SEED + 11)
    column = _make_column(shape, null_layout)
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    decoded = decompress_column(compressed)
    for kind, rows in _selections(rng, ROWS).items():
        _assert_rows_match(compressed, decoded, rows, f"{shape}/{null_layout}/{kind}")


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_read_rows_never_opens_untouched_placeholder_blocks(shape):
    """The ``_read_rows_pruned`` shape: blocks without requested rows are
    zero-byte placeholders that must never be parsed."""
    rng = np.random.default_rng(SEED + 12)
    column = _make_column(shape, "sparse")
    compressed = compress_column(column, BtrBlocksConfig(block_size=BLOCK))
    decoded = decompress_column(compressed)
    for keep in ([1], [0, 3], [2, 3]):
        blocks = [
            block if index in keep else CompressedBlock(block.count, b"")
            for index, block in enumerate(compressed.blocks)
        ]
        sparse = CompressedColumn(compressed.name, compressed.ctype, blocks)
        inside = np.concatenate([np.arange(i * BLOCK, (i + 1) * BLOCK) for i in keep])
        for size in (1, 9, inside.size // 2, inside.size):
            rows = np.sort(rng.choice(inside, size=size, replace=False))
            _assert_rows_match(sparse, decoded, rows, f"{shape}/{keep}/{size}")
            _assert_rows_match(sparse, decoded, rng.permutation(rows), f"{shape}/{keep}/{size}/shuffled")


SWEEP_ROWS = 8192
SWEEP_BLOCK = 4096


def _sweep_selection(rng, layout: str, percent: int) -> np.ndarray:
    picked = max(1, SWEEP_BLOCK * percent // 100)
    if layout == "clustered":
        start = (SWEEP_BLOCK - picked) // 2
        return np.arange(start, start + picked, dtype=np.int64)
    return np.sort(rng.choice(SWEEP_BLOCK, size=picked, replace=False))


@pytest.mark.parametrize("workload", sorted(SCHEME_WORKLOADS))
def test_every_dispatcher_outcome_is_bit_identical(workload):
    """Filtered kernel, full-decode-then-take and whole-block decode all give
    decode-then-take's bits, at 1/10/50/90/100% for clustered and scattered
    selections — through ``decode_block(positions=)`` and through ``read_rows``."""
    rng = np.random.default_rng(SEED + 13)
    column = SCHEME_WORKLOADS[workload](SWEEP_ROWS, np.random.default_rng(SEED))
    compressed = compress_column(column, BtrBlocksConfig(block_size=SWEEP_BLOCK))
    decoded = decompress_column(compressed)
    ctx = make_context()
    block = compressed.blocks[0]
    full = decode_block(block, compressed.ctype, ctx)
    outcomes = set()
    for layout in ("clustered", "scattered"):
        for percent in (1, 10, 50, 90, 100):
            positions = _sweep_selection(rng, layout, percent)
            registry = MetricsRegistry()
            with use_registry(registry):
                got = decode_block(block, compressed.ctype, ctx, positions=positions)
            expected = take_values(full, positions)
            assert _values_equal(compressed.ctype, got, expected), (layout, percent)
            if positions.size == block.count:
                outcomes.add("whole")
            elif registry.get("query.cdomain.filtered.full_decodes"):
                outcomes.add("full-then-take")
            else:
                outcomes.add("filtered")
            # The same selection in the second block, through read_rows.
            _assert_rows_match(compressed, decoded, positions + SWEEP_BLOCK, (layout, percent))
    assert "whole" in outcomes and len(outcomes) >= 2, outcomes


def test_dispatcher_takes_all_three_paths_on_bitpacked_data(monkeypatch):
    """Pins the crossover's outcomes on bit-packed data, in exact counts: a
    selection below 1/8 of the node gathers its rows by bit address, be it
    page-sparse, clustered or whole pages; one past 1/8 decodes the node
    whole."""
    column = SCHEME_WORKLOADS["bitpack"](SWEEP_BLOCK, np.random.default_rng(SEED))
    compressed = compress_column(column, BtrBlocksConfig(block_size=SWEEP_BLOCK))
    ctx = make_context()
    block = compressed.blocks[0]
    rng = np.random.default_rng(SEED + 14)
    routes = []
    decode_rows, decode_pages = FastBP128._decode_rows, FastBP128._decode_pages
    monkeypatch.setattr(
        FastBP128, "_decode_rows", lambda self, *a: routes.append("rows") or decode_rows(self, *a)
    )
    monkeypatch.setattr(
        FastBP128, "_decode_pages", lambda self, *a: routes.append("full") or decode_pages(self, *a)
    )

    def route(positions) -> "tuple[list[str], int]":
        routes.clear()
        registry = MetricsRegistry()
        with use_registry(registry):
            got = decode_block(block, compressed.ctype, ctx, positions=positions)
        assert np.array_equal(got, column.data[positions])
        return list(routes), int(registry.get("query.cdomain.filtered.full_decodes"))

    page_sparse = _sweep_selection(rng, "scattered", 1)  # 40 rows over 32 pages
    assert route(page_sparse) == (["rows"], 0)
    assert route(_sweep_selection(rng, "clustered", 1)) == (["rows"], 0)  # 40 rows of 2 pages
    assert route(np.arange(3 * PAGE, 5 * PAGE)) == (["rows"], 0)  # two whole pages
    assert route(_sweep_selection(rng, "scattered", 13)) == (["full"], 1)  # past 1/8
    assert route(_sweep_selection(rng, "clustered", 50)) == (["full"], 1)
    assert route(np.arange(SWEEP_BLOCK)) == (["full"], 1)
    # read_rows has no rule of its own: the same dispatcher, the same counter.
    registry = MetricsRegistry()
    with use_registry(registry):
        read_rows(compressed, np.arange(SWEEP_BLOCK))
        read_rows(compressed, np.arange(8))
    assert registry.get("query.cdomain.filtered.blocks") == 2
    assert registry.get("query.cdomain.filtered.full_decodes") == 1


def test_sorted_path_runs_no_per_row_python_and_never_resorts(monkeypatch):
    """A sorted duplicate-free request is *relied on*: no membership test per
    row, no ``unique``/``sort`` over anything row-sized (header-sized calls,
    e.g. distinct page widths, stay legal)."""
    total = 200_000
    rng = np.random.default_rng(SEED + 15)
    nulls = RoaringBitmap.from_positions(np.sort(rng.choice(total, total // 20, replace=False)))
    column = Column.ints("c", rng.integers(0, 4000, total).astype(np.int32), nulls)
    compressed = compress_column(column, BtrBlocksConfig(block_size=16_384))
    decoded = decompress_column(compressed)
    rows = np.sort(rng.choice(total, size=total // 3, replace=False))
    expected_values, expected_nulls = _oracle(decoded, rows)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("per-row Python on the sorted path")

    def row_sized_guard(original):
        def guarded(values, *args, **kwargs):
            if np.size(values) > 4096:
                raise AssertionError(f"{original.__name__} over {np.size(values)} elements")
            return original(values, *args, **kwargs)

        return guarded

    monkeypatch.setattr(RoaringBitmap, "__contains__", forbidden)
    monkeypatch.setattr(np, "unique", row_sized_guard(np.unique))
    monkeypatch.setattr(np, "sort", row_sized_guard(np.sort))
    got = read_rows(compressed, rows)
    monkeypatch.undo()
    assert np.array_equal(np.asarray(got.data), np.asarray(expected_values))
    assert got.nulls.to_array().tolist() == expected_nulls


def test_request_order_and_duplicates_survive_normalisation(rng, small_config):
    column = Column.ints("c", rng.integers(0, 9, 3000),
                         RoaringBitmap.from_positions([5, 1200, 2999]))
    compressed = compress_column(column, small_config)
    decoded = decompress_column(compressed)
    rows = [2999, 5, 5, 1200, 0, 2999]
    _assert_rows_match(compressed, decoded, rows, "order+duplicates")
    assert read_rows(compressed, rows).nulls.to_array().tolist() == [0, 1, 2, 3, 5]


class TestSelectionContract:
    """Sorted duplicate-free positions are validated once, where they enter."""

    @pytest.mark.parametrize("positions", [[3, 1], [1, 1], [0, 5, 4]])
    def test_decode_block_rejects_unsorted_positions(self, int_column, positions):
        _, compressed = int_column
        block = compressed.blocks[0]
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            decode_block(block, compressed.ctype, make_context(), positions=positions)

    def test_rejection_precedes_any_payload_parse(self, int_column):
        _, compressed = int_column
        garbage = CompressedBlock(compressed.blocks[0].count, b"\xff" * 40)
        with pytest.raises(ValueError, match="sorted and duplicate-free"):
            decode_block(garbage, compressed.ctype, make_context(), positions=[2, 1])
