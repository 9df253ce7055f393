"""Tests for FastBP128 and FastPFOR integer packing."""

import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import bitpack_reference as reference
from repro.core.decompressor import make_context
from repro.encodings.base import SchemeId, get_scheme
from repro.encodings.bitpack import (
    PAGE,
    bit_lengths,
    gather_rows,
    pack_pages,
    paginate,
    unpack_pages,
    unpack_pages_scalar,
)
from repro.encodings.fastpfor import choose_widths
from repro.encodings.wire import Reader

from conftest import scheme_round_trip

BP = get_scheme(SchemeId.FAST_BP128)
PFOR = get_scheme(SchemeId.FAST_PFOR)


class TestBitLengths:
    def test_zero(self):
        assert bit_lengths(np.array([0])).tolist() == [0]

    def test_powers_of_two(self):
        values = np.array([1, 2, 4, 255, 256, 2**31])
        assert bit_lengths(values).tolist() == [1, 2, 3, 8, 9, 32]


class TestPaginate:
    def test_exact_pages(self):
        deltas, refs = paginate(np.arange(256, dtype=np.int32))
        assert deltas.shape == (2, PAGE)
        assert refs.tolist() == [0, 128]

    def test_tail_padding(self):
        deltas, refs = paginate(np.arange(130, dtype=np.int32))
        assert deltas.shape == (2, PAGE)
        # Padding uses the last value, so the tail page packs to few bits.
        assert deltas[1, 2:].max() == deltas[1, 1]

    def test_empty(self):
        deltas, refs = paginate(np.empty(0, dtype=np.int32))
        assert deltas.shape[0] == 0 and refs.size == 0

    def test_negative_values(self):
        deltas, refs = paginate(np.array([-100, -50, -100] * 50, dtype=np.int32))
        assert refs[0] == -100
        assert deltas.min() == 0


class TestPackUnpack:
    @pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 20, 31, 33])
    def test_single_width(self, width, rng):
        deltas = rng.integers(0, 2**width if width else 1, (4, PAGE)).astype(np.uint64)
        widths = np.full(4, width, dtype=np.int64)
        packed = pack_pages(deltas, widths)
        assert len(packed) == 4 * 16 * width
        out = unpack_pages(packed, widths)
        assert np.array_equal(out, deltas)

    def test_mixed_widths(self, rng):
        widths = np.array([0, 5, 17, 5, 31], dtype=np.int64)
        deltas = np.stack([
            rng.integers(0, max(2**w, 1), PAGE).astype(np.uint64) for w in widths
        ])
        packed = pack_pages(deltas, widths)
        assert np.array_equal(unpack_pages(packed, widths), deltas)

    def test_scalar_unpack_matches(self, rng):
        widths = np.array([3, 11], dtype=np.int64)
        deltas = np.stack([
            rng.integers(0, 2**w, PAGE).astype(np.uint64) for w in widths
        ])
        packed = pack_pages(deltas, widths)
        assert np.array_equal(unpack_pages_scalar(packed, widths), deltas)


class TestFastBP128:
    def test_round_trip_small_range(self, rng):
        values = rng.integers(100_000, 100_100, 5000).astype(np.int32)
        payload, out = scheme_round_trip(BP, values)
        assert np.array_equal(out, values)
        assert len(payload) < values.nbytes / 3

    def test_round_trip_negatives(self, rng):
        values = rng.integers(-1000, 1000, 3000).astype(np.int32)
        _, out = scheme_round_trip(BP, values)
        assert np.array_equal(out, values)

    def test_full_int32_range(self):
        values = np.array([-(2**31), 2**31 - 1, 0, -1] * 64, dtype=np.int32)
        _, out = scheme_round_trip(BP, values)
        assert np.array_equal(out, values)

    def test_non_page_multiple(self, rng):
        values = rng.integers(0, 100, 333).astype(np.int32)
        _, out = scheme_round_trip(BP, values)
        assert np.array_equal(out, values)

    def test_scalar_matches_vectorized(self, rng):
        values = rng.integers(0, 1000, 500).astype(np.int32)
        _, fast = scheme_round_trip(BP, values, vectorized=True)
        _, slow = scheme_round_trip(BP, values, vectorized=False)
        assert np.array_equal(fast, slow)

    def test_constant_column_tiny(self):
        values = np.zeros(64_000, dtype=np.int32)
        payload, out = scheme_round_trip(BP, values)
        assert np.array_equal(out, values)
        assert len(payload) < 6000  # 0-bit pages, only refs + widths


class TestChooseWidths:
    def test_no_outliers_uses_max_width(self, rng):
        deltas = rng.integers(0, 16, (3, PAGE)).astype(np.uint64)
        widths = choose_widths(deltas)
        assert (widths == 4).all()

    def test_outliers_shrink_width(self):
        deltas = np.ones((1, PAGE), dtype=np.uint64)
        deltas[0, 5] = 2**30  # one outlier should not force 31-bit lanes
        widths = choose_widths(deltas)
        assert widths[0] == 1

    def test_empty(self):
        assert choose_widths(np.zeros((0, PAGE), dtype=np.uint64)).size == 0


class TestFastPFOR:
    def test_round_trip_with_outliers(self, rng):
        values = rng.integers(0, 100, 5000).astype(np.int32)
        outliers = rng.choice(5000, 50, replace=False)
        values[outliers] = rng.integers(2**25, 2**30, 50)
        payload, out = scheme_round_trip(PFOR, values)
        assert np.array_equal(out, values)

    def test_beats_bp_on_outlier_data(self, rng):
        values = rng.integers(0, 64, 64_000).astype(np.int32)
        outliers = rng.choice(64_000, 600, replace=False)
        values[outliers] = 2**29
        bp_payload, _ = scheme_round_trip(BP, values)
        pfor_payload, _ = scheme_round_trip(PFOR, values)
        assert len(pfor_payload) < len(bp_payload)

    def test_scalar_matches_vectorized(self, rng):
        values = rng.integers(0, 100, 700).astype(np.int32)
        values[::100] = 2**28
        _, fast = scheme_round_trip(PFOR, values, vectorized=True)
        _, slow = scheme_round_trip(PFOR, values, vectorized=False)
        assert np.array_equal(fast, slow)

    def test_all_exceptions_page(self):
        # A page where every value is "large" still round-trips.
        values = np.arange(2**20, 2**20 + 200, dtype=np.int32)
        _, out = scheme_round_trip(PFOR, values)
        assert np.array_equal(out, values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=300))
def test_property_bp_round_trip(values):
    arr = np.array(values, dtype=np.int32)
    _, out = scheme_round_trip(BP, arr)
    assert np.array_equal(out, arr)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=300))
def test_property_pfor_round_trip(values):
    arr = np.array(values, dtype=np.int32)
    _, out = scheme_round_trip(PFOR, arr)
    assert np.array_equal(out, arr)


# -- the vectorised kernels against the scalar decode --------------------------

#: Every width a page may declare: byte-aligned ones unpack as a view, every
#: other one through the strided-word kernel.
EQUIVALENCE_WIDTHS = [*range(33), 64]
#: Page counts on both sides of the small-lane branch (2,048 packed bytes)
#: at every width, and the multi-block sizes the scans decode.
EQUIVALENCE_PAGES = (1, 3, 16, 17, 128, 256)
#: Distinct random pages drawn per width.
POOL_PAGES = 8


def random_pages(rng: np.random.Generator, widths: np.ndarray) -> np.ndarray:
    """(P, 128) uint64 deltas, page *i* filling ``widths[i]`` bits (its
    largest value in slot 0, so every page uses its top bit)."""
    masks = np.array([(1 << int(w)) - 1 for w in widths], dtype=np.uint64)
    deltas = rng.integers(0, 2**64, (widths.size, PAGE), dtype=np.uint64) & masks[:, None]
    deltas[:, 0] = masks
    return deltas


@pytest.fixture(scope="module")
def page_pool():
    """width -> (each pool page's packed bytes, its ``unpack_pages_scalar`` rows).

    The scalar decode walks a payload page by page, so a payload assembled
    from these pages decodes under it to the same pages' rows: each page is
    decoded bit by bit once, and every shape below is assembled from them.
    """
    rng = np.random.default_rng(26)
    pool = {}
    for width in EQUIVALENCE_WIDTHS:
        widths = np.full(POOL_PAGES, width, dtype=np.uint8)
        deltas = random_pages(rng, widths)
        packed = pack_pages(deltas, widths)
        scalar = unpack_pages_scalar(packed, widths)
        assert np.array_equal(scalar, deltas)
        step = 16 * width
        pool[width] = ([packed[i * step : (i + 1) * step] for i in range(POOL_PAGES)], scalar)
    return pool


def assert_kernels_equal_scalar(page_pool, widths: np.ndarray, rng: np.random.Generator) -> None:
    """``unpack_pages`` returns the scalar decode's rows for ``widths``."""
    picks = rng.integers(0, POOL_PAGES, widths.size)
    payload = b"".join(page_pool[int(w)][0][i] for w, i in zip(widths, picks))
    expected = np.stack([page_pool[int(w)][1][i] for w, i in zip(widths, picks)])
    assert np.array_equal(unpack_pages(payload, widths), expected)


@pytest.mark.parametrize("width", EQUIVALENCE_WIDTHS)
def test_kernels_equal_the_scalar_decode(page_pool, width):
    """Uniform pages and a 2-width mix, at every page count."""
    rng = np.random.default_rng(width)
    partner = EQUIVALENCE_WIDTHS[(EQUIVALENCE_WIDTHS.index(width) + 11) % len(EQUIVALENCE_WIDTHS)]
    for pages in EQUIVALENCE_PAGES:
        assert_kernels_equal_scalar(page_pool, np.full(pages, width, dtype=np.uint8), rng)
        mixed = rng.choice([width, partner], pages).astype(np.uint8)
        mixed[-1] = partner
        mixed[0] = width
        assert_kernels_equal_scalar(page_pool, mixed, rng)


@pytest.mark.parametrize("pages", EQUIVALENCE_PAGES)
def test_eight_width_mixes_equal_the_scalar_decode(page_pool, pages):
    rng = np.random.default_rng(pages)
    for _ in range(6):
        choices = [0, *rng.choice(EQUIVALENCE_WIDTHS[1:], 7, replace=False).tolist()]
        assert_kernels_equal_scalar(page_pool, rng.choice(choices, pages).astype(np.uint8), rng)


@pytest.mark.parametrize("pages", EQUIVALENCE_PAGES)
def test_fastpfor_mixed_pages_with_exceptions(pages):
    """Pages of 0-23 bit ranges around a negative base, 2% outliers patched
    in as exceptions: the full decode (vectorised and scalar) and both page
    subsets return the input."""
    rng = np.random.default_rng(1000 + pages)
    spans = rng.integers(0, 24, pages)
    values = rng.integers(0, 1 << 23, (pages, PAGE)) >> (23 - spans)[:, None]
    outliers = rng.random(values.shape) < 0.02
    values[outliers] = rng.integers(1 << 28, 1 << 30, int(outliers.sum()))
    values = (values.reshape(-1) - (1 << 29)).astype(np.int32)
    payload, fast = scheme_round_trip(PFOR, values)
    _, slow = scheme_round_trip(PFOR, values, vectorized=False)
    assert np.array_equal(fast, values) and np.array_equal(slow, values)
    reader = Reader(payload)
    reader.array()
    widths, exc_per_page = reader.array(), reader.array()
    assert exc_per_page.sum() > 0 and (pages == 1 or np.unique(widths).size > 1)
    start = int(rng.integers(0, pages))
    for page_ids in (np.arange(start, pages), np.arange(pages % 2, pages, 2)):
        # Every third row of the pages, and the whole pages.
        for step in (3, 1):
            positions = (page_ids[:, None] * PAGE + np.arange(0, PAGE, step)).reshape(-1)
            got = PFOR.decompress(payload, values.size, make_context(), positions=positions)
            assert np.array_equal(got, values[positions])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(EQUIVALENCE_WIDTHS), min_size=1, max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_property_kernels_equal_scalar_and_reference(widths, seed):
    """Any page sequence: the kernel, the scalar decode and the kernel it
    replaced agree."""
    rng = np.random.default_rng(seed)
    widths = np.array(widths, dtype=np.uint8)
    deltas = random_pages(rng, widths)
    payload = pack_pages(deltas, widths)
    scalar = unpack_pages_scalar(payload, widths)
    assert np.array_equal(scalar, deltas)
    assert np.array_equal(unpack_pages(payload, widths), scalar)
    assert np.array_equal(reference.unpack_pages(payload, widths), scalar)


#: Seeds the row-kernel property; CI's fault-matrix job also runs it randomised.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20261017"), 0)
ROW_SHAPES = ("single", "last", "scattered", "clustered")


@seed(FAULT_SEED)
@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1, 2, 8]),
    st.sampled_from([1, 16, 128, 256]),
    st.sampled_from(ROW_SHAPES),
    st.integers(0, 2**32 - 1),
)
def test_property_row_kernel_equals_the_scalar_decode(page_pool, mix, pages, shape, draw):
    """``gather_rows`` reads the scalar decode's values at widths 0-32, over
    uniform / 2-width / 8-width pages, for one row, the last row of the last
    page (its word ends at the payload's final byte), scattered rows and a
    clustered run that leaves most of its pages' rows out."""
    rng = np.random.default_rng(draw)
    choices = rng.choice(33, mix, replace=False)
    widths = rng.choice(choices, pages).astype(np.uint8)
    if shape == "last":
        widths[-1] = choices.max()
    picks = rng.integers(0, POOL_PAGES, pages)
    payload = b"".join(page_pool[int(w)][0][i] for w, i in zip(widths, picks))
    expected = np.stack([page_pool[int(w)][1][i] for w, i in zip(widths, picks)]).reshape(-1)
    total = pages * PAGE
    if shape == "single":
        rows = rng.integers(0, total, 1)
    elif shape == "last":
        rows = np.array([total - 1])
    elif shape == "scattered":
        rows = np.sort(rng.choice(total, min(total, int(rng.integers(2, 300))), replace=False))
    else:
        start = int(rng.integers(0, total))
        rows = np.arange(start, min(total, start + int(rng.integers(1, 100))))
    assert np.array_equal(gather_rows(payload, widths, rows.astype(np.int64)), expected[rows])
