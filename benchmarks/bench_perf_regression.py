"""The never-loses gates: selective execution, string gathers, integer unpacks and string assembly vs the plain path.

``test_selective_sweep_never_loses`` is the sweep gate: it runs the
compressed-domain sweep (:func:`bench_compressed_scan`, below) once, at
``SWEEP_GATE_ROWS`` (ratios of microsecond timings at smoke scale are clock
noise), writes it to ``REPRO_BENCH_CDOMAIN`` when set, and fails when any
cell — ``filter_column`` or ``read_rows`` x scheme family x
1/10/50/90/100% selectivity x clustered/scattered — falls below
``MIN_SPEEDUP`` (0.9) of decode-everything, except the cells
``KNOWN_SLOW_CELLS`` lists, which are held to the floor written next to them. A
cell's speedup is the median of interleaved fast/plain rounds' ratios, and
only a cell under its bar is measured again (``RETIMES``), so a failure
reproduces and a pass is no quiet-host minimum. At 1%
selectivity the decode fraction (rows decoded / rows in surviving blocks)
stays gated below ``REPRO_BENCH_CDOMAIN_MAX_DECODE`` (default 25%) and no
block may have taken the dispatcher's full-decode fallback. It is the one
measurement lakebench does not make (ROADMAP item 5(b)).

``test_gather_shape_sweep_never_loses`` is the same bar for the string read
path: ``strutil.gather`` picks a kernel (word take + compaction, block
copies, per-byte index) from the request's shape, and on every shape of
``GATHER_SHAPES`` the pick must stay at or above ``MIN_SPEEDUP`` of the
per-byte-index kernel it replaced (kept as the oracle in
``tests/test_strutil.py``) -- no slow fast path.

``test_unpack_shape_sweep_never_loses`` holds the integer read path to the
same bar: ``unpack_pages`` against the kernel it replaced
(``tests/bitpack_reference.py``) over every width 1-32 x 16 / 128 / 256
pages x uniform / 2-width / 8-width pages.

``test_string_assembly_sweep_never_loses`` holds the string column assembly
to it: ``decompress_column`` (offsets rebased into one column array, a warm
column served from its one decode-cache entry) against the concatenating
assembly over per-block cache entries it replaced
(``tests/assembly_reference.py``) over string shapes x 1-32 blocks x
64-65,536 rows per block x a cold decode / a warm one served by the cache.

``test_compressed_scan_sweep_covers_every_cell`` holds the sweep's shape at
256 rows: cell count, labels, and minima that name a real cell.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np

from _harness import paired_speedup, print_table
from repro.bitmap import RoaringBitmap
from repro.core.access import read_rows
from repro.core.cache import DecodeCache
from repro.core.compressor import compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes
from repro.datagen.scheme_workloads import SCHEME_WORKLOADS
from repro.encodings.base import take_values
from repro.encodings.bitpack import PAGE, pack_pages, unpack_pages
from repro.observe import MetricsRegistry, use_registry
from repro.query.executor import filter_column
from repro.query.predicates import Between, Equals, In
from repro.types import Column, StringArray

DEFAULT_SEED = 42

#: Selectivities and selection layouts every compressed-scan workload is
#: swept over; CI gates every cell, at ``SWEEP_GATE_ROWS`` (eight 16,384-row
#: blocks: below ~100k rows the ratios are per-call overhead, not kernels).
SWEEP_GATE_ROWS = 131_072
SWEEP_FRACTIONS = (("1%", 0.01), ("10%", 0.10), ("50%", 0.50), ("90%", 0.90), ("100%", 1.0))
SWEEP_LAYOUTS = ("clustered", "scattered")


def sweep_cells(cdomain: dict) -> "dict[str, float]":
    """A compressed-scan sweep, flattened: ``section/name/layout/label`` -> speedup."""
    return {
        f"{section}/{name}/{layout}/{label}": point["speedup"]
        for section in ("workloads", "materialise")
        for name, layouts in cdomain[section].items()
        for layout, sweep in layouts.items()
        for label, point in sweep.items()
    }


def _identical(got, expected) -> bool:
    """Bit-for-bit equality of two value sequences (NaN payloads included)."""
    if isinstance(expected, StringArray):
        return np.array_equal(got.offsets, expected.offsets) and np.array_equal(
            got.buffer[: int(got.offsets[-1])], expected.buffer[: int(expected.offsets[-1])]
        )
    got, expected = np.asarray(got), np.asarray(expected)
    return got.dtype == expected.dtype and np.array_equal(
        got.view(np.uint8), expected.view(np.uint8)
    )


def bench_compressed_scan(
    rows: int, seed: int, block_size: int = 16_384, repeats: int = 3, floor=None
) -> dict:
    """Selective execution vs decode-everything, swept over selectivity.

    Two sections, each over ~1 / 10 / 50 / 90 / 100% selectivity and two
    selection layouts (``clustered``: the selected rows are contiguous;
    ``scattered``: they are spread over every page and run):

    * ``workloads`` — :func:`repro.query.executor.filter_column` against the
      naive decompress-evaluate-gather baseline, on the three scheme
      families with compressed-domain predicate kernels: bit-packed ints
      (page headers reject whole pages), run-heavy ints (the predicate runs
      once per run) and low-cardinality strings (the predicate compiles into code
      space). The layout is a property of the data here — sorted values
      give clustered matches, shuffled ones scattered matches.
    * ``materialise`` — :func:`repro.core.access.read_rows` against
      decompress-then-take for a given selection vector, over every
      :data:`SCHEME_WORKLOADS` family plus a NULL-bearing one, so every
      filtered kernel (and the dispatcher's full-decode crossover, and the
      NULL lookup) is timed against the plain path.

    Every timed pair is first checked bit-identical (values and NULL rows),
    then timed by :func:`~_harness.paired_speedup`: a cell's speedup is the
    median of its interleaved rounds' ratios. With ``floor`` (cell name ->
    its bar) a cell measured under its bar is measured again, up to
    ``RETIMES`` more times, and keeps its best median: a real loss stays
    under on every measurement, a scheduling burst does not.
    ``min_speedup`` is the worst cell of the whole sweep — a fast path that
    loses to the plain path anywhere in its sweep is a bug, and CI gates
    every cell (:func:`sweep_cells`). The ``at_1pct`` rollup keeps
    reporting rows decoded vs rows in surviving blocks. Blocks default to
    16,384 rows: per-block dispatch is ~10 us of Python on either side, so
    much smaller blocks measure that, not the kernels.
    """

    def timed(cell: str, fast, plain) -> "tuple[float, float, float]":
        return retimed_speedup(fast, plain, None if floor is None else floor(cell), repeats)

    rng = np.random.default_rng(seed)
    sorted_ints = np.sort(rng.integers(0, 1 << 16, rows)).astype(np.int32)
    run_values = np.sort(rng.integers(0, 50_000, (rows + 19) // 20)).astype(np.int32)
    vocab = [f"category-{i:03d}" for i in range(100)]
    cat_ids = np.sort(rng.integers(0, len(vocab), rows))

    def int_predicate(values: np.ndarray, fraction: float) -> Between:
        return Between(int(values.min()), int(np.quantile(values, fraction)))

    # name -> (clustered values, column factory, predicate factory); the
    # scattered variant shuffles the same values (runs stay runs).
    sources = {
        "bitpack": (sorted_ints, 1, lambda v: Column.ints("v", v),
                    lambda fraction: int_predicate(sorted_ints, fraction)),
        "rle": (run_values, 20, lambda v: Column.ints("v", v),
                lambda fraction: int_predicate(run_values, fraction)),
        "dictionary": (cat_ids, 1, lambda v: Column.strings("v", [vocab[i] for i in v]),
                       lambda fraction: In(vocab[: max(1, round(len(vocab) * fraction))])),
    }
    config = BtrBlocksConfig(block_size=block_size)
    report: dict = {
        "rows": rows, "block_size": block_size, "workloads": {}, "materialise": {},
    }
    decoded_1pct = 0
    surviving_1pct = 0
    speedups_1pct = []
    for name, (values, run_length, make_column, make_predicate) in sources.items():
        report["workloads"][name] = {}
        for layout in SWEEP_LAYOUTS:
            laid_out = values if layout == "clustered" else rng.permutation(values)
            column = make_column(np.repeat(laid_out, run_length)[:rows])
            compressed = compress_column(column, config)
            sweep = {}
            for label, fraction in SWEEP_FRACTIONS:
                predicate = make_predicate(fraction)

                def naive():
                    full = decompress_column(compressed)
                    hits = np.nonzero(np.asarray(predicate.evaluate(full.data)))[0]
                    return take_values(full.data, hits)

                registry = MetricsRegistry()
                with use_registry(registry):
                    filtered = filter_column(compressed, predicate)
                if not _identical(filtered.data, naive()):
                    raise AssertionError(
                        f"filter_column differs from decompress-then-filter: "
                        f"{name}/{layout}/{label}"
                    )
                filtered_s, naive_s, speedup = timed(
                    f"workloads/{name}/{layout}/{label}",
                    lambda: filter_column(compressed, predicate), naive,
                )
                rows_decoded = int(registry.get("query.cdomain.filtered.rows_selected"))
                surviving_rows = int(registry.get("query.cdomain.filtered.rows_total"))
                sweep[label] = {
                    "selectivity": fraction,
                    "rows_matched": len(filtered.data),
                    "filtered_s": filtered_s,
                    "naive_s": naive_s,
                    "speedup": speedup,
                    "rows_decoded": rows_decoded,
                    "surviving_rows": surviving_rows,
                    "decode_fraction": (
                        rows_decoded / surviving_rows if surviving_rows else 0.0
                    ),
                    "full_decodes": int(registry.get("query.cdomain.filtered.full_decodes")),
                    "pages": int(registry.get("query.cdomain.pages")),
                    "pages_skipped": int(registry.get("query.cdomain.pages_skipped")),
                }
                if label == "1%" and layout == "clustered":
                    decoded_1pct += rows_decoded
                    surviving_1pct += surviving_rows
                    speedups_1pct.append(sweep[label]["speedup"])
            report["workloads"][name][layout] = sweep

    def bitpack_nulls(rows: int, rng: np.random.Generator) -> Column:
        column = SCHEME_WORKLOADS["bitpack"](rows, rng)
        nulls = RoaringBitmap.from_bools(rng.random(rows) < 0.01)
        return Column(column.name, column.ctype, column.data, nulls)

    def take_rows(column: Column, selection: np.ndarray) -> "tuple[object, np.ndarray]":
        """Decompress-then-take of one column: (values, NULL result rows)."""
        values = take_values(column.data, selection)
        if column.nulls is None:
            return values, np.empty(0, dtype=np.int64)
        return values, np.flatnonzero(column.nulls.to_mask(rows)[selection])

    for name, make in {**SCHEME_WORKLOADS, "bitpack_nulls": bitpack_nulls}.items():
        compressed = compress_column(make(rows, np.random.default_rng(seed)), config)
        full = decompress_column(compressed)
        report["materialise"][name] = {}
        for layout in SWEEP_LAYOUTS:
            sweep = {}
            for label, fraction in SWEEP_FRACTIONS:
                picked = max(1, int(rows * fraction))
                if layout == "clustered":
                    start = (rows - picked) // 2
                    selection = np.arange(start, start + picked, dtype=np.int64)
                else:
                    selection = np.sort(rng.choice(rows, picked, replace=False))
                got = read_rows(compressed, selection)
                expected, expected_nulls = take_rows(full, selection)
                if not _identical(got.data, expected) or not np.array_equal(
                    got.nulls.to_array() if got.nulls else [], expected_nulls
                ):
                    raise AssertionError(
                        f"read_rows differs from decompress-then-take: "
                        f"{name}/{layout}/{label}"
                    )

                def plain():
                    # The same contract as read_rows: out-of-range rows are
                    # an IndexError, never a wrapped-around negative index.
                    if selection.min() < 0 or selection.max() >= rows:
                        raise IndexError("row index out of range")
                    values, null_rows = take_rows(decompress_column(compressed), selection)
                    return values, RoaringBitmap.from_positions(null_rows)

                filtered_s, naive_s, speedup = timed(
                    f"materialise/{name}/{layout}/{label}",
                    lambda: read_rows(compressed, selection), plain,
                )
                sweep[label] = {
                    "selectivity": fraction,
                    "rows_selected": picked,
                    "filtered_s": filtered_s,
                    "naive_s": naive_s,
                    "speedup": speedup,
                }
            report["materialise"][name][layout] = sweep

    report["at_1pct"] = {
        "rows_decoded": decoded_1pct,
        "surviving_rows": surviving_1pct,
        "decode_fraction": decoded_1pct / surviving_1pct if surviving_1pct else 0.0,
        "min_speedup": min(speedups_1pct) if speedups_1pct else 0.0,
    }
    cells = sweep_cells(report)
    report["min_speedup_at"] = min(cells, key=cells.get)
    report["min_speedup"] = cells[report["min_speedup_at"]]
    return report


def test_compressed_scan_sweep_covers_every_cell():
    """Both sections sweep 1/10/50/90/100% x clustered/scattered, the
    materialise section over every scheme family, and the minima name
    a cell that exists."""
    cdomain = bench_compressed_scan(256, DEFAULT_SEED, repeats=1)
    labels = [label for label, _ in SWEEP_FRACTIONS]
    assert labels == ["1%", "10%", "50%", "90%", "100%"]
    assert set(cdomain["workloads"]) == {"bitpack", "rle", "dictionary"}
    assert set(cdomain["materialise"]) == set(SCHEME_WORKLOADS) | {"bitpack_nulls"}
    for section in ("workloads", "materialise"):
        for name, layouts in cdomain[section].items():
            assert set(layouts) == set(SWEEP_LAYOUTS), name
            for layout, sweep in layouts.items():
                assert list(sweep) == labels, (name, layout)
                for label, point in sweep.items():
                    assert point["filtered_s"] > 0 and point["naive_s"] > 0
    cells = sweep_cells(cdomain)
    assert len(cells) == (3 + len(SCHEME_WORKLOADS) + 1) * len(SWEEP_LAYOUTS) * len(labels)
    assert cdomain["min_speedup"] == min(cells.values())
    assert cells[cdomain["min_speedup_at"]] == cdomain["min_speedup"]
    assert 0.0 <= cdomain["at_1pct"]["decode_fraction"] <= 1.0


#: The sweep gate's bar: selective execution vs decode-everything, per cell.
MIN_SPEEDUP = 0.9
#: How many more times a gate measures a cell that reads under its bar.
RETIMES = 2


def retimed_speedup(
    fast, plain, bar: "float | None" = MIN_SPEEDUP, repeats: int = 16
) -> "tuple[float, float, float]":
    """:func:`~_harness.paired_speedup` of one cell, measured again up to
    ``RETIMES`` more times while it reads under ``bar`` (``None``: once), its
    best median kept: a real loss stays under the bar on every measurement,
    a scheduling burst does not. Every never-loses gate times its cells
    through this."""
    best = paired_speedup(fast, plain, repeats)
    for _ in range(RETIMES if bar is not None else 0):
        if best[2] >= bar:
            break
        best = max(best, paired_speedup(fast, plain, repeats), key=lambda timing: timing[2])
    return best

#: Sweep cells known to sit under the bar, each held to its own floor instead
#: (docs/PERFORMANCE.md section 7 has the measurements and the reasons).
KNOWN_SLOW_CELLS = {
    # filter_column decodes each numeric block once, but its compressed-domain
    # scan costs ~40-50 us of Python and page-header arithmetic per 16,384-row
    # block that decode-everything does not pay: on shuffled data no page
    # header decides anything (0.54-0.92 over three runs), and on sorted
    # bit-packed data a dense selection is a full decode plus that overhead
    # (0.69-0.95).
    **{f"workloads/{name}/scattered/{label}": 0.45
       for name in ("bitpack", "rle") for label, _ in SWEEP_FRACTIONS},
    **{f"workloads/bitpack/clustered/{label}": 0.6 for label in ("90%", "100%")},
    # Past 1/8 of a block's rows a scattered selection is answered with full
    # decode + take per block; read_rows then pays ~1 ns/row to validate,
    # rebase and concatenate the int64 selection that one whole-column take
    # avoids -- 5-15% of a 3-18 ns/row numeric decode. (The bit-packed
    # families' 1% cells gather their rows by bit address and read 1.2-1.9.)
    **{f"materialise/{name}/scattered/{label}": 0.8
       for name in ("rle", "frequency", "bitpack", "bitpack_nulls", "fastpfor",
                    "pseudodecimal")
       for label in ("1%", "10%", "50%", "90%")
       if label != "1%" or name in ("rle", "frequency")},
}


def test_selective_sweep_never_loses():
    """The sweep gate (ROADMAP item 4): no cell of ``filter_column`` /
    ``read_rows`` x scheme family x 1/10/50/90/100% x clustered/scattered
    may lose to decode-everything, bar the listed cells and their floors."""
    cdomain = bench_compressed_scan(
        SWEEP_GATE_ROWS, DEFAULT_SEED, repeats=16,
        floor=lambda cell: KNOWN_SLOW_CELLS.get(cell, MIN_SPEEDUP),
    )
    cells = sweep_cells(cdomain)
    print_table(
        f"Selective execution vs decode-everything (rows={cdomain['rows']}, "
        f"block_size={cdomain['block_size']}): speedup per selectivity",
        ["section", "workload", "layout", *(label for label, _ in SWEEP_FRACTIONS)],
        [
            [section, name, layout, *(point["speedup"] for point in sweep.values())]
            for section in ("workloads", "materialise")
            for name, layouts in cdomain[section].items()
            for layout, sweep in layouts.items()
        ],
    )
    rollup = cdomain["at_1pct"]
    print(
        f"at 1%: decoded {rollup['rows_decoded']}/{rollup['surviving_rows']} "
        f"surviving-block rows ({100.0 * rollup['decode_fraction']:.1f}%); whole sweep "
        f"min speedup {cdomain['min_speedup']:.2f}x at {cdomain['min_speedup_at']}"
    )
    cdomain_path = os.environ.get("REPRO_BENCH_CDOMAIN")
    if cdomain_path:
        with open(cdomain_path, "w", encoding="utf-8") as fh:
            json.dump({"compressed_scan": cdomain}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"compressed-scan sweep -> {cdomain_path}")

    assert set(KNOWN_SLOW_CELLS) <= set(cells), "KNOWN_SLOW_CELLS names a cell the sweep lacks"
    losing = {
        cell: round(speedup, 2) for cell, speedup in cells.items()
        if speedup < KNOWN_SLOW_CELLS.get(cell, MIN_SPEEDUP)
    }
    assert not losing, (
        f"selective execution loses to decode-everything (gate >= {MIN_SPEEDUP:.2f}x, "
        f"listed cells their own floor): {losing}"
    )
    # A 0.9 floor cannot tell selective decode from decode-everything
    # (~1.0x), so two counters are held at 1% selectivity, clustered.
    fallbacks = {
        name: layouts["clustered"]["1%"]["full_decodes"]
        for name, layouts in cdomain["workloads"].items()
    }
    assert not any(fallbacks.values()), (
        f"1%-selectivity clustered selections fell back to full decodes: {fallbacks}"
    )
    max_decode = float(os.environ.get("REPRO_BENCH_CDOMAIN_MAX_DECODE", "0.25"))
    assert rollup["decode_fraction"] < max_decode, (
        f"1%-selectivity filtered scans decoded "
        f"{100.0 * rollup['decode_fraction']:.1f}% of surviving-block rows "
        f"({rollup['rows_decoded']}/{rollup['surviving_rows']}); "
        f"gate is < {100.0 * max_decode:.0f}%"
    )


#: ``(label, pool entries, shortest, longest row in bytes, rows gathered)``:
#: the shapes behind the kernel-selection constants of ``strutil.gather``
#: (docs/PERFORMANCE.md, "The string read path") -- what lakebench's string
#: columns decode through, both sides of every kernel boundary, small
#: selections against large pools, and ``tpch_small_warm``'s 2,048-row blocks.
GATHER_SHAPES = [
    ("FSST-like tokens", 512, 0, 8, 167_000),
    ("FSST-like tokens, 2,048-row block", 512, 0, 8, 20_700),
    ("l_shipmode", 7, 3, 7, 16_384),
    ("l_shipmode, 2,048-row block", 7, 3, 7, 2_048),
    ("l_returnflag", 3, 1, 1, 16_384),
    ("l_returnflag, 2,048-row block", 3, 1, 1, 2_048),
    ("uniform 8-byte keys", 100, 8, 8, 16_384),
    ("short pool, word crossover - 1", 7, 3, 7, 8_191),
    ("short pool, word crossover", 7, 3, 7, 8_192),
    ("bi_cold 7 x 5-20 B", 7, 5, 20, 32_768),
    ("bi_cold 132 x 3-16 B", 132, 3, 16, 32_768),
    ("bi_cold 10,330 x 3-22 B", 10_330, 3, 22, 32_768),
    ("bi_cold 4,095 x 60-80 B", 4_095, 60, 80, 32_768),
    ("bi_cold 4,095 x 60-80 B, 2,048-row block", 4_095, 60, 80, 2_048),
    ("uniform 36-byte rows, block boundary", 50, 36, 36, 1_024),
    ("skewed 1,000 x 1-400 B", 1_000, 1, 400, 32_768),
    ("sparse query, 7-entry pool", 7, 3, 7, 330),
    ("sparse query, 40 rows", 7, 3, 7, 40),
    ("sparse query, 60k-entry pool", 60_000, 3, 22, 300),
    ("sparse query, 60k-entry long pool", 60_000, 60, 80, 300),
]


def test_gather_shape_sweep_never_loses():
    """No shape may run slower through ``strutil.gather``'s chosen kernel than
    through the per-byte-index kernel (>= ``MIN_SPEEDUP``, no exceptions)."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
    from test_strutil import _random_pool, _reference_gather

    from repro.encodings.strutil import gather

    rng = np.random.default_rng(DEFAULT_SEED)
    rows, speedups = [], {}
    for label, entries, shortest, longest, count in GATHER_SHAPES:
        pool = _random_pool(rng, entries, shortest, longest)
        indices = rng.integers(0, entries, count)
        got, want = gather(pool, indices), _reference_gather(pool, indices)
        assert np.array_equal(got.buffer, want.buffer) and np.array_equal(got.offsets, want.offsets)
        new, old, speedups[label] = retimed_speedup(
            lambda: gather(pool, indices), lambda: _reference_gather(pool, indices)
        )
        rows.append([label, entries, f"{shortest}-{longest}", count,
                     old * 1e3, new * 1e3, speedups[label]])
    print_table(
        "strutil.gather vs the per-byte-index reference kernel (median of >= 80 interleaved pairs)",
        ["shape", "pool", "bytes", "rows", "reference ms", "gather ms", "speedup"],
        rows,
    )
    losing = {label: round(s, 2) for label, s in speedups.items() if s < MIN_SPEEDUP}
    assert not losing, f"gather loses to the per-byte-index kernel (gate >= {MIN_SPEEDUP}): {losing}"


#: The unpack sweep: every bit width a page may declare x these page counts
#: (one 2,048-row block of ``tpch_small_warm``, and both sides of 16,384 rows)
#: x uniform / 2-width / 8-width pages, each unpacked whole.
UNPACK_WIDTHS = range(1, 33)
UNPACK_PAGE_COUNTS = (16, 128, 256)
UNPACK_MIXES = ("uniform", "2-width", "8-width")


def unpack_shape(rng: np.random.Generator, width: int, pages: int, mix: str):
    """``(payload, widths, deltas)`` of ``pages`` pages around ``width``: every
    page ``width`` wide, half of them, or one of eight widths (0 included)."""
    if mix == "uniform":
        choices = [width]
    elif mix == "2-width":
        choices = [width, (width + 15) % 32 + 1]
    else:
        others = rng.choice(np.setdiff1d(np.arange(1, 33), [width]), 6, replace=False)
        choices = [0, width, *others.tolist()]
    widths = rng.choice(choices, pages).astype(np.uint8)
    widths[0] = width
    deltas = (rng.integers(0, 1 << 32, (pages, PAGE), dtype=np.uint64)
              & ((np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1))[:, None])
    return pack_pages(deltas, widths), widths, deltas


def test_unpack_shape_sweep_never_loses():
    """No cell of width x pages x mix may unpack slower than through the
    kernel the strided-word unpack replaced (kept as the oracle in
    ``tests/bitpack_reference.py``): >= ``MIN_SPEEDUP``, no exceptions."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
    import bitpack_reference as reference

    rng = np.random.default_rng(DEFAULT_SEED)
    speedups, rows = {}, []
    for mix in UNPACK_MIXES:
        for pages in UNPACK_PAGE_COUNTS:
            row = [mix, pages]
            for width in UNPACK_WIDTHS:
                payload, widths, deltas = unpack_shape(rng, width, pages, mix)
                new = lambda: unpack_pages(payload, widths)  # noqa: E731
                old = lambda: reference.unpack_pages(payload, widths)  # noqa: E731
                assert np.array_equal(new(), deltas) and np.array_equal(old(), deltas)
                cell = f"{mix}/{pages}/w{width}/whole"
                speedups[cell] = retimed_speedup(new, old)[2]
                row.append(speedups[cell])
            rows.append(row)
    print_table(
        "unpack_pages vs the reference kernel: speedup per width (median of >= 80 interleaved pairs)",
        ["mix", "pages", *(f"w{width}" for width in UNPACK_WIDTHS)],
        rows,
    )
    worst = min(speedups, key=speedups.get)
    print(f"whole sweep: min speedup {speedups[worst]:.2f}x at {worst}")
    losing = {cell: round(s, 2) for cell, s in speedups.items() if s < MIN_SPEEDUP}
    assert not losing, f"the unpack loses to the reference kernels (gate >= {MIN_SPEEDUP}): {losing}"


#: The string-assembly sweep: ``(label, distinct rows, shortest, longest
#: row in bytes)`` -- a code-like dictionary column, a text-like one whose
#: blocks go FSST, and random bytes stored Uncompressed -- x columns of
#: ``(blocks, rows per block)``: one 65,536-row block (``bi_cold``, and the
#: default block size), small one-block columns, four 16,384-row blocks
#: (``tpch_cold``), 2,048-row ones (``tpch_small_warm``) and a 64-row floor.
ASSEMBLY_STRINGS = (("codes", 7, 3, 7), ("text", 4_096, 20, 60), ("random", 0, 12, 12))
ASSEMBLY_LAYOUTS = (
    (1, 65_536), (1, 16_384), (1, 2_048), (2, 2_048), (4, 16_384), (8, 2_048), (32, 2_048),
    (32, 64),
)

def assembly_column(rng: np.random.Generator, label: str, distinct: int, shortest: int,
                    longest: int, blocks: int, rows: int):
    """One compressed, checksummed string column of ``blocks`` x ``rows``."""
    total = blocks * rows
    if distinct:
        pool = [bytes(rng.integers(97, 123, int(rng.integers(shortest, longest + 1)), dtype=np.uint8))
                for _ in range(distinct)]
        values = [pool[i] for i in rng.integers(0, distinct, total)]
    else:
        values = [bytes(row) for row in rng.integers(0, 256, (total, longest), dtype=np.uint8)]
    column = Column.strings(label, values)
    return column_from_bytes(column_to_bytes(compress_column(column, BtrBlocksConfig(block_size=rows))))


def test_string_assembly_sweep_never_loses():
    """No string column may decode slower through the rebasing assembly than
    through the concatenating one it replaced (kept as the oracle in
    ``tests/assembly_reference.py``), cold or served warm from the decode
    cache: >= ``MIN_SPEEDUP``, no exceptions."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
    import assembly_reference as reference

    rng = np.random.default_rng(DEFAULT_SEED)
    speedups, rows = {}, []
    for label, distinct, shortest, longest in ASSEMBLY_STRINGS:
        for blocks, block_rows in ASSEMBLY_LAYOUTS:
            compressed = assembly_column(rng, label, distinct, shortest, longest, blocks, block_rows)
            cache = DecodeCache(1 << 30)
            decompress_column(compressed, cache=cache, cache_key=("warm", 1))
            cells = {
                "cold": (lambda: decompress_column(compressed),
                         lambda: reference.decode_string_column(compressed)),
                "warm": (lambda: decompress_column(compressed, cache=cache, cache_key=("warm", 1)),
                         lambda: reference.decode_string_column(compressed, cache, ("warm", 1))),
            }
            row = [label, blocks, block_rows]
            for mode, (new, old) in cells.items():
                got, want = new().data, old().data
                assert np.array_equal(got.offsets, want.offsets) and np.array_equal(got.buffer, want.buffer)
                speedup = retimed_speedup(new, old)[2]
                speedups[f"{label}/{blocks}x{block_rows}/{mode}"] = speedup
                row.append(speedup)
            rows.append(row)
    print_table(
        "decompress_column (rebased offsets) vs the concatenating assembly, string columns "
        "(speedup, median of >= 80 interleaved pairs)",
        ["strings", "blocks", "rows/block", "cold", "warm"],
        rows,
    )
    worst = min(speedups, key=speedups.get)
    print(f"whole sweep: min speedup {speedups[worst]:.2f}x at {worst}")
    losing = {cell: round(s, 2) for cell, s in speedups.items() if s < MIN_SPEEDUP}
    assert not losing, f"the string assembly loses to the reference (gate >= {MIN_SPEEDUP}): {losing}"


#: The cached-filter sweep: one warm block per cell of number scheme family
#: (``SCHEME_WORKLOADS``' numbers, numeric dictionaries, Uncompressed) x block
#: rows (``tpch_small_warm``'s 2,048, the 16,384 of ``tpch_cold`` and the
#: default 65,536) x predicate x NULLs.
CACHED_FILTER_ROWS = (2_048, 16_384, 65_536)
CACHED_FILTER_PREDICATES = ("Equals", "1%", "60%")


def cached_filter_predicate(values: np.ndarray, label: str):
    """``Equals`` a value the block holds, or a range over the lowest 1% / 60%."""
    if label == "Equals":
        return Equals(values[len(values) // 2].item())
    fraction = 0.01 if label == "1%" else 0.60
    return Between(values.min().item(), np.quantile(values, fraction).item())


def warm_block(column: Column):
    """``(block, cache, cache_key)``: a one-block checksummed column's block,
    decoded once into a fresh decode cache the way a scan fills it."""
    compressed = column_from_bytes(
        column_to_bytes(compress_column(column, BtrBlocksConfig(block_size=len(column))))
    )
    cache, key = DecodeCache(1 << 30), ("warm", 1)
    decompress_column(compressed, cache=cache, cache_key=key)
    return compressed.blocks[0], cache, key


def test_cached_filter_sweep_never_loses():
    """No warm number block may filter slower over its cached values --
    ``executor.block_mask`` with the column's cache entry (looked up once
    per column by the scan driver): the ``cached_block`` gate, the hit's
    CRC32 and ``evaluate`` -- than through ``scan_block``'s walk of its
    compressed cascade (``block_mask`` without one): >= ``MIN_SPEEDUP``, no
    exceptions. One string-dictionary cell is printed, not gated: the reason
    string blocks stay in code space."""
    from repro.query.executor import block_mask

    speedups, rows = {}, []
    numbers = {name: make for name, make in SCHEME_WORKLOADS.items()
               if name not in ("dictionary", "fsst")}
    numbers.update({
        "dictionary_int": lambda rows, rng: Column.ints("v", rng.integers(0, 12, rows) * 1_000_003),
        "dictionary_double": lambda rows, rng: Column.doubles("v", rng.integers(0, 12, rows) * 0.37),
        "uncompressed_int": lambda rows, rng: Column.ints("v", rng.integers(-(2**31), 2**31 - 1, rows)),
        "uncompressed_double": lambda rows, rng: Column.doubles("v", rng.standard_normal(rows)),
    })
    for name, make in numbers.items():
        for block_rows in CACHED_FILTER_ROWS:
            for nulls in ("no NULLs", "NULLs"):
                rng = np.random.default_rng(DEFAULT_SEED)
                column = make(block_rows, rng)
                if nulls == "NULLs":
                    column = Column(column.name, column.ctype, column.data,
                                    RoaringBitmap.from_bools(rng.random(block_rows) < 0.05))
                block, cache, key = warm_block(column)
                entry = cache.get(key)  # looked up once per column, as a scan does
                row = [name, block_rows, nulls]
                for label in CACHED_FILTER_PREDICATES:
                    predicate = cached_filter_predicate(np.asarray(column.data), label)

                    def cached():
                        return block_mask(0, block, column.ctype, predicate, None, cache, entry)[0]

                    def compressed():
                        return block_mask(0, block, column.ctype, predicate)[0]

                    assert np.array_equal(cached(), compressed())
                    speedup = retimed_speedup(cached, compressed)[2]
                    speedups[f"{name}/{block_rows}/{nulls}/{label}"] = speedup
                    row.append(speedup)
                rows.append(row)
    print_table(
        "filter over a warm block's cached values vs scan_block over its cascade "
        "(speedup, median of >= 80 interleaved pairs)",
        ["family", "rows", "NULLs", *CACHED_FILTER_PREDICATES],
        rows,
    )
    worst = min(speedups, key=speedups.get)
    print(f"whole sweep: min speedup {speedups[worst]:.2f}x at {worst}")

    strings = SCHEME_WORKLOADS["dictionary"](16_384, np.random.default_rng(DEFAULT_SEED))
    block, cache, key = warm_block(strings)
    predicate = In([strings.data[0], strings.data[1]])
    entry = cache.get(key)
    evaluate_s, scan_s, _ = paired_speedup(
        lambda: predicate.evaluate(entry.span(0, 1)),
        lambda: block_mask(0, block, strings.ctype, predicate),
        repeats=4,
    )
    print(f"string dictionary, 16,384 rows, In of two: evaluate over the cached values "
          f"{evaluate_s * 1e3:.2f} ms vs scan_block in code space {scan_s * 1e3:.3f} ms "
          f"({evaluate_s / scan_s:.0f}x slower): string filters stay in code space")
    losing = {cell: round(s, 2) for cell, s in speedups.items() if s < MIN_SPEEDUP}
    assert not losing, f"the cached filter loses to scan_block (gate >= {MIN_SPEEDUP}): {losing}"
