"""Perf-regression smoke: run ``repro bench`` and gate against the baseline.

Runs the same harness as ``python -m repro bench`` at CI scale
(``REPRO_BENCH_ROWS``), writes the fresh ``BENCH_<date>.json`` report (to
``REPRO_BENCH_OUTPUT`` when set, so CI can upload it as an artifact), and
fails when any throughput metric — compress or decompress MB/s — drops
more than ``REPRO_BENCH_THRESHOLD`` (default 30%) below the committed
``benchmarks/BENCH_baseline.json``. When ``REPRO_BENCH_OVERLAP`` is set,
the pipelined-scan fetch-vs-decode overlap breakdown is additionally
written there as its own JSON artifact, making the network/CPU-bound
crossover visible per CI run; ``REPRO_BENCH_SELECTIVE`` likewise writes
the zone-map selectivity sweep (bytes fetched at 1/10/50/100%
selectivity) as its own artifact.

``test_selective_sweep_never_loses`` is the sweep gate: it runs the
compressed-domain sweep once, at ``repro.bench.SWEEP_GATE_ROWS`` (ratios of
microsecond timings at smoke scale are clock noise), writes it to
``REPRO_BENCH_CDOMAIN`` when set, and fails when any cell — ``filter_column``
or ``read_rows`` x scheme family x 1/10/50/90/100% selectivity x
clustered/scattered — falls below ``MIN_SPEEDUP`` (0.9) of
decode-everything, except the cells ``KNOWN_SLOW_CELLS`` lists, which are held to the floor written next to them. At 1%
selectivity the decode fraction (rows decoded / rows in surviving blocks)
stays gated below ``REPRO_BENCH_CDOMAIN_MAX_DECODE`` (default 25%) and no
block may have taken the dispatcher's full-decode fallback.

``test_gather_shape_sweep_never_loses`` is the same bar for the string read
path: ``strutil.gather`` picks a kernel (word take + compaction, block
copies, per-byte index) from the request's shape, and on every shape of
``GATHER_SHAPES`` the pick must stay at or above ``MIN_SPEEDUP`` of the
per-byte-index kernel it replaced (kept as the oracle in
``tests/test_strutil.py``) -- no slow fast path.

Regenerate the baseline after an intentional performance change::

    REPRO_BENCH_ROWS=4096 REPRO_BENCH_OUTPUT=benchmarks/BENCH_baseline.json \
        PYTHONPATH=src python -m pytest -q -s benchmarks/bench_perf_regression.py
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from _harness import bench_rows, print_table
from repro.bench import (
    DEFAULT_SEED,
    SWEEP_FRACTIONS,
    SWEEP_GATE_ROWS,
    _paired_seconds,
    bench_compressed_scan,
    compare,
    load_report,
    run_bench,
    sweep_cells,
    write_report,
)

BASELINE_PATH = Path(__file__).parent / "BENCH_baseline.json"


def test_perf_regression_vs_baseline():
    parallel_rows = os.environ.get("REPRO_BENCH_PARALLEL_ROWS")
    report = run_bench(
        rows=bench_rows(),
        workers=(1, 2, 4),
        repeats=int(os.environ.get("REPRO_BENCH_REPEATS", "3")),
        parallel_rows=int(parallel_rows) if parallel_rows else None,
    )
    output = os.environ.get("REPRO_BENCH_OUTPUT", f"BENCH_{report['meta']['date']}.json")
    write_report(report, output)

    print_table(
        "Perf regression harness (schemes)",
        ["workload", "comp MB/s", "dec MB/s", "ratio"],
        [
            [name, entry["compress_mb_s"], entry["decompress_mb_s"], entry["ratio"]]
            for name, entry in report["schemes"].items()
        ],
    )
    parallel = report["parallel"]
    print_table(
        "Parallel block-pipeline scaling "
        f"({parallel['rows']:,} rows, cpu_count={parallel['cpu_count']}, "
        f"affinity={parallel['cpu_affinity']})",
        ["backend", "workers", "comp s", "comp x", "dec s", "dec x"],
        [
            [backend, w, entry["compress_seconds"][w], entry["compress_speedup"][w],
             entry["decompress_seconds"][w], entry["decompress_speedup"][w]]
            for backend, entry in parallel["backends"].items()
            for w in sorted(entry["compress_seconds"], key=int)
        ],
    )
    selection = report["selection"]
    print_table(
        "Selection overhead",
        ["mode", "overhead %", "sticky hits", "sticky misses"],
        [
            [mode, entry["selection_overhead_pct"], entry["sticky_hits"],
             entry["sticky_misses"]]
            for mode, entry in selection.items()
        ],
    )
    pipeline = report["pipeline"]
    print_table(
        f"Pipelined scan fetch-vs-decode overlap (readahead={pipeline['readahead']})",
        ["fetch s", "decode s", "serial s", "wall s", "overlap s", "speedup"],
        [[pipeline["fetch_seconds"], pipeline["decode_seconds"],
          pipeline["serial_seconds"], pipeline["wall_seconds"],
          pipeline["overlap_seconds"], pipeline["speedup"]]],
    )
    selective = report["selective_scan"]
    print_table(
        f"Selective scan — bytes fetched vs selectivity "
        f"(rows={selective['rows']}, table={selective['table_bytes']}B)",
        ["selectivity", "rows", "bytes fetched", "GETs", "pruned blocks", "wall s"],
        [
            [label, point["rows_returned"], point["bytes_fetched"],
             point["get_requests"], point["pruned_blocks"], point["decode_s"]]
            for label, point in selective["sweep"].items()
        ],
    )
    overlap_path = os.environ.get("REPRO_BENCH_OVERLAP")
    if overlap_path:
        import json

        with open(overlap_path, "w", encoding="utf-8") as fh:
            json.dump({"meta": report["meta"], "pipeline": pipeline},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"overlap breakdown -> {overlap_path}")
    selective_path = os.environ.get("REPRO_BENCH_SELECTIVE")
    if selective_path:
        import json

        with open(selective_path, "w", encoding="utf-8") as fh:
            json.dump({"meta": report["meta"], "selective_scan": selective},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"selective-scan sweep -> {selective_path}")
    print(f"\nreport -> {output}")

    if not BASELINE_PATH.exists():
        pytest.skip(f"no committed baseline at {BASELINE_PATH}")
    threshold = float(os.environ.get("REPRO_BENCH_THRESHOLD", "0.30"))
    regressions = compare(report, load_report(str(BASELINE_PATH)), threshold=threshold)
    assert not regressions, "throughput regressions vs baseline:\n" + "\n".join(regressions)


#: The sweep gate's bar: selective execution vs decode-everything, per cell.
MIN_SPEEDUP = 0.9

#: Sweep cells known to sit under the bar, each held to its own floor instead
#: (docs/PERFORMANCE.md section 7 has the measurements and the reasons).
KNOWN_SLOW_CELLS = {
    # filter_column decodes a numeric block twice, once to evaluate the
    # predicate and once to materialise (ROADMAP item 4a): shuffled data
    # leaves every page undecided, sorted data pays it on dense selections.
    **{f"workloads/{name}/scattered/{label}": 0.3
       for name in ("bitpack", "rle") for label, _ in SWEEP_FRACTIONS},
    **{f"workloads/{name}/clustered/{label}": 0.6
       for name in ("bitpack", "rle") for label in ("50%", "90%", "100%")},
    # A scattered selection touches every page and run, so the dispatcher
    # answers it with full decode + take per block; read_rows then pays
    # ~1 ns/row to validate, rebase and concatenate the int64 selection that
    # one whole-column take avoids -- 5-15% of a 3-18 ns/row numeric decode.
    **{f"materialise/{name}/scattered/{label}": 0.8
       for name in ("rle", "frequency", "bitpack", "bitpack_nulls", "fastpfor",
                    "pseudodecimal")
       for label in ("1%", "10%", "50%", "90%")},
}


def test_selective_sweep_never_loses():
    """The sweep gate (ROADMAP item 4): no cell of ``filter_column`` /
    ``read_rows`` x scheme family x 1/10/50/90/100% x clustered/scattered
    may lose to decode-everything, bar the listed cells and their floors."""
    cdomain = bench_compressed_scan(SWEEP_GATE_ROWS, DEFAULT_SEED, repeats=16)
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
        write_report({"compressed_scan": cdomain}, cdomain_path)
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
        new, old = _paired_seconds(
            lambda: gather(pool, indices), lambda: _reference_gather(pool, indices), repeats=16
        )
        speedups[label] = old / new
        rows.append([label, entries, f"{shortest}-{longest}", count,
                     old * 1e3, new * 1e3, old / new])
    print_table(
        "strutil.gather vs the per-byte-index reference kernel (best of >= 80, interleaved)",
        ["shape", "pool", "bytes", "rows", "reference ms", "gather ms", "speedup"],
        rows,
    )
    losing = {label: round(s, 2) for label, s in speedups.items() if s < MIN_SPEEDUP}
    assert not losing, f"gather loses to the per-byte-index kernel (gate >= {MIN_SPEEDUP}): {losing}"
