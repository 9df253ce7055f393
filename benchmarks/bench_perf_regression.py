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
selectivity) as its own artifact, and ``REPRO_BENCH_CDOMAIN`` the
compressed-domain sweep. That sweep is also *gated*, as a whole and at its
own scale (``REPRO_BENCH_CDOMAIN_ROWS``, default 131,072 rows: ratios of
microsecond timings at smoke scale are clock noise): over every scheme
family x 1/10/50/90/100% selectivity x clustered/scattered selections,
``read_rows`` must stay within ``REPRO_BENCH_CDOMAIN_MIN_SPEEDUP`` of
decompress-then-take — no fast path may lose to the plain path anywhere in
its sweep. The 1%-selectivity decode fraction (rows decoded / rows in
surviving blocks) is still reported, no longer gated on its own.

Regenerate the baseline after an intentional performance change::

    REPRO_BENCH_ROWS=4096 REPRO_BENCH_OUTPUT=benchmarks/BENCH_baseline.json \
        PYTHONPATH=src python -m pytest -q -s benchmarks/bench_perf_regression.py
"""

import os
from pathlib import Path

import pytest

from _harness import bench_rows, print_table
from repro.bench import (
    SWEEP_FRACTIONS,
    bench_compressed_scan,
    compare,
    load_report,
    run_bench,
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
    # The sweep gate runs at its own scale and replaces the smoke-scale
    # section in the written report, so the artifact holds the gated numbers.
    cdomain = report["compressed_scan"] = bench_compressed_scan(
        int(os.environ.get("REPRO_BENCH_CDOMAIN_ROWS", "131072")),
        report["meta"]["seed"],
        repeats=max(5, report["meta"]["repeats"]),
    )
    write_report(report, output)
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
        import json

        with open(cdomain_path, "w", encoding="utf-8") as fh:
            json.dump({"meta": report["meta"], "compressed_scan": cdomain},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"compressed-scan sweep -> {cdomain_path}")
    print(f"\nreport -> {output}")

    min_speedup = float(os.environ.get("REPRO_BENCH_CDOMAIN_MIN_SPEEDUP", "0.7"))
    assert cdomain["materialise_min_speedup"] >= min_speedup, (
        f"selective materialisation is {cdomain['materialise_min_speedup']:.2f}x "
        f"decompress-then-take at {cdomain['materialise_min_speedup_at']}; "
        f"gate is >= {min_speedup:.2f}x across the whole sweep"
    )

    if not BASELINE_PATH.exists():
        pytest.skip(f"no committed baseline at {BASELINE_PATH}")
    threshold = float(os.environ.get("REPRO_BENCH_THRESHOLD", "0.30"))
    regressions = compare(report, load_report(str(BASELINE_PATH)), threshold=threshold)
    assert not regressions, "throughput regressions vs baseline:\n" + "\n".join(regressions)
