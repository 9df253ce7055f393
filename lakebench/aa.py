#!/usr/bin/env python3
"""A/A record: does the benchmark agree with itself on this checkout?

Runs two interleaved sets of seeds per workload through ``run.py`` exactly
as the driver does (one process per run) and reports, per workload x
end-to-end metric, the cross-seed spread (IQR / median over all runs, and
per set) and how far the two sets' medians disagree, beside the bound in
``BENCHMARK.json`` — plus every run's wall seconds and their projection
onto the driver's total time cap. The bounds in ``BENCHMARK.json`` are
fixed from this tool's committed output (``AA_<date>.json``).

    python3 lakebench/aa.py --out lakebench/AA_2026-09-28.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import iqr_share

HERE = Path(__file__).resolve().parent
#: The builder's contract: runs the driver makes, and the cap on their total.
DRIVER_CAP_S = 3420


def driver_runs(workloads: int) -> int:
    return 4 + 22 * workloads


def one_run(workload, seed, seconds, trace, record_path=None) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if record_path is not None:
        command += ["--out", str(record_path)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(done.stdout + done.stderr)
    return {
        "workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
        "exit": done.returncode, "result": result,
    }


def summarise(runs, benchmark) -> "list[dict]":
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            sets = {
                label: [
                    r["result"]["metrics"][name]["value"]
                    for r in runs
                    if r["workload"] == workload and r["set"] == label and r["result"]
                ]
                for label in ("a", "b")
            }
            a, b = statistics.median(sets["a"]), statistics.median(sets["b"])
            # How much worse the second set's median reads than the first's.
            worse = (b / a - 1.0) if better == "lower" else (a / b - 1.0)
            spread = iqr_share(sets["a"] + sets["b"])
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": metric["unit"],
                    "median_a": a, "median_b": b,
                    "spread_all": spread,
                    "spread_a": iqr_share(sets["a"]), "spread_b": iqr_share(sets["b"]),
                    "b_worse_than_a": worse, "bound": bound,
                    "spread_ok": name == "setup_s" or spread <= bound,
                    "spread_under_third": spread <= bound / 3.0,
                    "medians_ok": abs(worse) <= bound,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5, help="seeds per set (>= 5)")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", help="write the A/A record here")
    parser.add_argument("--records", help="directory for every run's full --out record")
    args = parser.parse_args(argv)

    from run import host_metadata

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in benchmark["workloads"]]
    records = Path(args.records) if args.records else None
    if records is not None:
        records.mkdir(parents=True, exist_ok=True)

    runs = []
    for i in range(args.seeds):
        for workload in workloads:
            for label, seed in (("a", 100 + i), ("b", 200 + i)):
                path = records / f"{workload}_{seed}.json" if records else None
                run = one_run(workload, seed, seconds, 0, path)
                run["set"] = label
                runs.append(run)
                print(f"{workload} set {label} seed {seed}: exit {run['exit']} in {run['wall_s']:.1f} s", flush=True)
    traced = [one_run(workload, 100, seconds, 1) for workload in workloads]

    rows = summarise(runs, benchmark)
    print(f"\n{'workload':16} {'metric':20} {'median a':>11} {'median b':>11} "
          f"{'IQR/med':>8} {'b worse':>8} {'bound':>6}")
    for row in rows:
        flag = "" if row["spread_ok"] and row["medians_ok"] else "  <-- outside the bound"
        if not flag and not row["spread_under_third"] and row["metric"] != "setup_s":
            flag = "  (spread above a third of the bound)"
        print(f"{row['workload']:16} {row['metric']:20} {row['median_a']:11.4f} {row['median_b']:11.4f} "
              f"{row['spread_all']:8.2%} {row['b_worse_than_a']:+8.2%} {row['bound']:6.2f}{flag}")
    walls = [r["wall_s"] for r in runs + traced]
    projected = driver_runs(len(workloads)) * statistics.fmean(walls)
    print(f"\nwall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
          f"{driver_runs(len(workloads))} driver runs project to {projected:.0f} s of the {DRIVER_CAP_S} s cap")
    ok = all(r["exit"] == 0 and r["result"]["correct"] for r in runs + traced)
    ok = ok and all(row["spread_ok"] and row["medians_ok"] for row in rows) and projected <= DRIVER_CAP_S
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {
                    "date": time.strftime("%Y-%m-%d"), "host": host_metadata(),
                    "run_seconds": seconds, "seeds_per_set": args.seeds,
                    "summary": rows, "wall_s": {"runs": walls, "projected_total": projected, "cap": DRIVER_CAP_S},
                    "runs": runs, "traced_runs": traced, "ok": ok,
                },
                indent=1,
            )
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
