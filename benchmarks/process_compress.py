#!/usr/bin/env python3
"""Process-pool compress against the inline loop, in alternating pairs.

    PYTHONPATH=src python3 benchmarks/process_compress.py [--pairs 10] [--seed 100] \\
        [--workers 2] [--into BENCH_<date>_issue<N>.json]

For every lakebench workload the four partitions are generated once; then,
``--pairs`` times, ``compress_relation(p, config)`` over the partitions
(``workers=1``) and ``compress_relation(p, config, workers=N)`` are timed back
to back, the order alternating by pair (odd pairs run the pool first). Every
pair checks that both sides stored the same bytes and block statistics. The
pool stays warm across pairs, as it does across calls in one process; one
untimed call per side warms both routes first. Prints per-pair seconds and
the median speedup (inline seconds / pool seconds); ``--into`` writes the
record as the ``process_compress`` key of a trajectory entry and touches no
other key. A record, not a gate: nothing here asserts a speedup.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lakebench")]

import numpy as np  # noqa: E402

from repro import compress_relation, procpool  # noqa: E402
from repro.core.blockstats import stats_entry_to_json  # noqa: E402
from repro.core.compressor import iter_block_ranges  # noqa: E402
from workloads import PARTITIONS, WORKLOADS  # noqa: E402


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _digest(tables) -> str:
    """Bytes, NULL bitmaps and block statistics of every block, in order."""
    h = hashlib.sha256()
    for table in tables:
        for column in table.columns:
            for block in column.blocks:
                h.update(block.data)
                h.update(block.nulls or b"-")
                h.update(json.dumps(stats_entry_to_json(block.stats)).encode())
    return h.hexdigest()[:16]


def _timed(relations, config, workers: int) -> "tuple[float, str]":
    started = time.perf_counter()
    tables = [compress_relation(r, config, workers=workers) for r in relations]
    return time.perf_counter() - started, _digest(tables)


def _spread(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def measure(pairs: int, seed: int, workers: int) -> dict:
    record: dict = {
        "command": f"PYTHONPATH=src python3 benchmarks/process_compress.py --pairs {pairs} "
                   f"--seed {seed} --workers {workers}",
        "protocol": f"per workload, its {PARTITIONS} partitions compressed by workers=1 and "
                    f"workers={workers} back to back, {pairs} pairs, odd pairs pool first, "
                    "one untimed warm-up call per side; speedup = inline s / pool s per pair",
        "host": host(),
        "seed": seed,
        "workers": workers,
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        config = workload.config()
        relations = [workload.generate(seed, p) for p in range(PARTITIONS)]
        tasks = [
            sum(1 for c in r.columns for _ in iter_block_ranges(len(c), config.block_size))
            for r in relations
        ]
        _, want = _timed(relations, config, 1)
        _timed(relations, config, workers)
        rows = []
        for pair in range(pairs):
            seconds = {}
            for side in (workers, 1) if pair % 2 else (1, workers):
                seconds[side], digest = _timed(relations, config, side)
                if digest != want:
                    raise SystemExit(f"{name} pair {pair} workers={side}: stored bytes differ")
            rows.append({
                "pair": pair,
                "first": "pool" if pair % 2 else "inline",
                "inline_s": seconds[1],
                "pool_s": seconds[workers],
            })
            print(f"{name:16s} pair {pair}  inline {seconds[1]:.3f} s  pool {seconds[workers]:.3f} s  "
                  f"{seconds[1] / seconds[workers]:.2f}x", flush=True)
        speedups = [row["inline_s"] / row["pool_s"] for row in rows]
        record["workloads"][name] = {
            "block_tasks_per_partition": tasks,
            "digest": want,
            "pairs": rows,
            "speedup": _spread(speedups),
            "pool_wins": sum(s > 1.0 for s in speedups),
        }
        print(f"{name:16s} median {statistics.median(speedups):.2f}x, pool faster in "
              f"{record['workloads'][name]['pool_wins']}/{pairs} pairs", flush=True)
    procpool.shutdown_pool()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--into", metavar="BENCH_JSON",
                        help="add the record to this trajectory entry as 'process_compress'")
    args = parser.parse_args(argv)
    record = measure(args.pairs, args.seed, args.workers)
    if args.into:
        path = Path(args.into)
        entry = json.loads(path.read_text())
        entry["process_compress"] = record
        path.write_text(json.dumps(entry, indent=1) + "\n")
        print(f"process_compress -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
