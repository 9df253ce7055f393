#!/usr/bin/env python3
"""lakebench: the repo's one benchmark — write -> cold/warm scan -> selective query.

    python3 lakebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md
in this directory for what is measured, how, and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One process, one thread: set before NumPy loads its BLAS.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run record (windows, calibrations) here")
    parser.add_argument("--trace-out", help="with --trace 1: write every span here")
    parser.add_argument("--selfcheck", action="store_true", help="A/A the calibration kernel")
    parser.add_argument(
        "--emit-benchmark-json", action="store_true", help="print BENCHMARK.json and exit"
    )
    return parser.parse_args(argv)


def host_metadata() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def _selfcheck() -> int:
    import calib

    report = calib.selfcheck()
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0 if report["ok"] else 1


def _print_metrics(metrics: dict, table: dict) -> dict:
    out = {}
    for name, value in metrics.items():
        unit = table[name][0]
        print(f"{name} {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def _leftovers() -> "list[str]":
    """Processes or threads this run would leave behind (must be none)."""
    import multiprocessing
    import threading

    return [repr(x) for x in multiprocessing.active_children()] + [
        repr(t) for t in threading.enumerate() if t is not threading.main_thread()
    ]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"lakebench: the library is not at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return _selfcheck()

    from harness import Harness
    from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, benchmark_json
    from workloads import WORKLOADS

    if args.emit_benchmark_json:
        print(json.dumps(benchmark_json(WORKLOADS.values()), indent=2))
        return 0
    if args.workload not in WORKLOADS:
        print(f"lakebench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = RUN_SECONDS if args.seconds is None else args.seconds

    harness = Harness(
        WORKLOADS[args.workload], args.seed, trace=bool(args.trace), keep_spans=bool(args.trace_out)
    )
    metrics, unlisted = {}, {}
    try:
        harness.run(seconds)
        print(f"workload {args.workload} seed {args.seed} rounds {harness.rounds}")
        print(f"kernel.digest {harness.kernel.digest()}")
        if not harness.failed:
            if args.trace:
                values, unlisted = harness.per_layer()
                metrics = _print_metrics(values, PER_LAYER)
                for name, value in unlisted.items():
                    print(f"{name} {value:.6g} count (not listed: zero when nothing goes wrong)")
            else:
                metrics = _print_metrics(harness.end_to_end(), END_TO_END)
    finally:
        left = _leftovers()
    if left:
        print(f"FAILED: left running: {left}", file=sys.stderr)
        harness.failed += 1
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    if args.out:
        record = {
            "args": {"workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace},
            "host": host_metadata(),
            "kernel_digest": harness.kernel.digest(),
            "rounds": harness.rounds,
            "calibrations": harness.calibs,
            "windows": [w.to_json() for w in harness.windows],
            "failures": harness.failures,
            "unlisted": unlisted,
            "result": result,
        }
        Path(args.out).write_text(json.dumps(record))
    if args.trace_out and harness.tracer is not None:
        Path(args.trace_out).write_text(json.dumps(harness.tracer.spans_json()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
