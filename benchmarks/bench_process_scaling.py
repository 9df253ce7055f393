"""Multi-core scaling gate for the shared-memory process backend.

The process pool is the one backend that is supposed to *multiply* with
cores (the thread pool measures GIL-serialised work). This benchmark runs
the block-parallel pipeline on the rescaled workload
(``REPRO_BENCH_PARALLEL_ROWS``, default 1M rows — a single-worker wall
comfortably past clock noise) on both backends and gates the *process*
backend's decompression speedup at 4 workers against
``REPRO_BENCH_MIN_SPEEDUP`` (default 1.8x); the thread rows are an ungated
record beside it.

The gate only means something on real cores: hosts where fewer than 4 CPUs
are *usable* (``sched_getaffinity``, not ``cpu_count`` — containers pin
affinity below the host count) skip cleanly rather than fail noisily.

The measured section is always written to ``REPRO_BENCH_SCALING_OUTPUT``
(default ``BENCH_process_scaling.json``) before the gate is evaluated, so
CI uploads the numbers even from a failing run.
"""

import json
import os
import timeit
from typing import Sequence

import numpy as np
import pytest

from _harness import print_table
from repro import procpool
from repro.core.relation import Relation
from repro.datagen.scheme_workloads import SCHEME_WORKLOADS
from repro.parallel import compress_relation_parallel, decompress_relation_parallel

#: Enough work per call that a single-worker run is well past clock noise
#: (>= 50 ms wall), so per-worker deltas measure scaling.
DEFAULT_PARALLEL_ROWS = 1_000_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_parallel(
    rows: int, workers: Sequence[int], repeats: int, seed: int, backends: Sequence[str]
) -> dict:
    """Block-level scaling on one wide relation, per backend and worker count.

    Speedups are relative to each backend's ``workers=1`` run (the inline,
    pool-free path — identical work on every backend). Real scaling needs
    real cores: threads measure GIL-serialised work plus pool overhead,
    the process backend is what actually multiplies — so both
    ``cpu_count`` and ``cpu_affinity`` (the usable subset in containers)
    are recorded alongside for interpretation.
    """
    rng = np.random.default_rng(seed)
    # Three numeric columns spanning fast (RLE) and slow (FastPFOR,
    # pseudodecimal) decoders.
    relation = Relation(
        "wide", [SCHEME_WORKLOADS[name](rows, rng) for name in ("rle", "fastpfor", "pseudodecimal")]
    )
    compressed = compress_relation_parallel(relation, max_workers=1)
    input_mb = relation.nbytes / 1e6

    def best_seconds(fn) -> float:
        return min(timeit.repeat(fn, number=1, repeat=max(repeats, 1)))

    by_backend: dict[str, dict] = {}
    try:
        for backend in backends:
            compress_seconds = {
                str(count): best_seconds(
                    lambda: compress_relation_parallel(relation, max_workers=count, backend=backend)
                )
                for count in workers
            }
            decompress_seconds = {
                str(count): best_seconds(
                    lambda: decompress_relation_parallel(
                        compressed, max_workers=count, backend=backend
                    )
                )
                for count in workers
            }
            by_backend[backend] = {
                "compress_seconds": compress_seconds,
                "decompress_seconds": decompress_seconds,
                "compress_mb_s": {k: input_mb / v for k, v in compress_seconds.items()},
                "decompress_mb_s": {k: input_mb / v for k, v in decompress_seconds.items()},
                "compress_speedup": {
                    k: compress_seconds["1"] / v for k, v in compress_seconds.items()
                },
                "decompress_speedup": {
                    k: decompress_seconds["1"] / v for k, v in decompress_seconds.items()
                },
            }
    finally:
        if "process" in backends:
            procpool.shutdown_pool()
    return {
        "rows": relation.row_count,
        "input_mb": input_mb,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _usable_cpus(),
        "backends": by_backend,
    }


@pytest.mark.skipif(not procpool.available(), reason="no multiprocessing start method")
def test_process_backend_scales_on_multicore():
    usable = _usable_cpus()
    if usable < 4:
        pytest.skip(f"process-scaling gate needs >=4 usable CPUs (have {usable})")

    rows = int(os.environ.get("REPRO_BENCH_PARALLEL_ROWS", str(DEFAULT_PARALLEL_ROWS)))
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    section = bench_parallel(
        rows, workers=(1, 2, 4), repeats=repeats, seed=42, backends=("thread", "process")
    )

    print_table(
        f"Block-parallel scaling ({section['rows']:,} rows, "
        f"cpu_count={section['cpu_count']}, affinity={section['cpu_affinity']})",
        ["backend", "workers", "comp s", "comp x", "dec s", "dec x"],
        [
            [backend, w, entry["compress_seconds"][w], entry["compress_speedup"][w],
             entry["decompress_seconds"][w], entry["decompress_speedup"][w]]
            for backend, entry in section["backends"].items()
            for w in sorted(entry["compress_seconds"], key=int)
        ],
    )

    output = os.environ.get("REPRO_BENCH_SCALING_OUTPUT", "BENCH_process_scaling.json")
    with open(output, "w", encoding="utf-8") as fh:
        json.dump({"parallel": section}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"process-scaling section -> {output}")

    minimum = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "1.8"))
    speedup = section["backends"]["process"]["decompress_speedup"]["4"]
    assert speedup >= minimum, (
        f"process-backend decompress speedup at 4 workers is {speedup:.2f}x, "
        f"below the {minimum:.1f}x gate (affinity={section['cpu_affinity']})"
    )
