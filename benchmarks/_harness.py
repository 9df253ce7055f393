"""Shared helpers for the benchmark suite.

Every module in this directory regenerates one table or figure from the
paper (see DESIGN.md's experiment index). Benchmarks print the paper-style
rows/series they reproduce, so ``pytest benchmarks/ --benchmark-only -s``
shows both the timing data and the reproduced tables.

Scale is controlled with ``REPRO_BENCH_ROWS`` (rows per suite table before
per-dataset multipliers, default 16384). The paper's datasets are orders of
magnitude larger; ratios and relative speeds stabilise well below that.
"""

from __future__ import annotations

import ctypes
import gc
import os
import statistics
import time
from functools import lru_cache
from typing import Callable

from repro.core.relation import Relation
from repro.datagen.publicbi import generate_suite, largest_five
from repro.datagen.tpch import generate_tpch
from repro.observe import build_report, report_json


def bench_rows() -> int:
    return int(os.environ.get("REPRO_BENCH_ROWS", "16384"))


@lru_cache(maxsize=None)
def publicbi_suite() -> tuple[Relation, ...]:
    return tuple(generate_suite(rows=bench_rows()))


@lru_cache(maxsize=None)
def publicbi_largest_five() -> tuple[Relation, ...]:
    return tuple(largest_five(rows=bench_rows()))


@lru_cache(maxsize=None)
def tpch_suite() -> tuple[Relation, ...]:
    return tuple(generate_tpch(rows=bench_rows() * 2))


def measure_decompress_seconds(adapter, relations) -> tuple[int, int, float]:
    """(uncompressed_bytes, compressed_bytes, decompress_seconds) for a format."""
    uncompressed = sum(r.nbytes for r in relations)
    compressed = 0
    seconds = 0.0
    for relation in relations:
        artifact = adapter.compress(relation)
        compressed += adapter.size(artifact)
        started = time.perf_counter()
        adapter.decompress(artifact)
        seconds += time.perf_counter() - started
    return uncompressed, compressed, seconds


#: glibc ``mallopt`` parameters, and the values :func:`_pin_allocator` sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@lru_cache(maxsize=None)
def _pin_allocator() -> None:
    """Fix glibc ``malloc``'s thresholds for the rest of the process.

    By default glibc serves a block above its mmap threshold (128 KiB at
    start) with fresh pages that fault on first touch, raises the threshold
    to the size of each such block freed, and returns heap memory past twice
    that to the system. Whether a measured alternative's large arrays cost
    page faults on every call then depends on the arrays freed earlier in
    the process and on where long-lived objects pin the heap top: the
    sweep's ``workloads/rle/clustered/90%`` / ``100%`` cells, both sides
    holding the same work, read 0.89-0.92 in one script and 1.11-1.15 in
    another that timed the same cells in the same order, and 1.12-1.15 /
    0.90-0.95 in either under a fixed 128 KiB / 32 MiB threshold. Pinned at
    32 MiB, with trimming past 64 MiB, every block of a benchmark's size
    comes from the warm heap on both sides, whatever ran before. Not glibc:
    nothing to pin.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def paired_speedup(
    fast: Callable[[], object], plain: Callable[[], object], repeats: int
) -> "tuple[float, float, float]":
    """``(fast seconds, plain seconds, plain / fast)`` as medians over
    interleaved pairs.

    Each round times one call of each alternative back to back, in turns
    (odd rounds run ``plain`` first), for at least ``5 * repeats`` rounds
    and ``4 ms * repeats`` of wall time (so microsecond-scale smoke runs get
    hundreds of rounds). The speedup is the median of the rounds' own
    ratios, so drift between rounds cancels inside each ratio and a
    neighbour's burst moves the median by one rank, not the answer: where a
    minimum is whichever round the host was quietest for, a median repeats.
    The garbage collector is off while the rounds run (as ``timeit`` has it):
    its passes cost what the measuring process holds, not what is measured.

    A verdict must not depend on what ran before it in the process, so the
    allocator is pinned first (:func:`_pin_allocator`) and one untimed round
    of both sides grows the heap to the cell's arrays.
    """
    _pin_allocator()
    seconds: "dict[Callable, list[float]]" = {fast: [], plain: []}
    rounds = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        fast()
        plain()
        deadline = time.perf_counter() + 0.004 * max(repeats, 1)
        while rounds < 5 * max(repeats, 1) or time.perf_counter() < deadline:
            for call in (plain, fast) if rounds % 2 else (fast, plain):
                started = time.perf_counter()
                call()
                seconds[call].append(time.perf_counter() - started)
            rounds += 1
    finally:
        if collecting:
            gc.enable()
    ratios = [p / f for f, p in zip(seconds[fast], seconds[plain])]
    median = statistics.median
    return median(seconds[fast]), median(seconds[plain]), median(ratios)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print an aligned table resembling the paper's layout."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    print("  ".join("-" * w for w in widths))
    for row in str_rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:.0f}"
        if cell >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


def observability_report(include_decisions: bool = False) -> dict:
    """The process-wide observability report accumulated by this bench run.

    Same schema as ``repro stats``: per-column chosen schemes, estimated vs.
    achieved ratios, phase timings, and cloud-scan byte/cost counters — which
    makes the benchmark tables attributable to schemes instead of opaque
    totals.
    """
    return build_report(include_decisions=include_decisions)


def emit_observability_report() -> None:
    """Print the JSON report; also write it to ``$REPRO_OBS_REPORT`` if set.

    Called once per benchmark session from ``conftest.py`` so every
    benchmark emits the report alongside its timing tables.
    """
    text = report_json()
    print("\n=== Observability report (repro.observe) ===")
    print(text)
    path = os.environ.get("REPRO_OBS_REPORT")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
