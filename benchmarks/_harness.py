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


def paired_seconds(
    fast: Callable[[], object], plain: Callable[[], object], repeats: int
) -> "tuple[float, float]":
    """Fastest per-call time of two alternatives, measured interleaved.

    A speedup is a ratio of two timings; alternating the calls makes host
    drift hit both sides alike, and taking each side's minimum over at least
    ``5 * repeats`` rounds (and ``4 ms * repeats`` of wall time, so
    microsecond-scale smoke runs get hundreds of rounds) drops the
    one-sided noise a neighbour adds: 25 rounds leave +-7% on the ratio,
    100 leave +-2% (the CI sweep gate runs ``repeats=16``).
    """
    best_fast = best_plain = float("inf")
    rounds = 0
    deadline = time.perf_counter() + 0.004 * max(repeats, 1)
    while rounds < 5 * max(repeats, 1) or time.perf_counter() < deadline:
        started = time.perf_counter()
        fast()
        middle = time.perf_counter()
        plain()
        ended = time.perf_counter()
        best_fast = min(best_fast, middle - started)
        best_plain = min(best_plain, ended - middle)
        rounds += 1
    return best_fast, best_plain


def paired_speedup(
    fast: Callable[[], object], plain: Callable[[], object], repeats: int
) -> "tuple[float, float, float]":
    """``(fast seconds, plain seconds, plain / fast)`` as medians over
    interleaved pairs.

    Each round times one call of each alternative back to back, in turns
    (odd rounds run ``plain`` first), for as many rounds as
    :func:`paired_seconds` makes. The speedup is the median of the rounds'
    own ratios, so drift between rounds cancels inside each ratio and a
    neighbour's burst moves the median by one rank, not the answer: where a
    minimum is whichever round the host was quietest for, a median repeats.
    The garbage collector is off while the rounds run (as ``timeit`` has it):
    its passes cost what the measuring process holds, not what is measured.
    """
    seconds: "dict[Callable, list[float]]" = {fast: [], plain: []}
    rounds = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
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
