"""The frozen calibration kernel and the estimator built on it.

The sandbox this benchmark runs on drifts 1.3-1.5x over minutes, so raw
window seconds of identical code spread 10-20% between runs. Every timed
window is therefore bracketed by one run of a small fixed kernel, and wall
metrics are built from *normalised* seconds::

    n = window_s / mean(calib_before_s, calib_after_s) * CALIB_REF_S

i.e. the seconds the window would take on a host where the kernel takes
exactly ``CALIB_REF_S``. The kernel mixes the kinds of work the library
does (many small NumPy calls driven from Python, interpreter loops,
medium-array NumPy kernels, allocation, ``zlib.crc32``) so that a slow
host slows kernel and window alike. Its parameters are frozen: changing
any of them changes every normalised number, so it is a benchmark edit,
never part of a change that claims a gain. ``digest()`` covers the
parameters and the kernel's computed results and is printed with every
run, so two result files are comparable only when their digests match.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import zlib

import numpy as np

#: Seconds the kernel takes on the reference host (this sandbox at its
#: usual speed when the benchmark was defined). Normalised seconds are
#: seconds on that host.
CALIB_REF_S = 0.025

#: Frozen kernel parameters; see :class:`Kernel` for what each one sizes.
KERNEL_PARAMS = {
    "seed": 20260928,
    "subpasses": 5,
    "medium_n": 48_000,
    "medium_reps": 2,
    "unique_n": 8_000,
    "fill_bytes": 2 << 20,
    "small_n": 64,
    "small_iters": 480,
    "py_iters": 6_000,
    "crc_bytes": 1 << 19,
}


class Kernel:
    """The calibration kernel: fixed inputs, one timed :meth:`run`.

    A run is ``subpasses`` identical sub-passes of five separately timed
    parts: medium-array NumPy (sort, cumsum, gather, repeat, unique), a
    few-MB allocate + fill, small-array NumPy calls driven from a Python
    loop, a pure-Python loop, and ``zlib.crc32``. The run's time is the
    sum over parts of the *median* sub-pass time of that part, times the
    sub-pass count: a scheduler hiccup that lands in one sub-pass does not
    read as a slower host.

    The mix was tuned once, on recorded A/A runs, and is frozen: about 54%
    medium-array NumPy, 34% small-array calls, 7% pure Python, 5% fill +
    CRC. Normalising by the pure-Python part alone spread run-level window
    medians 7-8.5% where the medium-array part alone gave 4.9-5.4%, so the
    interpreter loop is kept small; no other re-weighting of these parts
    (or of added gather / object-churn / big-sort parts) moved the spread
    by more than its own estimation error.
    """

    #: Names of the separately-timed parts, in execution order.
    PARTS = ("medium", "fill", "small", "python", "crc")

    def __init__(self) -> None:
        p = KERNEL_PARAMS
        rng = np.random.default_rng(p["seed"])
        n = p["medium_n"]
        self._medium = rng.integers(0, 1 << 20, n).astype(np.int32)
        self._index = rng.integers(0, n, n)
        self._lengths = rng.integers(1, 4, n // 4)
        self._small = [
            rng.integers(0, 100, p["small_n"]).astype(np.int32) for _ in range(8)
        ]
        self._blob = rng.bytes(p["crc_bytes"])
        self._check: "int | None" = None
        for _ in range(2):
            self.run()  # first passes pay for allocator and cache warm-up

    def _subpass(self) -> "tuple[tuple[float, ...], int]":
        p = KERNEL_PARAMS
        clock = time.perf_counter
        medium, small = self._medium, self._small
        check = 0
        t0 = clock()
        for _ in range(p["medium_reps"]):
            ordered = np.sort(medium)
            sums = np.cumsum(ordered, dtype=np.int64)
            gathered = ordered[self._index]
            repeated = np.repeat(medium[: p["medium_n"] // 4], self._lengths)
            distinct = np.unique(medium[: p["unique_n"]])
            check += int(sums[-1]) + int(gathered[-1]) + repeated.size + distinct.size
        t1 = clock()
        buffer = np.empty(p["fill_bytes"], dtype=np.uint8)
        buffer.fill(7)
        check += int(buffer[-1])
        t2 = clock()
        for i in range(p["small_iters"]):
            shifted = small[i & 7] + i
            mask = shifted > 50
            check += int(shifted[mask].sum())
        t3 = clock()
        x = 0
        for i in range(p["py_iters"]):
            x = (x * 31 + i) & 0xFFFF
        check += x
        t4 = clock()
        check += zlib.crc32(self._blob)
        t5 = clock()
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4), check

    def run(self) -> "tuple[float, tuple[float, ...]]":
        """One kernel run: ``(seconds, seconds per part)``.

        The computed values fold into a checksum that must never change
        (it is part of :meth:`digest`), which also keeps any of the work
        from being skipped.
        """
        subpasses = KERNEL_PARAMS["subpasses"]
        timings = []
        for _ in range(subpasses):
            parts, check = self._subpass()
            timings.append(parts)
            if self._check is None:
                self._check = check
            elif check != self._check:
                raise RuntimeError("calibration kernel computed a different result")
        per_part = tuple(statistics.median(column) * subpasses for column in zip(*timings))
        return sum(per_part), per_part

    def digest(self) -> str:
        """Short hash of the frozen parameters and the kernel's results."""
        if self._check is None:
            self.run()
        blob = json.dumps(
            {"params": KERNEL_PARAMS, "ref_s": CALIB_REF_S, "check": self._check},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- the estimator: normalised window -> per-partition figure -> metric ---------


def normalise(window_s: float, calib_before_s: float, calib_after_s: float) -> float:
    """Window seconds on the reference host (see the module docstring)."""
    return window_s / ((calib_before_s + calib_after_s) / 2.0) * CALIB_REF_S


def faster_half_mean(values: "list[float]") -> float:
    """Mean of the faster half of the samples (the fastest when < 3).

    What survives normalisation on this host is one-sided: a window that a
    neighbour slowed between its two calibrations reads long, nothing makes
    one read short. On three recorded A/A sets this estimator spread
    20-30% less across runs than the plain median.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[: max(1, (len(ordered) + 1) // 2)])


def partition_estimates(samples: "dict[int, list[float]]") -> "dict[int, float]":
    """One figure per partition (partitions differ, rounds repeat them)."""
    return {p: faster_half_mean(values) for p, values in samples.items() if values}


def throughput_mb_s(raw_mb: float, estimates: "dict[int, float]", passes: int = 1) -> float:
    """``passes`` sweeps over all partitions' raw MB / summed partition seconds."""
    return passes * raw_mb / sum(estimates.values())


def latency_ms(estimates: "dict[int, float]", batch: int) -> float:
    """Mean over partitions of (batch seconds / batch size), in ms."""
    return statistics.fmean(estimates.values()) / batch * 1e3


def iqr_share(values: "list[float]") -> float:
    """(Q3 - Q1) / median — the spread figure the builder's contract uses."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- selfcheck -----------------------------------------------------------------


def selfcheck(windows: int = 20, passes_per_window: int = 4, tolerance: float = 0.03) -> dict:
    """A/A of the kernel against itself through the estimator.

    Runs ``windows`` windows, each ``passes_per_window`` kernel passes
    bracketed by single calibration passes, normalises them exactly like
    benchmark windows, and compares the medians of the even and the odd
    windows — two interleaved sets of the same work. They must agree
    within ``tolerance`` or normalisation cannot be trusted on this host.
    """
    kernel = Kernel()
    calibs = [kernel.run()[0]]
    normalised = []
    for _ in range(windows):
        t0 = time.perf_counter()
        for _ in range(passes_per_window):
            kernel.run()
        window_s = time.perf_counter() - t0
        calibs.append(kernel.run()[0])
        normalised.append(normalise(window_s, calibs[-2], calibs[-1]))
    set_a = statistics.median(normalised[0::2])
    set_b = statistics.median(normalised[1::2])
    disagreement = abs(set_a / set_b - 1.0)
    return {
        "kernel_digest": kernel.digest(),
        "calib_ms_p50": statistics.median(calibs) * 1e3,
        "calib_spread": iqr_share(calibs),
        "window_spread": iqr_share(normalised),
        "set_disagreement": disagreement,
        "tolerance": tolerance,
        "ok": disagreement <= tolerance,
    }
