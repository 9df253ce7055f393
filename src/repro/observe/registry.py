"""Process-local metrics: counters, totals and phase timers.

The registry is deliberately primitive -- a dict of numbers and a dict of
``(seconds, calls)`` pairs behind one lock -- so that recording a metric on
the block compression hot path costs a dict update and nothing else. No I/O
happens until :meth:`MetricsRegistry.snapshot` is called.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator


class _Timer:
    """Context manager accumulating monotonic wall time into the registry."""

    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._registry.observe_seconds(self._name, time.perf_counter() - self._started)


class MetricsRegistry:
    """Thread-safe counters, byte/row totals and phase timers.

    Counter names are dotted paths (``compress.input_bytes``,
    ``cloud.scan.requests``); values may be ints (counts, bytes, rows) or
    floats (simulated cost in USD). Timers accumulate seconds and call counts
    per phase name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._timers: dict[str, list[float]] = {}  # name -> [seconds, calls]

    # -- recording ------------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def incr_many(self, items: "list[tuple[str, float]]") -> None:
        """Add several counters under one lock acquisition (hot paths)."""
        with self._lock:
            counters = self._counters
            for name, amount in items:
                counters[name] = counters.get(name, 0) + amount

    def observe_seconds(self, name: str, seconds: float) -> None:
        """Accumulate one timed phase invocation."""
        with self._lock:
            entry = self._timers.get(name)
            if entry is None:
                self._timers[name] = [seconds, 1]
            else:
                entry[0] += seconds
                entry[1] += 1

    def timer(self, name: str) -> _Timer:
        """Context manager timing a phase with the monotonic clock."""
        return _Timer(self, name)

    # -- reading --------------------------------------------------------------

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def get_many(self, names: "tuple[str, ...]") -> "list[float]":
        """Several counters (0 when absent) read under one lock acquisition."""
        with self._lock:
            return [self._counters.get(name, 0) for name in names]

    def timer_seconds(self, name: str) -> float:
        with self._lock:
            entry = self._timers.get(name)
            return entry[0] if entry else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready copy: ``{"counters": {...}, "timers": {...}}``."""
        with self._lock:
            counters = dict(self._counters)
            timers = {
                name: {"seconds": entry[0], "calls": int(entry[1])}
                for name, entry in self._timers.items()
            }
        return {"counters": counters, "timers": timers}

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's totals into this one (worker hand-off)."""
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Process-pool workers record into a private registry and ship its
        snapshot (plain dicts pickle; registries hold a lock and do not)
        back for the parent to fold in.
        """
        with self._lock:
            for name, value in snap["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, entry in snap["timers"].items():
                mine = self._timers.get(name)
                if mine is None:
                    self._timers[name] = [entry["seconds"], entry["calls"]]
                else:
                    mine[0] += entry["seconds"]
                    mine[1] += entry["calls"]


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the pipeline records into."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


def reset_metrics() -> None:
    """Clear the process-wide registry (CLI runs, test isolation)."""
    _global_registry.reset()


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily swap the process-wide registry.

    Swap before spawning worker threads: the pipeline resolves the registry
    at call time, so threads started inside the block record into it.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
