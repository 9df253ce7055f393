"""Selection tracing: why the selector picked what it picked.

Every :meth:`SchemeSelector.pick <repro.core.selector.SchemeSelector.pick>`
call produces one :class:`SelectionDecision` holding the candidate schemes
with their sample-estimated ratios and the chosen scheme; the compressor
fills in the achieved compressed size once the block is actually encoded.
A pick whose viability filter left one scheme estimates nothing: it names
that ``sole_survivor`` instead, and the compressor records whether the
encoded node beat Uncompressed.
Comparing ``estimated_ratio`` against ``achieved_ratio`` per column is
exactly the estimator-quality signal the paper's Section 6.6 evaluates and
what a learned advisor (LEA) would train on.

Traces are bounded: beyond ``max_decisions`` new records are counted but
dropped, so an always-on trace cannot grow without limit in a long-lived
process.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class SelectionDecision:
    """One scheme-selection decision, optionally completed by the compressor."""

    column: str | None  #: column name, when selection ran inside compress_column
    block: int | None  #: block index within the column
    ctype: str  #: logical type of the values ("integer" / "double" / "string")
    depth: int  #: remaining cascade levels at decision time (top level = max)
    value_count: int  #: values in the block being compressed
    input_bytes: int  #: uncompressed binary size of those values
    sample_count: int  #: values in the sample the estimates came from
    top_level: bool = True  #: False for cascade-child decisions inside a scheme
    candidates: dict[str, float] = field(default_factory=dict)  #: scheme -> est. ratio
    chosen: str = "uncompressed"
    estimated_ratio: float | None = 1.0  #: None when no estimate ran (sole survivor)
    compressed_bytes: int | None = None  #: framed output size, set by the compressor
    achieved_ratio: float | None = None  #: input_bytes / compressed_bytes
    selection_seconds: float = 0.0
    #: True when the originally-picked scheme raised mid-encode and the
    #: block fell back to Uncompressed (``chosen`` reflects the fallback).
    fallback: bool = False
    #: The one scheme that passed the viability filter on a pick serving a
    #: real encode: no estimate ran (``candidates`` is empty) and the
    #: compressor verified it against Uncompressed by achieved size.
    sole_survivor: str | None = None
    #: True when that verification failed — the survivor's node was not
    #: strictly smaller than Uncompressed, which ``chosen`` now names.
    survivor_rejected: bool = False
    #: Pooled schemes the viability filter removed (none was estimated), and
    #: the statistic Frequency's filter read: the share of the sample held by
    #: its most frequent value (-1 when Frequency did not measure it).
    filtered: list[str] = field(default_factory=list)
    sample_top_share: float = -1.0
    #: Viable schemes dropped un-estimated because another survivor of the
    #: same pick beats them on the statistics: ``scheme -> its dominator``.
    dominated: dict[str, str] = field(default_factory=dict)

    def finish(self, compressed_bytes: int) -> None:
        """Record the real outcome once the block has been encoded."""
        self.compressed_bytes = compressed_bytes
        if compressed_bytes > 0:
            self.achieved_ratio = self.input_bytes / compressed_bytes

    def to_dict(self) -> dict:
        return {
            "column": self.column,
            "block": self.block,
            "ctype": self.ctype,
            "depth": self.depth,
            "top_level": self.top_level,
            "value_count": self.value_count,
            "input_bytes": self.input_bytes,
            "sample_count": self.sample_count,
            "candidates": dict(self.candidates),
            "chosen": self.chosen,
            "estimated_ratio": self.estimated_ratio,
            "compressed_bytes": self.compressed_bytes,
            "achieved_ratio": self.achieved_ratio,
            "selection_seconds": self.selection_seconds,
            "fallback": self.fallback,
            "sole_survivor": self.sole_survivor,
            "survivor_rejected": self.survivor_rejected,
            "filtered": list(self.filtered),
            "sample_top_share": self.sample_top_share,
            "dominated": dict(self.dominated),
        }


class SelectionTrace:
    """Thread-safe, bounded collection of selection decisions."""

    def __init__(self, max_decisions: int = 100_000) -> None:
        self._lock = threading.Lock()
        self._decisions: list[SelectionDecision] = []
        self.max_decisions = max_decisions
        self.dropped = 0

    def record(self, decision: SelectionDecision) -> None:
        with self._lock:
            if len(self._decisions) >= self.max_decisions:
                self.dropped += 1
            else:
                self._decisions.append(decision)

    def decisions(self) -> list[SelectionDecision]:
        with self._lock:
            return list(self._decisions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._decisions)

    def clear(self) -> None:
        with self._lock:
            self._decisions.clear()
            self.dropped = 0

    # -- aggregation ----------------------------------------------------------

    def per_column(self) -> list[dict]:
        """Top-level decisions aggregated per column (the report's core table).

        Only decisions made at the cascade's top level count: child decisions
        describe scheme-internal sub-streams, not the column's blocks.
        """
        groups: dict[str | None, list[SelectionDecision]] = {}
        for decision in self.decisions():
            if decision.block is None and decision.column is None:
                continue
            if not decision.top_level:
                continue
            groups.setdefault(decision.column, []).append(decision)
        out = []
        for column, decisions in groups.items():
            schemes: dict[str, int] = {}
            in_bytes = 0
            out_bytes = 0
            for d in decisions:
                schemes[d.chosen] = schemes.get(d.chosen, 0) + 1
                in_bytes += d.input_bytes
                if d.compressed_bytes:
                    out_bytes += d.compressed_bytes
            # Sole-survivor picks have no estimate: they stay out of the
            # aggregate's numerator and denominator alike.
            estimated = [d for d in decisions if d.estimated_ratio]
            est_in_bytes = sum(d.input_bytes for d in estimated)
            est_weighted = sum(d.input_bytes / d.estimated_ratio for d in estimated)
            out.append(
                {
                    "column": column,
                    "blocks": len(decisions),
                    "schemes": schemes,
                    "input_bytes": in_bytes,
                    "compressed_bytes": out_bytes,
                    "estimated_blocks": len(estimated),
                    "estimated_ratio": (est_in_bytes / est_weighted) if est_weighted else None,
                    "achieved_ratio": (in_bytes / out_bytes) if out_bytes else None,
                }
            )
        return out


_global_trace = SelectionTrace()


def get_trace() -> SelectionTrace:
    """The process-wide default trace the selector records into."""
    return _global_trace


def set_trace(trace: SelectionTrace) -> SelectionTrace:
    """Replace the process-wide trace; returns the previous one."""
    global _global_trace
    previous = _global_trace
    _global_trace = trace
    return previous


def reset_trace() -> None:
    _global_trace.clear()


@contextmanager
def use_trace(trace: SelectionTrace) -> Iterator[SelectionTrace]:
    """Temporarily swap the process-wide trace (see :func:`use_registry`)."""
    previous = set_trace(trace)
    try:
        yield trace
    finally:
        set_trace(previous)
