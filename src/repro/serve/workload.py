"""Seeded Zipfian multi-tenant workloads on the simulated clock.

Real lake traffic is skewed — a few hot tables and hot columns absorb most
reads (the motivation for shared caches) — and bursty: tenants fire volleys
of requests back to back, then go quiet. Both shapes are generated here
deterministically:

* **What** — tables and columns are picked through
  :func:`repro.datagen.distributions.zipf_int`, the same skew generator the
  data synthesizer uses, so "hot" follows a Zipf law with exponent
  ``zipf_a``. Point reads predicate on a hot column with a value sampled
  from the table's own domain; the rest are full projections, one
  whole-column stage per column.
* **When** — arrivals are open-loop (they do not wait for responses; an
  overloaded server sheds load through admission control, exactly what the
  backpressure tests need). Each tenant emits bursts of
  ``burst_size`` back-to-back requests separated by exponential gaps with
  mean ``mean_gap_seconds``.
* **Who** — every tenant draws from ``default_rng([seed, tenant_index])``,
  so one tenant's schedule never depends on how many others exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.distributions import zipf_int
from repro.query.predicates import Equals
from repro.serve.server import ScanRequest

__all__ = ["TableProfile", "WorkloadSpec", "generate_workload"]


@dataclass(frozen=True)
class TableProfile:
    """What a workload needs to know about one servable table."""

    name: str
    #: Column names, hottest first (position feeds the Zipf draw).
    columns: "tuple[str, ...]"
    #: Candidate predicate values per column, for point reads.
    point_values: "dict[str, tuple]" = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one serving experiment's traffic."""

    tenants: int = 16
    requests_per_tenant: int = 8
    point_fraction: float = 0.75
    #: Zipf exponent for both the table and the column draw (>1; larger =
    #: hotter hot set).
    zipf_a: float = 1.4
    #: Requests per burst (arrive at the same instant).
    burst_size: int = 4
    #: Mean of the exponential gap between bursts, simulated seconds.
    mean_gap_seconds: float = 0.2
    #: Columns projected by a full scan (capped at the table's width).
    scan_columns: int = 2
    on_corrupt: str = "raise"
    #: Per-request latency budget (simulated seconds from arrival) carried
    #: on every generated request; ``None`` = no deadline.
    deadline_seconds: "float | None" = None
    seed: int = 2024_08


@dataclass(frozen=True)
class TimedRequest:
    """One request with its open-loop arrival time."""

    arrival_seconds: float
    request: ScanRequest


def generate_workload(
    spec: WorkloadSpec, tables: "list[TableProfile]"
) -> "list[TimedRequest]":
    """The full request schedule, sorted by (arrival, tenant, sequence).

    Deterministic in ``spec`` and the table list; independent of everything
    else (in particular of how the requests are later served).
    """
    if not tables:
        raise ValueError("workload needs at least one table profile")
    out: "list[TimedRequest]" = []
    for tenant_index in range(spec.tenants):
        rng = np.random.default_rng([spec.seed, tenant_index])
        tenant = f"tenant-{tenant_index:02d}"
        n = spec.requests_per_tenant
        table_picks = zipf_int(n, rng, distinct=len(tables), a=spec.zipf_a) - 1
        point_draw = rng.random(n)
        gaps = rng.exponential(spec.mean_gap_seconds, size=n)
        arrival = 0.0
        for i in range(n):
            if i % max(1, spec.burst_size) == 0 and i:
                arrival += float(gaps[i])
            profile = tables[int(table_picks[i])]
            width = len(profile.columns)
            column_pick = int(zipf_int(1, rng, distinct=width, a=spec.zipf_a)[0]) - 1
            hot_column = profile.columns[column_pick]
            values = profile.point_values.get(hot_column)
            if point_draw[i] < spec.point_fraction and values:
                value = values[int(rng.integers(len(values)))]
                request = ScanRequest(
                    tenant=tenant,
                    table=profile.name,
                    columns=tuple(profile.columns[: max(1, spec.scan_columns)]),
                    where={hot_column: Equals(value)},
                    on_corrupt=spec.on_corrupt,
                    deadline_seconds=spec.deadline_seconds,
                )
            else:
                take = min(width, max(1, spec.scan_columns))
                start = column_pick if column_pick + take <= width else width - take
                request = ScanRequest(
                    tenant=tenant,
                    table=profile.name,
                    columns=tuple(profile.columns[start : start + take]),
                    where=None,
                    on_corrupt=spec.on_corrupt,
                    deadline_seconds=spec.deadline_seconds,
                )
            out.append(TimedRequest(arrival, request))
    out.sort(key=lambda t: (t.arrival_seconds, t.request.tenant))
    return out
