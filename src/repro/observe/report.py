"""Assemble registry + trace into the observability JSON report.

One document shape serves every consumer -- ``repro stats``, ``repro
compress --trace``, and the benchmark harness -- so downstream tooling
(plotting, a learned advisor, CI regression checks) parses a single schema:

.. code-block:: json

    {
      "counters": {"compress.input_bytes": 123, "cloud.scan.requests": 4, ...},
      "timers":   {"compress": {"seconds": 0.01, "calls": 3}, ...},
      "columns":  [{"column": "city", "blocks": 2, "schemes": {"dictionary": 2},
                    "estimated_blocks": 2, "estimated_ratio": 3.9, "achieved_ratio": 4.1, ...}],
      "decisions": [...]
    }

``decisions`` (the full per-block trace) is included only when asked for --
it is the one part of the report whose size grows with the data.
"""

from __future__ import annotations

import json

from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.trace import SelectionTrace, get_trace


def build_report(
    registry: MetricsRegistry | None = None,
    trace: SelectionTrace | None = None,
    include_decisions: bool = False,
) -> dict:
    """The canonical observability report as a JSON-ready dict."""
    registry = registry if registry is not None else get_registry()
    trace = trace if trace is not None else get_trace()
    snapshot = registry.snapshot()
    report = {
        "counters": snapshot["counters"],
        "timers": snapshot["timers"],
        "columns": trace.per_column(),
        "trace": {"decisions_recorded": len(trace), "decisions_dropped": trace.dropped},
    }
    reliability = _reliability_section(snapshot["counters"])
    if reliability:
        report["reliability"] = reliability
    scans = _scan_section(snapshot["counters"])
    if scans:
        report["scans"] = scans
    parallel = _parallel_section(snapshot["counters"])
    if parallel:
        report["parallel"] = parallel
    server = _server_section(snapshot["counters"])
    if server:
        report["server"] = server
    cdomain = _cdomain_section(snapshot["counters"])
    if cdomain:
        report["compressed_domain"] = cdomain
    if include_decisions:
        report["decisions"] = [d.to_dict() for d in trace.decisions()]
    return report


def _reliability_section(counters: dict) -> dict:
    """Fault/retry/integrity counters rolled up for quick reading.

    Present only when at least one fault, retry, integrity, write-recovery
    or encoder-fallback *event* was recorded, so fault-free reports keep
    their existing shape. Routine accounting that every clean run records —
    ``decompress.checksum_verified``, and the ``cloud.write.*`` staging /
    commit counters of an uneventful write — rides along in the section
    (when it triggers) but never triggers it.
    """
    faults = {
        name.split(".")[-1]: value
        for name, value in counters.items()
        if name.startswith("cloud.faults.")
    }
    retries = {
        name.split(".")[-1]: value
        for name, value in counters.items()
        if name.startswith("cloud.retry.")
    }
    integrity = {
        name: value
        for name, value in counters.items()
        if name
        in (
            "decompress.corrupt_blocks",
            "decompress.corrupt_rows",
            "decompress.checksum_verified",
            "cloud.table.integrity_refetches",
            "cloud.table.integrity_failures",
            "cloud.table.meta_refetches",
        )
    }
    write = {
        name.split(".")[-1]: value
        for name, value in counters.items()
        if name.startswith("cloud.write.")
    }
    fallbacks = {
        name[len("compressor.fallback.") :]: value
        for name, value in counters.items()
        if name.startswith("compressor.fallback.")
    }
    breaker = {
        name.split(".")[-1]: value
        for name, value in counters.items()
        if name.startswith("cloud.breaker.")
    }
    retry_budget = {
        name.split(".")[-1]: value
        for name, value in counters.items()
        if name.startswith("retry.budget.")
    }
    events = {
        name: value
        for name, value in integrity.items()
        if name != "decompress.checksum_verified"
    }
    write_events = {
        name: value
        for name, value in write.items()
        if name in ("recovered_uploads", "recovered_objects", "recovered_bytes", "commit_conflicts")
        and value
    }
    if not (faults or retries or events or write_events or fallbacks or breaker or retry_budget):
        return {}
    section = {"faults": faults, "retries": retries, "integrity": integrity}
    if write:
        section["write"] = write
    if fallbacks:
        section["fallbacks"] = fallbacks
    if breaker:
        section["breaker"] = breaker
    if retry_budget:
        section["retry_budget"] = retry_budget
    return section


def _scan_section(counters: dict) -> dict:
    """Zone-map pruning rolled up: what predicate pushdown saved (and what
    it rejected). Present only when a scan consulted persisted statistics."""
    if not counters.get("cloud.scan.zonemap.consulted") and not counters.get(
        "cloud.scan.zonemap.invalid"
    ):
        return {}
    return {
        "zone_maps_consulted": counters.get("cloud.scan.zonemap.consulted", 0),
        "zone_maps_invalid": counters.get("cloud.scan.zonemap.invalid", 0),
        "zone_map_fallbacks": counters.get("cloud.scan.zonemap.fallbacks", 0),
        "pruned_blocks": counters.get("cloud.scan.pruned_blocks", 0),
        "pruned_bytes": counters.get("cloud.scan.pruned_bytes", 0),
        "bytes_fetched": counters.get("cloud.table.bytes", 0),
    }


def _parallel_section(counters: dict) -> dict:
    """Process-pool compression rolled up: ``workers > 1`` calls, pool
    lifecycle (runs, starts, warm reuses, tasks, worker deaths, inline
    reruns) and shared-memory traffic. Present only when such a call ran."""
    if not counters.get("parallel.compress_runs"):
        return {}
    return {
        "compress_runs": counters["parallel.compress_runs"],
        "process_pool": {
            "runs": counters.get("parallel.backend.process.runs", 0),
            "starts": counters.get("parallel.backend.process.pool_starts", 0),
            "reuses": counters.get("parallel.backend.process.pool_reuses", 0),
            "tasks": counters.get("parallel.backend.process.tasks", 0),
            "worker_deaths": counters.get("parallel.backend.process.worker_deaths", 0),
            "fallbacks": counters.get("parallel.backend.fallbacks", 0),
        },
        "shared_memory": {
            "segments": counters.get("parallel.shm.segments", 0),
            "bytes": counters.get("parallel.shm.bytes", 0),
            "unlinked": counters.get("parallel.shm.unlinked", 0),
        },
    }


def _server_section(counters: dict) -> dict:
    """Multi-tenant serving rolled up: admission outcomes, what the fleet of
    tenants consumed, and shared-cache effectiveness. Present only when a
    :class:`~repro.serve.server.ScanServer` handled at least one request."""
    if not counters.get("server.requests"):
        return {}
    hits = counters.get("server.cache_hits", 0)
    misses = counters.get("server.cache_misses", 0)
    return {
        "requests": counters.get("server.requests", 0),
        "point_requests": counters.get("server.point_requests", 0),
        "scan_requests": counters.get("server.scan_requests", 0),
        "admission": {
            "admitted": counters.get("server.admitted", 0),
            "queued": counters.get("server.queued", 0),
            "rejected": counters.get("server.rejected", 0),
            "completed": counters.get("server.completed", 0),
            "failed": counters.get("server.failed", 0),
        },
        "consumed": {
            "get_requests": counters.get("server.get_requests", 0),
            "bytes_fetched": counters.get("server.bytes_fetched", 0),
            "retries": counters.get("server.retries", 0),
            "backoff_seconds": counters.get("server.backoff_seconds", 0),
            "cost_usd": counters.get("server.cost_usd", 0),
        },
        "latency": {
            "queue_seconds": counters.get("server.queue_seconds", 0),
            "service_seconds": counters.get("server.service_seconds", 0),
            "latency_seconds": counters.get("server.latency_seconds", 0),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "column_cache_hits": counters.get("server.column_cache.hit", 0),
            "column_cache_misses": counters.get("server.column_cache.miss", 0),
            "column_cache_evictions": counters.get("server.column_cache.evict", 0),
        },
        "overload": {
            "deadline_exceeded": counters.get("server.deadline.exceeded", 0),
            "deadline_queue_expired": counters.get("server.deadline.queue_expired", 0),
            "deadline_shed": counters.get("server.deadline.shed", 0),
            "scan_deadline_cancelled": counters.get("cloud.scan.deadline_cancelled", 0),
            "retry_deadline_cancelled": counters.get("cloud.retry.deadline_cancelled", 0),
            "retry_budget_spent": counters.get("retry.budget.spent", 0),
            "retry_budget_exhausted": counters.get("retry.budget.exhausted", 0),
            "breaker_fast_fails": counters.get("cloud.breaker.fast_fail", 0),
            "wasted_bytes": counters.get("server.wasted_bytes", 0),
            "brownout_seconds": counters.get("server.brownout_seconds", 0),
        },
    }


def _cdomain_section(counters: dict) -> dict:
    """Compressed-domain execution rolled up: how much work the scan path
    avoided by evaluating predicates on encoded data. Present only when a
    compressed-domain scan or a filtered (selection-vector) decode ran."""
    if not counters.get("query.cdomain.blocks") and not counters.get(
        "query.cdomain.filtered.blocks"
    ):
        return {}
    selected = counters.get("query.cdomain.filtered.rows_selected", 0)
    total = counters.get("query.cdomain.filtered.rows_total", 0)
    pages = counters.get("query.cdomain.pages", 0)
    return {
        "blocks_scanned": counters.get("query.cdomain.blocks", 0),
        "rows_scanned": counters.get("query.cdomain.rows", 0),
        "code_space": {
            "compiled": counters.get("query.cdomain.code_compiled", 0),
            "fallbacks": counters.get("query.cdomain.code_fallbacks", 0),
        },
        "pages": {
            "considered": pages,
            "skipped": counters.get("query.cdomain.pages_skipped", 0),
            "accepted": counters.get("query.cdomain.pages_accepted", 0),
        },
        "filtered_decode": {
            "blocks": counters.get("query.cdomain.filtered.blocks", 0),
            "rows_selected": selected,
            "rows_total": total,
            "decode_fraction": selected / total if total else 0.0,
            "full_decodes": counters.get("query.cdomain.filtered.full_decodes", 0),
        },
        "pool_cache": {
            "hits": counters.get("query.cdomain.pool_cache.hit", 0),
            "misses": counters.get("query.cdomain.pool_cache.miss", 0),
            "evictions": counters.get("query.cdomain.pool_cache.evict", 0),
        },
    }


def report_json(
    registry: MetricsRegistry | None = None,
    trace: SelectionTrace | None = None,
    include_decisions: bool = False,
    indent: int | None = 2,
) -> str:
    """The report serialized to JSON text."""
    return json.dumps(
        build_report(registry, trace, include_decisions), indent=indent, sort_keys=True
    )
