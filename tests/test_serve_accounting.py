"""Exactness of the server's per-tenant accounting.

The property under test: every byte the store moves while the server is
serving belongs to exactly one tenant's ledger. Summed across tenants, the
ledgers must equal the store's global
:class:`~repro.cloud.objectstore.TransferStats` deltas — *exactly* for the
integer fields (GET requests, bytes, retries), to float round-off for the
accumulated seconds — and dollar costs must reproduce the global
:class:`~repro.cloud.pricing.PricingModel` formulas. This has to survive
the hard cases:

* concurrent interleavings (stages of different tenants alternate),
* retried requests (backoff and re-GETs bill to the retrying tenant),
* failed requests (a scan that dies mid-flight still pays for what it
  moved, including a failing *open*),
* rejected requests (billed exactly zero — not one GET).
"""

from __future__ import annotations

import os

import pytest

from repro.cloud.faults import FaultProfile
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.retry import RetryPolicy
from repro.exceptions import AdmissionRejectedError, BtrBlocksError, FormatError
from repro.observe import MetricsRegistry, use_registry
from repro.serve import (
    EventLoop,
    ScanRequest,
    ScanServer,
    WorkloadSpec,
    build_catalog,
    serve_workload,
)

from manifest_forge import block_range

SERVE_SEED = int(os.environ.get("REPRO_SERVE_SEED", "202408"), 0)

#: Float accumulations (seconds, dollars) may differ from the closed-form
#: total by round-off only.
FLOAT_TOL = 1e-9


def _ledger_sums(server: ScanServer) -> dict:
    ledgers = server.ledgers.values()
    return {
        "get_requests": sum(l.get_requests for l in ledgers),
        "bytes_fetched": sum(l.bytes_fetched for l in ledgers),
        "retries": sum(l.retries for l in ledgers),
        "backoff_seconds": sum(l.backoff_seconds for l in ledgers),
        "brownout_seconds": sum(l.brownout_seconds for l in ledgers),
        "wasted_bytes": sum(l.wasted_bytes for l in ledgers),
        "cost_usd": sum(l.cost_usd for l in ledgers),
    }


def _assert_ledgers_match_store(store: SimulatedObjectStore, server: ScanServer):
    """Ledger sums == TransferStats (reset before serving) field by field."""
    stats = store.stats
    sums = _ledger_sums(server)
    assert sums["get_requests"] == stats.get_requests
    assert sums["bytes_fetched"] == stats.bytes_downloaded
    assert sums["retries"] == stats.retries
    assert sums["backoff_seconds"] == pytest.approx(
        stats.backoff_seconds, abs=FLOAT_TOL
    )
    assert sums["brownout_seconds"] == pytest.approx(
        stats.brownout_seconds, abs=FLOAT_TOL
    )
    # Waste is a *view* of billed bytes (those billed to non-completions),
    # never an addition to them.
    assert 0 <= sums["wasted_bytes"] <= sums["bytes_fetched"]
    pricing = store.pricing
    global_cost = pricing.request_cost(stats.get_requests) + pricing.compute_cost(
        stats.bytes_downloaded / pricing.s3_bytes_per_second
    )
    assert sums["cost_usd"] == pytest.approx(global_cost, abs=FLOAT_TOL)


def _run_workload(spec: WorkloadSpec, faults=None, retry=None, **server_kwargs):
    registry = MetricsRegistry()
    with use_registry(registry):
        store = SimulatedObjectStore()
        profiles = build_catalog(store, tables=2, rows=1000, seed=SERVE_SEED)
        if retry is not None:
            store.retry = retry
        store.stats.reset()  # serving-only deltas; catalog writes don't count
        store.set_faults(faults)
        run = serve_workload(store, profiles, spec, **server_kwargs)
    return registry, store, run


class TestLedgerSumsAreExact:
    def test_clean_concurrent_interleavings(self):
        _, store, run = _run_workload(
            WorkloadSpec(tenants=8, requests_per_tenant=4, seed=SERVE_SEED),
            max_concurrency=4,
            queue_limit=64,
        )
        assert len(run["responses"]) == 32
        _assert_ledgers_match_store(store, run["server"])

    def test_retried_requests_bill_their_tenant(self):
        _, store, run = _run_workload(
            WorkloadSpec(tenants=6, requests_per_tenant=4, seed=SERVE_SEED),
            faults=FaultProfile(seed=5, transient_error_rate=0.2, throttle_rate=0.1),
            retry=RetryPolicy(max_attempts=8),
            max_concurrency=3,
            queue_limit=64,
        )
        server = run["server"]
        assert store.stats.retries > 0, "the fault profile never fired"
        assert sum(l.retries for l in server.ledgers.values()) == store.stats.retries
        assert sum(l.backoff_seconds for l in server.ledgers.values()) > 0
        _assert_ledgers_match_store(store, server)

    def test_rejected_requests_bill_zero(self):
        _, store, run = _run_workload(
            WorkloadSpec(tenants=16, requests_per_tenant=6, seed=SERVE_SEED),
            max_concurrency=1,
            queue_limit=2,
        )
        server = run["server"]
        assert run["rejected"], "backpressure never triggered"
        rejected_total = sum(l.rejected for l in server.ledgers.values())
        assert rejected_total == len(run["rejected"])
        # Even with rejections in the mix, sums stay exact: rejections added
        # nothing, so the served requests account for every byte.
        _assert_ledgers_match_store(store, server)

    def test_exactness_holds_at_every_interleaving_depth(self):
        # The same workload at different concurrency levels interleaves
        # stages completely differently — and with shared caches, *which*
        # tenant pays for a cold fetch legitimately shifts with the
        # schedule. What must not shift: every level serves the same
        # requests, and at every level the ledgers sum exactly to that
        # level's store deltas.
        spec = WorkloadSpec(tenants=5, requests_per_tenant=4, seed=SERVE_SEED)
        served = []
        for max_concurrency in (1, 2, 5):
            _, store, run = _run_workload(
                spec, max_concurrency=max_concurrency, queue_limit=64
            )
            assert not run["rejected"]
            _assert_ledgers_match_store(store, run["server"])
            served.append(
                sorted(
                    (r.request.tenant, r.request.table, r.request.kind)
                    for r in run["responses"]
                )
            )
        assert served[0] == served[1] == served[2]


class TestFailuresStillBalance:
    def _server(self, store):
        loop = EventLoop(clock=store.clock)
        store.clock.reset()
        return loop, ScanServer(store, loop, max_concurrency=2, queue_limit=16)

    def test_failed_open_bills_what_it_moved(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = SimulatedObjectStore()
            profiles = build_catalog(store, tables=1, rows=600, seed=SERVE_SEED)
            store.stats.reset()
            loop, server = self._server(store)
            outcomes = []

            async def missing():
                try:
                    await server.submit(
                        ScanRequest(tenant="lost", table="no-such-table")
                    )
                except (FormatError, BtrBlocksError) as error:
                    outcomes.append(type(error).__name__)

            async def fine():
                await server.submit(
                    ScanRequest(
                        tenant="ok", table=profiles[0].name, columns=("code",)
                    )
                )

            loop.create_task(missing(), "missing")
            loop.create_task(fine(), "fine")
            loop.run()

        assert outcomes, "the missing table was silently served"
        assert server.ledgers["lost"].failed == 1
        _assert_ledgers_match_store(store, server)

    def test_mid_scan_failure_bills_partial_consumption(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = SimulatedObjectStore()
            profiles = build_catalog(store, tables=1, rows=600, seed=SERVE_SEED)
            store.stats.reset()
            # Permanent damage + strict policy: the scan dies mid-flight
            # after real bytes moved.
            store.retry = RetryPolicy(max_attempts=2)
            loop, server = self._server(store)
            failures = []

            async def doomed():
                store.set_faults(FaultProfile(seed=9, corrupt_rate=1.0))
                try:
                    await server.submit(
                        ScanRequest(
                            tenant="victim",
                            table=profiles[0].name,
                            columns=profiles[0].columns,
                            on_corrupt="raise",
                        )
                    )
                except BtrBlocksError as error:
                    failures.append(type(error).__name__)
                finally:
                    store.set_faults(None)

            loop.create_task(doomed(), "doomed")
            loop.run()

        assert failures, "permanent corruption did not surface"
        victim = server.ledgers["victim"]
        assert victim.failed == 1
        assert victim.bytes_fetched > 0, "the failed scan moved bytes; bill them"
        _assert_ledgers_match_store(store, server)

    def test_damaged_block_behind_a_warm_decode_cache_is_billed_as_decoded(self):
        """A cache entry turned down for a damaged block is a decode, not a
        hit: the tenant's hit / miss counts say so and the ledger still sums."""
        registry = MetricsRegistry()
        with use_registry(registry):
            store = SimulatedObjectStore()
            [profile] = build_catalog(store, tables=1, rows=4000, seed=SERVE_SEED)
            store.stats.reset()
            store.retry = RetryPolicy(max_attempts=2)
            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            # No room for any compressed column: every request downloads
            # afresh while the decode cache stays warm underneath it.
            server = ScanServer(
                store, loop, max_concurrency=1, queue_limit=4, column_cache_bytes=1
            )
            responses = []

            async def scan():
                responses.append(
                    await server.submit(
                        ScanRequest(
                            tenant="t",
                            table=profile.name,
                            columns=("id",),
                            on_corrupt="null_block",
                        )
                    )
                )

            loop.create_task(scan(), "warm")
            loop.run()
            entry = server._handles[(profile.name, "null_block")].column_entry("id")
            offset, size = block_range(entry, 2)
            damaged = bytearray(store._objects[entry["file"]])
            damaged[offset + size - 3] ^= 0x20  # block 2's payload, at rest
            store._objects[entry["file"]] = bytes(damaged)
            loop.create_task(scan(), "damaged")
            loop.run()

        warm, degraded = responses
        blocks = entry["blocks"]
        assert (warm.cache_hits, warm.cache_misses) == (0, blocks)
        # One verified download -- its GET and the one refetch the retry
        # policy allows, both damaged -- is decoded once: blocks 0, 1 and 3
        # come from the cache and block 2 is degraded. Block 2 is a miss,
        # never a hit.
        assert degraded.bytes_fetched == 2 * len(damaged)
        assert (degraded.cache_hits, degraded.cache_misses) == (blocks - 1, 1)
        assert len(degraded.relation.column("id").nulls) == 1000  # block 2, NULLed
        ledger = server.ledgers["t"]
        assert (ledger.cache_hits, ledger.cache_misses) == (blocks - 1, blocks + 1)
        assert registry.get("cloud.table.integrity_refetches") > 0
        _assert_ledgers_match_store(store, server)

    def test_rejection_is_typed_and_zero_before_any_traffic(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            store = SimulatedObjectStore()
            profiles = build_catalog(store, tables=1, rows=600, seed=SERVE_SEED)
            store.stats.reset()
            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            server = ScanServer(store, loop, max_concurrency=1, queue_limit=0)
            errors = []

            async def first():
                await server.submit(
                    ScanRequest(tenant="a", table=profiles[0].name, columns=("id",))
                )

            async def second():
                try:
                    await server.submit(
                        ScanRequest(
                            tenant="b", table=profiles[0].name, columns=("id",)
                        )
                    )
                except AdmissionRejectedError as error:
                    errors.append(error)

            loop.create_task(first(), "first")
            loop.create_task(second(), "second")
            loop.run()

        assert len(errors) == 1
        b = server.ledgers["b"]
        assert (b.get_requests, b.bytes_fetched, b.cost_usd) == (0, 0, 0.0)
        _assert_ledgers_match_store(store, server)


class TestOverloadLedgersStayExact:
    """Exactness must survive every cancellation point the overload layer
    adds: mid-flight deadline cancels, queue expiries, doomed-work sheds,
    budget fast-fails and open-breaker fast-fails — all on top of the
    brownout's injected latency, which bills to the tenants that burned it."""

    def test_chaos_with_the_full_layer_still_balances(self):
        from repro.cloud.breaker import BreakerPolicy, CircuitBreaker
        from repro.cloud.faults import seeded_brownouts

        episodes = seeded_brownouts(SERVE_SEED, horizon_seconds=1.5)
        registry, store, run = _run_workload(
            WorkloadSpec(tenants=10, requests_per_tenant=4, seed=SERVE_SEED),
            faults=FaultProfile(seed=SERVE_SEED, episodes=episodes),
            retry=RetryPolicy(max_attempts=8),
            catch_errors=True,
            max_concurrency=3,
            queue_limit=64,
            default_deadline_seconds=0.5,
            retry_budget_tokens=2.0,
            # Caches off: every scan meets the degraded store, so every
            # cancellation point gets real traffic to account for.
            column_cache_bytes=0,
            decode_cache_bytes=0,
            breaker=CircuitBreaker(BreakerPolicy(seed=SERVE_SEED)),
        )
        server = run["server"]
        # The layer actually exercised its cancellation points.
        assert run["failures"], "chaos never produced a typed in-flight failure"
        assert registry.get("server.deadline.queue_expired") > 0
        assert registry.get("server.deadline.shed") > 0
        assert store.stats.brownout_seconds > 0, "the brownout never bit"
        sums = _ledger_sums(server)
        assert sums["wasted_bytes"] > 0, "no failed request was mid-flight"
        _assert_ledgers_match_store(store, server)

    def test_tight_deadlines_shed_and_expire_billed_zero(self):
        registry, store, run = _run_workload(
            WorkloadSpec(
                tenants=12,
                requests_per_tenant=4,
                deadline_seconds=0.05,
                seed=SERVE_SEED,
            ),
            catch_errors=True,
            max_concurrency=1,
            queue_limit=4,
        )
        server = run["server"]
        shed = registry.get("server.deadline.shed")
        expired = registry.get("server.deadline.queue_expired")
        assert shed + expired > 0, "the 50 ms budget never doomed anything"
        # Shed and queue-expired requests were billed exactly zero, so the
        # survivors account for every byte the store moved.
        _assert_ledgers_match_store(store, server)


class TestRegistryMirrorsLedgers:
    def test_server_counters_equal_ledger_sums(self):
        registry, store, run = _run_workload(
            WorkloadSpec(tenants=6, requests_per_tenant=4, seed=SERVE_SEED),
            max_concurrency=3,
            queue_limit=64,
        )
        server = run["server"]
        sums = _ledger_sums(server)
        assert registry.get("server.get_requests") == sums["get_requests"]
        assert registry.get("server.bytes_fetched") == sums["bytes_fetched"]
        assert registry.get("server.retries") == sums["retries"]
        assert registry.get("server.cost_usd") == pytest.approx(
            sums["cost_usd"], abs=FLOAT_TOL
        )
        assert registry.get("server.completed") == sum(
            l.completed for l in server.ledgers.values()
        )

    def test_report_section_appears_after_serving(self):
        from repro.observe.report import build_report

        registry, _, run = _run_workload(
            WorkloadSpec(tenants=3, requests_per_tenant=3, seed=SERVE_SEED),
            max_concurrency=2,
            queue_limit=64,
        )
        report = build_report(registry)
        assert "server" in report
        section = report["server"]
        assert section["requests"] == 9
        assert section["admission"]["completed"] == len(run["responses"])
        server_report = run["server"].report()
        assert len(server_report["ledgers"]) == 3
        assert {l["tenant"] for l in server_report["ledgers"]} == {
            "tenant-00",
            "tenant-01",
            "tenant-02",
        }
