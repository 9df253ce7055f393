"""Deterministic concurrency suite for the multi-tenant scan server.

Three layers, bottom up:

1. the :class:`~repro.cloud.retry.SimulatedClock` timer heap (the regression
   suite for its move from single-owner to multi-coroutine),
2. the :mod:`repro.serve.loop` event loop (FIFO ready queue, timer-driven
   wake-ups, deadlock detection, unobserved failures),
3. the :class:`~repro.serve.server.ScanServer` invariants: served bytes are
   bit-identical to a sequential ``RemoteTable.scan`` oracle across seeds ×
   tenant counts × fault profiles; each stage kind is priced by its own
   formula; point reads are never starved behind scan convoys (fairness);
   the wait queue never exceeds its bound and rejections are typed and
   billed zero (backpressure).

Everything runs on simulated time from fixed seeds — a failure here replays
bit-identically under the same ``REPRO_SERVE_SEED``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cloud.faults import FaultProfile
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.pricing import PricingModel
from repro.cloud.remote_table import RemoteTable, ScanStep
from repro.cloud.retry import RetryPolicy, SimulatedClock
from repro.exceptions import AdmissionRejectedError, ServeDeadlockError
from repro.observe import MetricsRegistry, use_registry
from repro.serve import (
    Event,
    EventLoop,
    ScanRequest,
    ScanServer,
    WorkloadSpec,
    build_catalog,
    gather,
    generate_workload,
    serve_workload,
    sleep,
)
from repro.types import columns_equal

#: Deterministic default; CI's serve-matrix job also runs one randomized
#: seed (echoed in its log) through this knob.
SERVE_SEED = int(os.environ.get("REPRO_SERVE_SEED", "202408"), 0)


# -- SimulatedClock timer heap -------------------------------------------------


class TestSimulatedClockTimers:
    def test_timers_fire_in_deadline_order(self):
        clock = SimulatedClock()
        fired = []
        clock.call_later(0.3, lambda: fired.append(("a", clock.now_seconds)))
        clock.call_later(0.1, lambda: fired.append(("b", clock.now_seconds)))
        clock.call_later(0.2, lambda: fired.append(("c", clock.now_seconds)))
        clock.advance(0.5)
        assert fired == [("b", 0.1), ("c", 0.2), ("a", 0.3)]
        assert clock.now_seconds == 0.5

    def test_same_deadline_fires_in_schedule_order(self):
        clock = SimulatedClock()
        fired = []
        for tag in "abc":
            clock.call_at(1.0, lambda tag=tag: fired.append(tag))
        clock.advance_to(1.0)
        assert fired == ["a", "b", "c"]

    def test_callback_scheduling_inside_window_fires_same_advance(self):
        # The single-owner clock regression: a timer's callback arms another
        # timer that is still inside the advance window. It must fire during
        # the same advance, at its own deadline, not be silently jumped over.
        clock = SimulatedClock()
        fired = []
        clock.call_at(0.1, lambda: clock.call_at(0.2, lambda: fired.append(0.2)))
        clock.call_at(0.3, lambda: fired.append(0.3))
        clock.advance_to(0.5)
        assert fired == [0.2, 0.3]

    def test_cancelled_timers_are_skipped(self):
        clock = SimulatedClock()
        fired = []
        timer = clock.call_later(0.1, lambda: fired.append("cancelled"))
        clock.call_later(0.2, lambda: fired.append("kept"))
        timer.cancel()
        clock.advance(1.0)
        assert fired == ["kept"]

    def test_advance_to_next_jumps_to_earliest(self):
        clock = SimulatedClock()
        fired = []
        clock.call_later(0.7, lambda: fired.append("later"))
        clock.call_later(0.4, lambda: fired.append("sooner"))
        assert clock.next_deadline() == 0.4
        assert clock.advance_to_next() is True
        assert clock.now_seconds == 0.4
        assert fired == ["sooner"]
        assert clock.advance_to_next() is True
        assert clock.advance_to_next() is False

    def test_past_deadline_is_never_reentrant(self):
        clock = SimulatedClock()
        clock.advance(1.0)
        fired = []
        clock.call_at(0.0, lambda: fired.append("past"))
        assert fired == []  # only a later advance fires it
        clock.advance(0.0)
        assert fired == ["past"]
        assert clock.now_seconds == 1.0

    def test_cancel_at_the_same_deadline_settles_in_timer_order(self):
        # Two timers tied at t=1.0; the first one's callback cancels the
        # second. Ties resolve in schedule order, so the cancellation wins
        # and the second must not fire — this is the race the server's
        # queue-expiry timers depend on.
        clock = SimulatedClock()
        fired = []
        timers = {}
        timers["first"] = clock.call_at(
            1.0, lambda: (fired.append("first"), timers["second"].cancel())
        )
        timers["second"] = clock.call_at(1.0, lambda: fired.append("second"))
        clock.advance_to(1.0)
        assert fired == ["first"]

    def test_cancel_after_fire_is_a_noop(self):
        clock = SimulatedClock()
        fired = []
        timer = clock.call_later(0.1, lambda: fired.append("fired"))
        clock.advance(0.2)
        timer.cancel()  # already fired: cancelling must not blow up
        clock.advance(1.0)
        assert fired == ["fired"]

    def test_legacy_sleep_still_accumulates(self):
        clock = SimulatedClock()
        clock.sleep(1.5)
        clock.sleep(-3.0)  # negative clamps, never rewinds
        assert clock.now_seconds == 1.5

    def test_reset_clears_timers(self):
        clock = SimulatedClock()
        fired = []
        clock.call_later(0.1, lambda: fired.append("stale"))
        clock.reset()
        assert clock.now_seconds == 0.0
        clock.advance(1.0)
        assert fired == []


# -- the deterministic event loop ----------------------------------------------


class TestEventLoop:
    def test_sleeps_interleave_deterministically(self):
        loop = EventLoop()
        order = []

        async def worker(name, delay):
            await sleep(delay)
            order.append((name, loop.now_seconds))

        loop.create_task(worker("a", 0.3), "a")
        loop.create_task(worker("b", 0.1), "b")
        loop.create_task(worker("c", 0.1), "c")
        loop.run()
        assert order == [("b", 0.1), ("c", 0.1), ("a", 0.3)]

    def test_gather_returns_results_in_order(self):
        loop = EventLoop()

        async def value(v, delay):
            await sleep(delay)
            return v

        async def main():
            tasks = [
                loop.create_task(value(i, 0.1 * (3 - i)), f"v{i}") for i in range(3)
            ]
            return await gather(*tasks)

        assert loop.run_until_complete(main()) == [0, 1, 2]

    def test_event_wakes_waiters_in_wait_order(self):
        loop = EventLoop()
        event = Event()
        woken = []

        async def waiter(name):
            await event.wait()
            woken.append(name)

        async def setter():
            await sleep(1.0)
            event.set()

        for name in ("w0", "w1", "w2"):
            loop.create_task(waiter(name), name)
        loop.create_task(setter(), "setter")
        loop.run()
        assert woken == ["w0", "w1", "w2"]
        assert loop.now_seconds == 1.0

    def test_deadlock_is_detected_not_hung(self):
        loop = EventLoop()

        async def stuck():
            await Event().wait()  # nobody will ever set it

        loop.create_task(stuck(), "stuck-task")
        with pytest.raises(ServeDeadlockError, match="stuck-task"):
            loop.run()

    def test_unobserved_failure_is_raised(self):
        loop = EventLoop()

        async def boom():
            await sleep(0.1)
            raise ValueError("lost in a task")

        loop.create_task(boom(), "boom")
        with pytest.raises(ValueError, match="lost in a task"):
            loop.run()

    def test_awaited_failure_propagates_to_awaiter_only(self):
        loop = EventLoop()
        caught = []

        async def boom():
            raise ValueError("expected")

        async def main():
            task = loop.create_task(boom(), "boom")
            try:
                await task
            except ValueError as error:
                caught.append(str(error))

        loop.run_until_complete(main())
        assert caught == ["expected"]

    def test_event_wait_timeout_returns_false_at_the_deadline(self):
        loop = EventLoop()
        event = Event()
        results = []

        async def waiter():
            results.append(await event.wait(timeout=0.5))

        loop.create_task(waiter(), "waiter")
        loop.run()
        assert results == [False]
        assert loop.now_seconds == 0.5

    def test_event_set_before_deadline_cancels_the_timeout_timer(self):
        loop = EventLoop()
        event = Event()
        results = []

        async def waiter():
            results.append(await event.wait(timeout=0.5))

        async def setter():
            await sleep(0.2)
            event.set()

        loop.create_task(waiter(), "waiter")
        loop.create_task(setter(), "setter")
        loop.run()
        assert results == [True]
        # The timeout timer was cancelled: the clock never had a reason to
        # advance to 0.5.
        assert loop.now_seconds == 0.2

    def test_same_instant_set_and_timeout_resolve_in_timer_order(self):
        # Both the set and the timeout land at t=0.5. Whichever *timer* was
        # scheduled first wins and cancels the loser inside the scheduler
        # callback — the racing coroutine always observes a settled result,
        # deterministically, never a double wake.
        def race(set_first: bool):
            loop = EventLoop()
            event = Event()
            results = []

            async def waiter():
                results.append(await event.wait(timeout=0.5))

            async def arm():
                loop.clock.call_at(0.5, event.set)

            if set_first:
                # Registered before the waiter even starts: lower timer seq.
                loop.clock.call_at(0.5, event.set)
                loop.create_task(waiter(), "waiter")
            else:
                # The waiter's timeout timer is armed when it first runs,
                # before arm() schedules the set: the timeout wins the tie.
                loop.create_task(waiter(), "waiter")
                loop.create_task(arm(), "arm")
            loop.run()
            assert event.is_set()  # the set always happens; the *wait* races
            return results

        assert race(set_first=True) == [True]
        assert race(set_first=False) == [False]

    def test_replays_identically(self):
        def history():
            loop = EventLoop()
            order = []

            async def worker(i):
                await sleep(0.1 * (i % 3))
                order.append(i)
                await sleep(0.05)
                order.append((i, loop.now_seconds))

            for i in range(8):
                loop.create_task(worker(i), f"w{i}")
            loop.run()
            return order

        assert history() == history()


# -- serving fixtures ----------------------------------------------------------


def _serve_setup(tables=2, rows=1000):
    registry = MetricsRegistry()
    with use_registry(registry):
        store = SimulatedObjectStore()
        profiles = build_catalog(store, tables=tables, rows=rows, seed=SERVE_SEED)
    return registry, store, profiles


def _sequential_oracle(store, responses):
    """Replay every served request sequentially, faults off, fresh handles."""
    store.set_faults(None)
    tables = {}
    for response in responses:
        request = response.request
        key = (request.table, request.on_corrupt)
        table = tables.get(key)
        if table is None:
            table = tables[key] = RemoteTable.open(
                store, request.table, on_corrupt=request.on_corrupt
            )
        columns = list(request.columns) if request.columns is not None else None
        expected = table.scan(columns, where=request.where)
        got = response.relation
        assert got.column_names() == expected.column_names(), request
        for name in expected.column_names():
            assert columns_equal(got.column(name), expected.column(name)), (
                request,
                name,
            )


FAULT_PROFILES = {
    "clean": None,
    "transient": FaultProfile(seed=7, transient_error_rate=0.15, throttle_rate=0.1),
    "damage": FaultProfile(seed=11, truncate_rate=0.1, corrupt_rate=0.05),
}

#: Enough attempts that the moderate fault rates above always recover (the
#: schedule is seeded, so "always" is checked, not hoped for).
AMPLE_RETRY = RetryPolicy(max_attempts=8)


# -- oracle equality -----------------------------------------------------------


class TestServedBytesMatchSequentialOracle:
    @pytest.mark.parametrize("tenants", [2, 8])
    @pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
    def test_concurrent_equals_sequential(self, tenants, profile):
        registry, store, profiles = _serve_setup()
        with use_registry(registry):
            store.retry = AMPLE_RETRY
            store.set_faults(FAULT_PROFILES[profile])
            spec = WorkloadSpec(
                tenants=tenants, requests_per_tenant=4, seed=SERVE_SEED
            )
            run = serve_workload(
                store, profiles, spec, max_concurrency=3, queue_limit=64
            )
            assert run["responses"], "workload served nothing"
            assert not run["rejected"]  # queue_limit=64 is ample here
            _sequential_oracle(store, run["responses"])

    @pytest.mark.parametrize("seed_offset", [0, 1, 2])
    def test_concurrent_equals_sequential_across_seeds(self, seed_offset):
        registry, store, profiles = _serve_setup()
        with use_registry(registry):
            store.retry = AMPLE_RETRY
            store.set_faults(FaultProfile(seed=3, transient_error_rate=0.15))
            spec = WorkloadSpec(
                tenants=4, requests_per_tenant=4, seed=SERVE_SEED + seed_offset
            )
            run = serve_workload(
                store, profiles, spec, max_concurrency=4, queue_limit=64
            )
            assert run["responses"]
            _sequential_oracle(store, run["responses"])

    def test_serving_replays_bit_identically(self):
        def run_once():
            registry, store, profiles = _serve_setup(tables=1, rows=600)
            with use_registry(registry):
                spec = WorkloadSpec(tenants=3, requests_per_tenant=3, seed=SERVE_SEED)
                run = serve_workload(store, profiles, spec, max_concurrency=2)
            return [
                (
                    r.request.tenant,
                    r.arrived_seconds,
                    r.started_seconds,
                    r.finished_seconds,
                    r.requests,
                    r.bytes_fetched,
                    r.cost_usd,
                )
                for r in run["responses"]
            ]

        assert run_once() == run_once()


# -- stage pricing -------------------------------------------------------------


class TestStagePricing:
    """``ScanServer._service_seconds`` on hand-built stages: a whole-column
    stage overlaps transfer with decode (Fig. 1's ``max(network,
    decompression)``), a filter or materialise stage pays both in turn, and
    retry backoff and brownout add to either."""

    #: 1 GB/s transfer, 10 ms per request; the server decodes 100 MB/s.
    PRICING = PricingModel(
        network_gbit=8.0, s3_client_gbit=8.0, request_latency_seconds=0.01
    )
    DECODE_BYTES_PER_SECOND = 1e8

    def _price(self, kind, **fields) -> float:
        store = SimulatedObjectStore(pricing=self.PRICING)
        server = ScanServer(
            store,
            EventLoop(clock=store.clock),
            decode_bytes_per_second=self.DECODE_BYTES_PER_SECOND,
        )
        return server._service_seconds(ScanStep(kind=kind, column="c", **fields))

    #: shape -> (stage fields, transfer seconds, decode seconds).
    STAGES = {
        "transfer-bound": (
            dict(bytes_fetched=2_000_000_000, requests=2, decode_bytes=100_000_000),
            2.02,
            1.0,
        ),
        "decode-bound": (
            dict(bytes_fetched=100_000_000, requests=1, decode_bytes=300_000_000),
            0.11,
            3.0,
        ),
    }

    @pytest.mark.parametrize("kind", ["column", "filter", "materialise"])
    @pytest.mark.parametrize("shape", sorted(STAGES))
    def test_each_stage_kind_is_priced_by_its_formula(self, kind, shape):
        fields, transfer, decode = self.STAGES[shape]
        seconds = self._price(kind, backoff_seconds=0.5, brownout_seconds=0.25, **fields)
        work = max(transfer, decode) if kind == "column" else transfer + decode
        assert seconds == pytest.approx(work + 0.5 + 0.25)

    def test_a_column_served_from_cache_costs_its_decode(self):
        # No GET and no backoff: 50 MB decoded at 100 MB/s is the whole cost.
        seconds = self._price("column", decode_bytes=50_000_000)
        assert seconds == pytest.approx(0.5)


# -- fairness ------------------------------------------------------------------


class TestFairness:
    #: A point read must never wait longer than this many large-scan service
    #: times (the ISSUE's K).
    K = 3

    def test_point_read_not_starved_behind_scan_convoy(self):
        registry, store, profiles = _serve_setup(tables=1, rows=2000)
        with use_registry(registry):
            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            server = ScanServer(store, loop, max_concurrency=1, queue_limit=32)
            profile = profiles[0]
            point_value = profile.point_values["code"][0]
            responses = []

            async def run(request):
                responses.append(await server.submit(request))

            # A convoy of full scans, then one point read arriving last.
            from repro.query.predicates import Equals

            for i in range(6):
                loop.create_task(
                    run(
                        ScanRequest(
                            tenant="convoy",
                            table=profile.name,
                            columns=profile.columns,
                        )
                    ),
                    f"scan{i}",
                )
            loop.create_task(
                run(
                    ScanRequest(
                        tenant="reader",
                        table=profile.name,
                        columns=("code",),
                        where={"code": Equals(point_value)},
                    )
                ),
                "point",
            )
            loop.run()

        point = next(r for r in responses if r.request.kind == "point")
        scan_service = max(
            r.service_seconds for r in responses if r.request.kind == "scan"
        )
        assert scan_service > 0
        assert point.queue_seconds <= self.K * scan_service, (
            f"point read queued {point.queue_seconds:.4f}s behind a convoy; "
            f"bound is {self.K} x {scan_service:.4f}s"
        )

    def test_point_reads_jump_queued_scans(self):
        # With one slot busy and both kinds queued, the weighted finish tags
        # must serve the point read before every still-queued full scan.
        registry, store, profiles = _serve_setup(tables=1, rows=1500)
        with use_registry(registry):
            from repro.query.predicates import Equals

            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            server = ScanServer(store, loop, max_concurrency=1, queue_limit=32)
            profile = profiles[0]
            order = []

            async def run(name, request):
                response = await server.submit(request)
                order.append((name, response.started_seconds))

            for i in range(4):
                loop.create_task(
                    run(
                        f"scan{i}",
                        ScanRequest(
                            tenant=f"t{i}", table=profile.name, columns=profile.columns
                        ),
                    ),
                    f"scan{i}",
                )
            loop.create_task(
                run(
                    "point",
                    ScanRequest(
                        tenant="reader",
                        table=profile.name,
                        columns=("code",),
                        where={"code": Equals(profile.point_values["code"][0])},
                    ),
                ),
                "point",
            )
            loop.run()

        started = {name: t for name, t in order}
        # scan0 was already running; the point read must start before the
        # scans that were *queued* alongside it.
        for queued in ("scan1", "scan2", "scan3"):
            assert started["point"] <= started[queued]


# -- backpressure --------------------------------------------------------------


class TestBackpressure:
    def test_queue_never_exceeds_bound_and_rejections_bill_zero(self):
        registry, store, profiles = _serve_setup(tables=1, rows=800)
        with use_registry(registry):
            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            server = ScanServer(store, loop, max_concurrency=1, queue_limit=2)
            profile = profiles[0]
            rejected = []
            responses = []

            async def run(tenant):
                request = ScanRequest(
                    tenant=tenant, table=profile.name, columns=profile.columns
                )
                try:
                    responses.append(await server.submit(request))
                except AdmissionRejectedError as error:
                    rejected.append((tenant, error))

            # Six arrivals in the same instant: 1 runs, 2 queue, 3 bounce.
            for i in range(6):
                loop.create_task(run(f"tenant-{i}"), f"t{i}")
            loop.run()

        assert len(responses) == 3
        assert len(rejected) == 3
        assert server.queue_peak <= server.queue_limit
        for tenant, error in rejected:
            assert isinstance(error, AdmissionRejectedError)
            ledger = server.ledgers[tenant]
            assert ledger.rejected == 1
            assert ledger.get_requests == 0
            assert ledger.bytes_fetched == 0
            assert ledger.cost_usd == 0.0
        assert registry.get("server.rejected") == 3

    def test_rejection_happens_before_any_store_traffic(self):
        registry, store, profiles = _serve_setup(tables=1, rows=800)
        with use_registry(registry):
            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            server = ScanServer(store, loop, max_concurrency=1, queue_limit=0)
            profile = profiles[0]
            outcomes = []

            async def run(tenant):
                request = ScanRequest(
                    tenant=tenant, table=profile.name, columns=("code",)
                )
                try:
                    await server.submit(request)
                    outcomes.append((tenant, "served"))
                except AdmissionRejectedError:
                    outcomes.append((tenant, "rejected"))

            loop.create_task(run("first"), "first")
            before = store.stats.get_requests
            loop.create_task(run("second"), "second")
            loop.run()

        assert ("first", "served") in outcomes
        assert ("second", "rejected") in outcomes
        # The rejected tenant added nothing to the store's request count
        # beyond what the served scan moved.
        served = server.ledgers["first"]
        assert store.stats.get_requests - before == served.get_requests

    def test_queue_peak_tracks_workload_pressure(self):
        registry, store, profiles = _serve_setup(tables=2, rows=800)
        with use_registry(registry):
            spec = WorkloadSpec(tenants=12, requests_per_tenant=4, seed=SERVE_SEED)
            run = serve_workload(
                store, profiles, spec, max_concurrency=2, queue_limit=8
            )
        server = run["server"]
        assert server.queue_peak <= 8
        assert server.active_peak <= 2
        assert len(run["responses"]) + len(run["rejected"]) == 48
        for request in run["rejected"]:
            ledger = server.ledgers[request.tenant]
            assert ledger.rejected >= 1


# -- end-to-end sweep smoke ----------------------------------------------------


class TestServeBenchSmoke:
    def test_sweep_reports_required_fields(self):
        from repro.serve.bench import run_serve_bench

        with use_registry(MetricsRegistry()):
            report = run_serve_bench(
                tenant_sweep=(1, 16),
                rows=800,
                tables=2,
                requests_per_tenant=3,
                seed=SERVE_SEED,
            )
        assert [level["tenants"] for level in report["levels"]] == [1, 16]
        for level in report["levels"]:
            for key in (
                "p50_latency_seconds",
                "p99_latency_seconds",
                "cache_hit_rate",
                "cost_usd_per_query",
            ):
                assert key in level
        # The acceptance bound: shared caches keep 16-tenant $/query within
        # 1.1x of single-tenant on the hot-table workload.
        assert report["cost_ratio_16_vs_1"] <= 1.1

    def test_latencies_are_simulated_not_measured(self):
        import time

        from repro.serve.bench import run_serve_bench

        with use_registry(MetricsRegistry()):
            started = time.monotonic()
            report = run_serve_bench(
                tenant_sweep=(4,), rows=600, tables=1, requests_per_tenant=3
            )
            elapsed = time.monotonic() - started
        level = report["levels"][0]
        assert level["simulated_seconds"] > 0
        # Wall time must not scale with simulated time (generous CI margin).
        assert elapsed < 60
