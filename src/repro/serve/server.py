"""The multi-tenant scan server: weighted-fair admission over shared caches.

:class:`ScanServer` sits between tenant coroutines and
:class:`~repro.cloud.remote_table.RemoteTable`. Its contract:

* **Concurrency bound.** At most ``max_concurrency`` scans execute at once;
  everything else waits in a bounded queue.
* **Backpressure.** When the queue is full a request is rejected with
  :class:`~repro.exceptions.AdmissionRejectedError` *before* touching the
  store — rejections are typed and billed zero.
* **Weighted fair scheduling** (start-time fair queuing). Each request gets
  a virtual start tag ``max(V, flow_finish)`` and finish tag
  ``start + cost / weight``; the queue serves the smallest finish tag.
  Flows are ``(tenant, class)`` pairs and point reads carry a higher
  weight than full scans, so a cheap ``where=`` lookup is never starved
  behind a convoy of large scans.
* **Shared caches.** All tenants share one bounded column cache and one
  decode cache. Handles are keyed ``(table, on_corrupt)`` —
  degradation policy is per-request — and the fetch path guarantees
  damaged columns never enter the shared caches, so one tenant's
  ``null_block`` degradation can never surface as another tenant's data.
* **Deterministic service times.** A scan executes stage by stage through
  :meth:`RemoteTable.scan_steps`; each stage runs atomically with a
  private clock, then the task suspends for a *modeled* duration — bytes
  over bandwidth, per-request latency, captured backoff, decoded bytes
  over a fixed decode rate — never a measured one. Identical seeds give
  identical schedules, latencies and ledgers.
* **Exact accounting.** Every store byte moved during serving is captured
  inside exactly one request's stages, so per-tenant ledgers sum to the
  store's global :class:`~repro.cloud.objectstore.TransferStats` deltas
  field by field, and dollar costs follow the same
  :class:`~repro.cloud.pricing.PricingModel` formulas the rest of the
  reproduction uses.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.cloud.breaker import CircuitBreaker
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, ScanStep, capture_step
from repro.cloud.retry import RetryBudget
from repro.core.cache import ByteBudgetLRU, DecodeCache
from repro.core.config import DEFAULT_COLUMN_CACHE_BYTES, DEFAULT_DECODE_CACHE_BYTES
from repro.core.relation import Relation
from repro.exceptions import (
    AdmissionRejectedError,
    CircuitOpenError,
    DeadlineExceededError,
    RetryBudgetExhaustedError,
)
from repro.observe import get_registry
from repro.query.predicates import Predicate
from repro.serve.loop import Event, EventLoop, sleep

__all__ = [
    "DEFAULT_DECODE_BYTES_PER_SECOND",
    "ScanRequest",
    "ScanResponse",
    "ScanServer",
    "TenantLedger",
]

#: Fixed modeled decode throughput (compressed bytes per second). Real decode
#: speed is machine-dependent; serving latencies must not be, so the model
#: uses one constant in the ballpark of the paper's single-core decompression
#: rates. Override per server via ``decode_bytes_per_second``.
DEFAULT_DECODE_BYTES_PER_SECOND = 1.0e9


@dataclass(frozen=True)
class ScanRequest:
    """One tenant's scan: a point read (``where=`` pushdown) or full scan."""

    tenant: str
    table: str
    columns: "tuple[str, ...] | None" = None
    where: "Mapping[str, Predicate] | None" = None
    on_corrupt: str = "raise"
    #: Latency budget in simulated seconds, relative to arrival. ``None``
    #: (or the server's ``default_deadline_seconds``) = no deadline.
    deadline_seconds: "float | None" = None

    @property
    def kind(self) -> str:
        """Scheduling class: ``"point"`` when predicated, else ``"scan"``."""
        return "point" if self.where else "scan"


@dataclass
class ScanResponse:
    """The served result plus everything the request consumed."""

    request: ScanRequest
    relation: "Relation | None"
    arrived_seconds: float
    started_seconds: float
    finished_seconds: float
    requests: int = 0
    bytes_fetched: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    brownout_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cost_usd: float = 0.0

    @property
    def queue_seconds(self) -> float:
        return self.started_seconds - self.arrived_seconds

    @property
    def service_seconds(self) -> float:
        return self.finished_seconds - self.started_seconds

    @property
    def latency_seconds(self) -> float:
        return self.finished_seconds - self.arrived_seconds


@dataclass
class TenantLedger:
    """Per-tenant accounting; integer fields sum exactly to the store's
    :class:`~repro.cloud.objectstore.TransferStats` deltas across tenants."""

    tenant: str
    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    #: Doomed-work rejections: projected queue wait already exceeded the
    #: request's deadline, so it was refused at admission, billed zero.
    shed: int = 0
    #: Requests that ended with DeadlineExceededError (queued or in flight).
    deadline_exceeded: int = 0
    #: In-flight failures fast-failed by the tenant's empty retry budget.
    retry_budget_exhausted: int = 0
    #: In-flight failures fast-failed by the open circuit breaker.
    circuit_open: int = 0
    points: int = 0
    scans: int = 0
    get_requests: int = 0
    bytes_fetched: int = 0
    #: Bytes billed to requests that did not complete — the overload
    #: layer's target metric (work paid for but never served).
    wasted_bytes: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    brownout_seconds: float = 0.0
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cost_usd: float = 0.0

    @property
    def cost_per_query(self) -> float:
        return self.cost_usd / self.completed if self.completed else 0.0

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "retry_budget_exhausted": self.retry_budget_exhausted,
            "circuit_open": self.circuit_open,
            "points": self.points,
            "scans": self.scans,
            "get_requests": self.get_requests,
            "bytes_fetched": self.bytes_fetched,
            "wasted_bytes": self.wasted_bytes,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "brownout_seconds": self.brownout_seconds,
            "queue_seconds": self.queue_seconds,
            "service_seconds": self.service_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cost_usd": self.cost_usd,
            "cost_per_query": self.cost_per_query,
        }


@dataclass
class _Consumed:
    """Store traffic one request actually caused (success or failure)."""

    requests: int = 0
    bytes_fetched: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    brownout_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def add_step(self, step: ScanStep) -> None:
        self.add(
            step.requests,
            step.bytes_fetched,
            step.retries,
            step.backoff_seconds,
            step.brownout_seconds,
            step.cache_hits,
            step.cache_misses,
        )

    def add(
        self,
        requests: int,
        nbytes: int,
        retries: int,
        backoff_seconds: float,
        brownout_seconds: float,
        cache_hits: int,
        cache_misses: int,
    ) -> None:
        self.requests += requests
        self.bytes_fetched += nbytes
        self.retries += retries
        self.backoff_seconds += backoff_seconds
        self.brownout_seconds += brownout_seconds
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses


@dataclass(order=True)
class _QueueEntry:
    """A waiting request ordered by its WFQ finish tag (ties by arrival).

    ``outcome`` settles the grant/expiry race atomically inside scheduler
    callbacks: the deadline timer marks ``"expired"`` (releasing the live
    queue slot immediately), ``_dispatch`` marks ``"granted"`` (cancelling
    the timer). Whichever runs first wins; the loser sees a settled entry
    and does nothing — expired corpses are skipped lazily when the heap
    pops them.
    """

    finish_tag: float
    seq: int
    start_tag: float = field(compare=False)
    request: ScanRequest = field(compare=False)
    granted: Event = field(compare=False)
    outcome: "str | None" = field(default=None, compare=False)
    timer: object = field(default=None, compare=False)


class ScanServer:
    """Admit, schedule and execute concurrent scans on one event loop."""

    def __init__(
        self,
        store: SimulatedObjectStore,
        loop: EventLoop,
        max_concurrency: int = 4,
        queue_limit: int = 16,
        point_weight: float = 4.0,
        scan_weight: float = 1.0,
        column_cache_bytes: int = DEFAULT_COLUMN_CACHE_BYTES,
        decode_cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
        decode_bytes_per_second: float = DEFAULT_DECODE_BYTES_PER_SECOND,
        default_deadline_seconds: "float | None" = None,
        retry_budget_tokens: "float | None" = None,
        retry_budget_refill_per_second: float = 1.0,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        self._store = store
        self._loop = loop
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.point_weight = point_weight
        self.scan_weight = scan_weight
        self.decode_bytes_per_second = decode_bytes_per_second
        #: Deadline applied to requests that carry none (``None`` = no
        #: deadline). Relative to arrival, like ``ScanRequest.deadline_seconds``.
        self.default_deadline_seconds = default_deadline_seconds
        #: ``None`` disables retry budgets; otherwise each tenant gets a
        #: token bucket of this capacity, spent by retried attempts only.
        self.retry_budget_tokens = retry_budget_tokens
        self.retry_budget_refill_per_second = retry_budget_refill_per_second
        #: Installed on the store so every GET this server causes flows
        #: through one shared breaker (brownouts are a store-wide condition,
        #: not a per-tenant one).
        self.breaker = breaker
        if breaker is not None:
            store.breaker = breaker
        #: One bounded compressed-column cache and one decoded-block cache
        #: shared by every handle the server opens (all tenants, all
        #: policies); keys embed object key + version so entries are
        #: collision-free across tables.
        self.column_cache = ByteBudgetLRU(
            column_cache_bytes, metric_prefix="server.column_cache"
        )
        self.decode_cache = (
            DecodeCache(decode_cache_bytes) if decode_cache_bytes > 0 else None
        )
        self.ledgers: "dict[str, TenantLedger]" = {}
        self._handles: "dict[tuple[str, str], RemoteTable]" = {}
        self._queue: "list[_QueueEntry]" = []
        #: Live (unsettled) queue entries. The heap itself may also hold
        #: expired corpses — a cancelled entry cannot be removed from the
        #: middle of a heapq — so every capacity decision uses this count,
        #: never ``len(self._queue)``.
        self._queued = 0
        self._seq = itertools.count()
        self._active = 0
        self._virtual = 0.0
        self._flow_finish: "dict[tuple[str, str], float]" = {}
        self._retry_budgets: "dict[str, RetryBudget]" = {}
        self._service_total = 0.0
        self._service_count = 0
        self.queue_peak = 0
        self.active_peak = 0

    # -- public API ------------------------------------------------------------

    async def submit(self, request: ScanRequest) -> ScanResponse:
        """Admit (or reject) one scan and run it to completion.

        The admission ladder, in order:

        1. free slot and empty queue — run immediately;
        2. queue at its bound — :class:`AdmissionRejectedError`
           (``reason="queue_full"``) with a retry-after hint, billed zero;
        3. deadline already unmeetable (projected queue wait exceeds the
           remaining budget) — :class:`AdmissionRejectedError`
           (``reason="doomed"``), billed zero: the overload layer refuses
           work it would only cancel after paying for it;
        4. otherwise wait in the WFQ queue. A deadline that expires while
           waiting releases the queue slot *immediately* (in the timer
           callback, so admission sees real capacity) and the request fails
           with :class:`DeadlineExceededError`, billed zero.
        """
        registry = get_registry()
        ledger = self._ledger(request.tenant)
        ledger.submitted += 1
        ledger.points += request.kind == "point"
        ledger.scans += request.kind == "scan"
        registry.incr("server.requests")
        registry.incr(f"server.{request.kind}_requests")
        arrived = self._loop.now_seconds
        budget_seconds = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.default_deadline_seconds
        )
        deadline = arrived + budget_seconds if budget_seconds is not None else None
        if self._active < self.max_concurrency and not self._queued:
            self._grant_tags(request)  # keep flow tags flowing for fairness
            self._active += 1
        else:
            wait_hint = self._projected_wait_seconds()
            if self._queued >= self.queue_limit:
                ledger.rejected += 1
                registry.incr("server.rejected")
                raise AdmissionRejectedError(
                    f"tenant {request.tenant!r}: wait queue at its bound "
                    f"({self.queue_limit}); retry with backoff",
                    retry_after_seconds=wait_hint,
                    reason="queue_full",
                )
            if deadline is not None and arrived + wait_hint >= deadline:
                ledger.shed += 1
                registry.incr("server.deadline.shed")
                raise AdmissionRejectedError(
                    f"tenant {request.tenant!r}: projected queue wait "
                    f"{wait_hint:.3f}s exceeds the {deadline - arrived:.3f}s "
                    f"deadline budget; shed at admission",
                    retry_after_seconds=wait_hint,
                    reason="doomed",
                )
            start, finish = self._grant_tags(request)
            entry = _QueueEntry(
                finish_tag=finish,
                seq=next(self._seq),
                start_tag=start,
                request=request,
                granted=Event(),
            )
            heapq.heappush(self._queue, entry)
            self._queued += 1
            self.queue_peak = max(self.queue_peak, self._queued)
            registry.incr("server.queued")
            if deadline is not None:
                entry.timer = self._loop.clock.call_later(
                    deadline - arrived, lambda: self._expire(entry)
                )
            await entry.granted.wait()
            if entry.outcome == "expired":
                # The timer callback already released the queue slot; no
                # _active slot was ever held and nothing was billed.
                ledger.failed += 1
                ledger.deadline_exceeded += 1
                registry.incr("server.failed")
                registry.incr("server.deadline.queue_expired")
                raise DeadlineExceededError(
                    f"tenant {request.tenant!r}: deadline expired after "
                    f"{self._loop.now_seconds - arrived:.3f}s in the queue"
                )
        self.active_peak = max(self.active_peak, self._active)
        registry.incr("server.admitted")
        started = self._loop.now_seconds
        consumed = _Consumed()
        try:
            response = await self._execute(
                request, arrived, started, consumed, deadline
            )
        except BaseException as error:
            # A failing scan (integrity damage, a mid-flight deadline, an
            # exhausted retry budget, an open breaker) still moved bytes
            # before it died: bill what it consumed — and count it wasted —
            # so ledgers stay exact against the store's global accounting.
            ledger.failed += 1
            registry.incr("server.failed")
            if isinstance(error, DeadlineExceededError):
                ledger.deadline_exceeded += 1
                registry.incr("server.deadline.exceeded")
            elif isinstance(error, RetryBudgetExhaustedError):
                ledger.retry_budget_exhausted += 1
            elif isinstance(error, CircuitOpenError):
                ledger.circuit_open += 1
            self._bill(ledger, consumed)
            raise
        finally:
            self._active -= 1
            self._dispatch()
        ledger.completed += 1
        registry.incr("server.completed")
        self._service_total += response.service_seconds
        self._service_count += 1
        self._bill(ledger, consumed, response)
        return response

    def report(self) -> dict:
        """Server-level accounting, JSON-ready (see ``server`` report section)."""
        tenants = sorted(self.ledgers)
        ledgers = [self.ledgers[t] for t in tenants]
        return {
            "max_concurrency": self.max_concurrency,
            "queue_limit": self.queue_limit,
            "queue_peak": self.queue_peak,
            "active_peak": self.active_peak,
            "default_deadline_seconds": self.default_deadline_seconds,
            "retry_budget_tokens": self.retry_budget_tokens,
            "breaker_state": self.breaker.state if self.breaker else None,
            "shed": sum(l.shed for l in ledgers),
            "deadline_exceeded": sum(l.deadline_exceeded for l in ledgers),
            "retry_budget_exhausted": sum(
                l.retry_budget_exhausted for l in ledgers
            ),
            "circuit_open": sum(l.circuit_open for l in ledgers),
            "wasted_bytes": sum(l.wasted_bytes for l in ledgers),
            "tenants": len(tenants),
            "ledgers": [ledger.to_dict() for ledger in ledgers],
        }

    # -- scheduling ------------------------------------------------------------

    def _ledger(self, tenant: str) -> TenantLedger:
        ledger = self.ledgers.get(tenant)
        if ledger is None:
            ledger = self.ledgers[tenant] = TenantLedger(tenant)
        return ledger

    def _weight(self, request: ScanRequest) -> float:
        return self.point_weight if request.kind == "point" else self.scan_weight

    def _cost_estimate(self, request: ScanRequest) -> float:
        """A-priori relative cost for fair-queuing tags. Point reads prune
        to a handful of blocks; full scans move every projected column."""
        if request.kind == "point":
            return 1.0
        if request.columns is not None:
            return float(max(1, len(request.columns)))
        entry = self._handles.get((request.table, request.on_corrupt))
        if entry is not None:
            return float(max(1, len(entry.column_names())))
        return 4.0  # unopened table: assume a few columns

    def _grant_tags(self, request: ScanRequest) -> "tuple[float, float]":
        """Start-time fair queuing tags for one admitted request."""
        flow = (request.tenant, request.kind)
        start = max(self._virtual, self._flow_finish.get(flow, 0.0))
        finish = start + self._cost_estimate(request) / self._weight(request)
        self._flow_finish[flow] = finish
        return start, finish

    def _budget(self, tenant: str) -> "RetryBudget | None":
        """The tenant's retry token bucket (created on demand), or ``None``
        when budgets are disabled."""
        if self.retry_budget_tokens is None:
            return None
        budget = self._retry_budgets.get(tenant)
        if budget is None:
            budget = self._retry_budgets[tenant] = RetryBudget(
                capacity=self.retry_budget_tokens,
                refill_per_second=self.retry_budget_refill_per_second,
            )
        return budget

    def _avg_service_seconds(self) -> float:
        """Observed mean service time of completed scans; an optimistic
        floor before any history exists, so a cold server sheds nothing."""
        if self._service_count:
            return self._service_total / self._service_count
        return 0.05

    def _projected_wait_seconds(self) -> float:
        """Expected queue wait for a request arriving now: queue depth in
        units of mean service time, spread across the worker slots. This is
        the retry-after hint on rejections and the estimate doomed-work
        shedding holds against the deadline budget — a hint, not a promise.
        """
        if self._active < self.max_concurrency and not self._queued:
            return 0.0
        return (self._queued + 1) * self._avg_service_seconds() / self.max_concurrency

    def _expire(self, entry: _QueueEntry) -> None:
        """Timer callback: a queued request's deadline passed unserved.

        Runs in scheduler context (atomic with respect to tasks), so it
        settles the grant/expiry race: the live queue slot is released here
        — admission must see real capacity the instant the waiter is doomed,
        not when it happens to run — and the waiter wakes to fail with a
        typed error, billed zero.
        """
        if entry.outcome is not None:
            return
        entry.outcome = "expired"
        self._queued -= 1
        entry.granted.set()

    def _dispatch(self) -> None:
        """Grant freed slots to the smallest finish tags in the queue."""
        while self._active < self.max_concurrency and self._queue:
            entry = heapq.heappop(self._queue)
            if entry.outcome is not None:
                continue  # expired corpse: its live slot was already released
            entry.outcome = "granted"
            if entry.timer is not None:
                entry.timer.cancel()
            self._queued -= 1
            self._virtual = max(self._virtual, entry.start_tag)
            self._active += 1
            entry.granted.set()

    # -- execution -------------------------------------------------------------

    def _handle(
        self,
        request: ScanRequest,
        deadline: "float | None" = None,
        budget: "RetryBudget | None" = None,
    ) -> "tuple[RemoteTable, ScanStep | None]":
        """The (table, policy) handle, opened lazily over the shared caches.

        The metadata GETs of a first open are captured and billed to the
        opening request — every byte the server moves belongs to exactly
        one tenant — and run under that request's overload context, so an
        open stalled by a brownout is deadline-cancellable like any stage.
        """
        key = (request.table, request.on_corrupt)
        table = self._handles.get(key)
        if table is not None:
            return table, None
        with capture_step(
            self._store, "open", deadline_seconds=deadline, retry_budget=budget
        ) as step:
            table = RemoteTable.open(
                self._store,
                request.table,
                on_corrupt=request.on_corrupt,
                column_cache=self.column_cache,
                decode_cache=self.decode_cache,
            )
        self._handles[key] = table
        return table, step

    def _service_seconds(self, step: ScanStep) -> float:
        """Deterministic modeled duration of one scan stage.

        Transfer is bytes over bandwidth plus per-request latency plus the
        stage's retry backoff; decode is decoded bytes over the fixed decode
        rate. A whole-column stage overlaps transfer with decode — Fig. 1's
        ``max(network, decompression)`` — while backoff delays both.
        """
        pricing = self._store.pricing
        fetch = step.backoff_seconds
        if step.requests:
            fetch += (
                step.bytes_fetched / pricing.s3_bytes_per_second
                + step.requests * pricing.request_latency_seconds
            )
        decode = step.decode_bytes / self.decode_bytes_per_second
        # Brownout-elevated latency the store injected during the stage is
        # pure added wall time — it overlaps with nothing.
        extra = step.brownout_seconds
        if step.kind == "column":
            return (
                max(fetch - step.backoff_seconds, decode)
                + step.backoff_seconds
                + extra
            )
        return fetch + decode + extra

    async def _stage_sleep(self, seconds: float, deadline: "float | None") -> None:
        """Suspend for one stage's modeled duration, stopping at the deadline.

        The sleep is effectively a cancellable timer: a request never
        occupies its slot past the deadline instant — it wakes exactly
        there and cancels with the typed error, freeing the slot at the
        deadline rather than at the end of a stage whose result is already
        unusable.
        """
        if deadline is not None and self._loop.now_seconds + seconds > deadline:
            remaining = deadline - self._loop.now_seconds
            if remaining > 0.0:
                await sleep(remaining)
            raise DeadlineExceededError(
                f"stage duration crosses the deadline; cancelled at "
                f"t={self._loop.now_seconds:.3f}s"
            )
        await sleep(seconds)

    async def _execute(
        self,
        request: ScanRequest,
        arrived: float,
        started: float,
        consumed: _Consumed,
        deadline: "float | None" = None,
    ) -> ScanResponse:
        columns = list(request.columns) if request.columns is not None else None
        stats = self._store.stats
        registry = get_registry()
        budget = self._budget(request.tenant)

        def snapshot() -> tuple:
            return (
                stats.get_requests,
                stats.bytes_downloaded,
                stats.retries,
                stats.backoff_seconds,
                stats.brownout_seconds,
                registry.get("decode.cache.hit"),
                registry.get("decode.cache.miss"),
            )

        def bill_diff(before: tuple) -> None:
            consumed.add(
                stats.get_requests - before[0],
                stats.bytes_downloaded - before[1],
                stats.retries - before[2],
                stats.backoff_seconds - before[3],
                stats.brownout_seconds - before[4],
                int(registry.get("decode.cache.hit") - before[5]),
                int(registry.get("decode.cache.miss") - before[6]),
            )

        # A failing open (missing table, retries exhausted on the manifest)
        # still moved bytes before it died; diff the store counters around
        # it so that traffic lands in this request's bill.
        before = snapshot()
        try:
            table, open_step = self._handle(request, deadline, budget)
        except BaseException:
            bill_diff(before)
            raise
        if open_step is not None:
            consumed.add_step(open_step)
            await self._stage_sleep(self._service_seconds(open_step), deadline)
        gen = table.scan_steps(
            columns,
            where=request.where,
            deadline_seconds=deadline,
            retry_budget=budget,
        )
        while True:
            # Diff the store counters around each stage so a stage that
            # *raises* (its ScanStep is never yielded) still has its
            # traffic attributed to this request.
            before = snapshot()
            try:
                step = next(gen)
            except StopIteration as stop:
                relation = stop.value
                break
            except BaseException:
                bill_diff(before)
                raise
            consumed.add_step(step)
            await self._stage_sleep(self._service_seconds(step), deadline)
        return ScanResponse(
            request=request,
            relation=relation,
            arrived_seconds=arrived,
            started_seconds=started,
            finished_seconds=self._loop.now_seconds,
            requests=consumed.requests,
            bytes_fetched=consumed.bytes_fetched,
            retries=consumed.retries,
            backoff_seconds=consumed.backoff_seconds,
            brownout_seconds=consumed.brownout_seconds,
            cache_hits=consumed.cache_hits,
            cache_misses=consumed.cache_misses,
            cost_usd=self._cost_usd(consumed),
        )

    def _cost_usd(self, consumed: _Consumed) -> float:
        """$ for what one request moved: GET requests + the compute time its
        transfer occupied, by the same linear formulas as the global
        accounting — so per-tenant sums and the global total agree."""
        pricing = self._store.pricing
        return pricing.request_cost(consumed.requests) + pricing.compute_cost(
            consumed.bytes_fetched / pricing.s3_bytes_per_second
        )

    def _bill(
        self,
        ledger: TenantLedger,
        consumed: _Consumed,
        response: "ScanResponse | None" = None,
    ) -> None:
        cost = response.cost_usd if response is not None else self._cost_usd(consumed)
        ledger.get_requests += consumed.requests
        ledger.bytes_fetched += consumed.bytes_fetched
        ledger.retries += consumed.retries
        ledger.backoff_seconds += consumed.backoff_seconds
        ledger.brownout_seconds += consumed.brownout_seconds
        ledger.cache_hits += consumed.cache_hits
        ledger.cache_misses += consumed.cache_misses
        ledger.cost_usd += cost
        items = [
            ("server.get_requests", consumed.requests),
            ("server.bytes_fetched", consumed.bytes_fetched),
            ("server.retries", consumed.retries),
            ("server.backoff_seconds", consumed.backoff_seconds),
            ("server.brownout_seconds", consumed.brownout_seconds),
            ("server.cache_hits", consumed.cache_hits),
            ("server.cache_misses", consumed.cache_misses),
            ("server.cost_usd", cost),
        ]
        if response is not None:
            ledger.queue_seconds += response.queue_seconds
            ledger.service_seconds += response.service_seconds
            items += [
                ("server.queue_seconds", response.queue_seconds),
                ("server.service_seconds", response.service_seconds),
                ("server.latency_seconds", response.latency_seconds),
            ]
        else:
            # The request did not complete: whatever it moved was paid for
            # but never served — the overload layer's target metric.
            ledger.wasted_bytes += consumed.bytes_fetched
            items.append(("server.wasted_bytes", consumed.bytes_fetched))
        get_registry().incr_many(items)
