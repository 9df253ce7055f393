"""A simulated S3-compatible object store.

Stores blobs in memory, serves full- and range-GETs, and accounts exactly
what the paper's cost model needs: the number of GET requests and the bytes
transferred. A transfer-time estimate derived from the pricing model turns
the accounting into simulated wall-clock time.

With a :class:`~repro.cloud.faults.FaultProfile` attached, GETs fail the way
real object stores do — transient errors, timeouts, throttling, truncated
ranges, flipped bits — and every public GET path retries transient failures
with the store's :class:`~repro.cloud.retry.RetryPolicy`. Backoff is taken
on a :class:`~repro.cloud.retry.SimulatedClock` (accounted, not slept) and
lands in :attr:`TransferStats.backoff_seconds`, so retries cost simulated
scan time and dollars but never test wall-time.

The write side mirrors S3's upload semantics:

* ``put`` is a naive single-object PUT. It retries transient faults, but a
  **torn write** that exhausts the retry budget (or a writer crash) leaves a
  partially-written object *visible* — exactly the hazard real lake writers
  must design around.
* The **multipart protocol** (``initiate_multipart`` / ``upload_part`` /
  ``complete_multipart`` / ``abort_multipart``) stages parts invisibly:
  nothing is listable or readable until ``complete_multipart`` installs the
  assembled object in one atomic step. Part uploads and completes are
  idempotent, so duplicate delivery on retry is harmless; a torn part can
  never complete (mirroring S3's ETag check). Crash-consistent
  multi-object commits need the manifest protocol of
  :class:`~repro.cloud.remote_table.TableWriter`.

Billing follows S3 on both sides: attempts the server rejects are free;
attempts that moved bytes bill one request and exactly the bytes that
arrived (a torn write bills the prefix that landed, a duplicate-delivered
retry bills twice). Aborts and deletes are free, as on S3.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.cloud.breaker import CircuitBreaker
from repro.cloud.faults import FaultInjector, FaultProfile
from repro.cloud.pricing import DEFAULT_PRICING, PricingModel
from repro.cloud.retry import RetryBudget, RetryPolicy, SimulatedClock, call_with_retry
from repro.exceptions import (
    FormatError,
    MultipartUploadError,
    NoSuchUploadError,
    RangeNotSatisfiableError,
    RetryBudgetExhaustedError,
    RetryExhaustedError,
    TornWriteError,
    TransientRequestError,
    TruncatedReadError,
)


@dataclass
class TransferStats:
    """Accumulated request/byte accounting for one workload."""

    get_requests: int = 0
    bytes_downloaded: int = 0
    #: Attempts beyond the first, across all GET requests.
    retries: int = 0
    #: Simulated seconds spent backing off (and waiting out timeouts).
    backoff_seconds: float = 0.0
    #: Extra per-attempt latency injected by brownout episodes.
    brownout_seconds: float = 0.0
    #: Billed PUT-class requests (simple PUTs, initiates, parts, completes).
    put_requests: int = 0
    #: Bytes the server durably applied across billed PUT-class attempts.
    bytes_uploaded: int = 0
    #: Attempts beyond the first, across all PUT-class requests.
    put_retries: int = 0
    #: Simulated seconds spent backing off on the write path.
    put_backoff_seconds: float = 0.0

    def reset(self) -> None:
        self.get_requests = 0
        self.bytes_downloaded = 0
        self.retries = 0
        self.backoff_seconds = 0.0
        self.brownout_seconds = 0.0
        self.put_requests = 0
        self.bytes_uploaded = 0
        self.put_retries = 0
        self.put_backoff_seconds = 0.0


@dataclass
class _Part:
    """One staged multipart part; ``complete`` is False for torn uploads."""

    data: bytes
    complete: bool = True


@dataclass
class _MultipartUpload:
    """Server-side state of one in-progress multipart upload."""

    upload_id: str
    key: str
    parts: dict[int, _Part] = field(default_factory=dict)
    completed: bool = False
    aborted: bool = False

    @property
    def pending(self) -> bool:
        return not (self.completed or self.aborted)

    def staged_bytes(self) -> int:
        return sum(len(part.data) for part in self.parts.values())


@dataclass(frozen=True)
class UploadInfo:
    """Public view of one multipart upload (for recovery sweeps)."""

    upload_id: str
    key: str
    staged_bytes: int


@dataclass
class SimulatedObjectStore:
    """An in-memory blob store with S3-like GET/PUT semantics and accounting.

    Billing follows S3: attempts rejected server-side (transient errors,
    timeouts, throttles) are not billed; attempts that served bytes count
    one GET request and bill exactly the bytes that arrived — a truncated
    range bills only what was served before the cut. PUT-class attempts are
    billed symmetrically: rejected attempts are free, attempts the server
    applied (fully, torn, or with a lost response) bill one request plus
    the bytes that landed. Aborts and deletes are free.
    """

    pricing: PricingModel = field(default_factory=lambda: DEFAULT_PRICING)
    _objects: dict[str, bytes] = field(default_factory=dict)
    stats: TransferStats = field(default_factory=TransferStats)
    #: Optional fault injection; ``None`` serves every request perfectly.
    faults: FaultProfile | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    #: Optional circuit breaker guarding every GET/metadata path.
    breaker: CircuitBreaker | None = None
    #: Per-request context a driver installs for the duration of an atomic
    #: scan stage (see ``capture_step``): the absolute deadline the current
    #: request's backoff must not cross, and the tenant's retry budget.
    deadline_seconds: float | None = None
    retry_budget: RetryBudget | None = None

    def __post_init__(self) -> None:
        self._injector = FaultInjector(self.faults) if self.faults else None
        seed = self.faults.seed if self.faults else 0
        self._retry_rng = random.Random(seed ^ 0x5E7B0FF)
        self._uploads: dict[str, _MultipartUpload] = {}
        self._upload_counter = 0
        #: Every key of ``_objects`` in order, kept by each mutator so
        #: ``keys`` bisects a prefix range instead of scanning the store.
        self._sorted_keys: list[str] = sorted(self._objects)

    def set_faults(self, profile: FaultProfile | None) -> None:
        """Swap the fault profile (e.g. to read back after a writer crash)."""
        self.faults = profile
        self._injector = FaultInjector(profile) if profile else None

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The live injector (protocol-step bookkeeping for crash tests)."""
        return self._injector

    # -- bucket operations ----------------------------------------------------

    def _retrying_put(self, attempt: Callable[[], None], label: str) -> None:
        def on_backoff(delay: float) -> None:
            self.stats.put_retries += 1

        def on_wait(delay: float) -> None:
            self.stats.put_backoff_seconds += delay

        call_with_retry(
            attempt,
            self.retry,
            self.clock,
            self._retry_rng,
            on_backoff=on_backoff,
            on_wait=on_wait,
            label=label,
        )

    def _put_attempt(
        self,
        op: str,
        key: str,
        size: int,
        apply: Callable[[int], None],
        billed: bool = True,
    ) -> None:
        """One PUT-class attempt: roll faults, apply bytes, bill, fail late.

        ``apply`` receives the byte count the server durably applied (the
        full ``size`` normally, a prefix for a torn write). Rejected
        attempts raise before applying or billing; torn and duplicate
        deliveries apply and bill first, then raise a retryable error.
        """
        outcome = None
        if self._injector is not None:
            outcome = self._injector.roll_put(op, key, size)
        applied = size if outcome is None else outcome.applied_bytes
        apply(applied)
        if billed:
            self.stats.put_requests += 1
            self.stats.bytes_uploaded += applied
        if outcome is not None and outcome.torn:
            raise TornWriteError(
                f"{op} {key}: connection lost after {applied} of {size} bytes"
            )
        if outcome is not None and outcome.duplicate:
            raise TransientRequestError(
                f"{op} {key}: write applied but response lost"
            )

    def put(self, key: str, data: bytes) -> None:
        """Naive single-object PUT (retried, but *not* atomic under faults).

        A torn write applies a prefix before failing; if retries exhaust —
        or the writer crashes — that prefix stays visible. Crash-safe
        writers stage through the multipart protocol instead.
        """

        def attempt() -> None:
            self._put_attempt(
                "put", key, len(data), lambda applied: self._install(key, data[:applied])
            )

        self._retrying_put(attempt, f"PUT {key}")

    def _install(self, key: str, data: bytes) -> None:
        if key not in self._objects:
            bisect.insort(self._sorted_keys, key)
        self._objects[key] = bytes(data)

    def delete(self, key: str) -> int:
        """Remove an object; returns the bytes freed. Free, as on S3."""
        data = self._objects.pop(key, None)
        if data is None:
            return 0
        del self._sorted_keys[bisect.bisect_left(self._sorted_keys, key)]
        return len(data)

    def keys(self, prefix: str = "") -> list[str]:
        """Every key starting with ``prefix``, sorted (a fresh list)."""
        keys, width = self._sorted_keys, len(prefix)
        start = bisect.bisect_left(keys, prefix)
        return keys[start : bisect.bisect_right(keys, prefix, start, key=lambda k: k[:width])]

    def object_size(self, key: str) -> int:
        return len(self._objects[key])

    # -- multipart uploads -----------------------------------------------------

    def initiate_multipart(self, key: str) -> str:
        """Start a multipart upload; staged parts stay invisible until
        :meth:`complete_multipart`. A duplicate-delivered initiate leaves an
        orphaned upload behind (the client never learned its id), which a
        recovery sweep reclaims — exactly S3's lost-response behaviour."""
        created: list[str] = []

        def attempt() -> None:
            def apply(_applied: int) -> None:
                self._upload_counter += 1
                upload_id = f"mpu-{self._upload_counter:06d}"
                self._uploads[upload_id] = _MultipartUpload(upload_id, key)
                created.append(upload_id)

            self._put_attempt("initiate", key, 0, apply)

        self._retrying_put(attempt, f"POST {key}?uploads")
        return created[-1]

    def _pending_upload(self, upload_id: str) -> _MultipartUpload:
        upload = self._uploads.get(upload_id)
        if upload is None or not upload.pending:
            raise NoSuchUploadError(f"no pending multipart upload {upload_id!r}")
        return upload

    def upload_part(self, upload_id: str, part_number: int, data: bytes) -> None:
        """Stage one part. Re-uploading a part number overwrites it, so the
        retry after a torn or duplicate-delivered attempt is idempotent."""
        if part_number < 1:
            raise MultipartUploadError(f"part numbers start at 1, got {part_number}")
        upload = self._pending_upload(upload_id)

        def attempt() -> None:
            def apply(applied: int) -> None:
                upload.parts[part_number] = _Part(
                    bytes(data[:applied]), complete=(applied == len(data))
                )

            self._put_attempt(
                "part", f"{upload.key}#part{part_number}", len(data), apply
            )

        self._retrying_put(attempt, f"PUT {upload.key}?partNumber={part_number}")

    def upload_parts(self, upload_id: str, data: bytes, part_size: int | None = None) -> int:
        """Stage an object's bytes as chunked parts; returns the part count."""
        size = part_size or self.pricing.chunk_bytes
        count = 0
        for offset in range(0, len(data), size):
            count += 1
            self.upload_part(upload_id, count, data[offset : offset + size])
        return count

    def complete_multipart(self, upload_id: str) -> None:
        """Assemble the staged parts and install the object atomically.

        The object becomes visible in one step — concurrent readers see
        either the old object or the new one, never a mix. Completing an
        already-completed upload is a no-op success, which is what makes
        the retry after a duplicate-delivered complete safe. A torn part
        can never complete (S3's ETag check): the upload must re-send it
        or abort.
        """
        upload = self._uploads.get(upload_id)
        if upload is None or upload.aborted:
            raise NoSuchUploadError(f"no multipart upload {upload_id!r}")
        if not upload.completed:
            torn = sorted(n for n, part in upload.parts.items() if not part.complete)
            if torn:
                raise MultipartUploadError(
                    f"upload {upload_id!r}: part(s) {torn} were never fully uploaded"
                )

        def attempt() -> None:
            def apply(_applied: int) -> None:
                if upload.completed:
                    return
                upload.completed = True
                parts = sorted(upload.parts.items())
                self._install(upload.key, b"".join(part.data for _, part in parts))

            self._put_attempt("complete", upload.key, 0, apply)

        self._retrying_put(attempt, f"POST {upload.key}?complete")

    def abort_multipart(self, upload_id: str) -> int:
        """Discard a pending upload's staged parts; returns bytes reclaimed.

        Free, as on S3. Idempotence caveat: like S3, aborting an unknown or
        finalized upload id raises :class:`NoSuchUploadError`.
        """
        upload = self._pending_upload(upload_id)
        reclaimed = upload.staged_bytes()

        def attempt() -> None:
            def apply(_applied: int) -> None:
                upload.parts.clear()
                upload.aborted = True

            self._put_attempt("abort", upload.key, 0, apply, billed=False)

        self._retrying_put(attempt, f"DELETE {upload.key}?uploadId={upload_id}")
        return reclaimed

    def pending_uploads(self, prefix: str = "") -> list[UploadInfo]:
        """In-progress (never completed, never aborted) uploads under a prefix."""
        return [
            UploadInfo(u.upload_id, u.key, u.staged_bytes())
            for u in sorted(self._uploads.values(), key=lambda u: u.upload_id)
            if u.pending and u.key.startswith(prefix)
        ]

    def staged_bytes(self, prefix: str = "") -> int:
        """Total bytes sitting in staged (uncommitted) parts under a prefix."""
        return sum(info.staged_bytes for info in self.pending_uploads(prefix))

    # -- GET requests ---------------------------------------------------------

    def _attempt(self, key: str, start: int, length: int, ranged: bool) -> bytes:
        """One billed attempt: roll faults, serve (possibly damaged) bytes.

        A short read against the attempt's known extent raises
        :class:`TruncatedReadError` so the retry layer refetches — mirroring
        a client comparing the body against ``Content-Length``.
        """
        expected = min(length, len(self._objects[key]) - start)
        if self._injector is not None:
            # Brownout latency burns simulated time on every attempt —
            # before the fault roll, so even rejected attempts are slow.
            extra = self._injector.episode_latency(self.clock.now_seconds)
            if extra > 0.0:
                self.clock.sleep(extra)
                self.stats.brownout_seconds += extra
            self._injector.before_serve(key, self.clock.now_seconds)
        data = self._objects[key][start : start + length]
        if self._injector is not None:
            data = self._injector.damage_payload(data, ranged=ranged)
        self.stats.get_requests += 1
        self.stats.bytes_downloaded += len(data)
        if len(data) != expected:
            raise TruncatedReadError(
                f"GET {key} [{start}:{start + length}] returned {len(data)} "
                f"of {expected} bytes"
            )
        return data

    def _retrying_get(self, key: str, start: int, length: int, ranged: bool) -> bytes:
        def on_backoff(delay: float) -> None:
            self.stats.retries += 1

        def on_wait(delay: float) -> None:
            self.stats.backoff_seconds += delay

        if self.breaker is not None:
            # Fast-fail before any attempt: an open circuit bills nothing.
            self.breaker.before_request(self.clock)
        try:
            data = call_with_retry(
                lambda: self._attempt(key, start, length, ranged),
                self.retry,
                self.clock,
                self._retry_rng,
                on_backoff=on_backoff,
                on_wait=on_wait,
                label=f"GET {key}",
                deadline_seconds=self.deadline_seconds,
                budget=self.retry_budget,
            )
        except (RetryExhaustedError, RetryBudgetExhaustedError, TransientRequestError):
            # The retry layer gave up on the store — breaker-visible failure.
            if self.breaker is not None:
                self.breaker.record_failure(self.clock)
            raise
        except BaseException:
            # Anything else — a DeadlineExceededError from an interrupted
            # backoff, above all — is the client's problem, not the store's
            # health: neither success nor failure, but the outcome must
            # still be reported or an admitted half-open probe slot leaks
            # and the breaker wedges half-open.
            if self.breaker is not None:
                self.breaker.record_cancelled(self.clock)
            raise
        if self.breaker is not None:
            self.breaker.record_success(self.clock)
        return data

    def get(self, key: str) -> bytes:
        """Full-object GET: one request regardless of object size."""
        if key not in self._objects:
            raise FormatError(f"no such object: {key}")
        return self._retrying_get(key, 0, len(self._objects[key]), ranged=False)

    def get_range(self, key: str, start: int, length: int) -> bytes:
        """Range GET (how clients fetch 16 MB chunks and Parquet footers).

        Like S3, a start at or past the object's end (or a negative
        start/length) is a hard 416 — never a silent short or empty body.
        A range that *begins* inside the object but runs past its end is
        satisfiable and returns the suffix, as S3 does.
        """
        if key not in self._objects:
            raise FormatError(f"no such object: {key}")
        size = len(self._objects[key])
        if start < 0 or length < 0 or start >= size:
            raise RangeNotSatisfiableError(
                f"range [{start}:{start + length}] not satisfiable for "
                f"{key} ({size} bytes)"
            )
        return self._retrying_get(key, start, min(length, size - start), ranged=True)

    def get_chunked(self, key: str) -> bytes:
        """Fetch an object in recommended-size chunks (16 MB per request)."""
        if key not in self._objects:
            raise FormatError(f"no such object: {key}")
        size = len(self._objects[key])
        if size == 0:
            return self.get(key)
        chunk = self.pricing.chunk_bytes
        parts = [
            self.get_range(key, offset, min(chunk, size - offset))
            for offset in range(0, size, chunk)
        ]
        return b"".join(parts)

    # -- simulated timing -----------------------------------------------------

    def simulated_transfer_seconds(self) -> float:
        """Wall-clock estimate for the accounted transfers.

        Bandwidth-bound bulk time plus per-request latency amortised over the
        concurrent request slots the client keeps in flight, plus any backoff
        the retry layer accumulated.
        """
        bulk = self.stats.bytes_downloaded / self.pricing.s3_bytes_per_second
        latency_waves = -(-self.stats.get_requests // self.pricing.concurrency)
        return (
            bulk
            + latency_waves * self.pricing.request_latency_seconds
            + self.stats.backoff_seconds
        )

    def simulated_upload_seconds(self) -> float:
        """Wall-clock estimate for the accounted uploads (same shape)."""
        bulk = self.stats.bytes_uploaded / self.pricing.s3_bytes_per_second
        latency_waves = -(-self.stats.put_requests // self.pricing.concurrency)
        return (
            bulk
            + latency_waves * self.pricing.request_latency_seconds
            + self.stats.put_backoff_seconds
        )
