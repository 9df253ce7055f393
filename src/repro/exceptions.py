"""Exception hierarchy for the BtrBlocks reproduction."""


class BtrBlocksError(Exception):
    """Base class for all errors raised by this library."""


class CorruptBlockError(BtrBlocksError):
    """A compressed block could not be parsed (bad magic, truncated payload)."""


class UnknownSchemeError(BtrBlocksError):
    """A block references a scheme id that is not in the registry."""


class TypeMismatchError(BtrBlocksError):
    """A column or block was used with data of the wrong type."""


class FormatError(BtrBlocksError):
    """A serialized file or table does not follow the expected layout."""


class DecodeLimitError(FormatError):
    """A declared count or length exceeds the configured decode limits.

    Raised *before* any allocation happens, so malformed or adversarial
    files cannot trigger decompression bombs (see
    :class:`~repro.core.config.DecodeLimits`).
    """


class IntegrityError(BtrBlocksError):
    """A block's payload does not match its stored CRC32 checksum."""


class ObjectStoreError(BtrBlocksError):
    """Base class for (simulated) object-store request failures."""


class TransientRequestError(ObjectStoreError):
    """A request failed in a way that a retry may fix (S3 500/503 class)."""


class RequestTimeoutError(TransientRequestError):
    """A request exceeded the client's timeout before completing."""


class ThrottledError(TransientRequestError):
    """The store asked the client to slow down (S3 503 SlowDown)."""


class TruncatedReadError(TransientRequestError):
    """A GET returned fewer bytes than the request's known extent."""


class TornWriteError(TransientRequestError):
    """A PUT-class request failed mid-transfer after part of the payload
    was durably applied. Retryable: a full re-upload overwrites the torn
    prefix (which is why naive single-object PUTs need the multipart
    protocol to be crash-safe)."""


class RangeNotSatisfiableError(ObjectStoreError):
    """A range GET asked for bytes outside the object (S3 416). Not retryable."""


class RetryExhaustedError(ObjectStoreError):
    """A request kept failing after the retry policy's final attempt."""


class MultipartUploadError(ObjectStoreError):
    """A multipart upload was used in a way the protocol forbids."""


class NoSuchUploadError(MultipartUploadError):
    """An operation referenced an unknown or already-finalized upload id."""


class CommitConflictError(ObjectStoreError):
    """Two writers raced to commit the same table version; the loser must
    re-stage against a fresh version number. Not retryable as-is."""


class WriterCrashError(BtrBlocksError):
    """Injected writer death: the fault profile killed the writer at a
    protocol step. Deliberately *not* a TransientRequestError — a dead
    process cannot retry — so it propagates through every retry layer."""


class WorkerDiedError(BtrBlocksError):
    """A process-pool worker died (killed, segfaulted, OOM'd) mid-task.

    The pool it belonged to is discarded — a broken pool poisons every
    future submitted to it — and ``compress_relation`` reruns the whole
    call inline from the still-intact inputs. Never a hang, never a torn
    column."""


class DeadlineExceededError(BtrBlocksError):
    """A request's deadline passed before its scan could finish.

    Raised at an atomic stage boundary (or while a queued waiter was still
    unadmitted, or when a retry backoff would cross the deadline) — never
    mid-stage — so cancellation is clean: whatever the request already
    moved is billed, nothing after the cancellation point is, and the
    request's queue slot is released. Deliberately *not* a
    :class:`TransientRequestError`: a dead deadline cannot be retried.
    """


class RetryBudgetExhaustedError(ObjectStoreError):
    """A tenant's retry-budget token bucket was empty when a retry was due.

    Fast-fail instead of backoff: one tenant's failing workload must not
    storm the store with retries. The bucket refills over simulated time
    (see :class:`~repro.cloud.retry.RetryBudget`), so the tenant recovers
    by waiting, not by hammering.
    """


class CircuitOpenError(ObjectStoreError):
    """The circuit breaker around the store's GET/metadata paths is open.

    The request failed *before any attempt*, so it is billed zero bytes
    and zero requests. ``retry_after_seconds`` hints when the breaker will
    next admit a probe.
    """

    def __init__(self, message: str, retry_after_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class ServeError(BtrBlocksError):
    """Base class for scan-server scheduling and admission failures."""


class AdmissionRejectedError(ServeError):
    """The server refused a request at admission — billed exactly zero.

    Two reasons, both backpressure rather than crashes: ``"queue_full"``
    (the bounded wait queue is at its limit) and ``"doomed"`` (the
    request's projected queue wait already exceeds its deadline, so
    queuing it would only burn a slot on work that can never finish).
    ``retry_after_seconds`` hints how long the tenant should back off,
    computed from the current queue depth and observed service times.
    """

    def __init__(
        self,
        message: str,
        retry_after_seconds: float = 0.0,
        reason: str = "queue_full",
    ) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds
        self.reason = reason


class ServeDeadlockError(ServeError):
    """The deterministic event loop ran out of runnable tasks and pending
    timers while coroutines were still suspended — a genuine deadlock in
    the schedule, surfaced instead of hanging forever."""
