"""Multipart upload protocol semantics and write-side billing.

Covers the S3-shaped invariants the transactional write path leans on:
parts are invisible until complete, completes are atomic and idempotent,
torn parts can never complete, aborts are free and reclaim staged bytes.
"""

from __future__ import annotations

import os

import pytest

from repro.cloud import FaultProfile, SimulatedObjectStore
from repro.exceptions import (
    MultipartUploadError,
    NoSuchUploadError,
    RetryExhaustedError,
    TornWriteError,
    WriterCrashError,
)
from repro.observe import MetricsRegistry, use_registry

SEED = int(os.environ.get("REPRO_FAULT_SEED", "192024773"), 0)


def make_store(profile: "FaultProfile | None" = None) -> SimulatedObjectStore:
    return SimulatedObjectStore(faults=profile)


class TestProtocol:
    def test_parts_invisible_until_complete(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"hello ")
        store.upload_part(uid, 2, b"world")
        assert store.keys() == []
        with pytest.raises(Exception):
            store.get("t/obj")
        store.complete_multipart(uid)
        assert store.keys() == ["t/obj"]
        assert store.get("t/obj") == b"hello world"

    def test_parts_assemble_in_part_number_order(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 2, b"world")
        store.upload_part(uid, 1, b"hello ")
        store.complete_multipart(uid)
        assert store.get("t/obj") == b"hello world"

    def test_part_reupload_overwrites(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"bad")
        store.upload_part(uid, 1, b"good")
        store.complete_multipart(uid)
        assert store.get("t/obj") == b"good"

    def test_complete_is_idempotent(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"data")
        store.complete_multipart(uid)
        store.complete_multipart(uid)  # no error, no change
        assert store.get("t/obj") == b"data"

    def test_abort_reclaims_and_invalidates(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"abcd")
        assert store.staged_bytes("t/") == 4
        assert store.abort_multipart(uid) == 4
        assert store.staged_bytes("t/") == 0
        assert store.keys() == []
        with pytest.raises(NoSuchUploadError):
            store.upload_part(uid, 2, b"more")
        with pytest.raises(NoSuchUploadError):
            store.complete_multipart(uid)
        with pytest.raises(NoSuchUploadError):
            store.abort_multipart(uid)

    def test_unknown_upload_id_rejected(self):
        store = make_store()
        with pytest.raises(NoSuchUploadError):
            store.upload_part("mpu-999999", 1, b"x")

    def test_part_numbers_start_at_one(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        with pytest.raises(MultipartUploadError):
            store.upload_part(uid, 0, b"x")

    def test_pending_uploads_listing(self):
        store = make_store()
        a = store.initiate_multipart("t/a")
        b = store.initiate_multipart("u/b")
        store.upload_part(a, 1, b"xx")
        infos = store.pending_uploads("t/")
        assert [i.upload_id for i in infos] == [a]
        assert infos[0].staged_bytes == 2
        assert {i.upload_id for i in store.pending_uploads()} == {a, b}

    def test_overwrite_via_multipart_is_atomic_swap(self):
        store = make_store()
        store.put("t/obj", b"old")
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"new!")
        assert store.get("t/obj") == b"old"  # staged parts don't leak
        store.complete_multipart(uid)
        assert store.get("t/obj") == b"new!"


class TestFaultyPuts:
    def test_torn_parts_never_corrupt_the_visible_object(self):
        # Whatever the seed does, exactly two outcomes are legal: the part
        # heals on retry and the object completes bit-perfect, or retries
        # exhaust with the part torn and the upload refuses to complete.
        # A visible torn object is never legal under multipart.
        registry = MetricsRegistry()
        with use_registry(registry):
            store = make_store(FaultProfile(seed=SEED, torn_write_rate=0.4))
            uid = store.initiate_multipart("t/obj")
            try:
                store.upload_part(uid, 1, b"A" * 1000)
            except RetryExhaustedError:
                with pytest.raises(MultipartUploadError):
                    store.complete_multipart(uid)
                assert store.keys() == []
                return
            store.complete_multipart(uid)
        assert store.get("t/obj") == b"A" * 1000

    def test_torn_part_that_never_heals_cannot_complete(self):
        # Tear every byte-carrying attempt: the part stays incomplete and
        # the upload must not be completable with it (S3's ETag check).
        store = make_store(FaultProfile(seed=SEED, torn_write_rate=1.0))
        uid = store.initiate_multipart("t/obj")
        with pytest.raises(RetryExhaustedError):
            store.upload_part(uid, 1, b"B" * 1000)
        store.set_faults(None)
        with pytest.raises(MultipartUploadError):
            store.complete_multipart(uid)
        assert store.keys() == []

    def test_duplicate_delivered_complete_is_safe(self):
        # Duplicate delivery on every attempt: each complete applies
        # server-side but loses its response, so the client retries a write
        # that already happened. The object must be installed exactly once,
        # and a later clean retry must hit the idempotent no-op path.
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"payload")
        store.set_faults(FaultProfile(seed=SEED, duplicate_delivery_rate=1.0))
        with pytest.raises(RetryExhaustedError):
            store.complete_multipart(uid)  # every response lost, client gives up
        assert store.get("t/obj") == b"payload"  # ... but the write landed, once
        store.set_faults(None)
        store.complete_multipart(uid)  # idempotent retry from a healthier client
        assert store.get("t/obj") == b"payload"

    def test_naive_put_can_tear_visibly(self):
        # The hazard that motivates the multipart path: a simple PUT that
        # exhausts retries mid-tear leaves a visible partial object.
        store = make_store(FaultProfile(seed=SEED, torn_write_rate=1.0))
        with pytest.raises(RetryExhaustedError):
            store.put("t/obj", b"C" * 1000)
        assert store.keys() == ["t/obj"]
        store.set_faults(None)
        assert len(store.get("t/obj")) < 1000

    def test_rejected_attempts_are_free(self):
        store = make_store(FaultProfile(seed=SEED, put_transient_error_rate=1.0))
        with pytest.raises(RetryExhaustedError):
            store.put("t/obj", b"D" * 100)
        assert store.stats.put_requests == 0
        assert store.stats.bytes_uploaded == 0
        assert store.stats.put_retries == store.retry.max_attempts - 1
        assert store.stats.put_backoff_seconds > 0

    def test_torn_attempt_bills_applied_prefix(self):
        store = make_store(FaultProfile(seed=SEED, torn_write_rate=1.0))
        with pytest.raises(RetryExhaustedError):
            store.put("t/obj", b"E" * 1000)
        # Every attempt billed one request + the prefix that landed.
        assert store.stats.put_requests == store.retry.max_attempts
        assert 0 <= store.stats.bytes_uploaded < 1000 * store.retry.max_attempts

    def test_duplicate_delivery_bills_every_applied_attempt(self):
        store = make_store(FaultProfile(seed=SEED, duplicate_delivery_rate=1.0))
        with pytest.raises(RetryExhaustedError):
            store.put("t/obj", b"F" * 100)  # applied every time, response always lost
        attempts = store.retry.max_attempts
        assert store.get("t/obj") == b"F" * 100
        assert store.stats.put_requests == attempts
        assert store.stats.bytes_uploaded == 100 * attempts

    def test_abort_is_free(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"G" * 50)
        before = store.stats.put_requests
        store.abort_multipart(uid)
        assert store.stats.put_requests == before

    def test_writer_crash_is_not_retried(self):
        store = make_store(FaultProfile(seed=SEED, crash_after_put_ops=0))
        with pytest.raises(WriterCrashError):
            store.put("t/obj", b"H")
        assert store.stats.put_retries == 0
        # Dead is dead: every later PUT-class op fails too.
        with pytest.raises(WriterCrashError):
            store.initiate_multipart("t/other")


class TestBilling:
    def test_clean_put_bills_request_and_bytes(self):
        store = make_store()
        store.put("t/obj", b"I" * 500)
        assert store.stats.put_requests == 1
        assert store.stats.bytes_uploaded == 500

    def test_multipart_bills_initiate_parts_complete(self):
        store = make_store()
        uid = store.initiate_multipart("t/obj")
        store.upload_part(uid, 1, b"J" * 300)
        store.upload_part(uid, 2, b"K" * 200)
        store.complete_multipart(uid)
        # initiate + 2 parts + complete
        assert store.stats.put_requests == 4
        assert store.stats.bytes_uploaded == 500

    def test_write_cost_model_prices_requests_and_time(self):
        from repro.cloud import WriteCostModel

        store = make_store()
        store.put("t/a", b"L" * 10_000)
        model = WriteCostModel(store.pricing)
        metrics = model.from_stats("t", store.stats)
        cost = model.cost_usd(metrics)
        expected_requests = store.pricing.put_cost(store.stats.put_requests)
        assert cost > expected_requests > 0
        assert metrics.wall_seconds > 0
