"""Unit tests for the fault-injection, retry/backoff and integrity layer.

Deterministic-by-seed behaviour of :class:`FaultProfile`, the S3-style 416
semantics of ``get_range``, billing rules (server-rejected attempts are
free, truncated reads bill bytes served), retry accounting on the simulated
clock, the ``on_corrupt`` degradation policies end to end, and the
reliability section of JSON reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import FaultProfile, RetryPolicy, SimulatedClock, SimulatedObjectStore
from repro.cloud.faults import FaultInjector
from repro.cloud.pricing import PricingModel
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.cloud.retry import call_with_retry
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.file_format import (
    block_checksum,
    column_from_bytes,
    column_to_bytes,
)
from repro.core.relation import Relation
from repro.exceptions import (
    FormatError,
    IntegrityError,
    RangeNotSatisfiableError,
    RetryExhaustedError,
    ThrottledError,
    TransientRequestError,
)
from repro.observe import MetricsRegistry, use_registry
from repro.observe.report import build_report
from repro.types import Column, columns_equal


def make_store(profile=None, **kwargs) -> SimulatedObjectStore:
    return SimulatedObjectStore(faults=profile, **kwargs)


@pytest.fixture
def relation() -> Relation:
    rng = np.random.default_rng(99)
    n = 1024
    return Relation(
        "t",
        [
            Column.ints("a", rng.integers(0, 1000, n).astype(np.int32)),
            Column.doubles("b", np.round(rng.uniform(0, 10, n), 2)),
        ],
    )


# -- 416 semantics and billing -------------------------------------------------


class TestRangeSemantics:
    def test_out_of_bounds_start_raises(self):
        store = make_store()
        store.put("k", b"0123456789")
        with pytest.raises(RangeNotSatisfiableError):
            store.get_range("k", 10, 1)
        with pytest.raises(RangeNotSatisfiableError):
            store.get_range("k", 999, 4)

    def test_negative_range_raises(self):
        store = make_store()
        store.put("k", b"0123456789")
        with pytest.raises(RangeNotSatisfiableError):
            store.get_range("k", -1, 4)
        with pytest.raises(RangeNotSatisfiableError):
            store.get_range("k", 0, -4)

    def test_rejected_range_is_not_billed(self):
        store = make_store()
        store.put("k", b"0123456789")
        with pytest.raises(RangeNotSatisfiableError):
            store.get_range("k", 10, 1)
        assert store.stats.get_requests == 0
        assert store.stats.bytes_downloaded == 0

    def test_suffix_overrun_serves_suffix(self):
        """A range that begins in-bounds but runs past the end is
        satisfiable (S3 serves the suffix) — never a silent short read."""
        store = make_store()
        store.put("k", b"0123456789")
        assert store.get_range("k", 8, 100) == b"89"
        assert store.stats.bytes_downloaded == 2  # bills bytes served

    def test_empty_object_chunked_get(self):
        store = make_store()
        store.put("k", b"")
        assert store.get_chunked("k") == b""
        assert store.stats.get_requests == 1

    def test_missing_key_is_format_error_not_transient(self):
        store = make_store(FaultProfile(transient_error_rate=1.0))
        with pytest.raises(FormatError):
            store.get("nope")
        with pytest.raises(FormatError):
            store.get_range("nope", 0, 1)


class TestBilling:
    def test_server_rejected_attempts_unbilled(self):
        store = make_store(
            FaultProfile(seed=3, throttle_rate=1.0), retry=RetryPolicy(max_attempts=2)
        )
        store.put("k", b"abc")
        with pytest.raises(RetryExhaustedError):
            store.get("k")
        assert store.stats.get_requests == 0
        assert store.stats.bytes_downloaded == 0

    def test_truncated_read_bills_bytes_served(self):
        store = make_store(
            FaultProfile(seed=0, truncate_rate=1.0), retry=RetryPolicy(max_attempts=2)
        )
        store.put("k", b"x" * 100)
        with pytest.raises(RetryExhaustedError):
            store.get_range("k", 0, 100)
        assert store.stats.get_requests == 2  # both attempts served bytes
        assert 0 <= store.stats.bytes_downloaded < 200


# -- fault determinism ---------------------------------------------------------


class TestFaultDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def run(seed: int) -> list[str]:
            injector = FaultInjector(
                FaultProfile(seed=seed, transient_error_rate=0.3, throttle_rate=0.3)
            )
            outcomes = []
            for i in range(50):
                try:
                    injector.before_serve(f"k{i}")
                    outcomes.append("ok")
                except ThrottledError:
                    outcomes.append("throttle")
                except TransientRequestError:
                    outcomes.append("transient")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_payload_damage_deterministic(self):
        def damage(seed: int) -> bytes:
            injector = FaultInjector(FaultProfile(seed=seed, corrupt_rate=1.0))
            return injector.damage_payload(b"\x00" * 64, ranged=True)

        assert damage(5) == damage(5)
        assert damage(5) != b"\x00" * 64

    def test_zero_profile_injects_nothing(self):
        injector = FaultInjector(FaultProfile())
        payload = b"hello"
        for i in range(100):
            injector.before_serve(f"k{i}")
            assert injector.damage_payload(payload, ranged=True) == payload


# -- retry layer ---------------------------------------------------------------


class TestRetry:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, max_delay_seconds=0.5, multiplier=2.0, jitter=0.0
        )
        rng = FaultProfile().rng()
        delays = [policy.backoff_seconds(i, rng) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_shrinks_delay_only(self):
        policy = RetryPolicy(base_delay_seconds=1.0, multiplier=1.0, jitter=0.5)
        rng = FaultProfile(seed=11).rng()
        for i in range(20):
            delay = policy.backoff_seconds(i, rng)
            assert 0.5 <= delay <= 1.0

    def test_retry_then_succeed(self):
        clock = SimulatedClock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientRequestError("boom")
            return "done"

        with use_registry(MetricsRegistry()):
            out = call_with_retry(
                flaky, RetryPolicy(max_attempts=4), clock, FaultProfile().rng()
            )
        assert out == "done"
        assert calls["n"] == 3
        assert clock.now_seconds > 0.0

    def test_non_transient_not_retried(self):
        clock = SimulatedClock()
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise FormatError("structural")

        with use_registry(MetricsRegistry()), pytest.raises(FormatError):
            call_with_retry(
                broken, RetryPolicy(max_attempts=5), clock, FaultProfile().rng()
            )
        assert calls["n"] == 1
        assert clock.now_seconds == 0.0

    def test_exhausted_error_chains_last_failure(self):
        with use_registry(MetricsRegistry()), pytest.raises(RetryExhaustedError) as info:
            call_with_retry(
                lambda: (_ for _ in ()).throw(ThrottledError("SlowDown")),
                RetryPolicy(max_attempts=2),
                SimulatedClock(),
                FaultProfile().rng(),
            )
        assert isinstance(info.value.__cause__, ThrottledError)

    def test_exhausted_error_is_not_transient(self):
        """RetryExhaustedError must not itself be retryable, or an outer
        retry loop would multiply the attempt budget."""
        assert not issubclass(RetryExhaustedError, TransientRequestError)

    def test_retry_counters_recorded(self):
        registry = MetricsRegistry()
        store = make_store(
            FaultProfile(seed=1, transient_error_rate=0.3),
            retry=RetryPolicy(max_attempts=12),
        )
        store.put("k", b"payload" * 100)
        with use_registry(registry):
            for _ in range(20):
                assert store.get("k") == b"payload" * 100
        counters = registry.snapshot()["counters"]
        assert counters["cloud.faults.transient"] > 0
        assert counters["cloud.retry.attempts"] == store.stats.retries > 0
        assert counters["cloud.retry.backoff_seconds"] == pytest.approx(
            store.stats.backoff_seconds
        )

    def test_backoff_lands_in_simulated_transfer_time(self):
        store = make_store(
            FaultProfile(seed=2, transient_error_rate=0.5),
            retry=RetryPolicy(max_attempts=8),
        )
        store.put("k", b"z" * 4096)
        for _ in range(10):
            store.get("k")
        assert store.stats.backoff_seconds > 0.0
        baseline = make_store()
        baseline.put("k", b"z" * 4096)
        for _ in range(10):
            baseline.get("k")
        extra = store.simulated_transfer_seconds() - baseline.simulated_transfer_seconds()
        assert extra == pytest.approx(store.stats.backoff_seconds)


# -- on_corrupt degradation end to end -----------------------------------------


def _damaged_column_blob() -> bytes:
    column = compress_column(
        Column.ints("v", np.arange(500, dtype=np.int32)),
        BtrBlocksConfig(block_size=128),  # several blocks; damage hits one
    )
    blob = bytearray(column_to_bytes(column))
    # Aim at the last *block's* payload explicitly — the file now ends with
    # the statistics footer, which the decoder doesn't checksum-gate.
    from repro.core.file_format import column_block_ranges

    offset, size = column_block_ranges(column)[-1]
    blob[offset + size - 3] ^= 0x40
    return bytes(blob)


class TestOnCorrupt:
    def test_raise_is_default(self):
        column = column_from_bytes(_damaged_column_blob())
        with pytest.raises(IntegrityError):
            decompress_column(column)

    def test_skip_drops_damaged_rows(self):
        column = column_from_bytes(_damaged_column_blob())
        out = decompress_column(column, on_corrupt="skip")
        assert 0 < len(out.data) < 500

    def test_null_block_preserves_row_count(self):
        column = column_from_bytes(_damaged_column_blob())
        out = decompress_column(column, on_corrupt="null_block")
        assert len(out.data) == 500
        assert out.nulls is not None and len(out.nulls) > 0

    def test_unknown_mode_rejected(self):
        column = column_from_bytes(_damaged_column_blob())
        with pytest.raises(ValueError):
            decompress_column(column, on_corrupt="pretend")

    def test_checksum_seeded_with_count(self):
        assert block_checksum(b"abc", None, 1) != block_checksum(b"abc", None, 2)


def _corrupting_table(relation, max_attempts, on_corrupt="raise"):
    """A RemoteTable whose store corrupts every GET after ``open`` read a
    clean manifest, so the corruption lands on the checksummed column path."""
    store = make_store(retry=RetryPolicy(max_attempts=max_attempts))
    TableWriter(store).write(compress_relation(relation))
    table = RemoteTable.open(store, "t", on_corrupt=on_corrupt)
    store.set_faults(FaultProfile(seed=4, corrupt_rate=1.0))
    return table


class TestRemoteTableIntegrity:
    def test_persistent_corruption_degrades_or_raises(self, relation):
        registry = MetricsRegistry()
        with use_registry(registry):
            table = _corrupting_table(relation, max_attempts=3)
            with pytest.raises(IntegrityError):
                table.scan(columns=["a"])
        counters = registry.snapshot()["counters"]
        assert counters["cloud.table.integrity_refetches"] == 3
        assert counters["cloud.table.integrity_failures"] == 1

    def test_persistent_corruption_null_block_scan(self, relation):
        table = _corrupting_table(relation, max_attempts=2, on_corrupt="null_block")
        out = table.scan(columns=["a"])
        assert len(out.columns[0].data) == len(relation.columns[0].data)

    def test_unparseable_manifest_refetched_then_typed_error(self, relation):
        """A torn manifest fails its CRC32 and is refetched up to the retry
        budget, then fails with IntegrityError; a torn legacy manifest (no
        checksum) the same way with FormatError — never a raw
        JSONDecodeError. (Every single-bit flip: ``test_manifest_flips.py``.)"""
        import json

        store = make_store(retry=RetryPolicy(max_attempts=3))
        TableWriter(store).write(compress_relation(relation))
        (key,) = store.keys("t/_manifests/")
        committed = store.get(key)
        legacy = json.dumps(json.loads(committed)["manifest"]).encode("utf-8")
        for raw, error in ((committed, IntegrityError), (legacy, FormatError)):
            registry = MetricsRegistry()
            store.put(key, raw[:-40])  # torn on every download
            with use_registry(registry):
                with pytest.raises(error):
                    RemoteTable.open(store, "t")
            assert registry.snapshot()["counters"]["cloud.table.meta_refetches"] == 3

    def test_transient_faults_do_not_reach_integrity_layer(self, relation):
        registry = MetricsRegistry()
        store = make_store(
            FaultProfile(seed=5, transient_error_rate=0.3),
            retry=RetryPolicy(max_attempts=8),
        )
        with use_registry(registry):
            TableWriter(store).write(compress_relation(relation))
            table = RemoteTable.open(store, "t")
            out = table.scan()
        for original, restored in zip(relation.columns, out.columns):
            assert columns_equal(original, restored)
        counters = registry.snapshot()["counters"]
        assert counters.get("cloud.table.integrity_refetches", 0) == 0


# -- reports -------------------------------------------------------------------


class TestBrownoutEpisodes:
    def test_active_window_is_half_open(self):
        from repro.cloud.faults import BrownoutEpisode

        episode = BrownoutEpisode(start_seconds=1.0, duration_seconds=2.0)
        assert not episode.active(0.999999)
        assert episode.active(1.0)  # inclusive start
        assert episode.active(2.5)
        assert not episode.active(3.0)  # exclusive end
        assert episode.end_seconds == 3.0

    @pytest.mark.parametrize("seed", [0, 7, 202408])
    def test_seeded_episodes_are_deterministic_and_cover_the_burst(self, seed):
        from repro.cloud.faults import seeded_brownouts

        horizon = 10.0
        episodes = seeded_brownouts(seed, horizon)
        assert episodes == seeded_brownouts(seed, horizon)
        assert len(episodes) == 2
        # The contract chaos runs rely on, for *any* seed: the first episode
        # opens near t=0 and spans roughly half the horizon, so a workload's
        # arrival burst always meets degraded service.
        first = episodes[0]
        assert first.start_seconds <= 0.05 * horizon
        assert 0.45 * horizon <= first.duration_seconds <= 0.65 * horizon
        assert first.transient_error_rate >= 0.45
        assert first.extra_latency_seconds > 0

    def test_episode_latency_is_counted_and_only_inside_the_window(self):
        from repro.cloud.faults import BrownoutEpisode

        registry = MetricsRegistry()
        profile = FaultProfile(
            seed=3,
            episodes=(
                BrownoutEpisode(
                    start_seconds=1.0,
                    duration_seconds=1.0,
                    extra_latency_seconds=0.02,
                ),
            ),
        )
        injector = FaultInjector(profile)
        with use_registry(registry):
            assert injector.episode_latency(0.5) == 0.0  # before the window
            assert injector.episode_latency(1.5) == pytest.approx(0.02)
            assert injector.episode_latency(2.5) == 0.0  # after the window
        assert registry.get("cloud.faults.brownout_requests") == 1
        assert registry.get("cloud.faults.brownout_latency_seconds") == pytest.approx(
            0.02
        )

    def test_before_serve_rates_elevate_only_inside_the_window(self):
        from repro.cloud.faults import BrownoutEpisode

        # Base rates are zero; the episode saturates the transient rate, so
        # the roll's outcome depends purely on where the clock stands.
        profile = FaultProfile(
            seed=3,
            episodes=(
                BrownoutEpisode(
                    start_seconds=1.0,
                    duration_seconds=1.0,
                    transient_error_rate=1.0,
                ),
            ),
        )
        injector = FaultInjector(profile)
        with use_registry(MetricsRegistry()):
            injector.before_serve("k", now_seconds=0.5)  # quiet before
            with pytest.raises(TransientRequestError):
                injector.before_serve("k", now_seconds=1.5)
            injector.before_serve("k", now_seconds=2.5)  # quiet after

    def test_store_accrues_brownout_seconds_inside_the_window(self, relation):
        from repro.cloud.faults import BrownoutEpisode

        registry = MetricsRegistry()
        # A long, fault-free episode that only injects latency: every GET of
        # the scan lands inside it and must bill its extra seconds to the
        # store's transfer accounting.
        store = make_store(
            FaultProfile(
                seed=5,
                episodes=(
                    BrownoutEpisode(
                        start_seconds=0.0,
                        duration_seconds=1e6,
                        extra_latency_seconds=0.05,
                    ),
                ),
            )
        )
        with use_registry(registry):
            TableWriter(store).write(compress_relation(relation))
            store.stats.reset()
            store.clock.reset()
            RemoteTable.open(store, "t").scan()
        gets = store.stats.get_requests
        assert gets > 0
        assert store.stats.brownout_seconds == pytest.approx(0.05 * gets)
        assert registry.get("cloud.faults.brownout_requests") == gets


class TestReliabilityReport:
    def test_fault_free_report_has_no_reliability_section(self, relation):
        registry = MetricsRegistry()
        store = make_store()
        with use_registry(registry):
            TableWriter(store).write(compress_relation(relation))
            RemoteTable.open(store, "t").scan()
            report = build_report(registry)
        assert "reliability" not in report

    def test_faulty_scan_report_rolls_up_reliability(self, relation):
        registry = MetricsRegistry()
        store = make_store(
            FaultProfile(seed=6, transient_error_rate=0.4, timeout_rate=0.1),
            retry=RetryPolicy(max_attempts=10),
        )
        with use_registry(registry):
            TableWriter(store).write(compress_relation(relation))
            RemoteTable.open(store, "t").scan()
            report = build_report(registry)
        reliability = report["reliability"]
        assert reliability["faults"]["transient"] > 0
        assert reliability["retries"]["attempts"] > 0
        assert reliability["retries"]["backoff_seconds"] > 0.0

    def test_breaker_and_budget_counters_roll_up(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            registry.incr("cloud.breaker.opened")
            registry.incr("cloud.breaker.fast_fail", 3)
            registry.incr("retry.budget.spent", 5)
            registry.incr("retry.budget.exhausted")
            report = build_report(registry)
        reliability = report["reliability"]
        assert reliability["breaker"] == {"opened": 1, "fast_fail": 3}
        assert reliability["retry_budget"] == {"spent": 5, "exhausted": 1}
