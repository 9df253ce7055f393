"""Every single-bit flip of a committed manifest, against the reader.

The manifest is the one object a handle trusts before any column byte moves:
it names the column files and carries their zone maps and block ranges. One
CRC32 over its body's exact bytes (``{"crc32":...,"manifest":<body>}``) is
checked before the body is parsed, so a flip anywhere — envelope, CRC
digits, body — must end as a typed error at ``open`` (after the store's
refetch budget) or not matter at all. Nothing may escape raw, answer wrong,
or raise after ``open`` from statistics ``open`` let through.

Every handle shares one process-wide memo of checked manifests keyed by
the object's exact bytes, so both sweeps run with the memo cold and with it
warmed by one clean ``open``, and two manifests forged to one length and one
CRC32 must each open to their own table.

The relation's values follow ``REPRO_FAULT_SEED``, so CI's randomised
fault-matrix step flips a different manifest each run.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pytest

from manifest_forge import forge_crc32
from repro.bitmap import RoaringBitmap
from repro.cloud import RetryPolicy, SimulatedObjectStore
from repro.cloud.remote_table import (
    RemoteTable,
    TableWriter,
    _manifests,
    clear_manifest_cache,
    manifest_key,
    manifest_to_bytes,
)
from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.relation import Relation
from repro.exceptions import FormatError, IntegrityError
from repro.observe import MetricsRegistry, use_registry
from repro.query import Between
from repro.types import Column, columns_equal

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20261019"), 0)
WHERE = {"k": Between(0, 20)}


def _relation(seed: int = FAULT_SEED) -> Relation:
    """Three columns in four 32-row blocks: a small manifest (~1 KB)
    whose zone map prunes ``WHERE`` to the first block."""
    rng = np.random.default_rng(seed)
    rows = 128
    return Relation(
        "t",
        [
            Column.ints("k", np.sort(rng.integers(0, 200, rows)).astype(np.int32)),
            Column.doubles("v", np.round(rng.random(rows) * 100, 2)),
            Column.strings(
                "s",
                [f"c{i}" for i in rng.integers(0, 6, rows)],
                nulls=RoaringBitmap.from_positions([3, 70]),
            ),
        ],
    )


class _DamageEachManifestGetOnce(SimulatedObjectStore):
    """Serves ``pending`` (a damaged manifest) for the next GET of the
    manifest, then the stored bytes again: a flip in transit, not at rest."""

    pending: "bytes | None" = None

    def get(self, key: str) -> bytes:
        data = super().get(key)
        if key.endswith(".json") and self.pending is not None:
            data, self.pending = self.pending, None
        return data


@pytest.fixture(scope="module")
def committed():
    relation = _relation()
    store = _DamageEachManifestGetOnce(retry=RetryPolicy(max_attempts=1))
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=32)))
    key = manifest_key("t", 1)
    table = RemoteTable.open(store, "t")
    registry = MetricsRegistry()
    with use_registry(registry):
        filtered = RemoteTable.open(store, "t").scan(where=WHERE)
    assert registry.get("cloud.scan.pruned_blocks") == 3  # the zone map is in play
    return store, key, store.get(key), relation, filtered, table._metadata


def _flipped(raw: bytes, bit: int) -> bytes:
    damaged = bytearray(raw)
    damaged[bit >> 3] ^= 1 << (bit & 7)
    return bytes(damaged)


def _check_answers(table: RemoteTable, relation: Relation, filtered) -> None:
    for got, want in zip(table.scan().columns, relation.columns):
        assert columns_equal(got, want)
    for got, want in zip(table.scan(where=WHERE).columns, filtered.columns):
        assert columns_equal(got, want)


def _prime(memo: str, store) -> None:
    """``cold``: an empty manifest memo; ``warm``: one clean ``open`` filled it."""
    clear_manifest_cache()
    if memo == "warm":
        RemoteTable.open(store, "t")


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_every_flip_at_rest_ends_typed_at_open(committed, memo):
    """The flip persists (every refetch sees it): ``open`` raises a typed
    error, or the table answers ``scan()`` and ``scan(where=)`` exactly —
    and any error after ``open`` fails the sweep, typed or not. A warm memo
    changes nothing: damaged bytes are another key and never enter it."""
    store, key, raw, relation, filtered, _ = committed
    outcomes = {"integrity": 0, "format": 0, "opened": 0}
    _prime(memo, store)
    try:
        for bit in range(8 * len(raw)):
            store.put(key, _flipped(raw, bit))
            try:
                table = RemoteTable.open(store, "t")
            except IntegrityError:
                outcomes["integrity"] += 1
                continue
            except FormatError:
                outcomes["format"] += 1
                continue
            outcomes["opened"] += 1
            _check_answers(table, relation, filtered)
    finally:
        store.put(key, raw)
    assert sum(outcomes.values()) == 8 * len(raw)
    # Only a flip in the envelope's first nine bytes makes the object look
    # unchecked; it then fails to parse as a manifest.
    assert outcomes["format"] <= 8 * 9
    assert outcomes["opened"] == 0, outcomes
    assert len(_manifests) == (memo == "warm") and (raw in _manifests) == (memo == "warm")


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_every_flip_in_transit_is_cured_by_one_refetch(committed, memo):
    """Each manifest GET is damaged once: every flip is caught, refetched
    once, and the handle reads the manifest as committed — the same
    refetches whether the clean bytes' memo entry is there or not."""
    store, key, raw, relation, filtered, metadata = committed
    store.retry = RetryPolicy(max_attempts=2)
    registry = MetricsRegistry()
    _prime(memo, store)
    try:
        with use_registry(registry):
            for bit in range(8 * len(raw)):
                if memo == "cold":
                    clear_manifest_cache()
                store.pending = _flipped(raw, bit)
                table = RemoteTable.open(store, "t")
                assert table._metadata == metadata, bit
                if bit % 509 == 0:
                    _check_answers(table, relation, filtered)
    finally:
        store.retry, store.pending = RetryPolicy(max_attempts=1), None
    flips = 8 * len(raw)
    assert registry.get("cloud.table.meta_refetches") == flips
    # Every damaged GET misses; the clean refetch hits only a warm memo.
    hits = flips if memo == "warm" else 0
    assert registry.get("cloud.table.manifest_cache.hit") == hits
    assert registry.get("cloud.table.manifest_cache.miss") == 2 * flips - hits


def test_manifests_of_one_length_and_one_crc32_open_their_own_tables():
    """Two committed manifests of equal length and equal CRC32 but other
    bytes, stored in turn under one object key: the memo is keyed by the
    bytes themselves, so each opens and scans to its own table, whichever
    was memoised first. (A memo keyed by the CRC32 or by the object key
    serves the first table for the second.)"""
    relations = [_relation(), _relation(FAULT_SEED + 1)]
    store = SimulatedObjectStore()
    bodies = []
    for version, relation in enumerate(relations, 1):
        TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=32)))
        bodies.append(json.loads(store.get(manifest_key("t", version)))["manifest"])
    store.delete(manifest_key("t", 2))
    key, bodies[1]["version"] = manifest_key("t", 1), 1
    sizes = [len(manifest_to_bytes(body)) for body in bodies]
    for body, size in zip(bodies, sizes):
        body["pad"] = "@" * (16 + max(sizes) - size)  # read by no one
    # Re-sign the second body with the first's CRC32 by flipping low bits of
    # its pad ("@".."O" stay plain JSON string characters).
    compact = [json.dumps(body, separators=(",", ":")).encode() for body in bodies]
    pad = compact[1].rindex(b'"pad":"') + 7
    bits = [8 * (pad + i) + bit for i in range(16) for bit in range(4)]
    forged = forge_crc32(compact[1], bits, zlib.crc32(compact[0]))
    raws = [manifest_to_bytes(bodies[0]), manifest_to_bytes(json.loads(forged))]
    assert len(raws[0]) == len(raws[1]) and raws[0] != raws[1]
    assert raws[0][:31] == raws[1][:31]  # one envelope: the same CRC32

    filtered = []
    for raw in raws:
        clear_manifest_cache()
        store.put(key, raw)
        filtered.append(RemoteTable.open(store, "t").scan(where=WHERE))
    for order in ((0, 1), (1, 0)):
        clear_manifest_cache()
        for i in order * 2:
            store.put(key, raws[i])
            table = RemoteTable.open(store, "t")
            _check_answers(table, relations[i], filtered[i])
    assert len(_manifests) == 2
    clear_manifest_cache()

