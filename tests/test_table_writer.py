"""Transactional table commits: versioned manifests, conflicts, recovery.

The crash *matrix* (kill the writer at every protocol step) lives in
``test_write_crash_matrix.py``; this file covers the sunny-day commit
protocol, version resolution on the read side, racing writers, and the
bookkeeping around :func:`repro.cloud.recover`.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cloud import RemoteTable, SimulatedObjectStore, TableWriter, recover
from repro.cloud.remote_table import (
    MANIFEST_DIR,
    clear_manifest_cache,
    manifest_key,
    version_prefix,
)
from repro.core.compressor import compress_relation
from repro.core.decompressor import decompress_relation
from repro.core.relation import Relation
from repro.exceptions import CommitConflictError, FormatError
from repro.observe import MetricsRegistry, use_registry
from repro.types import Column

SEED = int(os.environ.get("REPRO_FAULT_SEED", "192024773"), 0)


def make_relation(name: str = "trips", rows: int = 3000, offset: int = 0) -> Relation:
    rng = np.random.default_rng(SEED ^ offset)
    return Relation(name, [
        Column.ints("id", np.arange(offset, offset + rows)),
        Column.doubles("fare", np.round(rng.uniform(2.5, 99.0, rows), 2)),
    ])


@pytest.fixture
def store() -> SimulatedObjectStore:
    return SimulatedObjectStore()


class TestCommit:
    def test_write_then_open_round_trips(self, store):
        relation = make_relation()
        compressed = compress_relation(relation)
        version = TableWriter(store).write(compressed)
        assert version == 1
        table = RemoteTable.open(store, "trips")
        assert table.version == 1
        result = table.scan()
        original = decompress_relation(compressed)
        for got, want in zip(result.columns, original.columns):
            assert got.name == want.name
            np.testing.assert_array_equal(got.data, want.data)

    def test_manifest_layout(self, store):
        compressed = compress_relation(make_relation())
        TableWriter(store, writer_id="w7").write(compressed)
        key = manifest_key("trips", 1)
        assert key == "trips/_manifests/000001.json"
        manifest = json.loads(store.get(key).decode("utf-8"))["manifest"]
        assert manifest["name"] == "trips"
        assert manifest["version"] == 1
        assert [c["name"] for c in manifest["columns"]] == ["id", "fare"]
        for entry in manifest["columns"]:
            assert entry["file"].startswith(version_prefix("trips", 1))
            assert "w7-" in entry["file"]
            assert store.object_size(entry["file"]) == entry["bytes"]

    def test_versions_increment(self, store):
        writer = TableWriter(store)
        assert writer.write(compress_relation(make_relation(rows=500))) == 1
        assert writer.write(compress_relation(make_relation(rows=600))) == 2
        assert writer.committed_versions("trips") == [1, 2]
        assert writer.next_version("trips") == 3

    def test_open_resolves_latest_by_default(self, store):
        writer = TableWriter(store)
        writer.write(compress_relation(make_relation(rows=500)))
        writer.write(compress_relation(make_relation(rows=800)))
        table = RemoteTable.open(store, "trips")
        assert table.version == 2
        assert table.row_count == 800

    def test_open_pinned_version(self, store):
        writer = TableWriter(store)
        writer.write(compress_relation(make_relation(rows=500)))
        writer.write(compress_relation(make_relation(rows=800)))
        table = RemoteTable.open(store, "trips", version=1)
        assert table.version == 1
        assert table.row_count == 500

    def test_open_missing_pinned_version(self, store):
        TableWriter(store).write(compress_relation(make_relation()))
        with pytest.raises(FormatError):
            RemoteTable.open(store, "trips", version=9)

    def test_open_unwritten_table(self, store):
        with pytest.raises(FormatError, match="has no committed version"):
            RemoteTable.open(store, "nope")

    def test_commit_counters(self, store):
        registry = MetricsRegistry()
        with use_registry(registry):
            TableWriter(store).write(compress_relation(make_relation()))
        # 2 columns + 1 manifest staged, all bytes accounted.
        assert registry.get("cloud.write.objects_staged") == 3
        assert registry.get("cloud.write.tables_committed") == 1
        assert registry.get("cloud.write.rows_committed") == 3000
        total = sum(store.object_size(key) for key in store.keys("trips/"))
        assert registry.get("cloud.write.bytes_staged") == total


class TestConflicts:
    def test_second_writer_same_version_conflicts(self, store):
        compressed = compress_relation(make_relation())
        TableWriter(store, writer_id="a").write(compressed, version=1)
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(CommitConflictError):
                TableWriter(store, writer_id="b").write(compressed, version=1)
        assert registry.get("cloud.write.commit_conflicts") == 1
        # The loser left nothing behind: only the winner's objects exist.
        assert store.staged_bytes("trips/") == 0
        for key in store.keys(version_prefix("trips", 1)):
            assert "a-" in key

    def test_loser_retries_at_fresh_version(self, store):
        compressed = compress_relation(make_relation())
        TableWriter(store, writer_id="a").write(compressed, version=1)
        loser = TableWriter(store, writer_id="b")
        with pytest.raises(CommitConflictError):
            loser.write(compressed, version=1)
        assert loser.write(compressed) == 2
        assert RemoteTable.open(store, "trips").version == 2


class TestRecovery:
    def test_recover_clean_table_is_noop(self, store):
        TableWriter(store).write(compress_relation(make_relation()))
        keys_before = store.keys("trips/")
        report = recover(store, "trips")
        assert report.reclaimed_bytes == 0
        assert report.aborted_uploads == 0
        assert report.deleted_objects == 0
        assert store.keys("trips/") == keys_before

    def test_recover_sweeps_pending_uploads(self, store):
        TableWriter(store).write(compress_relation(make_relation()))
        uid = store.initiate_multipart(f"{version_prefix('trips', 2)}w9-col_0000.btr")
        store.upload_part(uid, 1, b"Z" * 512)
        report = recover(store, "trips")
        assert report.aborted_uploads == 1
        assert report.reclaimed_part_bytes == 512
        assert store.staged_bytes("trips/") == 0
        assert RemoteTable.open(store, "trips").version == 1

    def test_recover_sweeps_unreferenced_version_objects(self, store):
        # Writer died after completing its column objects but before the
        # manifest: the objects exist, nothing references them.
        TableWriter(store).write(compress_relation(make_relation()))
        orphan = f"{version_prefix('trips', 2)}w9-col_0000.btr"
        store.put(orphan, b"Y" * 256)
        report = recover(store, "trips")
        assert report.deleted_objects == 1
        assert report.deleted_bytes == 256
        assert orphan not in store.keys("trips/")
        assert RemoteTable.open(store, "trips").version == 1

    @staticmethod
    def _prime(memo: str, store, versions) -> None:
        """``cold``: an empty manifest memo; ``warm``: each clean version opened."""
        clear_manifest_cache()
        for version in versions if memo == "warm" else ():
            RemoteTable.open(store, "trips", version=version)

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_recover_pins_versions_with_unreadable_manifests(self, store, memo):
        TableWriter(store).write(compress_relation(make_relation()))
        self._prime(memo, store, [1])
        data_key = f"{version_prefix('trips', 2)}w0-col_0000.btr"
        store.put(data_key, b"X" * 128)
        store.put(manifest_key("trips", 2), b"{not json")
        report = recover(store, "trips")
        # Conservative: the garbled manifest might be a committed version
        # whose metadata got damaged — never delete its data.
        assert report.deleted_objects == 0
        assert data_key in store.keys("trips/")

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_recover_pins_versions_whose_manifest_fails_its_crc(self, store, memo):
        """One bit of a committed manifest's body flipped inside a file name:
        the JSON still parses and would reference a key that does not exist,
        leaving the version's real column object looking unreferenced. The
        CRC32 check makes the manifest unreadable instead, which pins its
        version: nothing it references is deleted — also when the memo
        holds the manifest's clean bytes."""
        writer = TableWriter(store)
        writer.write(compress_relation(make_relation()))
        writer.write(compress_relation(make_relation(rows=600)))
        self._prime(memo, store, [1, 2])
        key = manifest_key("trips", 2)
        raw = store.get(key)
        files = [entry["file"] for entry in json.loads(raw)["manifest"]["columns"]]
        position = raw.index(files[0].encode()) + len(files[0]) - 5  # "col_000<0>.btr"
        damaged = bytearray(raw)
        damaged[position] ^= 0x01
        store.put(key, bytes(damaged))
        keys_before = store.keys("trips/")
        report = recover(store, "trips")
        assert report.deleted_objects == 0
        assert store.keys("trips/") == keys_before
        assert all(name in keys_before for name in files)

    def test_recover_never_touches_other_tables(self, store):
        TableWriter(store).write(compress_relation(make_relation("other")))
        uid = store.initiate_multipart(f"{version_prefix('other', 2)}w0-col_0000.btr")
        store.upload_part(uid, 1, b"W" * 64)
        report = recover(store, "trips")
        assert report.aborted_uploads == 0
        assert store.staged_bytes("other/") == 64

    def test_recover_counters(self, store):
        uid = store.initiate_multipart(f"{version_prefix('trips', 1)}w0-col_0000.btr")
        store.upload_part(uid, 1, b"V" * 100)
        store.put(f"{version_prefix('trips', 1)}w1-col_0000.btr", b"U" * 50)
        registry = MetricsRegistry()
        with use_registry(registry):
            report = recover(store, "trips")
        assert registry.get("cloud.write.recovered_uploads") == 1
        assert registry.get("cloud.write.recovered_objects") == 1
        assert registry.get("cloud.write.recovered_bytes") == 150
        assert report.to_dict()["reclaimed_bytes"] == 150


class TestCli:
    def test_write_and_recover_smoke(self, tmp_path):
        from repro.cli import main
        from repro.core.file_format import relation_to_bytes

        compressed = compress_relation(make_relation(rows=800))
        path = tmp_path / "trips.btr"
        path.write_bytes(relation_to_bytes(compressed))
        report_path = tmp_path / "report.json"
        assert main(["write", str(path), "--recover", "-o", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["counters"]["cloud.write.tables_committed"] == 1

    def test_write_crash_exits_nonzero_and_recovers(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.file_format import relation_to_bytes

        compressed = compress_relation(make_relation(rows=800))
        path = tmp_path / "trips.btr"
        path.write_bytes(relation_to_bytes(compressed))
        assert main(["write", str(path), "--crash-after", "2",
                     "--seed", str(SEED), "--recover"]) == 1
        out = capsys.readouterr().out
        assert "crashed" in out
        assert "recovery:" in out
        assert "no committed version is visible" in out
