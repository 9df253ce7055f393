"""Tests for the serialized BtrBlocks file layout."""

import numpy as np
import pytest

from repro.core.compressor import compress_relation
from repro.core.decompressor import decompress_relation
from repro.core.file_format import (
    column_from_bytes,
    column_to_bytes,
    relation_from_bytes,
    relation_to_bytes,
)
from repro.core.relation import Relation
from repro.exceptions import FormatError
from repro.types import Column, columns_equal


@pytest.fixture
def compressed_relation(rng):
    rel = Relation("sales", [
        Column.ints("id", rng.integers(0, 1000, 2000)),
        Column.doubles("price", np.round(rng.uniform(0, 50, 2000), 2)),
        Column.strings("region", [["north", "south"][i % 2] for i in range(2000)]),
    ])
    return rel, compress_relation(rel)


class TestColumnSerialization:
    def test_round_trip(self, compressed_relation):
        _, compressed = compressed_relation
        for column in compressed.columns:
            restored = column_from_bytes(column_to_bytes(column))
            assert restored.name == column.name
            assert restored.ctype == column.ctype
            assert [b.data for b in restored.blocks] == [b.data for b in column.blocks]

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            column_from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated(self, compressed_relation):
        _, compressed = compressed_relation
        blob = column_to_bytes(compressed.columns[0])
        with pytest.raises(FormatError):
            column_from_bytes(blob[: len(blob) // 2])

    def test_unicode_column_name(self, rng):
        from repro.core.compressor import compress_column

        col = Column.ints("prix_en_€", rng.integers(0, 5, 100))
        restored = column_from_bytes(column_to_bytes(compress_column(col)))
        assert restored.name == "prix_en_€"


class TestManifest:
    def test_one_object_per_column_plus_manifest(self, compressed_relation):
        import json

        from repro.cloud import SimulatedObjectStore, TableWriter

        _, compressed = compressed_relation
        store = SimulatedObjectStore()
        TableWriter(store).write(compressed)
        (manifest_key,) = store.keys("sales/_manifests/")
        assert len(store.keys("sales/")) == 4  # 3 columns + the manifest
        meta = json.loads(store.get(manifest_key))["manifest"]
        assert [c["name"] for c in meta["columns"]] == ["id", "price", "region"]
        for entry in meta["columns"]:
            assert entry["bytes"] == store.object_size(entry["file"])


class TestSingleBuffer:
    def test_round_trip(self, compressed_relation):
        rel, compressed = compressed_relation
        blob = relation_to_bytes(compressed)
        back = decompress_relation(relation_from_bytes(blob))
        assert all(columns_equal(a, b) for a, b in zip(rel.columns, back.columns))

    def test_missing_metadata_raises(self, compressed_relation):
        import json
        import struct

        _, compressed = compressed_relation
        blob = relation_to_bytes(compressed)
        (header_len,) = struct.unpack_from("<I", blob, 0)
        header = json.loads(blob[4 : 4 + header_len])
        header["files"]["sales/other.meta"] = header["files"].pop("sales/table.meta")
        renamed = json.dumps(header).encode("utf-8")
        with pytest.raises(FormatError, match="missing metadata file"):
            relation_from_bytes(
                struct.pack("<I", len(renamed)) + renamed + blob[4 + header_len :]
            )

    def test_size_close_to_sum_of_parts(self, compressed_relation):
        _, compressed = compressed_relation
        blob = relation_to_bytes(compressed)
        assert len(blob) < compressed.nbytes * 1.2 + 2000
