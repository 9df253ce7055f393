"""Golden wire-format conformance: the on-disk byte layout is frozen.

Every fixture in ``tests/golden/*.bin`` is the exact serialization of a
fixed input through one scheme (or through the column/relation file format).
The test re-encodes the same inputs and compares byte for byte, so a
refactor that silently changes the wire format -- a reordered field, a new
header byte, a different child cascade -- fails here instead of corrupting
readers of existing files.

When a format change is *intentional*, regenerate the fixtures and commit
them together with the change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_format.py

Inputs are hard-coded (no RNG) and the selector seed is fixed, so encoding
is fully deterministic.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core.compressor import compress_column, compress_relation, make_context
from repro.core.decompressor import decompress_block
from repro.core.file_format import (
    _COLUMN_MAGIC,
    column_to_bytes,
    relation_to_bytes,
)
from repro.core.relation import Relation
from repro.core.selector import SchemeSelector
from repro.encodings.base import SchemeId, get_scheme
from repro.encodings.wire import unwrap, wrap
from repro.types import Column, ColumnType, StringArray

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))

#: Decode-only fixtures: bytes an *older writer* wrote. Never regenerated and
#: never compared to today's writer; they must keep reading.
#: ``scheme_fsst.five_full_passes.bin`` is ``scheme_fsst.bin`` as an earlier
#: trainer wrote it, counting every generation on the whole sample — files in
#: the wild hold symbol tables trained that way. ``manifest.v2s.json`` and
#: ``relation.v2s.btr`` are the last manifest and ``.btr`` index written
#: before manifests gained their CRC32 envelope and packed zone records
#: (per-entry JSON ``stats`` and ``block_ranges`` instead).
DECODE_ONLY = {"scheme_fsst.five_full_passes.bin", "manifest.v2s.json", "relation.v2s.btr"}
#: Written and held by ``test_sole_survivor.py``; regeneration here leaves it alone.
HELD_ELSEWHERE = {"lakebench_partitions.json"}


def _encode(scheme_id: int, values) -> bytes:
    """One framed node: the scheme's exact bytes for a fixed input."""
    scheme = get_scheme(scheme_id)
    selector = SchemeSelector(seed=42)
    payload = scheme.compress(values, make_context(selector))
    return wrap(scheme.scheme_id, len(values), payload)


def _i32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int32)


def _f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _strings(values) -> StringArray:
    return StringArray.from_pylist(values)


def _fsst_urls() -> StringArray:
    return _strings([f"https://example.com/products/item?id={i % 7}" for i in range(96)])


def _fixture_relation() -> Relation:
    nulls = RoaringBitmap.from_positions([1, 3])
    return Relation(
        "golden",
        [
            Column.ints("runs", _i32([4] * 40 + [9] * 24)),
            Column.doubles("price", _f64([1.25, 8.50, 1.25, 99.99] * 16)),
            Column.strings("city", ["OSLO", "ATHENS"] * 32, nulls=nulls),
        ],
    )


def scheme_fixtures() -> dict[str, bytes]:
    """name -> frozen bytes, one entry per registered core scheme."""
    cities = _strings(["OSLO", "ATHENS", "OSLO", "RALEIGH"] * 24)
    urls = _fsst_urls()
    return {
        "uncompressed_int": _encode(SchemeId.UNCOMPRESSED_INT, _i32([3, -1, 7, 2**31 - 1])),
        "uncompressed_double": _encode(SchemeId.UNCOMPRESSED_DOUBLE, _f64([0.5, -0.0, 3.25])),
        "uncompressed_string": _encode(SchemeId.UNCOMPRESSED_STRING, _strings(["ab", "", "cde"])),
        "one_value_int": _encode(SchemeId.ONE_VALUE_INT, _i32([42] * 100)),
        "one_value_double": _encode(SchemeId.ONE_VALUE_DOUBLE, _f64([1.5] * 100)),
        "one_value_string": _encode(SchemeId.ONE_VALUE_STRING, _strings(["same"] * 100)),
        "rle_int": _encode(SchemeId.RLE_INT, _i32([1] * 30 + [2] * 50 + [3] * 20)),
        "rle_double": _encode(SchemeId.RLE_DOUBLE, _f64([0.5] * 40 + [2.5] * 60)),
        "dict_int": _encode(SchemeId.DICT_INT, _i32([5, 900000, 5, 77] * 32)),
        "dict_double": _encode(SchemeId.DICT_DOUBLE, _f64([1.25, 7.75, 1.25] * 40)),
        "dict_string": _encode(SchemeId.DICT_STRING, cities),
        "frequency_int": _encode(SchemeId.FREQUENCY_INT, _i32([7] * 90 + [1, 2, 3, 4, 5, 6])),
        "frequency_double": _encode(SchemeId.FREQUENCY_DOUBLE, _f64([0.0] * 90 + [1.5, 2.5])),
        "frequency_string": _encode(
            SchemeId.FREQUENCY_STRING, _strings(["hot"] * 90 + ["a", "b", "c"])
        ),
        "fastbp128": _encode(SchemeId.FAST_BP128, _i32(range(1000, 1256))),
        "fastpfor": _encode(SchemeId.FAST_PFOR, _i32([3] * 120 + [2**29] + [5] * 7)),
        "fsst": _encode(SchemeId.FSST, urls),
        "pseudodecimal": _encode(SchemeId.PSEUDODECIMAL, _f64([1.25, 99.99, 0.01, 123.45] * 32)),
    }


def file_fixtures() -> dict[str, bytes]:
    """Column-file, relation-file and manifest serializations of a fixed
    relation.

    Three container generations are frozen: the original checksum-less v1
    files keep their seed-era names (and exact bytes — the v1 writer must
    never drift, old files in the wild depend on it); the CRC32-checksummed
    v2 files live alongside under ``*.v2.*`` names, written stats-less so
    their bytes stayed stable when the statistics footer was introduced; and
    the stats-bearing column files — v2 plus the trailing ``ZMAP`` footer,
    the writer's default — under ``*.v2s.*``. The committed table manifest
    and the stats-bearing ``.btr`` carry the same statistics as packed
    zone records under ``*.v2z.*`` (their per-entry JSON predecessors are
    :data:`DECODE_ONLY`).
    """
    relation = _fixture_relation()
    compressed = compress_relation(relation)
    fixtures = {
        "relation.btr": relation_to_bytes(compressed, version=1),
        "relation.v2.btr": relation_to_bytes(compressed, version=2, with_stats=False),
        "relation.v2z.btr": relation_to_bytes(compressed, version=2, with_stats=True),
        "manifest.v2z.json": _manifest_fixture_bytes(compressed),
    }
    for column in compressed.columns:
        fixtures[f"column_{column.name}.btrc"] = column_to_bytes(column, version=1)
        fixtures[f"column_{column.name}.v2.btrc"] = column_to_bytes(
            column, version=2, with_stats=False
        )
        fixtures[f"column_{column.name}.v2s.btrc"] = column_to_bytes(
            column, version=2, with_stats=True
        )
    return fixtures


def _manifest_fixture_bytes(compressed) -> bytes:
    """The committed version-1 manifest of the fixed relation, statistics,
    block byte ranges and all. Fully deterministic: fixed inputs, fixed
    selector seed, fixed writer id."""
    from repro.cloud import SimulatedObjectStore
    from repro.cloud.remote_table import TableWriter, manifest_key

    store = SimulatedObjectStore()
    TableWriter(store).write(compressed, version=1)
    return store.get(manifest_key(compressed.name, 1))


def all_fixtures() -> dict[str, bytes]:
    fixtures = {f"scheme_{k}.bin": v for k, v in scheme_fixtures().items()}
    fixtures.update(file_fixtures())
    return fixtures


@pytest.fixture(scope="module")
def fixtures() -> dict[str, bytes]:
    return all_fixtures()


def test_regen_writes_fixtures(fixtures):
    """In regen mode, (re)write every .bin; otherwise check they all exist."""
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for stale in GOLDEN_DIR.glob("*.bin"):
            if stale.name not in DECODE_ONLY:
                stale.unlink()
        for stale in [*GOLDEN_DIR.glob("*.btr*"), *GOLDEN_DIR.glob("*.json")]:
            if stale.name not in DECODE_ONLY | HELD_ELSEWHERE:
                stale.unlink()
        for name, blob in fixtures.items():
            (GOLDEN_DIR / name).write_bytes(blob)
    missing = [name for name in fixtures if not (GOLDEN_DIR / name).exists()]
    assert not missing, f"golden fixtures missing (run with REPRO_REGEN_GOLDEN=1): {missing}"


def test_no_orphan_fixtures(fixtures):
    on_disk = {
        p.name
        for p in GOLDEN_DIR.iterdir()
        if p.suffix in {".bin", ".btr", ".btrc", ".json"}
    }
    assert on_disk == set(fixtures) | DECODE_ONLY | HELD_ELSEWHERE, "fixture set drifted from the test's inputs"


@pytest.mark.parametrize("name", sorted(all_fixtures()))
def test_bytes_match_golden(name, fixtures):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert fixtures[name] == expected, (
        f"{name}: serialized bytes differ from the committed golden fixture. "
        "If the wire-format change is intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1 and commit the new fixtures."
    )


# -- structural header invariants (independent of fixture bytes) ---------------


def test_node_header_layout():
    """Framed node = u8 scheme_id + u32 little-endian count + payload."""
    blob = _encode(SchemeId.ONE_VALUE_INT, _i32([7] * 513))
    assert blob[0] == SchemeId.ONE_VALUE_INT
    assert struct.unpack_from("<I", blob, 1)[0] == 513
    scheme_id, count, payload = unwrap(blob)
    assert (scheme_id, count) == (SchemeId.ONE_VALUE_INT, 513)
    assert blob[5:] == payload


def test_column_file_header_layout():
    """v1 column file = b"BTRC" + u8 type code + u16 name length + name..."""
    column = compress_column(Column.ints("answer", _i32([1, 2, 3])))
    blob = column_to_bytes(column, version=1)
    assert blob[:4] == _COLUMN_MAGIC == b"BTRC"
    type_code, name_len = struct.unpack_from("<BH", blob, 4)
    assert type_code == 0  # integer
    assert blob[7 : 7 + name_len] == b"answer"


def test_column_file_v2_header_layout():
    """v2 = b"BTR2" magic + header CRC32; block headers gain a CRC32 of
    (count, data, nulls)."""
    import zlib

    column = compress_column(Column.ints("answer", _i32([1, 2, 3])))
    blob = column_to_bytes(column)  # v2 is the default writer output
    assert blob[:4] == b"BTR2"
    pos = 7 + len(b"answer") + 4  # fixed header + name + u32 block_count
    (header_crc,) = struct.unpack_from("<I", blob, pos)
    assert header_crc == zlib.crc32(blob[:pos]) & 0xFFFFFFFF
    pos += 4
    count, data_len, nulls_len, checksum = struct.unpack_from("<IIII", blob, pos)
    assert count == 3
    block_data = blob[pos + 16 : pos + 16 + data_len]
    expected = zlib.crc32(block_data, zlib.crc32(struct.pack("<I", count)))
    assert checksum == expected & 0xFFFFFFFF


def test_v1_and_v2_fixtures_decode_identically(fixtures):
    """Backward compat: committed v1 files decode unchanged through the new
    reader, bit-identical to their v2 and stats-bearing v2s siblings."""
    from repro.core.decompressor import decompress_column
    from repro.core.file_format import column_from_bytes
    from repro.types import columns_equal

    for name in ("runs", "price", "city"):
        v1 = column_from_bytes((GOLDEN_DIR / f"column_{name}.btrc").read_bytes())
        v2 = column_from_bytes((GOLDEN_DIR / f"column_{name}.v2.btrc").read_bytes())
        v2s = column_from_bytes((GOLDEN_DIR / f"column_{name}.v2s.btrc").read_bytes())
        assert all(b.checksum is None for b in v1.blocks)
        assert all(b.checksum is not None for b in v2.blocks)
        # Stats ride only in the footer: v1 and stats-less v2 readers see none.
        assert all(b.stats is None for b in v1.blocks)
        assert all(b.stats is None for b in v2.blocks)
        assert v2s.block_stats is not None and not v2s.stats_invalid
        decoded = decompress_column(v1)
        assert columns_equal(decoded, decompress_column(v2))
        assert columns_equal(decoded, decompress_column(v2s))

    original = _fixture_relation()
    for rel_name in ("relation.btr", "relation.v2.btr", "relation.v2s.btr", "relation.v2z.btr"):
        from repro.core.file_format import relation_from_bytes

        restored = relation_from_bytes((GOLDEN_DIR / rel_name).read_bytes())
        for column, expected in zip(restored.columns, original.columns):
            assert columns_equal(decompress_column(column), expected)


def test_stats_footer_layout(fixtures):
    """Trailing stats section = b"ZMAP" + u8 version + u32 entry count +
    packed entries + u32 CRC32 over everything before it."""
    import zlib

    from repro.core.blockstats import stats_footer_from_bytes
    from repro.core.file_format import column_from_bytes

    plain = (GOLDEN_DIR / "column_runs.v2.btrc").read_bytes()
    blob = (GOLDEN_DIR / "column_runs.v2s.btrc").read_bytes()
    assert blob[: len(plain)] == plain, "stats must append, never rewrite"
    footer = blob[len(plain) :]
    assert footer[:4] == b"ZMAP"
    assert footer[4] == 1  # footer version
    (count,) = struct.unpack_from("<I", footer, 5)
    column = column_from_bytes(blob)
    assert count == len(column.blocks)
    (crc,) = struct.unpack_from("<I", footer, len(footer) - 4)
    assert crc == zlib.crc32(footer[:-4]) & 0xFFFFFFFF
    entries = stats_footer_from_bytes(footer)
    assert [e.row_count for e in entries] == [b.count for b in column.blocks]


def test_manifest_carries_stats_and_block_ranges(fixtures):
    """The committed manifest freezes the pruning contract: one CRC32 over
    the body's exact bytes, and per column one packed zone record per block
    (statistics, the block's bound CRC32 and its byte extent) plus a string
    column's per-block bounds."""
    import json
    import zlib

    from repro.core.blockstats import ZONE_RECORD, string_bounds_from_json, unpack_zone

    raw = (GOLDEN_DIR / "manifest.v2z.json").read_bytes()
    head = b'{"crc32":%10d,"manifest":' % zlib.crc32(raw[31:-1])
    assert raw[:31] == head and raw.endswith(b"}")
    manifest = json.loads(raw)["manifest"]
    assert manifest["name"] == "golden"
    assert manifest["format_version"] == 2
    assert ZONE_RECORD.itemsize == 41
    for entry in manifest["columns"]:
        records = unpack_zone(entry["zone"])
        assert len(records) == entry["blocks"]
        assert int(records["rows"].sum()) == entry["rows"]
        assert (records["crc"] != 0).all()
        assert (records["size"] >= 16).all()
        assert (records["offset"] + records["size"] <= entry["bytes"]).all()
        assert ("bounds" in entry) == (entry["type"] == "string")
    city = manifest["columns"][2]
    assert string_bounds_from_json(city["bounds"][0])[:2] == (b"ATHENS", b"OSLO")


def test_legacy_manifest_scans_without_its_statistics():
    """A manifest written before the CRC32 envelope still opens, and its
    tables scan correctly through full fetch-and-filter: its per-entry JSON
    ``stats`` are not read, so no zone map is consulted."""
    import json

    from repro.cloud import SimulatedObjectStore
    from repro.cloud.remote_table import RemoteTable, manifest_key
    from repro.observe import MetricsRegistry, use_registry
    from repro.query import Equals
    from repro.types import columns_equal

    legacy = (GOLDEN_DIR / "manifest.v2s.json").read_bytes()
    store = SimulatedObjectStore()
    store.put(manifest_key("golden", 1), legacy)
    for entry in json.loads(legacy)["columns"]:
        assert "stats" in entry and "zone" not in entry
        store.put(entry["file"], (GOLDEN_DIR / f"column_{entry['name']}.v2s.btrc").read_bytes())
    original = _fixture_relation()
    registry = MetricsRegistry()
    with use_registry(registry):
        table = RemoteTable.open(store, "golden")
        for got, want in zip(table.scan().columns, original.columns):
            assert columns_equal(got, want)
        filtered = table.scan(columns=["runs", "price"], where={"runs": Equals(9)})
    rows = np.flatnonzero(original.column("runs").data == 9)
    assert np.array_equal(filtered.column("runs").data, original.column("runs").data[rows])
    assert np.array_equal(filtered.column("price").data, original.column("price").data[rows])
    assert registry.get("cloud.scan.zonemap.consulted") == 0


def test_relation_file_header_is_json_index():
    import json

    blob = relation_to_bytes(compress_relation(_fixture_relation()))
    (header_len,) = struct.unpack_from("<I", blob, 0)
    header = json.loads(blob[4 : 4 + header_len])
    assert header["name"] == "golden"
    assert set(header["files"]) == {
        "golden/col_0000.btr",
        "golden/col_0001.btr",
        "golden/col_0002.btr",
        "golden/table.meta",
    }


def test_golden_blocks_still_decode(fixtures):
    """The frozen bytes must decode to the original fixed inputs."""
    out = decompress_block(
        (GOLDEN_DIR / "scheme_rle_int.bin").read_bytes(), ColumnType.INTEGER
    )
    assert np.array_equal(out, _i32([1] * 30 + [2] * 50 + [3] * 20))
    out = decompress_block(
        (GOLDEN_DIR / "scheme_pseudodecimal.bin").read_bytes(), ColumnType.DOUBLE
    )
    assert np.array_equal(out, _f64([1.25, 99.99, 0.01, 123.45] * 32))
    out = decompress_block(
        (GOLDEN_DIR / "scheme_dict_string.bin").read_bytes(), ColumnType.STRING
    )
    assert out == _strings(["OSLO", "ATHENS", "OSLO", "RALEIGH"] * 24)


def test_fsst_block_from_the_old_trainer_still_decodes():
    """An encoder choice moved (the training schedule), the format did not:
    the block the previous trainer wrote is different bytes from today's
    ``scheme_fsst.bin`` and decodes to the same 96 URLs, on both decode paths."""
    from repro.core.decompressor import make_context

    old = (GOLDEN_DIR / "scheme_fsst.five_full_passes.bin").read_bytes()
    assert old != (GOLDEN_DIR / "scheme_fsst.bin").read_bytes()
    scheme_id, count, payload = unwrap(old)
    assert (scheme_id, count) == (SchemeId.FSST, 96)
    assert decompress_block(old, ColumnType.STRING) == _fsst_urls()
    assert get_scheme(scheme_id).decompress(payload, count, make_context(False)) == _fsst_urls()
