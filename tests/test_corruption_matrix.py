"""Corruption-matrix harness: every byte of every scheme's output, damaged.

For each registered scheme we round-trip a representative block through the
checksummed (v2) column container, then flip bytes across a sampled grid of
positions and decode. The contract is a strict trichotomy — the outcome of
decoding damaged input must be exactly one of:

1. a **clean typed error** (``BtrBlocksError`` or a regular builtin error),
2. **checksum detection** (``IntegrityError``, the common case: CRC32
   catches any single-byte flip in a block's ``data + nulls``), or
3. **correct data** — bit-identical decoded values, possible only when the
   flip landed in container metadata outside the checksummed payload (the
   magic-adjacent name bytes, say).

Never a hang, never a crash, and — the reason checksums exist — never
silently wrong values passed off as success.

Raw *node* bytes (no container, no checksum) keep the weaker historical
contract from the original ``test_corruption.py``, which this module
absorbs: damaged nodes may decode to wrong values, but must fail only with
regular exceptions and never hang.

Degrade modes (``on_corrupt="skip"|"null_block"``) are exercised per scheme
with a guaranteed payload hit.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.baselines import lzb
from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedBlock, CompressedColumn
from repro.core.compressor import compress_block, compress_column
from repro.core.compressor import make_context as compression_context
from repro.core.decompressor import decompress_block, decompress_column
from repro.core.file_format import column_from_bytes, column_to_bytes, relation_from_bytes
from repro.core.selector import SchemeSelector
from repro.core.relation import Relation  # noqa: F401  (imported for fixtures)
from repro.encodings.base import all_schemes
from repro.encodings.wire import wrap
from repro.exceptions import BtrBlocksError
from repro.types import Column, ColumnType, StringArray

from manifest_forge import edit_zone, forge

#: Damage may surface as any *typed* error — library errors (including
#: IntegrityError) or the regular builtins a parser hits on garbage.
ACCEPTABLE = (
    BtrBlocksError,
    ValueError,
    KeyError,
    IndexError,
    OverflowError,
    EOFError,
    struct.error,
)

#: Deterministic default; CI's fault-matrix job also runs one randomized
#: seed (echoed in its log) through this knob.
MATRIX_SEED = int(os.environ.get("REPRO_FAULT_SEED", "192024773"), 0)


# -- representative inputs per scheme ------------------------------------------


def _i32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int32)


def _f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


_INT_INPUT = _i32([5, 900000, 5, 77] * 32 + list(range(1000, 1064)))
_DOUBLE_INPUT = _f64([1.25, 99.99, 0.01, 123.45] * 32)
_STRING_INPUT = StringArray.from_pylist(["OSLO", "ATHENS", "OSLO", "RALEIGH"] * 24)

#: Schemes that only accept constrained inputs.
_SPECIAL_INPUTS = {
    "one value int": _i32([42] * 100),
    "one value double": _f64([1.5] * 100),
    "one value string": StringArray.from_pylist(["same"] * 100),
    "rle int": _i32([1] * 30 + [2] * 50 + [3] * 20),
    "rle double": _f64([0.5] * 40 + [2.5] * 60),
    "frequency int": _i32([7] * 90 + [1, 2, 3, 4, 5, 6]),
    "frequency double": _f64([0.0] * 90 + [1.5, 2.5]),
    "frequency string": StringArray.from_pylist(["hot"] * 90 + ["a", "b", "c"]),
    "fsst": StringArray.from_pylist(
        [f"https://example.com/products/item?id={i % 7}" for i in range(96)]
    ),
}

_DEFAULT_INPUTS = {
    ColumnType.INTEGER: _INT_INPUT,
    ColumnType.DOUBLE: _DOUBLE_INPUT,
    ColumnType.STRING: _STRING_INPUT,
}


def scheme_input(scheme):
    return _SPECIAL_INPUTS.get(scheme.name, _DEFAULT_INPUTS[scheme.ctype])


def encode_scheme_container(scheme, values) -> bytes:
    """One block compressed by exactly this scheme, in a v2 column file."""
    selector = SchemeSelector(seed=7)
    payload = scheme.compress(values, compression_context(selector))
    node = wrap(scheme.scheme_id, len(values), payload)
    column = CompressedColumn("c", scheme.ctype)
    column.blocks.append(CompressedBlock(len(values), node))
    return column_to_bytes(column)


def values_equal(ctype: ColumnType, original, restored) -> bool:
    if len(restored) != len(original):
        return False
    if ctype is ColumnType.DOUBLE:
        return bool(
            np.array_equal(
                np.asarray(original, dtype=np.float64).view(np.uint64),
                np.asarray(restored, dtype=np.float64).view(np.uint64),
            )
        )
    if ctype is ColumnType.INTEGER:
        return bool(np.array_equal(np.asarray(original), np.asarray(restored)))
    return original == restored


def sampled_positions(length: int, rng: np.random.Generator, extra: int = 8) -> list[int]:
    """A grid over every container region plus a few random positions."""
    step = max(1, length // 40)
    grid = set(range(0, length, step))
    grid |= set(range(min(24, length)))  # dense over magic/type/name/headers
    grid |= {length - i for i in range(1, min(5, length) + 1)}
    grid |= {int(p) for p in rng.integers(0, length, extra)}
    return sorted(p for p in grid if 0 <= p < length)


def assert_trichotomy(blob: bytes, ctype: ColumnType, original, position: int, pattern: int):
    """Flip one byte; outcome must be typed-error, detection, or correct data."""
    damaged = bytearray(blob)
    damaged[position] ^= pattern
    if bytes(damaged) == blob:
        return
    try:
        column = column_from_bytes(bytes(damaged))
        out = decompress_column(column)  # on_corrupt="raise" -> IntegrityError
    except ACCEPTABLE:
        return
    assert values_equal(ctype, original, out.data), (
        f"byte {position} ^ {pattern:#x}: decode succeeded with WRONG values "
        f"(silent corruption — checksum failed to detect)"
    )


_SCHEMES = all_schemes()


@pytest.mark.parametrize("scheme", _SCHEMES, ids=[s.name.replace(" ", "_") for s in _SCHEMES])
def test_scheme_corruption_matrix(scheme):
    """Single-byte damage anywhere in a v2 container is never silent."""
    values = scheme_input(scheme)
    blob = encode_scheme_container(scheme, values)
    rng = np.random.default_rng(MATRIX_SEED ^ scheme.scheme_id)
    for position in sampled_positions(len(blob), rng):
        for pattern in (0xFF, 0x01):
            assert_trichotomy(blob, scheme.ctype, values, position, pattern)


@pytest.mark.parametrize("scheme", _SCHEMES, ids=[s.name.replace(" ", "_") for s in _SCHEMES])
def test_scheme_payload_hit_detected_and_degradable(scheme):
    """A flip inside the checksummed payload is detected, and the degrade
    modes turn it into dropped or NULLed rows instead of an error."""
    values = scheme_input(scheme)
    blob = encode_scheme_container(scheme, values)
    # v2 layout: 4 magic + 3 type/name-len + 1 name + 4 block_count
    # + 4 header CRC + 16 block header.
    data_start = 4 + 3 + 1 + 4 + 4 + 16
    damaged = bytearray(blob)
    damaged[data_start + (len(blob) - data_start) // 2] ^= 0x10
    column = column_from_bytes(bytes(damaged))

    from repro.exceptions import IntegrityError

    with pytest.raises(IntegrityError):
        decompress_column(column)
    skipped = decompress_column(column, on_corrupt="skip")
    assert len(skipped.data) == 0
    nulled = decompress_column(column, on_corrupt="null_block")
    assert len(nulled.data) == len(values)
    assert nulled.nulls is not None and len(nulled.nulls) == len(values)


@pytest.mark.parametrize(
    "ctype,values",
    [
        (ColumnType.INTEGER, _INT_INPUT),
        (ColumnType.DOUBLE, _DOUBLE_INPUT),
        (ColumnType.STRING, _STRING_INPUT),
    ],
    ids=["integer", "double", "string"],
)
def test_pipeline_column_corruption_matrix(ctype, values):
    """Same trichotomy for selector-chosen cascades, with NULLs in play."""
    nulls = RoaringBitmap.from_positions([1, 5, 17])
    if ctype is ColumnType.INTEGER:
        column = Column.ints("c", values, nulls=nulls)
    elif ctype is ColumnType.DOUBLE:
        column = Column.doubles("c", values, nulls=nulls)
    else:
        column = Column.strings("c", values, nulls=nulls)
    blob = column_to_bytes(compress_column(column))
    rng = np.random.default_rng(MATRIX_SEED ^ 0xC01)
    for position in sampled_positions(len(blob), rng):
        assert_trichotomy(blob, ctype, values, position, 0xFF)


# -- raw nodes (no container, no checksum): the historical weaker contract ----


@pytest.fixture
def int_blob(rng):
    return compress_block(
        np.repeat(rng.integers(0, 30, 100), 20).astype(np.int32), ColumnType.INTEGER
    )


@pytest.fixture
def string_blob():
    sa = StringArray.from_pylist([f"value-{i % 11}" for i in range(2000)])
    return compress_block(sa, ColumnType.STRING)


def _attempt(fn):
    """Run fn; pass when it succeeds or raises a regular exception."""
    try:
        fn()
    except ACCEPTABLE:
        pass


class TestNodeTruncation:
    @pytest.mark.parametrize("keep", [0, 1, 4, 5, 9, 17, 33])
    def test_truncated_int_block(self, int_blob, keep):
        _attempt(lambda: decompress_block(int_blob[:keep], ColumnType.INTEGER))

    def test_truncated_string_block(self, string_blob):
        for keep in (3, 8, len(string_blob) // 2, len(string_blob) - 3):
            _attempt(lambda: decompress_block(string_blob[:keep], ColumnType.STRING))

    def test_empty_input(self):
        with pytest.raises(ACCEPTABLE):
            decompress_block(b"", ColumnType.INTEGER)


class TestNodeBitFlips:
    def test_flipped_bytes_never_hang(self, int_blob, rng):
        for _ in range(50):
            corrupted = bytearray(int_blob)
            pos = int(rng.integers(0, len(corrupted)))
            corrupted[pos] ^= 0xFF
            _attempt(lambda: decompress_block(bytes(corrupted), ColumnType.INTEGER))

    def test_flipped_scheme_id(self, int_blob):
        corrupted = bytes([200]) + int_blob[1:]
        with pytest.raises(ACCEPTABLE):
            decompress_block(corrupted, ColumnType.INTEGER)

    def test_string_blob_flips(self, string_blob, rng):
        for _ in range(50):
            corrupted = bytearray(string_blob)
            pos = int(rng.integers(0, len(corrupted)))
            corrupted[pos] ^= rng.integers(1, 255)
            _attempt(lambda: decompress_block(bytes(corrupted), ColumnType.STRING))


class TestChecksumlessNodesFailTyped:
    """Damage a CRC cannot catch (v1 / in-memory blocks) must still not decode
    to values that were never stored: out-of-range dictionary codes wrap in
    ``take`` / fancy indexing, unknown FSST codes used to decode to nothing."""

    @staticmethod
    def _nodes():
        from test_decode_limits_fuzz import TestHostileFSSTTables
        from test_dictionary import TestOutOfRangeCodes

        from repro.encodings.base import SchemeId

        codes = TestOutOfRangeCodes()
        fsst = TestHostileFSSTTables._payload
        return {
            "dict string, negative code": (
                SchemeId.DICT_STRING, 4, codes._string_payload([0, -2, 2, -3], rle=False)),
            "dict string, negative run code": (
                SchemeId.DICT_STRING, 20, codes._string_payload(np.repeat([0, -2, 2, 1], 5), rle=True)),
            "dict int, negative code": (
                SchemeId.DICT_INT, 4, codes._numeric_payload([0, -1, 2, -3], rle=False)),
            "dict int, negative run code": (
                SchemeId.DICT_INT, 20, codes._numeric_payload(np.repeat([0, -1, 2, 1], 5), rle=True)),
            "fsst, code outside the table": (
                SchemeId.FSST, 1, fsst([b"a", b"b"], bytes([0, 1, 7, 0]), [3])),
            "fsst, oversized symbol": (
                SchemeId.FSST, 1, fsst([b"123456789"], bytes([0]), [9])),
        }

    @pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
    def test_v1_container_with_wrapped_codes_raises(self, vectorized):
        from repro.encodings.base import get_scheme

        for label, (scheme_id, count, payload) in self._nodes().items():
            column = CompressedColumn("c", get_scheme(scheme_id).ctype)
            column.blocks.append(CompressedBlock(count, wrap(scheme_id, count, payload)))
            restored = column_from_bytes(column_to_bytes(column, version=1))
            assert restored.blocks[0].checksum is None, label
            with pytest.raises(BtrBlocksError):
                decompress_column(restored, vectorized=vectorized)
            for policy in ("skip", "null_block"):  # degradable like any corrupt block
                out = decompress_column(restored, vectorized=vectorized, on_corrupt=policy)
                assert len(out.data) == (0 if policy == "skip" else count), label


class TestContainers:
    def test_garbage_column_file(self, rng):
        with pytest.raises(ACCEPTABLE):
            column_from_bytes(rng.bytes(64))

    def test_garbage_relation_file(self, rng):
        with pytest.raises(ACCEPTABLE):
            relation_from_bytes(rng.bytes(128))

    def test_truncated_column_file(self):
        blob = encode_scheme_container(_SCHEMES[0], scheme_input(_SCHEMES[0]))
        for keep in range(0, len(blob), max(1, len(blob) // 25)):
            _attempt(lambda: column_from_bytes(blob[:keep]))

    def test_lzb_garbage(self, rng):
        for _ in range(30):
            _attempt(lambda: lzb.decompress(bytes([2]) + rng.bytes(40)))


# -- persisted statistics (zone maps): damaged stats never change an answer ----
#
# Zone maps are pure pruning metadata, so they get a contract *stronger*
# than the trichotomy above: any damage to the statistics — footer byte
# flips, truncation, tampered or stale manifest entries — must either be
# rejected up front (``on_corrupt="raise"`` -> IntegrityError) or degrade
# to the full fetch-and-filter path and return exactly the clean answer.
# Wrong rows are never acceptable, because the data itself is intact.


def _stats_relation() -> "Relation":
    """Two same-shape int columns with disjoint value ranges per block, so
    stale statistics (one column's stats describing the other) both prune
    wrongly *and* leave overlap for a mid-range predicate to fetch through."""
    n = 4000
    forward = np.arange(n, dtype=np.int32)
    return Relation(
        "zm",
        [
            Column.ints("fwd", forward),
            Column.ints("rev", forward[::-1].copy()),
            Column.doubles("pay", np.round(np.linspace(0.0, 99.0, n), 2)),
        ],
    )


def _committed(relation):
    from repro.cloud import SimulatedObjectStore
    from repro.cloud.remote_table import TableWriter
    from repro.core.compressor import compress_relation
    from repro.core.config import BtrBlocksConfig

    store = SimulatedObjectStore()
    TableWriter(store).write(
        compress_relation(relation, BtrBlocksConfig(block_size=512))
    )
    return store


def _stats_column_blob():
    """A multi-block int column with its stats footer, plus the footer's
    byte offset inside the serialized file."""
    from repro.core.config import BtrBlocksConfig
    from repro.core.file_format import column_block_ranges

    column = compress_column(
        Column.ints("v", np.arange(2000, dtype=np.int32)),
        BtrBlocksConfig(block_size=512),
    )
    blob = column_to_bytes(column)
    offset, size = column_block_ranges(column)[-1]
    return column, blob, offset + size


class TestZoneMapCorruption:
    _shared: dict = {}

    def setup_method(self):
        from repro.query.predicates import Between

        if not self._shared:
            relation = _stats_relation()
            self._shared["relation"] = relation
            self._shared["clean"] = None
        self.relation = self._shared["relation"]
        self.where = {"fwd": Between(1900, 2100)}
        if self._shared["clean"] is None:
            self._shared["clean"] = self._scan(
                _committed(self.relation), "raise", where=self.where
            )
        self.clean_filtered = self._shared["clean"]

    @staticmethod
    def _scan(store, on_corrupt, where=None, registry=None):
        from repro.cloud.remote_table import RemoteTable
        from repro.observe import MetricsRegistry, use_registry

        registry = registry if registry is not None else MetricsRegistry()
        with use_registry(registry):
            table = RemoteTable.open(store, "zm", on_corrupt=on_corrupt)
            return table.scan(columns=["fwd", "pay"], where=where)

    def _scan_clean_equal(self, store, on_corrupt, registry=None):
        from repro.types import columns_equal

        got = self._scan(store, on_corrupt, where=self.where, registry=registry)
        for mine, theirs in zip(got.columns, self.clean_filtered.columns):
            assert columns_equal(mine, theirs)

    # -- the column-file footer ------------------------------------------------

    def test_footer_flip_matrix(self):
        """A flip anywhere in the trailing ZMAP section can at worst drop
        the statistics; decoded data must stay bit-identical, always."""
        column, blob, footer_start = _stats_column_blob()
        assert footer_start < len(blob), "fixture must carry a stats footer"
        clean = decompress_column(column_from_bytes(blob))
        rng = np.random.default_rng(MATRIX_SEED ^ 0x2AAF)
        positions = set(range(footer_start, min(footer_start + 32, len(blob))))
        positions |= {len(blob) - i for i in range(1, 6)}
        positions |= {int(p) for p in rng.integers(footer_start, len(blob), 16)}
        for position in sorted(positions):
            for pattern in (0xFF, 0x01):
                damaged = bytearray(blob)
                damaged[position] ^= pattern
                restored = column_from_bytes(bytes(damaged))
                out = decompress_column(restored)
                assert values_equal(ColumnType.INTEGER, clean.data, out.data), (
                    f"footer byte {position} ^ {pattern:#x} changed decoded data"
                )
                if restored.block_stats is not None and not restored.stats_invalid:
                    # CRC32 catches every single-byte flip, so surviving
                    # stats can only mean the flip landed in ignorable
                    # trailing garbage after a non-ZMAP magic.
                    assert [s.row_count for s in restored.block_stats] == [
                        b.count for b in column.blocks
                    ]

    def test_footer_truncation_matrix(self):
        column, blob, footer_start = _stats_column_blob()
        clean = decompress_column(column_from_bytes(blob))
        for keep in range(footer_start, len(blob), max(1, (len(blob) - footer_start) // 12)):
            restored = column_from_bytes(blob[:keep])
            out = decompress_column(restored)
            assert values_equal(ColumnType.INTEGER, clean.data, out.data)
            assert restored.block_stats is None

    # -- the manifest ----------------------------------------------------------

    def _tampered_store(self, mutate, sign=True):
        """A committed table whose manifest body was edited by ``mutate``
        and re-signed (or left under its old CRC32 when ``sign`` is false)."""
        from repro.cloud.remote_table import manifest_key

        store = _committed(self.relation)
        forge(store, manifest_key("zm", 1), mutate, sign=sign)
        return store

    def test_unsigned_stats_edit_fails_the_manifest_crc(self):
        """Edited zone records that were not re-signed fail the manifest's
        CRC32: ``open`` refetches, then raises under every policy — no
        scan ever sees the edited statistics."""
        from repro.exceptions import IntegrityError

        def mutate(manifest):
            def exclude_all(records):
                records["lo"][2], records["hi"][2] = 10**9, 2 * 10**9

            edit_zone(manifest["columns"][0], exclude_all)

        for policy in ("raise", "skip", "null_block"):
            with pytest.raises(IntegrityError):
                self._scan(self._tampered_store(mutate, sign=False), policy, where=self.where)

    def test_truncated_manifest_stats_raise_or_degrade(self):
        from repro.exceptions import IntegrityError
        from repro.observe import MetricsRegistry

        def drop_record(manifest):
            edit_zone(manifest["columns"][0], lambda records: records[:-1])

        with pytest.raises(IntegrityError):  # not re-signed: the manifest CRC32
            self._scan(self._tampered_store(drop_record, sign=False), "skip", where=self.where)
        # Re-signed, so only the record-count check can object.
        with pytest.raises(IntegrityError):
            self._scan(self._tampered_store(drop_record), "raise", where=self.where)
        registry = MetricsRegistry()
        self._scan_clean_equal(self._tampered_store(drop_record), "skip", registry)
        assert registry.get("cloud.scan.zonemap.invalid") >= 1

    def test_implausible_block_ranges_raise_or_degrade(self):
        from repro.exceptions import IntegrityError
        from repro.observe import MetricsRegistry

        def mutate(manifest):
            def beyond_file(records):
                records["size"][1] = 10**9

            edit_zone(manifest["columns"][0], beyond_file)

        with pytest.raises(IntegrityError):
            self._scan(self._tampered_store(mutate), "raise", where=self.where)
        registry = MetricsRegistry()
        self._scan_clean_equal(self._tampered_store(mutate), "null_block", registry)
        assert registry.get("cloud.scan.zonemap.invalid") >= 1

    def test_stale_stats_caught_by_checksum_binding(self):
        """Statistics written for *different data* — internally consistent,
        manifest CRC valid — are unmasked the moment any described block is
        fetched: its content CRC32 does not match the record's binding. The
        scan falls back and answers from the real data."""
        from repro.observe import MetricsRegistry

        def swap_stats(manifest):
            cols = {c["name"]: c for c in manifest["columns"]}
            # fwd's blocks hold ascending ranges, rev's descending: rev's
            # stats over fwd mis-describe every block, but the mid-range
            # predicate still leaves the middle blocks unpruned.
            cols["fwd"]["zone"], cols["rev"]["zone"] = cols["rev"]["zone"], cols["fwd"]["zone"]

        registry = MetricsRegistry()
        self._scan_clean_equal(self._tampered_store(swap_stats), "skip", registry)
        assert registry.get("cloud.scan.zonemap.invalid") >= 1

    def test_missing_stats_is_not_an_error(self):
        """A manifest without statistics (a stats-less write) is not damage:
        every policy answers identically, zero invalid-counter events."""
        from repro.observe import MetricsRegistry

        def strip(manifest):
            for column in manifest["columns"]:
                column.pop("zone", None)
                column.pop("bounds", None)

        for policy in ("raise", "skip", "null_block"):
            registry = MetricsRegistry()
            self._scan_clean_equal(self._tampered_store(strip), policy, registry)
            assert registry.get("cloud.scan.zonemap.invalid") == 0


# -- concurrent readers over shared caches ------------------------------------
#
# Serving multiplexes tenants with *different* degradation policies over one
# shared column cache and one shared decode cache. The contract extends the
# trichotomy across tenants: one tenant scanning damage under a lenient
# policy ("null_block"/"skip") gets degraded rows for itself, but nothing it
# pulled through the shared caches may ever surface as another tenant's
# *clean* data. A strict ("raise") tenant racing it sees either a typed
# error or bit-identical clean values — never the lenient tenant's nulls,
# never the damaged bytes.


def _served_store():
    """One committed table plus its pristine relation, small blocks."""
    from repro.cloud import SimulatedObjectStore
    from repro.cloud.remote_table import TableWriter
    from repro.core.compressor import compress_relation
    from repro.core.config import BtrBlocksConfig

    rng = np.random.default_rng(MATRIX_SEED)
    n = 1200
    relation = Relation(
        "shared",
        [
            Column.ints("code", rng.integers(0, 50, n).astype(np.int32)),
            Column.doubles("price", np.round(rng.random(n) * 100, 2)),
            Column.strings("city", [f"city-{i:03d}" for i in rng.integers(0, 40, n)]),
        ],
    )
    store = SimulatedObjectStore()
    TableWriter(store).write(
        compress_relation(relation, BtrBlocksConfig(block_size=256))
    )
    return store, relation


def _damage_column_object(store, table, column):
    """Flip one byte deep inside a column object *at rest* (every refetch
    sees the same damage, so retries cannot heal it). Returns an undo."""
    from repro.cloud.remote_table import RemoteTable

    entry = RemoteTable.open(store, table).column_entry(column)
    key = entry["file"]
    pristine = store._objects[key]
    position = len(pristine) // 2  # payload-ish; CRC32 catches any flip
    damaged = bytearray(pristine)
    damaged[position] ^= 0xFF
    store._objects[key] = bytes(damaged)

    def undo():
        store._objects[key] = pristine

    return undo


class TestConcurrentReadersShareCachesSafely:
    @pytest.mark.parametrize("lenient_mode", ["null_block", "skip"])
    def test_degraded_blocks_never_cross_tenants(self, lenient_mode):
        from repro.cloud.remote_table import RemoteTable
        from repro.cloud.retry import RetryPolicy
        from repro.core.cache import ByteBudgetLRU, DecodeCache
        from repro.observe import MetricsRegistry, use_registry
        from repro.types import columns_equal

        with use_registry(MetricsRegistry()):
            store, relation = _served_store()
            store.retry = RetryPolicy(max_attempts=2)
            column_cache = ByteBudgetLRU(1 << 24)
            decode_cache = DecodeCache(1 << 24)
            lenient = RemoteTable.open(
                store,
                "shared",
                on_corrupt=lenient_mode,
                column_cache=column_cache,
                decode_cache=decode_cache,
            )
            strict = RemoteTable.open(
                store,
                "shared",
                on_corrupt="raise",
                column_cache=column_cache,
                decode_cache=decode_cache,
            )
            undo = _damage_column_object(store, "shared", "code")

            # The lenient tenant scans the damage: degraded rows (or, for
            # flips outside any checksummed payload, a typed parse error) —
            # and primes the shared caches either way.
            try:
                degraded = lenient.scan(["code"]).column("code")
            except ACCEPTABLE:
                degraded = None
            if degraded is not None:
                assert not columns_equal(degraded, relation.column("code")), (
                    "a checksummed flip decoded bit-identically -- the "
                    "damage helper missed every payload"
                )

            # The strict tenant racing it: typed error or clean, never the
            # lenient tenant's degradation served as data.
            try:
                racing = strict.scan(["code"]).column("code")
            except ACCEPTABLE:
                racing = None
            if racing is not None:
                assert columns_equal(racing, relation.column("code"))

            # Repair the object. The strict tenant must now read pristine
            # values -- nothing damaged or degraded lingered in the shared
            # caches from the lenient tenant's scan.
            undo()
            healed = strict.scan(["code"]).column("code")
            assert columns_equal(healed, relation.column("code"))
            # And the lenient tenant heals too (its degraded column was
            # never cached, not even for itself).
            healed_lenient = lenient.scan(["code"]).column("code")
            assert columns_equal(healed_lenient, relation.column("code"))

    @pytest.mark.parametrize("lenient_mode", ["null_block", "skip"])
    def test_warm_string_blocks_never_stand_in_for_a_damaged_download(self, lenient_mode):
        """The same contract with the decode cache *warm*: once both tenants
        have scanned the clean string column its decoded blocks sit in the
        shared cache, and a later damaged download must still degrade (or
        raise) per tenant — never be papered over with the cached rows."""
        from repro.cloud.remote_table import RemoteTable
        from repro.cloud.retry import RetryPolicy
        from repro.core.cache import ByteBudgetLRU, DecodeCache
        from repro.observe import MetricsRegistry, use_registry
        from repro.types import columns_equal

        with use_registry(MetricsRegistry()):
            store, relation = _served_store()
            store.retry = RetryPolicy(max_attempts=2)
            column_cache = ByteBudgetLRU(1 << 24)
            decode_cache = DecodeCache(1 << 24)
            lenient, strict = (
                RemoteTable.open(
                    store,
                    "shared",
                    on_corrupt=mode,
                    column_cache=column_cache,
                    decode_cache=decode_cache,
                )
                for mode in (lenient_mode, "raise")
            )
            pristine = relation.column("city")
            lenient.scan(["city"])
            assert len(decode_cache) == 0  # a first decode keeps no strings
            strict.scan(["city"])  # ...the second handle's finds the column held
            blocks = lenient.column_entry("city")["blocks"]
            assert len(decode_cache) == blocks

            # Forget the compressed column and damage it at rest: every
            # read now downloads bad bytes over a cache full of good rows.
            column_cache.clear()
            undo = _damage_column_object(store, "shared", "city")
            try:
                degraded = lenient.scan(["city"]).column("city")
            except ACCEPTABLE:
                degraded = None
            if degraded is not None:
                assert not columns_equal(degraded, pristine), (
                    "a damaged download was answered from the warm cache"
                )
            try:
                racing = strict.scan(["city"]).column("city")
            except ACCEPTABLE:
                racing = None
            if racing is not None:
                assert columns_equal(racing, pristine)
            assert len(decode_cache) == blocks  # nothing degraded went in

            undo()
            assert columns_equal(strict.scan(["city"]).column("city"), pristine)
            assert columns_equal(lenient.scan(["city"]).column("city"), pristine)

    @pytest.mark.parametrize("lenient_mode", ["null_block", "skip"])
    def test_scan_server_isolates_degradation_between_tenants(self, lenient_mode):
        from repro.exceptions import BtrBlocksError
        from repro.observe import MetricsRegistry, use_registry
        from repro.serve import EventLoop, ScanRequest, ScanServer
        from repro.types import columns_equal

        with use_registry(MetricsRegistry()):
            store, relation = _served_store()
            loop = EventLoop(clock=store.clock)
            store.clock.reset()
            server = ScanServer(store, loop, max_concurrency=2, queue_limit=8)
            undo = _damage_column_object(store, "shared", "code")
            results: dict = {}

            async def tenant(name, on_corrupt):
                request = ScanRequest(
                    tenant=name,
                    table="shared",
                    columns=("code",),
                    on_corrupt=on_corrupt,
                )
                try:
                    response = await server.submit(request)
                    results[name] = response.relation.column("code")
                except (BtrBlocksError, *ACCEPTABLE):
                    results[name] = None

            loop.create_task(tenant("lenient", lenient_mode), "lenient")
            loop.create_task(tenant("strict", "raise"), "strict")
            loop.run()

            # Strict under damage: typed failure or bit-identical values.
            if results["strict"] is not None:
                assert columns_equal(results["strict"], relation.column("code"))

            # Repair, then re-read through the *same* server (same shared
            # caches): the strict tenant gets pristine data, proving the
            # lenient tenant's degraded blocks never entered the caches.
            undo()

            async def reread():
                response = await server.submit(
                    ScanRequest(
                        tenant="strict",
                        table="shared",
                        columns=("code", "price"),
                        on_corrupt="raise",
                    )
                )
                results["healed"] = response.relation

            loop.create_task(reread(), "reread")
            loop.run()

        healed = results["healed"]
        for name in ("code", "price"):
            assert columns_equal(healed.column(name), relation.column(name))


# -- predicate scans over damaged objects: the selective readers verify nothing --
#
# ``read_rows`` and ``scan_column`` decode the block they are handed, so every
# route a ``scan(where=)`` can take to them — ranged GETs of surviving blocks,
# a cached column, a whole download when the manifest has no statistics —
# must hand over only bytes that passed their CRC32. Per cell the outcome is
# a typed error, a *detected* degrade (the counters say so) or the clean
# answer; never a value the source does not hold.

_SEL_ROWS, _SEL_BLOCK, _SEL_DAMAGED_BLOCK = 8192, 1024, 3


def _selective_table(route: str):
    """``(store, k, v)``: sorted key + payload ints in 1,024-row blocks; the
    ``no_stats`` route commits a manifest without zone maps or block ranges."""
    from repro.cloud import SimulatedObjectStore
    from repro.cloud.remote_table import TableWriter
    from repro.core.compressor import compress_relation
    from repro.core.config import BtrBlocksConfig

    rng = np.random.default_rng(MATRIX_SEED)
    k = np.sort(rng.integers(0, 1_000_000, _SEL_ROWS)).astype(np.int32)
    v = rng.integers(0, 1_000_000, _SEL_ROWS).astype(np.int32)
    config = BtrBlocksConfig(block_size=_SEL_BLOCK, collect_stats=route != "no_stats")
    store = SimulatedObjectStore()
    TableWriter(store).write(
        compress_relation(Relation("sel", [Column.ints("k", k), Column.ints("v", v)]), config)
    )
    return store, k, v


def _flip_payload_byte(store, key: str, times: float) -> None:
    """Flip one payload byte of block ``_SEL_DAMAGED_BLOCK`` in the first
    ``times`` GETs that cover it (``inf``: the object is damaged at rest)."""
    from repro.core.file_format import column_block_ranges

    offset, size = column_block_ranges(column_from_bytes(store._objects[key]))[_SEL_DAMAGED_BLOCK]
    position, real, left = offset + size // 2, store._attempt, [times]

    def attempt(k, start, length, ranged):
        data = real(k, start, length, ranged)
        if k == key and left[0] > 0 and start <= position < start + len(data):
            left[0] -= 1
            data = bytearray(data)
            data[position - start] ^= 0x40
        return bytes(data)

    store._attempt = attempt


@pytest.mark.parametrize("duration", ["persistent", "one_refetch"])
@pytest.mark.parametrize("route", ["ranged_get", "cached_column", "no_stats"])
@pytest.mark.parametrize("damaged", ["filter", "projection"])
@pytest.mark.parametrize("policy", ["raise", "skip", "null_block"])
def test_predicate_scan_never_serves_damaged_bytes(policy, damaged, route, duration):
    from repro.cloud.remote_table import RemoteTable
    from repro.exceptions import IntegrityError
    from repro.observe import MetricsRegistry, use_registry
    from repro.query.predicates import Between

    store, k, v = _selective_table(route)
    table = RemoteTable.open(store, "sel", on_corrupt=policy)
    if route == "cached_column":
        table.scan()  # both columns verified and held before the damage
    key = table.column_entry("k" if damaged == "filter" else "v")["file"]
    _flip_payload_byte(store, key, float("inf") if duration == "persistent" else 1)

    lo, hi = int(k[1500]), int(k[6500])  # blocks 1..6, the damaged one among them
    matches = np.flatnonzero((k >= lo) & (k <= hi))
    in_damaged = matches // _SEL_BLOCK == _SEL_DAMAGED_BLOCK
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            got = table.scan(["v"], where={"k": Between(lo, hi)}).column("v")
    except IntegrityError:
        assert route != "cached_column" and duration == "persistent"
        assert policy in ("raise", "skip")
        assert registry.get("cloud.table.integrity_failures") >= 1
        return
    expected_rows, expected_nulls = matches, np.zeros(len(matches), dtype=bool)
    if route == "cached_column" or duration == "one_refetch":
        # The clean answer, bit for bit: the damage was never seen, or cured.
        assert registry.get("cloud.table.integrity_failures") == 0
        assert registry.get("decompress.corrupt_blocks") == 0
        refetched = route != "cached_column"
        assert (registry.get("cloud.table.integrity_refetches") >= 1) == refetched
    else:
        # Only ``null_block`` degrades a predicate scan, and it says so: a
        # damaged filter block matches nothing, a damaged projection block
        # returns its selected rows as NULLs.
        assert policy == "null_block"
        assert registry.get("cloud.table.integrity_failures") >= 1
        assert registry.get("decompress.corrupt_blocks") == 1
        assert registry.get("decompress.corrupt_rows") == _SEL_BLOCK
        if damaged == "filter":
            expected_rows, expected_nulls = matches[~in_damaged], expected_nulls[~in_damaged]
        else:
            expected_nulls = in_damaged
    assert len(got) == len(expected_rows)
    assert np.array_equal(got.null_mask(), expected_nulls)
    held = ~expected_nulls
    assert np.array_equal(np.asarray(got.data)[held], v[expected_rows][held])


@pytest.mark.parametrize(
    "column",
    [
        Column.ints("c", np.arange(600, dtype=np.int32) * 7),
        Column.doubles("c", np.arange(600, dtype=np.float64) / 4),
        Column.strings("c", [f"row-{i % 50}" for i in range(600)]),
    ],
    ids=lambda column: column.ctype.value,
)
def test_all_null_block_is_the_null_block_degrade(column):
    """What the degraded predicate scan rests on: a damaged block swapped for
    ``all_null_block`` reads, through the selective readers, exactly as
    ``decompress_column(on_corrupt="null_block")`` reads the damaged block."""
    from repro.core.access import read_rows
    from repro.core.config import BtrBlocksConfig
    from repro.core.decompressor import all_null_block
    from repro.core.file_format import column_block_ranges, verify_block
    from repro.query.executor import scan_column
    from repro.query.predicates import IsNull
    from repro.types import columns_equal

    blob = bytearray(column_to_bytes(compress_column(column, BtrBlocksConfig(block_size=200))))
    offset, size = column_block_ranges(column_from_bytes(bytes(blob)))[1]
    blob[offset + size // 2] ^= 0x40
    damaged = column_from_bytes(bytes(blob))
    assert [verify_block(block) for block in damaged.blocks] == [True, False, True]
    oracle = decompress_column(damaged, on_corrupt="null_block")

    damaged.blocks[1] = all_null_block(damaged.ctype, damaged.blocks[1].count)
    assert columns_equal(read_rows(damaged, np.arange(600)), oracle)
    assert scan_column(damaged, IsNull()).to_array().tolist() == list(range(200, 400))


def test_clean_predicate_scan_pays_no_extra_crc(monkeypatch):
    """The fix sits on the unverified fallback only: on a clean table a
    fresh-handle ``scan(where=)`` checksums each ranged-GET block once, and
    nothing after that hashes a block object again: not a repeat, not the
    cache hits of a warm decode cache (filter and projection alike, each
    block remembered as verified since its download), not a projected
    filter column that takes the values its filter's hits handed over."""
    from repro.cloud.remote_table import RemoteTable
    from repro.core import file_format
    from repro.query.predicates import Between

    store, k, _v = _selective_table("ranged_get")
    calls, real = [0], file_format.block_checksum

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(file_format, "block_checksum", counting)
    table = RemoteTable.open(store, "sel")
    where = {"k": Between(int(k[2000]), int(k[5000]))}  # blocks 1..4 of 8

    def checksums(scan) -> int:
        before = calls[0]
        scan()
        return calls[0] - before

    assert checksums(lambda: table.scan(["v"], where=where)) == 4 + 4  # filter + projection
    assert checksums(lambda: table.scan(["v"], where=where)) == 0  # blocks held verified
    table.scan()
    assert checksums(lambda: table.scan(["v"], where=where)) == 0  # hits, both halves
    assert checksums(lambda: table.scan(["k", "v"], where=where)) == 0  # k handed over
