"""Query compressed tables directly from the (simulated) object store.

The full data-lake consumer story: a table lives on S3 as one file per
column plus a metadata file (paper Section 6.7's layout), here a versioned
manifest. A :class:`RemoteTable` reads only the manifest up front; column
files download lazily — and only the columns a query touches — then
predicates evaluate in the compressed domain. Requests and bytes are
accounted by the store, so the cost of any access pattern is measurable.

The write side is transactional. A :class:`TableWriter` stages every column
object and a manifest through the store's multipart protocol, then commits
by completing the *versioned manifest object* — the single atomic step that
makes a new version observable. Readers resolve the latest manifest (or a
pinned version), so an interrupted writer is never visible: until the
manifest lands, the staged parts and even fully-written data objects are
dead weight that :func:`recover` sweeps.

Example::

    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation))
    table = RemoteTable.open(store, relation.name)
    result = table.scan(columns=["price"], where={"city": Equals("OSLO")})
    total = table.aggregate("price", "sum", where={"city": Equals("OSLO")})
    print(store.stats.get_requests, store.stats.bytes_downloaded)
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.retry import SimulatedClock
from repro.core.access import read_rows
from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.blockstats import unpack_zone
from repro.core.cache import ByteBudgetLRU, DecodeCache
from repro.core.config import (
    DEFAULT_COLUMN_CACHE_BYTES,
    DEFAULT_DECODE_CACHE_BYTES,
    DecodeLimits,
)
from repro.core.decompressor import all_null_block, concat_values, decompress_column
from repro.core.file_format import (
    FORMAT_VERSION,
    block_from_region,
    column_from_bytes,
    column_meta_entry,
    column_to_bytes,
    verify_block,
    verify_column,
)
from repro.core.relation import Relation
from repro.encodings.base import locate_sorted, take_values
from repro.exceptions import (
    CommitConflictError,
    DeadlineExceededError,
    FormatError,
    IntegrityError,
    NoSuchUploadError,
    RangeNotSatisfiableError,
    WriterCrashError,
)
from repro.metadata import ColumnZoneMap
from repro.observe import get_registry
from repro.query.executor import collect_matches, enumerate_blocks
from repro.query.predicates import Predicate
from repro.types import Column, ColumnType

#: Directory (key prefix) holding one manifest object per committed version.
MANIFEST_DIR = "_manifests"

_VERSION_DIR_RE = re.compile(r"^v(\d{6})/")

#: :meth:`RemoteTable.aggregate`'s functions (``count`` counts non-NULL rows).
_AGGREGATES = {"sum": np.sum, "min": np.min, "max": np.max, "mean": np.mean, "count": None}


def manifest_key(name: str, version: int) -> str:
    """Key of the manifest object that commits ``version`` of ``name``.

    Zero-padded so the lexicographically greatest manifest key is the
    latest version — resolving "current" needs one LIST, no parsing race.
    """
    return f"{name}/{MANIFEST_DIR}/{version:06d}.json"


def version_prefix(name: str, version: int) -> str:
    """Key prefix under which one version's data objects are staged."""
    return f"{name}/v{version:06d}/"


#: A manifest object: ``{"crc32":<CRC32 of the body, 10 wide>,"manifest":<body>}``.
#: The CRC32 is padded with spaces, so the body starts at a fixed offset and
#: the object stays JSON.
_ENVELOPE_HEAD = b'{"crc32":%10d,"manifest":'
_BODY_START = len(_ENVELOPE_HEAD % 0)
#: The values a manifest entry's ``type`` may hold, tested as a set per column.
_COLUMN_TYPES = frozenset(ctype.value for ctype in ColumnType)


def manifest_to_bytes(manifest: dict) -> bytes:
    """The manifest object: compact JSON under one CRC32 of its exact bytes."""
    body = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    return b"%s%s}" % (_ENVELOPE_HEAD % zlib.crc32(body), body)


def _parse_manifest(raw: bytes) -> dict:
    """Check a manifest object's CRC32, parse its body, and check every
    field the reader indexes before anything trusts it.

    A legacy manifest (written before the envelope: no checksum) is parsed
    whole; its entries carry no ``zone``, so its tables scan by full
    fetch-and-filter. Raises :class:`~repro.exceptions.IntegrityError` on
    a CRC32 mismatch, else ``ValueError`` / ``KeyError`` / ``TypeError``.
    """
    if raw[:9] == _ENVELOPE_HEAD[:9]:
        body = raw[_BODY_START:-1]
        if raw[:_BODY_START] != _ENVELOPE_HEAD % zlib.crc32(body) or raw[-1:] != b"}":
            raise IntegrityError("manifest does not match its CRC32")
        raw = body
    manifest = json.loads(raw)
    for entry in manifest["columns"]:
        if entry["type"] not in _COLUMN_TYPES:
            raise ValueError(f"unknown column type {entry['type']!r}")
        entry["name"], entry["file"]
        int(entry["rows"]), int(entry["bytes"]), int(entry["blocks"])
    int(manifest["version"])
    return manifest


class _Manifest:
    """A checked manifest, shared read-only by every handle on its bytes: the
    parsed ``body``, its ``entries`` by column name (the first wins when names
    repeat) and each column's zone map once it passed ``_zone_map``'s checks."""

    __slots__ = ("body", "entries", "zone_maps")

    def __init__(self, body: dict) -> None:
        self.body = body
        self.entries = {entry["name"]: entry for entry in reversed(body["columns"])}
        self.zone_maps: "dict[str, ColumnZoneMap]" = {}


#: Checked manifests keyed by the object's exact ``bytes`` (a hit is one hash
#: and one comparison; damaged or CRC32-forged bytes are another key), charged
#: 8x their size: the key, the parsed body and zone maps (6.7-7.7x, measured).
_manifests = ByteBudgetLRU(8 << 20, "cloud.table.manifest_cache")


def clear_manifest_cache() -> None:
    """Drop every memoised manifest (tests and long-running servers)."""
    _manifests.clear()


def _record_transfer(store: SimulatedObjectStore, requests: int, nbytes: int) -> None:
    """Account one remote fetch: objects, bytes and simulated dollar cost."""
    pricing = store.pricing
    seconds = nbytes / pricing.s3_bytes_per_second
    get_registry().incr_many([
        ("cloud.table.objects_fetched", 1),
        ("cloud.table.requests", requests),
        ("cloud.table.bytes", nbytes),
        ("cloud.table.cost_usd", pricing.request_cost(requests) + pricing.compute_cost(seconds)),
    ])


@dataclass(slots=True)
class ScanStep:
    """One atomic stage of a scan, with everything the stage consumed.

    :meth:`RemoteTable.scan_steps` yields one of these after each stage so
    a *driver* — the synchronous :meth:`RemoteTable.scan`, or a serving
    loop interleaving many scans — decides how the stage's simulated time
    is applied to the shared clock. All fields are captured while the
    stage ran with a private clock swapped in, so concurrent scans never
    see each other's time and a stage's accounting is exactly its own.

    ``clock_seconds`` is the simulated time the stage itself accrued
    (retry backoff, timeout waits). The transfer fields let a scheduler
    price the stage deterministically instead: ``decode_bytes`` is the
    compressed payload the stage decoded (a column stage's blocks, a
    filter or materialise stage's fetched bytes).
    """

    kind: str  # "open" | "filter" | "materialise" | "column"
    column: "str | None" = None
    clock_seconds: float = 0.0
    requests: int = 0
    bytes_fetched: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0
    brownout_seconds: float = 0.0
    decode_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


#: Read together, under one registry lock, on entry to and exit from a stage.
_STAGE_COUNTERS = ("decode.cache.hit", "decode.cache.miss", "decompress.input_bytes")


class capture_step:
    """Run one scan stage with a private clock; capture what it consumed.

    The store's shared clock is swapped for a fresh capture clock for the
    duration of the ``with`` block, so retry backoff and timeout waits inside
    the stage accrue on the step instead of advancing shared time mid-stage
    (which would race other coroutines' timers). Store transfer counters,
    decode-cache hit/miss counters and ``decompress.input_bytes``
    (``decode_bytes``) are diffed around the stage — the stage runs
    atomically (no awaits inside), so the diffs are exactly this stage's
    traffic even when many scans interleave at step boundaries.

    ``deadline_seconds`` / ``retry_budget`` install the current request's
    overload context on the store for the stage's duration: the retry
    layer's backoff becomes interruptible against the (absolute) deadline
    and retries spend the owning tenant's token bucket. The capture clock
    starts at the shared instant, so absolute deadlines stay comparable
    inside the stage. All three are restored on exit, also when the stage
    raises — stages run atomically, so the swap can never leak into another
    request's stage.
    """

    __slots__ = ("store", "step", "context", "outer", "capture", "registry", "before")

    def __init__(self, store: SimulatedObjectStore, kind: str, column: "str | None" = None,
                 deadline_seconds: "float | None" = None, retry_budget=None) -> None:
        self.store = store
        self.step = ScanStep(kind=kind, column=column)
        self.context = (deadline_seconds, retry_budget)

    def __enter__(self) -> ScanStep:
        store, stats = self.store, self.store.stats
        self.registry = get_registry()
        self.before = (
            stats.get_requests, stats.bytes_downloaded, stats.retries,
            stats.backoff_seconds, stats.brownout_seconds,
            *self.registry.get_many(_STAGE_COUNTERS),
        )
        self.outer = (store.clock, store.deadline_seconds, store.retry_budget)
        self.capture = SimulatedClock(now_seconds=store.clock.now_seconds)
        store.clock = self.capture
        store.deadline_seconds, store.retry_budget = self.context
        return self.step

    def __exit__(self, *exc_info) -> None:
        store, stats, step = self.store, self.store.stats, self.step
        store.clock, store.deadline_seconds, store.retry_budget = self.outer
        requests, fetched, retries, backoff, brownout, hits, misses, decoded = self.before
        step.clock_seconds += self.capture.now_seconds - store.clock.now_seconds
        step.requests += stats.get_requests - requests
        step.bytes_fetched += stats.bytes_downloaded - fetched
        step.retries += stats.retries - retries
        step.backoff_seconds += stats.backoff_seconds - backoff
        step.brownout_seconds += stats.brownout_seconds - brownout
        hits_now, misses_now, decoded_now = self.registry.get_many(_STAGE_COUNTERS)
        step.cache_hits += int(hits_now - hits)
        step.cache_misses += int(misses_now - misses)
        step.decode_bytes += int(decoded_now - decoded)


class _PrunedPathUnavailable(Exception):
    """Internal control flow: abandon block-level pruning for one column and
    fall back to the plain fetch-and-filter path (never escapes this module)."""


class RemoteTable:
    """A lazily-fetched compressed table on an object store.

    ``on_corrupt`` is the degradation policy for checksum-damaged blocks
    that survive refetching (see :mod:`repro.core.decompressor`); downloads
    that arrive damaged are refetched up to the store's retry budget first.

    Tables committed with statistics (``config.collect_stats``, the default)
    carry a zone map with per-block byte ranges in their manifest. Predicate
    scans consult them *before any data bytes move*: blocks whose statistics
    cannot match are skipped entirely, surviving blocks arrive through
    ranged GETs and are answered in the compressed domain
    (``cloud.scan.pruned_blocks`` / ``cloud.scan.pruned_bytes`` metrics). A
    manifest whose statistics are damaged or stale never changes results:
    the scan degrades to full fetch-and-filter (``cloud.scan.zonemap.invalid``)
    — or raises a typed error when ``on_corrupt`` is ``"raise"``.
    """

    def __init__(
        self,
        store: SimulatedObjectStore,
        name: str,
        metadata: dict,
        version: int,
        on_corrupt: str = "raise",
        decode_limits: "DecodeLimits | None" = None,
        decode_cache_bytes: "int | None" = None,
        column_cache_bytes: "int | None" = None,
        column_cache: "ByteBudgetLRU | None" = None,
        decode_cache: "DecodeCache | None" = None,
    ) -> None:
        self._store = store
        self.name = name
        self._manifest = metadata if isinstance(metadata, _Manifest) else _Manifest(metadata)
        self._metadata, self._entries = self._manifest.body, self._manifest.entries
        #: Downloaded compressed columns, bounded by byte budget (LRU).
        #: Injectable so a multi-tenant server shares one budget across
        #: handles; keys are the manifest's object key, which names the
        #: table and version (``<table>/vNNNNNN/...``), so shared entries
        #: never collide. The decode cache is keyed the same way.
        self._columns = column_cache if column_cache is not None else ByteBudgetLRU(
            DEFAULT_COLUMN_CACHE_BYTES if column_cache_bytes is None else column_cache_bytes,
            metric_prefix="cloud.table.column_cache",
        )
        if decode_cache_bytes is None:
            decode_cache_bytes = DEFAULT_DECODE_CACHE_BYTES
        #: Decoded-block cache shared by every scan through this handle
        #: (injectable across handles the same way as the column cache).
        if decode_cache is not None:
            self.decode_cache = decode_cache
        else:
            self.decode_cache = DecodeCache(decode_cache_bytes) if decode_cache_bytes > 0 else None
        self.on_corrupt = on_corrupt
        #: Committed version this handle reads.
        self.version = version
        self.decode_limits = decode_limits
        #: This handle's zone maps per column; ``None`` = known absent or
        #: rejected here (``cloud.scan.zonemap.invalid``), never in the memo.
        self._zone_maps: "dict[str, ColumnZoneMap | None]" = {}

    @staticmethod
    def _fetch_json(store: SimulatedObjectStore, key: str) -> _Manifest:
        """GET + the memo, else :func:`_parse_manifest`, refetching what fails
        up to the store's retry budget (``cloud.table.meta_refetches``); then
        :class:`~repro.exceptions.IntegrityError` when the last download
        failed its CRC32, :class:`~repro.exceptions.FormatError` otherwise.
        """
        attempts = max(1, store.retry.max_attempts)
        for attempt in range(attempts):
            raw = store.get(key)
            _record_transfer(store, 1, len(raw))
            manifest = _manifests.get(raw)
            if manifest is not None:
                return manifest
            try:
                manifest = _Manifest(_parse_manifest(raw))
                _manifests.put(raw, manifest, 8 * len(raw))  # (only checked bytes)
                return manifest
            except IntegrityError:
                damaged = True
            except (ValueError, KeyError, TypeError):
                damaged = False
            get_registry().incr("cloud.table.meta_refetches")
        if damaged:
            raise IntegrityError(f"manifest {key!r} fails its CRC32 after {attempts} downloads")
        raise FormatError(f"metadata object {key!r} unparseable after {attempts} downloads")

    @classmethod
    def open(
        cls,
        store: SimulatedObjectStore,
        name: str,
        on_corrupt: str = "raise",
        version: "int | None" = None,
        decode_limits: "DecodeLimits | None" = None,
        decode_cache_bytes: "int | None" = None,
        column_cache_bytes: "int | None" = None,
        column_cache: "ByteBudgetLRU | None" = None,
        decode_cache: "DecodeCache | None" = None,
    ) -> "RemoteTable":
        """Resolve the table's commit point; no column data is transferred.

        Versioned tables (written by :class:`TableWriter`) resolve through
        the manifest directory: one LIST picks the latest manifest (or the
        pinned ``version``), one GET fetches it. Because the manifest is
        the last object a commit writes — and lands atomically via the
        multipart protocol — an interrupted writer's staged garbage is
        never observable here: every manifest this LIST can see describes a
        fully-uploaded version. A table with no manifest raises
        :class:`~repro.exceptions.FormatError`.
        """
        manifests = store.keys(f"{name}/{MANIFEST_DIR}/")
        if version is not None:
            key = manifest_key(name, version)
            if key not in manifests:
                raise FormatError(f"table {name!r} has no committed version {version}")
        elif manifests:
            key = max(manifests)
        else:
            raise FormatError(f"table {name!r} has no committed version")

        manifest = cls._fetch_json(store, key)
        return cls(
            store,
            name,
            manifest,
            int(manifest.body["version"]),
            on_corrupt=on_corrupt,
            decode_limits=decode_limits,
            decode_cache_bytes=decode_cache_bytes,
            column_cache_bytes=column_cache_bytes,
            column_cache=column_cache,
            decode_cache=decode_cache,
        )

    # -- schema ----------------------------------------------------------------

    def column_names(self) -> list[str]:
        return [entry["name"] for entry in self._metadata["columns"]]

    @property
    def row_count(self) -> int:
        columns = self._metadata["columns"]
        return columns[0]["rows"] if columns else 0

    def column_entry(self, name: str) -> dict:
        entry = self._entries.get(name)
        if entry is None:
            raise FormatError(f"table {self.name!r} has no column {name!r}")
        return entry

    # -- data ------------------------------------------------------------------

    def _download_column_verified(self, entry: dict) -> "tuple[CompressedColumn, bool]":
        """Fetch + parse + checksum-verify one column file, refetching damage.

        Bit flips pass the transport layer silently (a truncated or errored
        GET is already retried by the store); the per-block CRC32s of the v2
        format are what detect them. A damaged download is refetched up to
        the store's retry budget — each refetch is billed like any other GET
        — before the column is handed to the decode-side ``on_corrupt``
        policy (or raised, when the policy is ``"raise"``).

        Each clean block remembers its pass (:func:`~repro.core.file_format.
        verify_block`): neither its decode nor a cache hit hashes it again.

        Returns ``(column, verified)``. ``verified`` is ``False`` only on
        the lenient-policy path where refetching never produced a clean
        copy: that column must not enter any cache a handle with a
        different ``on_corrupt`` policy might share (a ``null_block``
        tenant's damaged bytes would surface as another tenant's data).
        """
        registry = get_registry()
        attempts = max(1, self._store.retry.max_attempts)
        last_error: "IntegrityError | FormatError | None" = None
        for attempt in range(attempts):
            before_requests = self._store.stats.get_requests
            payload = self._store.get_chunked(entry["file"])
            _record_transfer(
                self._store,
                self._store.stats.get_requests - before_requests,
                len(payload),
            )
            try:
                column = column_from_bytes(payload, limits=self.decode_limits)
                verify_column(column)
                return column, True
            except (IntegrityError, FormatError) as exc:
                last_error = exc
                registry.incr("cloud.table.integrity_refetches")
        registry.incr("cloud.table.integrity_failures")
        if self.on_corrupt == "raise" or not isinstance(last_error, IntegrityError):
            # Structurally unparseable downloads cannot be degraded per
            # block -- there are no blocks to degrade -- so they raise even
            # under a lenient policy.
            raise last_error
        return column_from_bytes(payload, limits=self.decode_limits), False

    def _fetch_column_flagged(self, entry: dict) -> "tuple[CompressedColumn, bool, bool]":
        """:meth:`fetch_column` by manifest entry, plus whether the column is
        checksum-clean and whether the column cache already held it."""
        column = self._columns.get(entry["file"])
        if column is not None:
            return column, True, True
        column, verified = self._download_column_verified(entry)
        if verified:
            self._columns.put(entry["file"], column, column.nbytes)
        return column, verified, False

    def fetch_column(self, name: str) -> CompressedColumn:
        """Download one column file (16 MB chunked GETs); cached afterwards.

        The cache is an LRU bounded by ``column_cache_bytes`` of compressed
        data (``cloud.table.column_cache.{hit,miss,evict}`` metrics), so
        scanning a table wider than the budget re-downloads cold columns
        instead of growing without bound. Only checksum-clean downloads are
        cached: a damaged column that survived refetching serves *this*
        call's degradation policy and is then dropped, so no later reader —
        in particular another tenant sharing the cache — can observe it.
        Under a lenient policy the result may therefore hold blocks that
        fail their CRC32: decode it only through a verifying reader
        (:func:`~repro.core.decompressor.decompress_column`).
        """
        return self._fetch_column_flagged(self.column_entry(name))[0]

    def _fetch_column_for_rows(self, name: str) -> CompressedColumn:
        """The whole column for the selective readers, which verify nothing.

        :func:`read_rows` and :func:`scan_column` decode whatever block they
        are handed, so the full-fetch fallbacks of a predicate scan never
        hand them one that fails its CRC32. A checksum-clean column (every
        fault-free scan) passes through untouched. One that stayed damaged
        through every refetch is degraded here, per block: ``null_block``
        swaps each damaged block for an all-NULL one — its selected rows come
        back NULL and it matches no value predicate, exactly decompress-then-
        mask under that policy — and ``skip`` raises, because dropping one
        column's rows under a predicate has no row-aligned meaning.
        """
        entry = self.column_entry(name)
        column, verified, _held = self._fetch_column_flagged(entry)
        if verified:
            return column
        blocks = list(column.blocks)
        damaged = [index for index, block in enumerate(blocks) if not verify_block(block)]
        # (A damaged count would shift every later row: nothing to align NULLs to.)
        if self.on_corrupt == "skip" or column.count != entry["rows"]:
            raise IntegrityError(
                f"table {self.name!r} column {name!r}: {len(damaged)} block(s) still fail "
                f"their CRC32 after refetching; a predicate scan cannot skip rows"
            )
        get_registry().incr_many(
            [
                ("decompress.corrupt_blocks", len(damaged)),
                ("decompress.corrupt_rows", sum(blocks[index].count for index in damaged)),
            ]
        )
        for index in damaged:
            blocks[index] = all_null_block(column.ctype, blocks[index].count)
        return CompressedColumn(column.name, column.ctype, blocks)

    # -- manifest-level zone maps ----------------------------------------------

    def _discard_zone_map(self, entry: dict, reason: str) -> None:
        """Stop trusting one column's persisted statistics.

        Counted in ``cloud.scan.zonemap.invalid``. Under the ``"raise"``
        policy damaged metadata is an error like damaged data; lenient
        policies degrade to the full fetch-and-filter path, which never
        consults the statistics and therefore cannot return wrong rows.
        """
        get_registry().incr("cloud.scan.zonemap.invalid")
        self._zone_maps[entry["name"]] = None
        if self.on_corrupt == "raise":
            raise IntegrityError(
                f"table {self.name!r} column {entry['name']!r}: persisted "
                f"zone map rejected: {reason}"
            )

    def _zone_map(self, entry: dict) -> "ColumnZoneMap | None":
        """The column's manifest zone map, validated; ``None`` when absent
        or previously rejected.

        One decode of the packed records, then array checks: one record per
        block, rows summing to the column's, byte extents inside the file,
        in order and no shorter than a block header. A map that passes is
        shared with every handle on the same manifest bytes.
        """
        name = entry["name"]
        if name in self._zone_maps:
            return self._zone_maps[name]
        zone_map = self._zone_maps[name] = self._manifest.zone_maps.get(name)
        if zone_map is not None or "zone" not in entry:
            return zone_map
        try:
            records = unpack_zone(entry["zone"])
            bounds = entry.get("bounds")
            if len(records) != entry["blocks"] or (bounds is not None and len(bounds) != len(records)):
                raise FormatError(f"{len(records)} zone records for {entry['blocks']} blocks")
            if sum(records["rows"].tolist()) != entry["rows"]:
                raise FormatError("zone record row counts do not sum to the column's rows")
            offsets, sizes, nbytes = records["offset"], records["size"], entry["bytes"]
            ends = offsets + sizes  # (no wrap-around once every offset is inside the file)
            outside = (sizes < 16) | (offsets > nbytes) | (ends > nbytes)
            if np.count_nonzero(outside) or np.count_nonzero(offsets[1:] < ends[:-1]):
                raise FormatError("zone records hold an implausible block range")
        except (FormatError, KeyError, TypeError, ValueError) as exc:
            self._discard_zone_map(entry, str(exc))
            return None
        zone_map = ColumnZoneMap(name, ColumnType(entry["type"]), records, bounds)
        self._zone_maps[name] = self._manifest.zone_maps[name] = zone_map
        return zone_map

    def _check_block_against_stats(self, entry: dict, index: int, block, rows: int, crc: int) -> None:
        """Cross-check a block in hand against its zone record's ``rows`` and ``crc``.

        Catches *stale* statistics — internally consistent records written
        for different data — the moment any described block is actually
        read: the record's bound CRC32 must equal the block's, and the row
        counts must agree.
        """
        if block.count != rows:
            self._discard_zone_map(
                entry, f"block {index} holds {block.count} rows, statistics claim {rows}"
            )
            raise _PrunedPathUnavailable()
        if block.checksum is not None and block.checksum != crc:
            self._discard_zone_map(
                entry, f"block {index} checksum does not match its statistics entry"
            )
            raise _PrunedPathUnavailable()

    def _fetch_pruned_block(self, entry: dict, index: int, zone_map: ColumnZoneMap) -> CompressedBlock:
        """One surviving block via a ranged GET, checksum-verified.

        Damage that implicates the *metadata* (an unsatisfiable range, a
        structural mismatch, a stale stats binding) rejects the zone map;
        payload damage is refetched up to the store's retry budget and then
        handed to the ``on_corrupt`` policy exactly like a damaged full
        download — ``raise`` raises, lenient policies fall back to the full
        fetch-and-filter path (``cloud.scan.zonemap.fallbacks``).
        """
        cache_key = (entry["file"], index)
        block = self._columns.get(cache_key)
        if block is not None:
            return block
        registry = get_registry()
        rows, crc, offset, size = zone_map.block_extents[index]
        attempts = max(1, self._store.retry.max_attempts)
        for _ in range(attempts):
            before = self._store.stats.get_requests
            try:
                payload = self._store.get_range(entry["file"], offset, size)
            except RangeNotSatisfiableError as exc:
                self._discard_zone_map(entry, f"block range not satisfiable: {exc}")
                raise _PrunedPathUnavailable() from exc
            _record_transfer(
                self._store, self._store.stats.get_requests - before, len(payload)
            )
            try:
                block = block_from_region(payload, count_hint=rows)
            except FormatError as exc:
                self._discard_zone_map(entry, str(exc))
                raise _PrunedPathUnavailable() from exc
            self._check_block_against_stats(entry, index, block, rows, crc)
            if verify_block(block):
                self._columns.put(cache_key, block, block.nbytes)
                return block
            registry.incr("cloud.table.integrity_refetches")
        registry.incr("cloud.table.integrity_failures")
        registry.incr("cloud.scan.zonemap.fallbacks")
        if self.on_corrupt == "raise":
            raise IntegrityError(
                f"column {entry['name']!r} block {index}: payload does not "
                f"match stored CRC32"
            )
        raise _PrunedPathUnavailable()

    def _pruned_matching_rows(self, entry: dict, predicate: Predicate, values: bool):
        """Zone-map-pruned predicate evaluation for one column:
        :func:`~repro.query.executor.collect_matches`' ``(rows, handover)``.

        Skipped blocks cost no GETs; surviving blocks arrive by ranged GET
        (or from cache) and are answered over their decoded values when the
        decode cache serves them, in the compressed domain otherwise.
        Returns ``None`` when the manifest carries no usable statistics.
        """
        zone_map = self._zone_map(entry)
        if zone_map is None:
            return None
        try:
            survivors = zone_map.pruned_blocks(predicate)
        except FormatError as exc:  # a string bound that does not decode
            self._discard_zone_map(entry, str(exc))
            return None
        sizes = zone_map.block_sizes
        get_registry().incr_many([
            ("cloud.scan.zonemap.consulted", 1),
            ("cloud.scan.pruned_blocks", len(sizes) - len(survivors)),
            ("cloud.scan.pruned_bytes", sum(sizes) - sum([sizes[index] for index in survivors])),
        ])
        if not survivors:
            return np.empty(0, dtype=np.int64), None
        # The shared scan driver consumes (index, block, offset) triples;
        # this generator feeds it only the zone-map survivors, validated or
        # ranged-GET on the way through, and the driver answers each from
        # the decode cache where it can.
        return collect_matches(
            self._survivor_blocks(entry, survivors, self._columns.get(entry["file"]), zone_map),
            ColumnType(entry["type"]),
            predicate,
            self.decode_limits,
            self.decode_cache,
            entry["file"],
            values,
        )

    def _survivor_blocks(self, entry, survivors, cached, zone_map):
        """Yield ``(block index, block, column-row offset)`` for zone-map survivors.

        Cached columns serve blocks after re-validation against their
        zone record; uncached ones arrive by ranged GET. Either way a
        structural mismatch rejects the zone map (``_PrunedPathUnavailable``
        propagates out of the consuming driver mid-iteration, before any
        further block is fetched).
        """
        offsets, extents = zone_map.block_offsets, zone_map.block_extents
        for index in survivors:
            if cached is not None:
                if index >= len(cached.blocks):
                    self._discard_zone_map(
                        entry, f"statistics describe a block {index} the column lacks"
                    )
                    raise _PrunedPathUnavailable()
                block = cached.blocks[index]
                rows, crc = extents[index][:2]
                self._check_block_against_stats(entry, index, block, rows, crc)
            else:
                block = self._fetch_pruned_block(entry, index, zone_map)
            yield index, block, offsets[index]

    def _read_rows_pruned(self, entry: dict, rows: np.ndarray) -> "Column | None":
        """Materialise specific rows of one column fetching only their blocks.

        Builds a sparse column — ranged-GET blocks where requested rows
        live, zero-byte placeholders (sized from the statistics) elsewhere —
        and hands it to the ordinary :func:`read_rows`, which never decodes
        a block without requested rows. Returns ``None`` when pruning
        metadata is unavailable or the whole column is already cached.
        """
        zone_map = self._zone_map(entry)
        if zone_map is None:
            return None
        if self._columns.get(entry["file"]) is not None:
            return None  # full column in cache: no GET to save
        # ``rows`` come sorted from the filter: block ``i`` is needed
        # iff some row falls between its offset and the next block's.
        bounds = np.searchsorted(rows, zone_map.block_offsets)
        needed = (bounds[1:] > bounds[:-1]).tolist()
        blocks = [
            self._fetch_pruned_block(entry, index, zone_map)
            if needed[index] else CompressedBlock(extent[0], b"")
            for index, extent in enumerate(zone_map.block_extents)
        ]
        sparse = CompressedColumn(entry["name"], ColumnType(entry["type"]), blocks)
        return self._read_rows(entry, sparse, rows)

    def _read_rows(self, entry: dict, compressed: CompressedColumn, rows: np.ndarray) -> Column:
        """:func:`read_rows` under this handle's limits, taking the rows of
        every touched block the decode cache serves from there (and filling nothing)."""
        return read_rows(
            compressed,
            rows,
            cache=self.decode_cache,
            cache_key=entry["file"],
            limits=self.decode_limits,
        )

    # -- predicate evaluation --------------------------------------------------

    def _column_matches(
        self, column_name: str, predicate: Predicate, values: bool = False
    ) -> "tuple[np.ndarray, tuple | None]":
        """One filter column's ``(matching rows, handover of their values if
        asked)``, the rows as sorted ``int64`` positions: pruned path first,
        full scan as fallback. Both answer a number block the decode cache
        serves over its decoded values and every other block in the
        compressed domain (:func:`~repro.query.executor.block_mask`); neither
        fills the cache."""
        entry = self.column_entry(column_name)
        try:
            matches = self._pruned_matching_rows(entry, predicate, values)
        except _PrunedPathUnavailable:
            matches = None
        if matches is None:
            compressed = self._fetch_column_for_rows(column_name)
            matches = collect_matches(
                enumerate_blocks(compressed),
                compressed.ctype,
                predicate,
                self.decode_limits,
                self.decode_cache,
                entry["file"],
                values,
            )
        return matches

    def matching_rows(self, where: Mapping[str, Predicate]) -> RoaringBitmap:
        """Conjunctive predicate evaluation; downloads only the filter columns.

        Columns whose manifest carries validated statistics are pruned at
        block granularity before any data bytes move; the rest download
        whole and scan in the compressed domain as before.
        """
        return RoaringBitmap.from_positions(self._matching_positions(where))

    def _matching_positions(self, where: Mapping[str, Predicate]) -> np.ndarray:
        """:meth:`matching_rows` as sorted ``int64`` positions."""
        rows = None
        for column_name, predicate in where.items():
            matches = self._column_matches(column_name, predicate)[0]
            rows = matches if rows is None else np.intersect1d(rows, matches, assume_unique=True)
            if rows.size == 0:
                break
        return np.arange(self.row_count, dtype=np.int64) if rows is None else rows

    def _check_deadline(self, deadline_seconds: "float | None") -> None:
        """Stage-boundary deadline check: cancel before starting more work.

        Stages are atomic, so this is the scan's cancellation point — a
        request past its deadline stops here with a typed error before the
        next stage can touch the store, and everything already consumed
        stays exactly billed.
        """
        if (
            deadline_seconds is not None
            and self._store.clock.now_seconds >= deadline_seconds
        ):
            get_registry().incr("cloud.scan.deadline_cancelled")
            raise DeadlineExceededError(
                f"scan of {self.name!r} cancelled at stage boundary: deadline "
                f"t={deadline_seconds:.3f}s reached at "
                f"t={self._store.clock.now_seconds:.3f}s"
            )

    def scan_steps(
        self,
        columns: "Iterable[str] | None" = None,
        where: "Mapping[str, Predicate] | None" = None,
        deadline_seconds: "float | None" = None,
        retry_budget=None,
    ):
        """The scan as a reentrant generator of atomic stages.

        Yields one :class:`ScanStep` per stage — a filter column evaluated,
        a projection column materialised, or (without ``where``) a whole
        column fetched and decoded — and *returns* (as the generator's
        ``StopIteration`` value) the finished
        :class:`~repro.core.relation.Relation`. Each stage runs
        synchronously with a private clock (see :func:`capture_step`); the
        caller decides how the captured time reaches the shared clock:
        :meth:`scan` replays it immediately, a serving loop suspends between
        stages so many scans interleave deterministically without sharing
        mid-stage state.

        ``deadline_seconds`` is an *absolute* instant on the store's shared
        clock: the remaining budget is checked at every stage boundary
        (raising :class:`~repro.exceptions.DeadlineExceededError` instead
        of starting a stage that can no longer be used) and carried into
        each stage so retry backoff inside it is interruptible too.
        ``retry_budget`` is the owning tenant's
        :class:`~repro.cloud.retry.RetryBudget`, spent by every retried
        attempt the scan causes.
        """
        registry = get_registry()
        registry.incr("cloud.table.scans")
        names = list(columns) if columns is not None else self.column_names()
        context = {
            "deadline_seconds": deadline_seconds,
            "retry_budget": retry_budget,
        }
        if where:
            rows = None
            # A projected filter column is materialised from what its
            # filter decoded (``_materialise_rows``), not decoded again.
            handed: "dict[str, tuple]" = {}
            for column_name, predicate in where.items():
                self._check_deadline(deadline_seconds)
                with capture_step(
                    self._store, "filter", column_name, **context
                ) as step:
                    matches, handover = self._column_matches(
                        column_name, predicate, column_name in names
                    )
                    if handover is not None:
                        handed[column_name] = handover
                    rows = matches if rows is None else np.intersect1d(
                        rows, matches, assume_unique=True
                    )
                step.decode_bytes = step.bytes_fetched  # (filled on exit)
                yield step
                if rows.size == 0:
                    break
            out = []
            for name in names:
                self._check_deadline(deadline_seconds)
                with capture_step(
                    self._store, "materialise", name, **context
                ) as step:
                    out.append(self._materialise_rows(name, rows, handed.get(name)))
                step.decode_bytes = step.bytes_fetched
                yield step
            return Relation(self.name, out)
        out = []
        for name in names:
            entry = self.column_entry(name)
            self._check_deadline(deadline_seconds)
            with capture_step(self._store, "column", name, **context) as step:
                compressed, _verified, held = self._fetch_column_flagged(entry)
                # ``held``: the column cache had these bytes before this stage (a
                # re-scan, or another handle on shared caches). Only then is a
                # decoded string column admitted to the decode cache; a fresh
                # download's first decode keeps none (``decompress_column``).
                out.append(decompress_column(
                    compressed, on_corrupt=self.on_corrupt, limits=self.decode_limits,
                    cache=self.decode_cache, cache_key=entry["file"], admit_strings=held,
                ))
            yield step
        return Relation(self.name, out)

    def _drive_steps(self, gen):
        """Run a :meth:`scan_steps` generator to completion synchronously,
        replaying each stage's captured simulated time onto the shared
        clock — the single-reader behaviour scans always had."""
        while True:
            try:
                step = next(gen)
            except StopIteration as stop:
                return stop.value
            self._store.clock.sleep(step.clock_seconds)

    def scan(
        self,
        columns: "Iterable[str] | None" = None,
        where: "Mapping[str, Predicate] | None" = None,
    ) -> Relation:
        """Projection + filter, downloading only the touched columns.

        With a predicate and a stats-bearing manifest, projection columns
        are fetched at block granularity too: only blocks containing
        matching rows are range-GET'd, so bytes moved scale with selectivity
        rather than table size.
        """
        return self._drive_steps(self.scan_steps(columns, where=where))

    def _materialise_rows(self, name: str, rows: np.ndarray, handover=None) -> Column:
        """Rows of one column: taken from its filter's ``handover`` (rows,
        values) where it covers them, the rest block-pruned when possible,
        else from a full fetch."""
        entry = self.column_entry(name)
        if handover is not None:
            covered, values = handover
            if np.array_equal(covered, rows):  # one predicate, every block handed
                return Column(name, ColumnType(entry["type"]), values)
            at, found = locate_sorted(covered, rows)
            if found.all():
                return Column(name, ColumnType(entry["type"]), take_values(values, at))
            # Blocks whose route decoded none of their hits: read those rows,
            # then put both parts back in row order.
            rest = self._materialise_rows(name, rows[~found])
            taken = int(found.sum())
            order = np.where(found, np.cumsum(found) - 1, taken + np.cumsum(~found) - 1)
            parts = [take_values(values, at[found]), rest.data]
            # (No NULLs: every row is a hit of the column's value predicate.)
            return Column(name, rest.ctype, take_values(concat_values(parts, rest.ctype), order))
        try:
            column = self._read_rows_pruned(entry, rows)
        except _PrunedPathUnavailable:
            column = None
        if column is None:
            column = self._read_rows(entry, self._fetch_column_for_rows(name), rows)
        return column

    def count(self, where: Mapping[str, Predicate]) -> int:
        return int(self._matching_positions(where).size)

    def aggregate(
        self,
        column: str,
        agg: str,
        where: "Mapping[str, Predicate] | None" = None,
    ) -> float:
        """Aggregate one column over the rows :meth:`scan` returns.

        NULL rows are excluded, following SQL aggregate semantics; string
        columns support only ``count``.
        """
        if agg not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {agg!r}; choose from {sorted(_AGGREGATES)}")
        if self.column_entry(column)["type"] == ColumnType.STRING.value and agg != "count":
            raise ValueError("only 'count' is supported for string columns")
        materialised = self.scan(columns=[column], where=where).columns[0]
        mask = ~materialised.null_mask()
        if agg == "count":
            return int(mask.sum())
        values = np.asarray(materialised.data)[mask]
        return float(_AGGREGATES[agg](values)) if values.size else float("nan")


class TableWriter:
    """Crash-consistent table commits via staged uploads + a manifest.

    The commit protocol, in PUT-class protocol steps:

    1. every column object is staged through the multipart protocol under
       the new version's prefix (initiate + parts);
    2. the manifest object is staged the same way;
    3. the column uploads are completed (objects exist, but nothing
       references them yet);
    4. the manifest upload is completed — **the commit point**. The
       manifest appears atomically, so a reader either resolves the
       previous version or the complete new one, never a mix.

    A writer that dies anywhere before step 4 has changed nothing a reader
    can observe; its staged parts and orphaned data objects are reclaimed
    by :func:`recover`. A writer that fails without dying aborts its own
    staged uploads and deletes its own completed objects before re-raising.

    ``writer_id`` namespaces the data-object keys so two writers racing to
    the same version number cannot clobber each other's staged objects;
    the loser detects the existing manifest at its commit point and raises
    :class:`~repro.exceptions.CommitConflictError` (re-stage at a fresh
    version to resolve).
    """

    def __init__(self, store: SimulatedObjectStore, writer_id: str = "w0") -> None:
        self._store = store
        self.writer_id = writer_id

    def committed_versions(self, name: str) -> list[int]:
        """Versions with a manifest, ascending. One LIST, no data GETs."""
        versions = []
        prefix = f"{name}/{MANIFEST_DIR}/"
        for key in self._store.keys(prefix):
            stem = key[len(prefix) :]
            if stem.endswith(".json") and stem[:-5].isdigit():
                versions.append(int(stem[:-5]))
        return sorted(versions)

    def next_version(self, name: str) -> int:
        committed = self.committed_versions(name)
        return committed[-1] + 1 if committed else 1

    def write(
        self,
        compressed: CompressedRelation,
        version: "int | None" = None,
        format_version: int = FORMAT_VERSION,
        with_stats: "bool | None" = None,
    ) -> int:
        """Stage and atomically commit one table version; returns it.

        Columns compressed with statistics (the default) commit them twice:
        as a checksummed footer inside each column object, and as zone-map
        entries — bound to each block's CRC32, with per-block byte ranges —
        inside the manifest, where :class:`RemoteTable` prunes GETs with
        them. ``with_stats=False`` writes a stats-less table.

        Raises :class:`~repro.exceptions.CommitConflictError` if another
        writer committed the version first (nothing of this attempt stays
        behind). Any other failure rolls the staging back; only a writer
        *crash* leaves garbage, which :func:`recover` reclaims.
        """
        name = compressed.name
        registry = get_registry()
        if version is None:
            version = self.next_version(name)
        commit_key = manifest_key(name, version)
        if self._store.keys(commit_key):
            registry.incr("cloud.write.commit_conflicts")
            raise CommitConflictError(
                f"table {name!r} version {version} is already committed"
            )
        manifest: dict = {"name": name, "version": version, "columns": []}
        if format_version != 1:
            manifest["format_version"] = format_version
        payloads: dict[str, bytes] = {}
        for index, column in enumerate(compressed.columns):
            key = f"{version_prefix(name, version)}{self.writer_id}-col_{index:04d}.btr"
            payload = column_to_bytes(column, version=format_version, with_stats=with_stats)
            payloads[key] = payload
            manifest["columns"].append(
                column_meta_entry(
                    column, key, len(payload), format_version, with_stats
                )
            )
        payloads[commit_key] = manifest_to_bytes(manifest)

        staged: list[tuple[str, str]] = []
        completed: list[str] = []
        store = self._store
        try:
            for key, payload in payloads.items():
                upload_id = store.initiate_multipart(key)
                staged.append((upload_id, key))
                store.upload_parts(upload_id, payload)
                registry.incr("cloud.write.objects_staged")
                registry.incr("cloud.write.bytes_staged", len(payload))
            for upload_id, key in staged[:-1]:
                store.complete_multipart(upload_id)
                completed.append(key)
            # Commit point. Re-check for a racing winner as late as
            # possible; the manifest completing is what publishes us.
            if store.keys(commit_key):
                registry.incr("cloud.write.commit_conflicts")
                raise CommitConflictError(
                    f"table {name!r} version {version}: another writer committed first"
                )
            store.complete_multipart(staged[-1][0])
        except WriterCrashError:
            raise  # a dead writer cleans up nothing; recover() will
        except BaseException:
            for key in completed:
                store.delete(key)
            for upload_id, key in staged:
                try:
                    store.abort_multipart(upload_id)
                except NoSuchUploadError:
                    pass  # already completed (and deleted above)
                except WriterCrashError:
                    break
            raise
        registry.incr("cloud.write.tables_committed")
        registry.incr("cloud.write.rows_committed", compressed.columns[0].count if compressed.columns else 0)
        return version


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover` sweep reclaimed."""

    aborted_uploads: int
    reclaimed_part_bytes: int
    deleted_objects: int
    deleted_bytes: int

    @property
    def reclaimed_bytes(self) -> int:
        return self.reclaimed_part_bytes + self.deleted_bytes

    def to_dict(self) -> dict:
        return {
            "aborted_uploads": self.aborted_uploads,
            "reclaimed_part_bytes": self.reclaimed_part_bytes,
            "deleted_objects": self.deleted_objects,
            "deleted_bytes": self.deleted_bytes,
            "reclaimed_bytes": self.reclaimed_bytes,
        }


def recover(store: SimulatedObjectStore, name: str) -> RecoveryReport:
    """Sweep a crashed writer's garbage from one table's prefix.

    Two kinds of garbage exist, matching the two pre-commit failure zones:
    pending multipart uploads (parts staged, never completed — including
    uploads orphaned by a duplicate-delivered initiate) and data objects in
    version directories that no committed manifest references (the writer
    died between completing columns and completing the manifest, or lost a
    commit race). Committed versions are never touched. Aborts and deletes
    are free requests, so recovery costs nothing beyond the bytes already
    sunk.
    """
    registry = get_registry()
    aborted = 0
    part_bytes = 0
    for info in store.pending_uploads(f"{name}/"):
        part_bytes += store.abort_multipart(info.upload_id)
        aborted += 1

    referenced: set[str] = set()
    unreadable: set[int] = set()
    manifest_prefix = f"{name}/{MANIFEST_DIR}/"
    for key in store.keys(manifest_prefix):
        stem = key[len(manifest_prefix) :]
        version = int(stem[:-5]) if stem.endswith(".json") and stem[:-5].isdigit() else None
        try:
            manifest = RemoteTable._fetch_json(store, key).body
            referenced.update(entry["file"] for entry in manifest["columns"])
        except (FormatError, IntegrityError):
            # Conservative: a manifest that fails its CRC32 or does not
            # parse still pins its version's data — never delete what might
            # be committed.
            if version is not None:
                unreadable.add(version)

    deleted = 0
    deleted_bytes = 0
    table_prefix = f"{name}/"
    for key in store.keys(table_prefix):
        match = _VERSION_DIR_RE.match(key[len(table_prefix) :])
        if match is None:
            continue
        version = int(match.group(1))
        if version in unreadable or key in referenced:
            continue
        deleted_bytes += store.delete(key)
        deleted += 1

    registry.incr("cloud.write.recovered_uploads", aborted)
    registry.incr("cloud.write.recovered_objects", deleted)
    registry.incr("cloud.write.recovered_bytes", part_bytes + deleted_bytes)
    return RecoveryReport(aborted, part_bytes, deleted, deleted_bytes)
