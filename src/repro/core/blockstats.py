"""Per-block statistics: min/max, null count and a string Bloom digest.

The paper keeps metadata *out* of the compressed blocks (Section 2.1), but a
data-lake reader needs per-block statistics *somewhere* to skip GETs before
any bytes move. :class:`BlockStats` is that record. It lives in three places,
all produced from the same uncompressed chunk at write time:

* attached to the in-memory :class:`~repro.core.blocks.CompressedBlock`;
* appended to v2 column files as a CRC32-protected trailing section (see
  :func:`stats_footer_to_bytes` and ``docs/FORMAT.md``) that old readers —
  which stop after the declared block count — never look at;
* packed into the table manifest (or ``.btr`` index) as one
  :data:`ZONE_RECORD` per block (:func:`pack_zone`), string bounds beside
  them in JSON, which is what lets
  :class:`~repro.cloud.remote_table.RemoteTable` prune whole chunk GETs.

Pruning must never produce a false negative, so every bound here is
conservative: string minima may be truncated prefixes (still a valid lower
bound), string maxima are byte-successors of prefixes or dropped entirely
when no finite successor exists, NaNs are excluded from numeric ranges
(they match no comparison predicate) while infinities are kept, and the
Bloom filter inserts *every* distinct value or is not built at all.

This module sits below :mod:`repro.core.file_format` in the import graph and
must not import :mod:`repro.query` or :mod:`repro.metadata` at module level
(both reach back into the decode stack).
"""

from __future__ import annotations

import base64
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.encodings.strutil import distinct_rows, encode_distinct
from repro.exceptions import FormatError
from repro.types import Column, ColumnType

#: Cap on distinct strings per block before the Bloom digest is dropped.
BLOOM_MAX_DISTINCT = 512
#: Cap on Bloom filter size (bits) for one block.
BLOOM_MAX_BITS = 4096
#: Target bits per distinct key (k is derived from this).
BLOOM_BITS_PER_KEY = 10
#: String min/max bounds are truncated to this many bytes.
STRING_BOUND_MAX_BYTES = 64

_FOOTER_MAGIC = b"ZMAP"
_FOOTER_VERSION = 1

_F_NUMERIC = 1  # minimum/maximum present (f64 pair)
_F_MIN_BYTES = 2  # string lower bound present
_F_MAX_BYTES = 4  # string upper bound present
_F_BLOOM = 8  # Bloom digest present


class BloomFilter:
    """A tiny per-block Bloom filter over raw string bytes.

    Double hashing over two salted CRC32s; ``may_contain`` returning
    ``False`` guarantees the value was not inserted. Built only when the
    block's distinct count is small (:data:`BLOOM_MAX_DISTINCT`), so the
    digest stays a few hundred bytes.
    """

    __slots__ = ("bits", "nbits", "k")

    def __init__(self, bits: bytes, nbits: int, k: int) -> None:
        if nbits <= 0 or k <= 0 or len(bits) * 8 < nbits:
            raise FormatError("malformed Bloom digest")
        self.bits = bits
        self.nbits = nbits
        self.k = k

    @classmethod
    def build(cls, values: "list[bytes]") -> "BloomFilter":
        """A digest of ``values``, which must be distinct (they size it)."""
        n = max(1, len(values))
        nbits = min(BLOOM_MAX_BITS, max(64, n * BLOOM_BITS_PER_KEY))
        k = max(1, min(8, round(0.69 * nbits / n)))
        array = bytearray((nbits + 7) // 8)
        for value in values:
            for index in cls._indices(value, nbits, k):
                array[index >> 3] |= 1 << (index & 7)
        return cls(bytes(array), nbits, k)

    @staticmethod
    def _indices(value: bytes, nbits: int, k: int):
        h1 = zlib.crc32(value) & 0xFFFFFFFF
        h2 = (zlib.crc32(value, 0x9E3779B9) & 0xFFFFFFFF) | 1
        for i in range(k):
            yield (h1 + i * h2) % nbits

    def may_contain(self, value: bytes) -> bool:
        for index in self._indices(value, self.nbits, self.k):
            if not (self.bits[index >> 3] >> (index & 7)) & 1:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (self.bits, self.nbits, self.k) == (other.bits, other.nbits, other.k)

    def __repr__(self) -> str:
        return f"BloomFilter(nbits={self.nbits}, k={self.k})"


@dataclass(frozen=True)
class BlockStats:
    """Statistics for one 64k block (the zone-map entry).

    ``minimum``/``maximum`` cover numeric columns; ``min_bytes``/``max_bytes``
    cover strings (``max_bytes is None`` with ``min_bytes`` set means the
    upper bound is unknown — truncation left no finite successor). ``bloom``
    is an optional distinct-value digest for string equality predicates.
    ``checksum`` binds a *persisted* entry to the CRC32 of the block it
    describes, so stale statistics are caught the moment the block is read.
    """

    row_count: int
    null_count: int
    minimum: "float | None"
    maximum: "float | None"
    min_bytes: "bytes | None" = None
    max_bytes: "bytes | None" = None
    bloom: "BloomFilter | None" = None
    checksum: "int | None" = None

def _string_bounds(values: "list[bytes]") -> "tuple[bytes | None, bytes | None]":
    """Conservative (lower, upper) byte bounds for a list of bytes.

    Long minima truncate to a prefix (any prefix of x is <= x). Long maxima
    become the shortest byte-successor of a prefix — strictly greater than
    every string sharing it — or ``None`` when the prefix is all ``0xFF``.
    """
    if not values:
        return None, None
    lo = min(values)[:STRING_BOUND_MAX_BYTES]
    hi = max(values)
    if len(hi) > STRING_BOUND_MAX_BYTES:
        hi = _byte_successor(hi[:STRING_BOUND_MAX_BYTES])
    return lo, hi


def _byte_successor(prefix: bytes) -> "bytes | None":
    """The shortest byte string greater than every string starting with
    ``prefix``, or ``None`` when there is none (all bytes are 0xFF)."""
    for cut in range(len(prefix), 0, -1):
        last = prefix[cut - 1]
        if last != 0xFF:
            return prefix[: cut - 1] + bytes([last + 1])
    return None


def compute_block_stats(
    chunk: Column,
    bloom_max_distinct: int = BLOOM_MAX_DISTINCT,
) -> BlockStats:
    """Statistics of one uncompressed block chunk (NULL rows excluded).

    Numeric ranges keep infinities (a pruned ``x > huge`` must still see an
    ``inf`` row) and drop only NaNs, which no comparison predicate matches.
    """
    null_mask = chunk.null_mask()
    null_count = int(null_mask.sum())
    minimum = maximum = None
    min_bytes = max_bytes = None
    bloom = None
    if chunk.ctype is ColumnType.STRING:
        # Memoised on the chunk: the selector already coded these rows.
        present = distinct_rows(chunk.data)
        if null_count:
            codes = encode_distinct(chunk.data)[0]
            present = [present[code] for code in np.unique(codes[~null_mask]).tolist()]
        min_bytes, max_bytes = _string_bounds(present)
        if 0 < len(present) <= bloom_max_distinct:
            bloom = BloomFilter.build(present)
    else:
        values = np.asarray(chunk.data, dtype=np.float64)
        valid_values = values[~null_mask]
        if chunk.ctype is ColumnType.DOUBLE:
            valid_values = valid_values[~np.isnan(valid_values)]
        if valid_values.size:
            minimum = float(valid_values.min())
            maximum = float(valid_values.max())
    return BlockStats(
        row_count=len(chunk),
        null_count=null_count,
        minimum=minimum,
        maximum=maximum,
        min_bytes=min_bytes,
        max_bytes=max_bytes,
        bloom=bloom,
    )


# -- binary wire form (the v2 column-file stats footer) ------------------------


def _pack_entry(entry: BlockStats) -> bytes:
    flags = 0
    parts = [b""]  # placeholder for the flags byte
    if entry.minimum is not None and entry.maximum is not None:
        flags |= _F_NUMERIC
        parts.append(struct.pack("<dd", entry.minimum, entry.maximum))
    if entry.min_bytes is not None:
        flags |= _F_MIN_BYTES
        parts.append(struct.pack("<H", len(entry.min_bytes)) + entry.min_bytes)
    if entry.max_bytes is not None:
        flags |= _F_MAX_BYTES
        parts.append(struct.pack("<H", len(entry.max_bytes)) + entry.max_bytes)
    if entry.bloom is not None:
        flags |= _F_BLOOM
        parts.append(
            struct.pack("<HBH", entry.bloom.nbits, entry.bloom.k, len(entry.bloom.bits))
            + entry.bloom.bits
        )
    parts[0] = struct.pack("<BII", flags, entry.row_count, entry.null_count)
    return b"".join(parts)


def _unpack_entry(buf: bytes, pos: int) -> "tuple[BlockStats, int]":
    flags, row_count, null_count = struct.unpack_from("<BII", buf, pos)
    pos += 9
    minimum = maximum = None
    min_bytes = max_bytes = None
    bloom = None
    if flags & _F_NUMERIC:
        minimum, maximum = struct.unpack_from("<dd", buf, pos)
        pos += 16
    if flags & _F_MIN_BYTES:
        (length,) = struct.unpack_from("<H", buf, pos)
        min_bytes = bytes(buf[pos + 2 : pos + 2 + length])
        pos += 2 + length
    if flags & _F_MAX_BYTES:
        (length,) = struct.unpack_from("<H", buf, pos)
        max_bytes = bytes(buf[pos + 2 : pos + 2 + length])
        pos += 2 + length
    if flags & _F_BLOOM:
        nbits, k, length = struct.unpack_from("<HBH", buf, pos)
        bloom = BloomFilter(bytes(buf[pos + 5 : pos + 5 + length]), nbits, k)
        pos += 5 + length
    entry = BlockStats(row_count, null_count, minimum, maximum, min_bytes, max_bytes, bloom)
    return entry, pos


def stats_footer_to_bytes(entries: "list[BlockStats]") -> bytes:
    """Serialize per-block stats as a self-checking column-file footer.

    Layout: ``b"ZMAP"`` + u8 version + u32 entry count + packed entries +
    u32 CRC32 of everything before it. The footer sits *after* the last
    block, where readers that stop at the declared block count never look.
    """
    body = [_FOOTER_MAGIC, struct.pack("<BI", _FOOTER_VERSION, len(entries))]
    body.extend(_pack_entry(entry) for entry in entries)
    blob = b"".join(body)
    return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)


def stats_footer_from_bytes(data: bytes) -> "list[BlockStats]":
    """Parse a stats footer; raises :class:`FormatError` on any damage.

    The bytes are untrusted: every declared length is bounds-checked and the
    trailing CRC32 must match. Callers treat a raise as "stats unavailable"
    — block payloads carry their own checksums, so a damaged footer never
    affects decoded data.
    """
    if len(data) < 13 or data[:4] != _FOOTER_MAGIC:
        raise FormatError("bad stats footer magic")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != crc:
        raise FormatError("stats footer does not match its CRC32")
    version, count = struct.unpack_from("<BI", data, 4)
    if version != _FOOTER_VERSION:
        raise FormatError(f"unknown stats footer version {version}")
    if count * 9 > len(data) - 13:
        raise FormatError("stats footer entry count exceeds its payload")
    entries = []
    pos = 9
    try:
        for _ in range(count):
            entry, pos = _unpack_entry(data, pos)
            entries.append(entry)
    except (struct.error, FormatError) as exc:
        raise FormatError(f"truncated stats footer: {exc}") from exc
    if pos != len(data) - 4:
        raise FormatError("stats footer has trailing garbage")
    return entries


# -- JSON form (manifests and the .btr index) ----------------------------------


def _b64(data: "bytes | None") -> "str | None":
    return None if data is None else base64.b64encode(data).decode("ascii")


def _unb64(text: "str | None") -> "bytes | None":
    return None if text is None else base64.b64decode(text.encode("ascii"), validate=True)


def string_bounds_to_json(entry: BlockStats) -> list:
    """A string block's ``[min, max, Bloom digest]`` as a manifest stores it
    (base64 bytes; ``null`` where absent)."""
    bloom = None
    if entry.bloom is not None:
        bloom = [entry.bloom.nbits, entry.bloom.k, _b64(entry.bloom.bits)]
    return [_b64(entry.min_bytes), _b64(entry.max_bytes), bloom]


def string_bounds_from_json(item: list) -> "tuple[bytes | None, bytes | None, BloomFilter | None]":
    """Inverse of :func:`string_bounds_to_json`; :class:`FormatError` when malformed."""
    try:
        min_b64, max_b64, bloom_json = item
        bloom = None
        if bloom_json is not None:
            nbits, k, bits_b64 = bloom_json
            bloom = BloomFilter(_unb64(bits_b64), int(nbits), int(k))
        return _unb64(min_b64), _unb64(max_b64), bloom
    except FormatError:
        raise
    except Exception as exc:  # wrong shape, bad base64, ...
        raise FormatError(f"malformed string bounds: {exc}") from exc


def stats_entry_to_json(entry: BlockStats) -> list:
    """Every field of one record as a JSON list (a stable form to hash stats by)."""
    return [
        entry.row_count, entry.null_count, entry.minimum, entry.maximum,
        *string_bounds_to_json(entry), entry.checksum,
    ]


# -- packed zone-map records (manifests and the .btr index) --------------------

#: One block's zone-map record as a manifest stores it: little-endian and
#: unpadded (41 bytes). ``lo`` / ``hi`` mean something only where
#: ``has_range`` is set (a block of only NULLs or NaNs has no range); ``crc``
#: binds the record to its block's CRC32 and ``offset`` / ``size`` give the
#: block's byte extent inside its column file.
ZONE_RECORD = np.dtype([
    ("rows", "<u4"), ("nulls", "<u4"), ("lo", "<f8"), ("hi", "<f8"), ("has_range", "?"),
    ("crc", "<u4"), ("offset", "<u8"), ("size", "<u4"),
])


def zone_records(stats: "list[BlockStats]", checksums=None, ranges=None) -> np.ndarray:
    """One :data:`ZONE_RECORD` per block. ``checksums`` / ``ranges`` (the
    blocks' CRC32s and ``(offset, size)`` extents) stay zero when not given,
    as in the map of an in-memory column."""
    records = np.zeros(len(stats), ZONE_RECORD)
    ranged = [s.minimum is not None and s.maximum is not None for s in stats]
    records["rows"] = [s.row_count for s in stats]
    records["nulls"] = [s.null_count for s in stats]
    records["lo"] = [s.minimum if r else 0.0 for s, r in zip(stats, ranged)]
    records["hi"] = [s.maximum if r else 0.0 for s, r in zip(stats, ranged)]
    records["has_range"] = ranged
    if checksums is not None:
        records["crc"] = checksums
    if ranges:
        records["offset"], records["size"] = zip(*ranges)
    return records


def pack_zone(records: np.ndarray) -> str:
    """The records as one base64 string (a manifest column entry's ``"zone"``)."""
    return _b64(records.tobytes())


def unpack_zone(text: str) -> np.ndarray:
    """Inverse of :func:`pack_zone`: a read-only record array over the
    decoded bytes. Raises ``ValueError`` / ``TypeError`` when malformed."""
    return np.frombuffer(base64.b64decode(text, validate=True), ZONE_RECORD)
