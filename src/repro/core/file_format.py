"""Serialized BtrBlocks file layout.

The paper deliberately decouples compression from file-format concerns
(Section 2.1): BtrBlocks "only produces blocks of compressed data with a
configurable size", metadata lives in a *separate* file, and the S3 layout
uses one file per column (Section 6.7). This module implements exactly that:

* :func:`column_to_bytes` / :func:`column_from_bytes` — one column file
  containing its compressed blocks.
* :func:`relation_to_bytes` / :func:`relation_from_bytes` — a table as one
  local ``.btr`` buffer: one file per column plus a ``table.meta`` object
  describing the schema, counts and per-column sizes. On an object store
  the same column files are committed under a versioned manifest instead
  (:mod:`repro.cloud.remote_table`).

Two column-file versions exist. v1 (magic ``BTRC``) has no checksums; v2
(magic ``BTR2``, the default writer output) appends a CRC32 of each block's
``data + nulls`` bytes to the block header, so damage from a bad download
or bit rot is detected at block granularity during decode (see
``docs/RELIABILITY.md``). The reader dispatches on the magic, so v1 files
keep decoding unchanged.

v2 files additionally carry the column's per-block statistics as a
self-checking ``ZMAP`` footer *after* the last block (``docs/FORMAT.md``
§7) — readers that stop at the declared block count never see it, which is
what keeps stats-bearing files readable by pre-footer readers, and lets a
damaged footer drop the statistics without touching the data. The same
statistics go into manifest (and ``.btr`` index) column entries as packed
zone-map records carrying each block's byte range (:func:`column_meta_entry`),
which is what ``RemoteTable`` uses to prune and range-GET individual blocks.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.blockstats import (
    pack_zone,
    stats_footer_from_bytes,
    stats_footer_to_bytes,
    string_bounds_to_json,
    zone_records,
)
from repro.core.config import DEFAULT_DECODE_LIMITS, DecodeLimits
from repro.exceptions import DecodeLimitError, FormatError, IntegrityError
from repro.types import ColumnType

_COLUMN_MAGIC = b"BTRC"
_COLUMN_MAGIC_V2 = b"BTR2"
#: Column-file version written by default.
FORMAT_VERSION = 2
_TYPE_CODES = {ColumnType.INTEGER: 0, ColumnType.DOUBLE: 1, ColumnType.STRING: 2}
_CODE_TYPES = {v: k for k, v in _TYPE_CODES.items()}


def block_checksum(data: bytes, nulls: "bytes | None", count: int = 0) -> int:
    """CRC32 of a block as stored in v2 files.

    Seeded with the declared value count so a damaged count field — which
    would silently misalign NULL rebasing and row accounting — is caught
    like any payload flip.
    """
    crc = zlib.crc32(struct.pack("<I", count))
    crc = zlib.crc32(data, crc)
    if nulls:
        crc = zlib.crc32(nulls, crc)
    return crc & 0xFFFFFFFF


def verify_block(block: CompressedBlock) -> bool:
    """True when the block has no checksum or its payload still matches it.

    A pass over immutable ``bytes`` is remembered on the block: while it
    holds the same ``data`` and ``nulls`` objects (``is``), count and
    checksum, nothing is hashed again. Any other object or value is hashed;
    a ``bytearray`` payload or a failure is hashed on every call.
    """
    memo = block.verified  # (no tuple is built on the warm path)
    if memo and memo[0] is block.data and memo[1] is block.nulls and memo[2] == block.count:
        if memo[3] == block.checksum:
            return True
    if block.checksum is None:
        return True
    data, nulls = block.data, block.nulls
    if block_checksum(data, nulls, block.count) != block.checksum:
        return False
    if isinstance(data, bytes) and (nulls is None or isinstance(nulls, bytes)):
        block.verified = (data, nulls, block.count, block.checksum)
    return True


def verify_column(column: CompressedColumn) -> None:
    """Raise :class:`IntegrityError` on the first checksum-damaged block."""
    for index, block in enumerate(column.blocks):
        if not verify_block(block):
            raise IntegrityError(
                f"column {column.name!r} block {index}: payload does not "
                f"match stored CRC32"
            )


def column_to_bytes(
    column: CompressedColumn,
    version: int = FORMAT_VERSION,
    with_stats: "bool | None" = None,
) -> bytes:
    """Serialize one compressed column to a standalone byte string.

    v2 files whose blocks all carry statistics gain a CRC32-protected stats
    footer after the last block (see :mod:`repro.core.blockstats`); readers
    that stop at the declared block count — including every pre-stats reader
    — never see it, so the block layout is unchanged. ``with_stats=False``
    suppresses the footer; ``True`` requires stats on every block. v1 files
    are frozen and never carry one.
    """
    if version not in (1, 2):
        raise FormatError(f"unknown column format version {version}")
    stats = column.block_stats if version == 2 else None
    if with_stats and stats is None:
        raise FormatError(
            "with_stats=True requires statistics on every block of a v2 column"
        )
    if with_stats is False:
        stats = None
    name_bytes = column.name.encode("utf-8")
    parts = [
        _COLUMN_MAGIC if version == 1 else _COLUMN_MAGIC_V2,
        struct.pack("<BH", _TYPE_CODES[column.ctype], len(name_bytes)),
        name_bytes,
        struct.pack("<I", len(column.blocks)),
    ]
    if version == 2:
        # Header CRC: covers magic through block_count, so damage to the
        # type code, name or block count cannot silently reshape the file.
        parts.append(struct.pack("<I", zlib.crc32(b"".join(parts)) & 0xFFFFFFFF))
    for block in column.blocks:
        nulls = block.nulls or b""
        if version == 1:
            parts.append(struct.pack("<III", block.count, len(block.data), len(nulls)))
        else:
            parts.append(
                struct.pack(
                    "<IIII",
                    block.count,
                    len(block.data),
                    len(nulls),
                    block_checksum(block.data, block.nulls, block.count),
                )
            )
        parts.append(block.data)
        parts.append(nulls)
    if stats is not None:
        parts.append(stats_footer_to_bytes(stats))
    return b"".join(parts)


def column_block_ranges(
    column: CompressedColumn, version: int = FORMAT_VERSION
) -> "list[tuple[int, int]]":
    """Byte extent ``(offset, length)`` of each block region — block header
    through NULL bitmap — inside :func:`column_to_bytes` output.

    These are what the manifest records so a pruning reader can range-GET
    individual surviving blocks without the rest of the column file.
    """
    if version not in (1, 2):
        raise FormatError(f"unknown column format version {version}")
    pos = 7 + len(column.name.encode("utf-8")) + 4 + (4 if version == 2 else 0)
    header_size = 12 if version == 1 else 16
    ranges = []
    for block in column.blocks:
        size = header_size + len(block.data) + len(block.nulls or b"")
        ranges.append((pos, size))
        pos += size
    return ranges


def block_from_region(data: bytes, count_hint: "int | None" = None) -> CompressedBlock:
    """Parse one v2 block region (as fetched by a ranged GET) into a block.

    The bytes are untrusted: the declared payload extents must exactly fill
    the region, and ``count_hint`` (the manifest's row count for this block)
    must match the declared count when given. Checksum verification is the
    caller's job, as everywhere else.
    """
    if len(data) < 16:
        raise FormatError("block region shorter than its header")
    count, data_len, nulls_len, checksum = struct.unpack_from("<IIII", data, 0)
    if 16 + data_len + nulls_len != len(data):
        raise FormatError(
            f"block region declares {data_len} + {nulls_len} payload bytes "
            f"but spans {len(data) - 16}"
        )
    if count_hint is not None and count != count_hint:
        raise FormatError(
            f"block region declares {count} rows, manifest stats say {count_hint}"
        )
    blob = data[16 : 16 + data_len]
    nulls = data[16 + data_len :] if nulls_len else None
    return CompressedBlock(count, blob, nulls, checksum=checksum)


def column_from_bytes(
    data: bytes, limits: "DecodeLimits | None" = None
) -> CompressedColumn:
    """Inverse of :func:`column_to_bytes`; reads v1 and v2 files.

    The input is treated as untrusted. Structural damage (bad magic,
    truncated headers or payloads, declared extents that exceed the actual
    file size) raises :class:`FormatError`; declared counts and lengths are
    additionally checked against ``limits`` (default
    :data:`~repro.core.config.DEFAULT_DECODE_LIMITS`) *before* any slice or
    allocation, raising :class:`DecodeLimitError`, so an adversarial file
    cannot request a giant allocation with a few header bytes. Checksum
    mismatches are *not* checked during parsing — blocks carry their stored
    CRC32 and are verified lazily by :func:`verify_column` or block decode,
    which is what lets the decompressor degrade at block granularity
    instead of rejecting the file.
    """
    limits = limits or DEFAULT_DECODE_LIMITS
    magic = data[:4]
    if magic == _COLUMN_MAGIC:
        version = 1
    elif magic == _COLUMN_MAGIC_V2:
        version = 2
    else:
        raise FormatError("bad column file magic")
    if len(data) < 11:
        raise FormatError("truncated column header")
    type_code, name_len = struct.unpack_from("<BH", data, 4)
    if type_code not in _CODE_TYPES:
        raise FormatError(f"unknown column type code {type_code}")
    if name_len > limits.max_name_bytes:
        raise DecodeLimitError(
            f"declared column name length {name_len} exceeds limit "
            f"{limits.max_name_bytes}"
        )
    pos = 7
    if pos + name_len + 4 > len(data):
        raise FormatError("truncated column header")
    try:
        name = data[pos : pos + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"column name is not valid UTF-8: {exc}") from exc
    pos += name_len
    (block_count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version == 2:
        if pos + 4 > len(data):
            raise FormatError("truncated column header")
        (header_crc,) = struct.unpack_from("<I", data, pos)
        if zlib.crc32(data[:pos]) & 0xFFFFFFFF != header_crc:
            raise IntegrityError("column file header does not match its CRC32")
        pos += 4
    header_size = 12 if version == 1 else 16
    if block_count > limits.max_blocks_per_column:
        raise DecodeLimitError(
            f"declared block count {block_count} exceeds limit "
            f"{limits.max_blocks_per_column}"
        )
    if block_count * header_size > len(data) - pos:
        raise FormatError(
            f"declared block count {block_count} exceeds the file's "
            f"{len(data) - pos} remaining bytes"
        )
    column = CompressedColumn(name, _CODE_TYPES[type_code])
    for _ in range(block_count):
        if pos + header_size > len(data):
            raise FormatError("truncated block header")
        if version == 1:
            count, data_len, nulls_len = struct.unpack_from("<III", data, pos)
            checksum = None
        else:
            count, data_len, nulls_len, checksum = struct.unpack_from("<IIII", data, pos)
        if count > limits.max_rows_per_block:
            raise DecodeLimitError(
                f"declared block row count {count} exceeds limit "
                f"{limits.max_rows_per_block}"
            )
        if data_len > limits.max_bytes_per_block or nulls_len > limits.max_bytes_per_block:
            raise DecodeLimitError(
                f"declared block payload ({data_len} + {nulls_len} bytes) "
                f"exceeds limit {limits.max_bytes_per_block}"
            )
        pos += header_size
        if data_len + nulls_len > len(data) - pos:
            raise FormatError("truncated block payload")
        blob = data[pos : pos + data_len]
        pos += data_len
        nulls = data[pos : pos + nulls_len] if nulls_len else None
        pos += nulls_len
        column.blocks.append(CompressedBlock(count, blob, nulls, checksum=checksum))
    if version == 2 and pos < len(data):
        _attach_stats_footer(column, data[pos:])
    return column


def _attach_stats_footer(column: CompressedColumn, trailer: bytes) -> None:
    """Parse a v2 column file's trailing stats section onto its blocks.

    Damage never fails the read — block payloads carry their own checksums,
    so a broken footer only costs pruning. The column is flagged
    ``stats_invalid`` so consumers can count and report the loss. Trailing
    bytes that are not a stats footer at all are ignored (room for future
    sections).
    """
    if trailer[:4] != b"ZMAP":
        return
    try:
        entries = stats_footer_from_bytes(trailer)
        if len(entries) != len(column.blocks):
            raise FormatError(
                f"stats footer has {len(entries)} entries for "
                f"{len(column.blocks)} blocks"
            )
        for block, entry in zip(column.blocks, entries):
            if entry.row_count != block.count:
                raise FormatError(
                    f"stats footer row count {entry.row_count} does not match "
                    f"block count {block.count}"
                )
    except FormatError:
        column.stats_invalid = True
        return
    for block, entry in zip(column.blocks, entries):
        block.stats = entry


def column_meta_entry(
    column: CompressedColumn,
    filename: str,
    payload_len: int,
    version: int = FORMAT_VERSION,
    with_stats: "bool | None" = None,
) -> dict:
    """One column's entry for a table manifest (or a ``.btr`` index).

    When the column carries per-block statistics (and ``with_stats`` is not
    ``False``), the entry additionally records ``zone``: one packed
    :data:`~repro.core.blockstats.ZONE_RECORD` per block — its statistics,
    its content CRC32 (binding the record to the block) and its byte extent
    inside the file — and, for a string column, ``bounds``: each block's
    string bounds and Bloom digest. That is everything a remote reader needs
    to skip or range-GET individual blocks before any data bytes move.
    """
    entry = {
        "name": column.name,
        "type": column.ctype.value,
        "file": filename,
        "rows": column.count,
        "bytes": payload_len,
        "blocks": len(column.blocks),
    }
    stats = column.block_stats if version == 2 and with_stats is not False else None
    if stats is not None:
        checksums = [block_checksum(block.data, block.nulls, block.count) for block in column.blocks]
        entry["zone"] = pack_zone(
            zone_records(stats, checksums, column_block_ranges(column, version))
        )
        if column.ctype is ColumnType.STRING:
            entry["bounds"] = [string_bounds_to_json(entry_stats) for entry_stats in stats]
    return entry


def relation_to_bytes(
    relation: CompressedRelation,
    version: int = FORMAT_VERSION,
    with_stats: "bool | None" = None,
) -> bytes:
    """Serialize a relation to the local single-file ``.btr`` container.

    A length-prefixed JSON index ``{"name", "files": {key: size}}`` is
    followed by one column file per column and a ``<name>/table.meta``
    object (schema, counts, sizes and the :func:`column_meta_entry` of each
    column). Object stores hold tables in the manifest layout instead
    (:class:`~repro.cloud.remote_table.TableWriter`).
    """
    files: dict[str, bytes] = {}
    meta = {"name": relation.name, "columns": []}
    if version != 1:
        meta["format_version"] = version
    for index, column in enumerate(relation.columns):
        filename = f"{relation.name}/col_{index:04d}.btr"
        payload = column_to_bytes(column, version=version, with_stats=with_stats)
        files[filename] = payload
        meta["columns"].append(
            column_meta_entry(column, filename, len(payload), version, with_stats)
        )
    files[f"{relation.name}/table.meta"] = json.dumps(meta).encode("utf-8")
    index = {key: len(value) for key, value in files.items()}
    header = json.dumps({"name": relation.name, "files": index}).encode("utf-8")
    return b"".join([struct.pack("<I", len(header)), header, *files.values()])


def relation_from_bytes(data: bytes) -> CompressedRelation:
    """Inverse of :func:`relation_to_bytes`."""
    (header_len,) = struct.unpack_from("<I", data, 0)
    header = json.loads(data[4 : 4 + header_len].decode("utf-8"))
    pos = 4 + header_len
    files: dict[str, bytes] = {}
    for key, size in header["files"].items():
        files[key] = data[pos : pos + size]
        pos += size
    meta_key = f"{header['name']}/table.meta"
    if meta_key not in files:
        raise FormatError(f"missing metadata file {meta_key}")
    meta = json.loads(files[meta_key].decode("utf-8"))
    return CompressedRelation(
        meta["name"], [column_from_bytes(files[entry["file"]]) for entry in meta["columns"]]
    )
