"""Block, column and relation decompression.

Decompression mirrors the cascade in reverse: every node stores the scheme it
cascaded into, so decoding is a recursive dispatch over scheme ids (paper
Section 3.2). That dispatch is one function, :func:`_decode_node`, at every
cascade level and for every route -- the whole node, only the rows at a
selection of ``positions``, or the whole node into a caller's ``out`` slot --
and one block decode, :func:`decode_block`, wraps it with the CRC32 check
and the ``on_corrupt`` policy. The ``vectorized`` flag selects between the
NumPy kernels and the pure-Python scalar fallbacks used for the Section 6.8
ablation.

Blocks read from checksummed (v2) column files are verified against their
stored CRC32 before decoding. A damaged block is handled per the
``on_corrupt`` parameter of :func:`decode_block` and the ``decompress_*``
entry points:

* ``"raise"`` (default) — a typed :class:`~repro.exceptions.IntegrityError`;
* ``"skip"`` — the block's rows are dropped from the reassembled column;
* ``"null_block"`` — the block contributes its declared row count, every
  row NULL, so row alignment with sibling columns survives.

Both degrade modes also catch blocks whose payload fails to *parse* (the
only corruption signal v1 files can give) and record
``decompress.corrupt_blocks`` / ``decompress.corrupt_rows`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.bitmap import RoaringBitmap, strictly_increasing
from repro.core.blocks import CompressedBlock, CompressedColumn, CompressedRelation
from repro.core.config import DecodeLimits
from repro.core.file_format import verify_block
from repro.core.relation import Relation
from repro.encodings import strutil
from repro.encodings.base import (
    DecompressionContext,
    SchemeId,
    Values,
    get_scheme,
    prefers_full_decode,
    take_values,
)
from repro.encodings.wire import unwrap, wrap
from repro.exceptions import (
    BtrBlocksError,
    CorruptBlockError,
    DecodeLimitError,
    FormatError,
    IntegrityError,
    TypeMismatchError,
)
from repro.observe import get_registry
from repro.types import Column, ColumnType, StringArray

ON_CORRUPT_MODES = ("raise", "skip", "null_block")


def _open_node(blob: bytes, ctype: ColumnType, ctx: DecompressionContext):
    """The untrusted-input gate every decode entry runs before scheme code.

    The wire header's count is what schemes size their output allocations
    from, at every cascade level. Bound it (and the payload) first; callers
    hold schemes to the declared count afterwards so a lying header cannot
    smuggle a different row count into reassembly.
    """
    scheme_id, count, payload = unwrap(blob)
    if count > ctx.limits.max_rows_per_block:
        raise DecodeLimitError(
            f"block declares {count} values, limit is {ctx.limits.max_rows_per_block}"
        )
    if len(payload) > ctx.limits.max_bytes_per_block:
        raise DecodeLimitError(
            f"block payload of {len(payload)} bytes exceeds limit "
            f"{ctx.limits.max_bytes_per_block}"
        )
    scheme = get_scheme(scheme_id)
    if scheme.ctype is not ctype:
        raise TypeMismatchError(
            f"block encoded as {scheme.ctype.value} but read as {ctype.value}"
        )
    return scheme, count, payload


def _run_scheme(scheme, method, *args):
    """Run scheme code on untrusted bytes, typing whatever it throws.

    Scheme decoders trust their payload's internal structure (zlib streams,
    struct offsets, index arrays); malformed v1 files reach them
    unchecksummed. Everything they throw at garbage becomes the typed error
    the degrade policies and callers are written against.
    """
    try:
        return method(*args)
    except (BtrBlocksError, MemoryError):
        raise
    except Exception as exc:
        raise CorruptBlockError(
            f"{scheme.name} failed on malformed payload: {exc!r}"
        ) from exc


def _selects_sparsely(scheme, count: int, positions: np.ndarray) -> bool:
    """The filtered-vs-full crossover, from the selection alone.

    Every scheme's filtered form costs the rows it selects. Once they reach
    :func:`~repro.encodings.base.prefers_full_decode`'s share of the node,
    one full decode plus a take is cheaper, unless the scheme's filtered
    form wins even then.
    """
    if scheme.filtered_wins_dense or positions.size == 0:
        return True
    return not prefers_full_decode(positions.size, count)


def _decode_node(
    blob: bytes,
    ctype: ColumnType,
    ctx: DecompressionContext,
    positions: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    block_level: bool = False,
    expected: "int | None" = None,
    predicate=None,
    want: bool = False,
):
    """Decode one cascade node, at every level of every decode and scan:
    the :func:`_open_node` gate, the route's own check, then one
    :func:`_run_scheme` call of the scheme's one ``decompress`` (or, with a
    ``predicate``, its one ``scan``), held to the count it was asked for.

    * ``expected`` (a cascaded child's row count as its parent holds it) must
      equal the declared count, whatever the route.
    * ``out`` (a writable view of a number column's slot) is decoded into
      and ``None`` returned. A header whose count disagrees with the slot is
      rejected before any scheme code runs; on failure ``out`` may hold
      partial data -- callers degrade or re-raise, never read it.
    * ``positions`` (sorted unique rows: the public entry points establish
      that, inner cascade levels derive them from decoded geometry) returns
      those rows. Their endpoints are held to the declared count, so corrupt
      geometry is a typed error here, not an out-of-bounds crash inside a
      kernel. Selections past the crossover (and the scalar ablation, which
      has no selective kernels) decode whole and take -- no take when the
      selection covers the node; ``block_level`` callers have that counted
      as ``query.cdomain.filtered.full_decodes``.
    * Neither returns the node's values.
    * ``predicate`` returns ``(mask, values)``: the node's row mask and,
      when ``want``, the values at its hits (``None`` if the scheme's rule
      decoded none of them). The mask must cover the declared count, the
      values number its hits.
    """
    scheme, count, payload = _open_node(blob, ctype, ctx)
    if expected is not None and count != expected:
        raise FormatError(f"child node declared {count} values but its parent holds {expected}")
    if predicate is not None:
        mask, values = _run_scheme(
            scheme, scheme.scan, payload, count, ctx, predicate, want, block_level
        )
        if np.shape(mask) != (count,):
            raise FormatError(f"node declared {count} values but {scheme.name} scanned {np.size(mask)}")
        if values is not None and len(values) != np.count_nonzero(mask):
            raise FormatError(f"{scheme.name} decoded {len(values)} values for its hits")
        return mask, values
    take = None
    if out is not None:
        if count != len(out):
            raise FormatError(f"block declared {count} values but its slot holds {len(out)}")
    elif positions is not None:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (int(positions[0]) < 0 or int(positions[-1]) >= count):
            raise CorruptBlockError(
                f"selection rows span [{int(positions[0])}, {int(positions[-1])}] "
                f"but the block declares {count} values"
            )
        if not (ctx.vectorized and _selects_sparsely(scheme, count, positions)):
            if block_level:
                get_registry().incr("query.cdomain.filtered.full_decodes")
            if positions.size != count:
                take = positions
            positions = None
    values = _run_scheme(scheme, scheme.decompress, payload, count, ctx, positions, out)
    if out is not None:
        return None
    want = count if positions is None else positions.size
    if len(values) != want:
        raise FormatError(f"{scheme.name} decoded {len(values)} values where {want} were asked for")
    return values if take is None else take_values(values, take)


#: Contexts are immutable and stateless, so one is shared per
#: ``(vectorized, limits)``; limits are frozen and compare by value.
_CONTEXTS: "dict[tuple[bool, DecodeLimits | None], DecompressionContext]" = {}


def make_context(
    vectorized: bool = True,
    limits: "DecodeLimits | None" = None,
) -> DecompressionContext:
    """A decompression context whose every cascade level decodes through
    :func:`_decode_node`."""
    context = _CONTEXTS.get((vectorized, limits))
    if context is None:
        context = DecompressionContext(_decode_node, vectorized, limits)
        _CONTEXTS[vectorized, limits] = context
    return context


def decompress_block(blob: bytes, ctype: ColumnType, vectorized: bool = True) -> Values:
    """Decompress one block produced by ``compress_block``."""
    registry = get_registry()
    with registry.timer("decompress"):
        values = _decode_node(blob, ctype, make_context(vectorized))
    registry.incr("decompress.blocks")
    registry.incr("decompress.rows", len(values))
    registry.incr("decompress.input_bytes", len(blob))
    return values


#: dtype of an empty reassembled column, per logical type (matches what
#: ``Column.ints`` / ``Column.doubles`` coerce data to on the way in).
_EMPTY_DTYPES = {
    ColumnType.INTEGER: np.int32,
    ColumnType.DOUBLE: np.float64,
}


def concat_values(parts: "list[Values]", ctype: ColumnType) -> Values:
    """Value sequences joined end to end; none make an empty one of ``ctype``."""
    if len(parts) == 1:
        return parts[0]
    if ctype is ColumnType.STRING:
        return strutil.concat(parts)
    return np.concatenate(parts) if parts else np.empty(0, dtype=_EMPTY_DTYPES[ctype])


@dataclass(frozen=True)
class CorruptBlockResult:
    """Sentinel a damaged block decodes to under a degrade policy.

    ``emitted`` is the number of rows the block will contribute to the
    reassembled column: 0 under ``"skip"``, the block's declared value
    count under ``"null_block"`` (all of them NULL placeholders).
    """

    emitted: int
    reason: str = "checksum mismatch"

    def __len__(self) -> int:  # parts are length-inspected during assembly
        return self.emitted


def _hold_to_row_limit(block: CompressedBlock, limits: DecodeLimits) -> None:
    """An oversized declared count is an adversarial signal, not mere
    damage: nothing is sized from it, served from a cache for it or — under
    the degrade policies — NULL-filled to it, so it raises under every
    ``on_corrupt`` mode."""
    if block.count > limits.max_rows_per_block:
        raise DecodeLimitError(
            f"block declares {block.count} values, limit is {limits.max_rows_per_block}"
        )


def cached_block(cache, entry, blocks: "list[CompressedBlock]", limits: DecodeLimits, indices=None) -> list:
    """The one gate between a warm :class:`~repro.core.cache.DecodeCache`
    and a reader, one call per request (the filter's
    :func:`~repro.query.executor.block_mask` passes one block at a time):
    the ``blocks`` in hand, at ``indices`` of the column (default: all of it),
    and the column's ``entry`` (``cache.get(cache_key)``, ``None`` if absent).

    The caller's limits bind the largest declared count; the entry's recorded
    ``(count, CRC32)`` pairs must equal the blocks' (one tuple comparison,
    pair by pair only when it fails); and each block *in hand* must pass that
    CRC32, hashed once per block object (:func:`~repro.core.file_format.
    verify_block`) -- a warm cache never masks fresh damage. One flag per
    block: ``True`` serves it from ``entry``, ``False`` is a miss the caller
    decodes (and counts), ``None`` is never cached (no cache or no checksum).
    A declared count over the limits raises before any flag is returned, so
    a read that raises there serves, decodes and counts no block.
    """
    held, largest, biggest = [], 0, None
    for block in blocks:  # (plain loops: one block is the filter's common call)
        held.append((block.count, block.checksum))
        if block.count > largest:
            largest, biggest = block.count, block
    if largest > limits.max_rows_per_block:
        _hold_to_row_limit(biggest, limits)
    if cache is None:
        return [None] * len(blocks)
    table = entry.blocks if entry is not None else ()
    recorded = table if indices is None else tuple([table[i] for i in indices if i < len(table)])
    if tuple(held) == recorded:
        flags = []
        for block in blocks:
            flags.append(verify_block(block))
        return flags
    return [  # a block the entry did not record, or no entry: each on its own
        None if pair[1] is None else table[i : i + 1] == (pair,) and verify_block(block)
        for i, block, pair in zip(range(len(blocks)) if indices is None else indices, blocks, held)
    ]


def _block_is_intact(block: CompressedBlock, ctx: DecompressionContext, on_corrupt: str) -> bool:
    """The policy gate of every reader that verifies what it is handed
    (:func:`decode_block`, :func:`~repro.query.executor.filter_column`).

    Validates the policy, bounds the declared count and verifies the stored
    CRC32 (when present). ``False`` means a damaged block under a degrade
    policy; under ``"raise"`` damage is an :class:`IntegrityError`.
    """
    if on_corrupt not in ON_CORRUPT_MODES:
        raise ValueError(f"on_corrupt must be one of {ON_CORRUPT_MODES}, got {on_corrupt!r}")
    _hold_to_row_limit(block, ctx.limits)
    if verify_block(block):
        return True
    if on_corrupt == "raise":
        raise IntegrityError(
            f"block of {block.count} values: payload does not match stored CRC32"
        )
    return False


def decode_block(
    block: CompressedBlock,
    ctype: ColumnType,
    ctx: DecompressionContext,
    *,
    positions: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    on_corrupt: str = "raise",
) -> "Values | CorruptBlockResult | None":
    """Decode one compressed block: all of it, only the rows at
    ``positions``, or all of it into ``out``.

    * Full decode returns the block's values. They must number the block's
      declared count, the size of its slot in the column: a node header
      that disagrees (nothing but a CRC32 ties the two, and v1 blocks carry
      none) is a :class:`FormatError`, raised or degraded like any parse
      failure.
    * ``positions`` (sorted unique, block-local) returns only those rows:
      dictionaries gather only selected codes, bit-packing unpacks only the
      pages holding selected rows, frequency decodes only selected
      exceptions, up to the crossover to a full decode plus a take.
      Positions that are not strictly increasing are a caller bug
      (``ValueError``), rejected before any payload byte is parsed. Records
      ``query.cdomain.filtered.*`` counters (rows decoded vs the block's
      total) so selectivity scaling is observable.
    * ``out`` (a writable slice of a preallocated number column holding
      exactly ``block.count`` elements) is filled and ``None`` returned.

    The stored CRC32 (when present) is verified first; damage is raised as
    :class:`IntegrityError` or turned into a :class:`CorruptBlockResult` per
    ``on_corrupt``: no rows under ``"skip"``; under ``"null_block"`` the
    block's declared count (``len(positions)`` for a selection) of NULL
    placeholders, ``out`` zero-filled over any partial decode. Records no
    other metrics; per-column totals are accounted once by
    :func:`assemble_column_preallocated`.
    """
    if positions is not None:
        positions = np.asarray(positions, dtype=np.int64)
        if not strictly_increasing(positions):
            raise ValueError("selection positions must be sorted and duplicate-free")
        get_registry().incr_many(
            [
                ("query.cdomain.filtered.blocks", 1),
                ("query.cdomain.filtered.rows_selected", int(positions.size)),
                ("query.cdomain.filtered.rows_total", block.count),
            ]
        )
    reason = "checksum mismatch"
    if _block_is_intact(block, ctx, on_corrupt):
        try:
            values = _decode_node(block.data, ctype, ctx, positions, out, block_level=True)
            if positions is None and out is None and len(values) != block.count:
                raise FormatError(
                    f"block declared {block.count} values but its node decoded {len(values)}"
                )
            return values
        except BtrBlocksError:
            # Checksum-less (v1 / in-memory) blocks can only reveal damage by
            # failing to parse; degrade those the same way.
            if on_corrupt == "raise":
                raise
            reason = "decode failure"
    if on_corrupt != "null_block":
        return CorruptBlockResult(0, reason=reason)
    if out is not None:
        out[:] = 0  # the NULL placeholder, over any partial decode
    return CorruptBlockResult(block.count if positions is None else positions.size, reason=reason)


def _null_block_placeholder(ctype: ColumnType, count: int) -> Values:
    """All-NULL filler values for a damaged block kept for row alignment."""
    if ctype is ColumnType.STRING:
        return StringArray.from_pylist([""] * count)
    return np.zeros(count, dtype=_EMPTY_DTYPES[ctype])


_ONE_VALUE = {
    ColumnType.INTEGER: SchemeId.ONE_VALUE_INT,
    ColumnType.DOUBLE: SchemeId.ONE_VALUE_DOUBLE,
    ColumnType.STRING: SchemeId.ONE_VALUE_STRING,
}


def all_null_block(ctype: ColumnType, count: int) -> CompressedBlock:
    """The ``null_block`` degrade in compressed form: ``count`` placeholder
    values under a full NULL bitmap. For readers that are handed blocks and
    verify nothing (:func:`~repro.core.access.read_rows`,
    :func:`~repro.query.executor.scan_column`): swapped in for a block that
    failed its CRC32, its rows select as NULL and match no value predicate —
    what :func:`decompress_column` makes of the damaged block itself."""
    scheme = get_scheme(_ONE_VALUE[ctype])
    # (One Value stores the value and reads no compression context.)
    node = wrap(scheme.scheme_id, count, scheme.compress(_null_block_placeholder(ctype, 1), None))
    nulls = RoaringBitmap.from_positions(np.arange(count, dtype=np.int64))
    return CompressedBlock(count, node, nulls.serialize())


def _record_column(
    compressed: CompressedColumn, rows: int, input_bytes: int,
    checksummed: int, corrupt_blocks: int, corrupt_rows: int,
) -> None:
    """One reassembled column's counters (identical on every assembly path);
    the caller's walk over the blocks summed their ``input_bytes``."""
    counters = [
        ("decompress.columns", 1),
        ("decompress.blocks", len(compressed.blocks)),
        ("decompress.rows", rows),
        ("decompress.input_bytes", input_bytes),
    ]
    if checksummed:
        counters.append(("decompress.checksum_verified", checksummed))
    if corrupt_blocks:
        counters.append(("decompress.corrupt_blocks", corrupt_blocks))
        counters.append(("decompress.corrupt_rows", corrupt_rows))
    get_registry().incr_many(counters)


def _allocate(ctype: ColumnType, rows: int) -> "np.ndarray | strutil.StringSlots":
    """The column-level target a column's blocks decode into: a number
    column's one array, or a string column's offsets (plus its buffers)."""
    if ctype is ColumnType.STRING:
        return strutil.StringSlots(rows)
    return np.empty(rows, dtype=_EMPTY_DTYPES[ctype])


def assemble_column(compressed: CompressedColumn, parts: "list[Values | CorruptBlockResult]") -> Column:
    """Reassemble values decoded block by block (in block order) into a column.

    The route of the scalar ablation, whose decoders return their values:
    each part -- :func:`decode_block`'s, so exactly its block's declared
    count or a :class:`CorruptBlockResult` -- is copied into its block's
    slot of the preallocated column
    (a degraded block's slot gets the NULL placeholder), and
    :func:`assemble_column_preallocated` finishes it, so both routes share
    one NULL rebase, one compaction and one set of counters.
    """
    data = _allocate(compressed.ctype, sum(block.count for block in compressed.blocks))
    strings = isinstance(data, strutil.StringSlots)
    row = 0
    for block, part in zip(compressed.blocks, parts):
        if not isinstance(part, CorruptBlockResult):
            _fill_rows(data, row, part)
        elif strings:
            data.fill_empty(row, part.emitted)
        else:
            data[row : row + part.emitted] = 0
        row += block.count
    slots = [part if isinstance(part, CorruptBlockResult) else None for part in parts]
    return assemble_column_preallocated(compressed, data, slots)


def preallocate_column(
    compressed: CompressedColumn,
    limits: "DecodeLimits | None" = None,
) -> "np.ndarray | strutil.StringSlots":
    """Allocate the column-level target the blocks decode into: the full
    array of a number column, the full offsets of a string column
    (:class:`~repro.encodings.strutil.StringSlots`).

    Every block's declared count is held to ``max_rows_per_block`` *before*
    sizing the allocation, so a lying header cannot trigger an allocation
    bomb that the per-block gate would only catch afterwards.
    """
    if limits is None:
        from repro.core.config import DEFAULT_DECODE_LIMITS

        limits = DEFAULT_DECODE_LIMITS
    total = 0
    for block in compressed.blocks:
        _hold_to_row_limit(block, limits)
        total += block.count
    return _allocate(compressed.ctype, total)


def _fill_rows(data: "np.ndarray | strutil.StringSlots", row: int, values: Values) -> None:
    """Decoded ``values`` into the slots from ``row`` (a string column's
    offsets rebased into the column's)."""
    if isinstance(data, strutil.StringSlots):
        data.fill(row, values.buffer, values.offsets)
    else:
        np.copyto(data[row : row + len(values)], values, casting="unsafe")


def fill_block(
    data: "np.ndarray | strutil.StringSlots",
    row: int,
    block: CompressedBlock,
    ctype: ColumnType,
    ctx: DecompressionContext,
    on_corrupt: str = "raise",
) -> "CorruptBlockResult | None":
    """Decode a block the cache did not serve into its slot at ``row`` of
    ``data``: a number block straight into its slice (:func:`decode_block`
    with ``out``), a string block to one block whose offsets are rebased
    into the column's. Returns what :func:`assemble_column_preallocated`
    takes per block: ``None``, or the :class:`CorruptBlockResult` of a
    degraded block, whose slot holds the NULL placeholder.
    """
    if not isinstance(data, strutil.StringSlots):
        return decode_block(block, ctype, ctx, out=data[row : row + block.count], on_corrupt=on_corrupt)
    part = decode_block(block, ctype, ctx, on_corrupt=on_corrupt)
    if isinstance(part, CorruptBlockResult):
        data.fill_empty(row, part.emitted)
        return part
    data.fill(row, part.buffer, part.offsets)
    return None


def _shift(data: "np.ndarray | strutil.StringSlots", to: int, source: int, count: int) -> None:
    """Move ``count`` slots down from row ``source`` to row ``to`` (a string
    column moves its end offsets: a skipped block added no bytes)."""
    values = data.ends if isinstance(data, strutil.StringSlots) else data
    values[to : to + count] = values[source : source + count]


def assemble_column_preallocated(
    compressed: CompressedColumn,
    data: "np.ndarray | strutil.StringSlots | StringArray",
    parts: "list[CorruptBlockResult | None]",
) -> Column:
    """Finish a column decode: nulls, compaction, counters.

    ``data`` is the :func:`preallocate_column` target whose fixed per-block
    slots :func:`fill_block` already filled (or, for a column the decode
    cache served whole, its values); ``parts`` holds one entry per
    block — ``None`` for a successful decode, :class:`CorruptBlockResult`
    for a degraded one. Rebases per-block NULL positions to column offsets
    and records the column's decompression counters, its compressed bytes
    summed in the same walk. Skipped blocks leave holes that are compacted
    by shifting later slots down (:func:`_shift`; rare — only under
    ``on_corrupt="skip"`` with actual damage), after which the column is
    trimmed to the emitted row count.
    """
    null_positions: list[np.ndarray] = []
    write_offset = read_offset = input_bytes = corrupt_blocks = corrupt_rows = checksummed = 0
    for block, part in zip(compressed.blocks, parts):
        nulls = block.nulls  # (the loop sums CompressedBlock.nbytes inline)
        input_bytes += len(block.data) + (len(nulls) if nulls else 0)
        if part is None:
            emitted = block.count
            checksummed += block.checksum is not None
            if nulls is not None:
                positions = RoaringBitmap.deserialize(nulls).to_array()
                if positions.size:
                    null_positions.append(positions.astype(np.int64) + write_offset)
        else:
            emitted = part.emitted
            corrupt_blocks += 1
            corrupt_rows += block.count
            if emitted:
                null_positions.append(np.arange(write_offset, write_offset + emitted))
        if emitted and write_offset != read_offset:
            _shift(data, write_offset, read_offset, emitted)
        write_offset += emitted
        read_offset += block.count
    _record_column(compressed, write_offset, input_bytes, checksummed, corrupt_blocks, corrupt_rows)
    nulls = None
    if null_positions:
        nulls = RoaringBitmap.from_positions(np.concatenate(null_positions))
    if isinstance(data, strutil.StringSlots):
        column_data = data.finish(write_offset)
    else:
        column_data = data if write_offset == len(data) else data[:write_offset].copy()
    return Column(compressed.name, compressed.ctype, column_data, nulls)


def decompress_column(
    compressed: CompressedColumn,
    vectorized: bool = True,
    on_corrupt: str = "raise",
    limits: "DecodeLimits | None" = None,
    cache=None,
    cache_key=None,
    admit_strings: bool = True,
) -> Column:
    """Reassemble a full column from its compressed blocks.

    Every type takes one path: one allocation sized from the block headers
    (:func:`preallocate_column`), every block filled into its slot by
    :func:`fill_block` — a number block decodes straight into its slice, a
    string block's offsets are rebased into the column's — and the
    blocks' string buffers joined once. Only the scalar ablation, uncached,
    decodes block by block and hands its parts to :func:`assemble_column`.

    With a :class:`~repro.core.cache.DecodeCache` and a ``cache_key``
    identifying this column's bytes (object key + version for remote
    columns), the column is looked up once and its blocks pass
    :func:`cached_block` in one call — limits, declared counts, then each
    block in hand against its stored CRC32 (hashed once per block object) —
    so a damaged download follows the same ``on_corrupt`` path as an
    uncached decode: cached rows can never mask fresh corruption. A column
    the cache serves whole allocates nothing from the headers: a number
    column comes back as one fresh writable copy of its entry, a string
    column is handed the entry's read-only buffer and ``int64`` offsets as
    they are. Otherwise the column is preallocated, and each run of served
    blocks is one slice of the entry copied into its slots. A column the
    cache has no entry for, and whose every block is checksummed and
    decodes clean, is inserted whole. Past the gate, only assembly walks
    the blocks again, and sums their compressed bytes as it goes.

    ``admit_strings=False`` looks string columns up but inserts none. It is
    the one place the admission rule lives: :class:`~repro.cloud.
    remote_table.RemoteTable` passes whether it already *held* the column's
    compressed bytes before this decode, so a one-shot handle retains no
    strings it will never read again; direct callers fill on first decode.
    One-shot handles on lakebench's ``tpch_cold`` (20 per sample, 7 samples
    x 3 interleaved rounds; fastest sample per round / peak RSS):

    ==========================  =====================  ============
    string blocks inserted on   20 open + scan         peak RSS
    ==========================  =====================  ============
    never (the parent commit)   0.587 / 0.607 / 0.680  85.4-85.9 MB
    every decode (first touch)  0.714 / 0.739 / 0.829  88.3-89.3 MB
    a held column's decode      0.633 / 0.672 / 0.702  85.0-85.8 MB
    ==========================  =====================  ============

    Number columns keep first-touch insertion (measured free: 0.574 s with
    their ``put``, 0.587 s without).
    """
    ctx = make_context(vectorized, limits=limits)
    ctype = compressed.ctype
    if not vectorized:
        with get_registry().timer("decompress"):
            parts = [
                decode_block(block, ctype, ctx, on_corrupt=on_corrupt)
                for block in compressed.blocks
            ]
        return assemble_column(compressed, parts)
    entry = cache.get(cache_key) if cache is not None else None
    blocks = compressed.blocks
    parts: list = [None] * len(blocks)
    hits = misses = 0
    registry, started = get_registry(), perf_counter()
    try:
        served = cached_block(cache, entry, blocks, ctx.limits)
        if all(served):  # every block served (or none): one copy of the entry
            hits = len(parts)
            data = entry.span(0, hits) if hits else _allocate(ctype, 0)
            if ctype is not ColumnType.STRING:
                data = data.copy()
        else:
            data = preallocate_column(compressed, ctx.limits)
            # Blocks run_first.. (from row run_row) are served and not yet
            # copied: each run of served blocks is one copy.
            row = run_first = run_row = 0
            for index, block in enumerate(blocks):
                if served[index]:
                    hits += 1
                else:
                    misses += served[index] is False
                    if run_first < index:
                        _fill_rows(data, run_row, entry.span(run_first, index))
                    parts[index] = fill_block(data, row, block, ctype, ctx, on_corrupt)
                    run_first, run_row = index + 1, row + block.count
                row += block.count
            if run_first < len(parts):
                _fill_rows(data, run_row, entry.span(run_first, len(parts)))
    finally:
        registry.observe_seconds("decompress", perf_counter() - started)
        if cache is not None:
            cache.count(hits, misses)
    column = assemble_column_preallocated(compressed, data, parts)
    if (
        parts
        and misses == len(parts)  # no entry, every block checksummed...
        and parts.count(None) == misses  # ...and decoded clean
        and (admit_strings or ctype is not ColumnType.STRING)
    ):
        cache.put(cache_key, column.data, blocks)
    return column


def decompress_relation(
    compressed: CompressedRelation,
    vectorized: bool = True,
    on_corrupt: str = "raise",
    limits: "DecodeLimits | None" = None,
) -> Relation:
    """Reassemble a full relation."""
    columns = [
        decompress_column(c, vectorized, on_corrupt=on_corrupt, limits=limits)
        for c in compressed.columns
    ]
    return Relation(compressed.name, columns)


__all__ = [
    "CorruptBlockResult",
    "ON_CORRUPT_MODES",
    "assemble_column",
    "assemble_column_preallocated",
    "cached_block",
    "decode_block",
    "decompress_block",
    "decompress_column",
    "decompress_relation",
    "fill_block",
    "make_context",
    "preallocate_column",
]
