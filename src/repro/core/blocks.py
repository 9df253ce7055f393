"""Containers for compressed blocks, columns and relations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.encodings.base import get_scheme
from repro.encodings.wire import unwrap
from repro.types import ColumnType

if TYPE_CHECKING:
    from repro.core.blockstats import BlockStats


@dataclass
class CompressedBlock:
    """One compressed 64k-value block: data node bytes + NULL bitmap bytes.

    ``checksum`` is the stored CRC32 of ``data + nulls`` when the block was
    read from a checksummed (v2) column file; blocks compressed in memory or
    read from v1 files carry ``None`` and decode without verification.
    ``stats`` is the block's zone-map record (min/max, null count, string
    digest) when it was collected at compression time or read back from a
    stats-bearing v2 file; it never participates in decoding.
    ``verified`` is :func:`~repro.core.file_format.verify_block`'s memo of
    the ``(data, nulls, count, checksum)`` that last passed; it is never
    copied, compared, shown or pickled.
    """

    count: int
    data: bytes
    nulls: bytes | None = None
    checksum: int | None = None
    stats: "BlockStats | None" = None
    verified: "tuple | None" = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "verified": None}

    @property
    def root_scheme_id(self) -> int:
        """Wire id of the outermost scheme in this block's cascade."""
        scheme_id, _count, _payload = unwrap(self.data)
        return scheme_id

    @property
    def root_scheme_name(self) -> str:
        return get_scheme(self.root_scheme_id).name

    @property
    def nbytes(self) -> int:
        """Compressed size including the NULL bitmap."""
        return len(self.data) + (len(self.nulls) if self.nulls else 0)


@dataclass
class CompressedColumn:
    """A column as a sequence of compressed blocks.

    ``stats_invalid`` is set by the file parsers when a stats footer was
    present but damaged (bad CRC, truncated, count mismatch): data decodes
    normally, but readers must not trust — and must report — the statistics.
    """

    name: str
    ctype: ColumnType
    blocks: list[CompressedBlock] = field(default_factory=list)
    stats_invalid: bool = False

    @property
    def block_stats(self) -> "list | None":
        """Per-block stats when every block carries them, else ``None``."""
        if not self.blocks or any(block.stats is None for block in self.blocks):
            return None
        return [block.stats for block in self.blocks]

    @property
    def count(self) -> int:
        return sum(block.count for block in self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    def scheme_histogram(self) -> dict[str, int]:
        """Root scheme name -> number of blocks using it."""
        hist: dict[str, int] = {}
        for block in self.blocks:
            name = block.root_scheme_name
            hist[name] = hist.get(name, 0) + 1
        return hist


@dataclass
class CompressedRelation:
    """A compressed table: one compressed column per input column."""

    name: str
    columns: list[CompressedColumn] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in self.columns)

    def column(self, name: str) -> CompressedColumn:
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(name)
