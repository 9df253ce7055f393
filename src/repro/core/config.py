"""Configuration knobs for BtrBlocks compression.

Defaults follow the paper: 64,000-value blocks, sample of 10 runs x 64 values
(1% of a block), cascade depth 3, RLE viable when the average run length is
at least 2, Frequency viable when at most 50% of values are unique, and
Pseudodecimal enabled between 10% unique values and 50% exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DecodeLimits:
    """Hard ceilings enforced while decoding *untrusted* column bytes.

    Length and count fields in a column file are attacker-controlled: four
    header bytes can declare 2^32 rows and make a naive decoder allocate
    gigabytes before any payload check runs (a decompression bomb). Every
    declared count/length is validated against these ceilings — and against
    the actual payload size — *before* the corresponding allocation, and a
    violation raises the typed
    :class:`~repro.exceptions.DecodeLimitError`. The defaults are far above
    anything the compressor emits (blocks hold 64,000 values) yet small
    enough to keep a malicious file from exhausting memory.
    """

    #: Max declared values per block (writer default is 64,000 per block).
    max_rows_per_block: int = 1 << 24
    #: Max bytes in one block's data or NULL-bitmap payload.
    max_bytes_per_block: int = 1 << 30
    #: Max blocks in one column file.
    max_blocks_per_column: int = 1 << 20
    #: Max bytes in a column's declared name.
    max_name_bytes: int = 4096


#: Ceilings applied when the caller does not supply their own.
DEFAULT_DECODE_LIMITS = DecodeLimits()

#: Default byte budget for the decoded-column cache on remote scans.
DEFAULT_DECODE_CACHE_BYTES = 64 << 20
#: Default byte budget for RemoteTable's downloaded-column cache.
DEFAULT_COLUMN_CACHE_BYTES = 256 << 20


@dataclass
class BtrBlocksConfig:
    """Tuning parameters of the compression pipeline."""

    #: Values per block (paper Section 2.2).
    block_size: int = 64_000
    #: Maximum cascade recursion depth (paper Section 3.2).
    max_cascade_depth: int = 3
    #: Number of sample runs and values per run (paper Section 3.1: 10 x 64).
    sample_runs: int = 10
    sample_run_length: int = 64
    #: RLE is excluded when the average run length is below this (Section 3.1).
    rle_min_avg_run_length: float = 2.0
    #: Frequency encoding is excluded above this unique fraction (Section 3.1).
    frequency_max_unique_fraction: float = 0.5
    #: Pseudodecimal is excluded below this unique fraction (Section 4.2).
    pseudodecimal_min_unique_fraction: float = 0.1
    #: Pseudodecimal is excluded above this exception fraction (Section 4.2).
    pseudodecimal_max_exception_fraction: float = 0.5
    #: Dictionary is excluded when distinct values exceed this fraction.
    dictionary_max_unique_fraction: float = 0.9
    #: Use vectorised (NumPy) decompression kernels; False selects the scalar
    #: fallbacks used for the Section 6.8 ablation.
    vectorized: bool = True
    #: Collect per-block statistics (min/max, null count, string digest)
    #: during compression; they ride along into v2 column files and table
    #: manifests, where zone-map pruning reads them (docs/FORMAT.md §7).
    collect_stats: bool = True
    #: Per-block string Bloom digests are skipped above this distinct count.
    stats_bloom_max_distinct: int = 512
    #: Scheme ids to exclude from the pool (for ablation experiments).
    excluded_schemes: frozenset[int] = field(default_factory=frozenset)
    #: Scheme ids to restrict the pool to (None = all registered schemes).
    allowed_schemes: frozenset[int] | None = None

    def sample_size(self) -> int:
        """Total sampled values per block."""
        return self.sample_runs * self.sample_run_length

    def with_pool(self, scheme_ids: "frozenset[int] | set[int] | list[int]") -> "BtrBlocksConfig":
        """A copy of this config restricted to the given scheme ids."""
        from dataclasses import replace

        return replace(self, allowed_schemes=frozenset(scheme_ids))
