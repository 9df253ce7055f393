"""Sampling-based scheme selection (paper Section 3, Listing 1).

For a block of values the selector (1) collects statistics, (2) filters
non-viable schemes with cheap heuristics, (3) compresses a small sample with
every surviving scheme, and (4) returns the scheme with the best observed
compression ratio. Cascading happens naturally: compressing the sample runs
the schemes' child compression through this same selector one level deeper.
Step 3 exists to choose *among* survivors: when the filter leaves exactly
one, a pick that serves a real encode returns it un-estimated and the
compressor holds the encoded node to Uncompressed by achieved size instead.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import BtrBlocksConfig
from repro.core.sampling import SamplingStrategy, take_sample
from repro.core.stats import compute_stats
from repro.observe import SelectionDecision, get_registry, get_trace
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    Values,
    default_pool,
    values_nbytes,
)
from repro.encodings.uncompressed import UNCOMPRESSED_BY_TYPE
from repro.types import ColumnType


class SchemeSelector:
    """Chooses the best scheme per block and accounts its own CPU time.

    ``selection_seconds`` accumulates the wall time of outermost picks (a
    nested pick runs inside its parent's clock), which the Section 6.3
    experiment compares against total compression time (the paper reports
    1.2%).
    """

    def __init__(
        self,
        config: BtrBlocksConfig | None = None,
        strategy: SamplingStrategy | None = None,
        seed: int = 42,
    ) -> None:
        self.config = config or BtrBlocksConfig()
        self.strategy = strategy or SamplingStrategy(
            self.config.sample_runs, self.config.sample_run_length
        )
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.selection_seconds = 0.0
        #: Labels the compressor sets so trace records carry column/block ids.
        self.trace_column: str | None = None
        self.trace_block: int | None = None
        self._last_decision: SelectionDecision | None = None
        #: Nesting depth of in-flight pick() calls (sample compression runs
        #: child picks inside the parent's clock).
        self._active_picks = 0

    def begin_block(self, index: int) -> None:
        """Position this selector at one block of a column.

        Reseeds the sampling RNG as a pure function of ``(seed, index)`` so a
        block's compressed bytes do not depend on which blocks ran before it
        — the property that lets (column, block) tasks fan out to a process
        pool and still reassemble bit-identically to the inline loop.
        Block 0 keeps the plain seed, matching a fresh selector exactly.
        """
        self.trace_block = index
        self.rng = (
            np.random.default_rng(self.seed)
            if index == 0
            else np.random.default_rng((self.seed, index))
        )

    def take_last_decision(self) -> SelectionDecision | None:
        """Claim the decision from the most recent :meth:`pick` call.

        The compressor calls this right after picking (before any cascade
        children run their own picks) so it can attach the achieved
        compressed size to the correct decision.
        """
        decision = self._last_decision
        self._last_decision = None
        return decision

    # -- pool management -----------------------------------------------------

    def pool(self, ctype: ColumnType) -> list[Scheme]:
        """The candidate schemes for one data type under the current config."""
        schemes = default_pool(ctype)
        if self.config.allowed_schemes is not None:
            schemes = [s for s in schemes if s.scheme_id in self.config.allowed_schemes]
        if self.config.excluded_schemes:
            schemes = [s for s in schemes if s.scheme_id not in self.config.excluded_schemes]
        return schemes

    # -- selection -----------------------------------------------------------

    def pick(
        self,
        values: Values,
        ctype: ColumnType,
        ctx: CompressionContext,
    ) -> Scheme:
        """Pick the best scheme for these values at the context's depth."""
        uncompressed = UNCOMPRESSED_BY_TYPE[ctype]
        if ctx.depth <= 0 or len(values) == 0:
            get_registry().incr("selector.trivial_picks")
            return uncompressed
        started = time.perf_counter()
        outermost = self._active_picks == 0
        self._active_picks += 1
        decision = SelectionDecision(
            column=self.trace_column,
            block=self.trace_block,
            ctype=ctype.value,
            depth=ctx.depth,
            top_level=(ctx.depth == self.config.max_cascade_depth),
            value_count=len(values),
            input_bytes=values_nbytes(values),
            sample_count=0,
        )
        try:
            return self._pick_timed(values, ctype, ctx, uncompressed, decision)
        finally:
            self._active_picks -= 1
            elapsed = time.perf_counter() - started
            decision.selection_seconds = elapsed
            self._last_decision = decision
            registry = get_registry()
            registry.incr("selector.picks")
            registry.incr(f"selector.chosen.{decision.chosen}")
            registry.observe_seconds("selection", elapsed)
            if outermost:
                # Non-nested wall time: the denominator-safe figure for
                # "selection % of compression time" (nested child picks run
                # inside the parent's clock and would double-count).
                self.selection_seconds += elapsed
                registry.observe_seconds("selection.outer", elapsed)
            get_trace().record(decision)

    def _pick_timed(
        self,
        values: Values,
        ctype: ColumnType,
        ctx: CompressionContext,
        uncompressed: Scheme,
        decision: SelectionDecision,
    ) -> Scheme:
        stats = compute_stats(values, ctype)
        # Drawn even if nothing gets estimated: it advances the RNG the real
        # encode's child picks read next, and feeds Pseudodecimal's viability.
        sample = take_sample(values, ctype, self.strategy, self.rng)
        decision.sample_count = len(sample)
        if values_nbytes(sample) == 0:
            return uncompressed
        survivors = []
        for scheme in self.pool(ctype):
            if scheme is uncompressed:
                continue
            scheme.prepare_stats(sample, stats, self.config)
            if scheme.is_viable(stats, self.config):
                survivors.append(scheme)
            else:
                decision.filtered.append(scheme.name)
        decision.sample_top_share = stats.sample_top_share
        # A filter in front of the estimate: a survivor leaves when another
        # survivor of this pick already beats it on the statistics.
        by_id = {scheme.scheme_id: scheme for scheme in survivors}
        viable, survivors = survivors, []
        for scheme in viable:
            dominator = scheme.dominated_by(stats, by_id)
            if dominator is None:
                survivors.append(scheme)
            else:
                decision.dominated[scheme.name] = dominator.name
                get_registry().incr(f"selector.dominated.{scheme.name}")
        if len(survivors) == 1 and self._active_picks == 1:
            # Nothing to choose among on a pick that serves a real encode:
            # _compress_node answers "this or Uncompressed?" from the achieved
            # size. Nested picks still estimate — they *are* a parent's estimate.
            best_scheme, best_ratio = survivors[0], None
            decision.sole_survivor = best_scheme.name
            get_registry().incr("selector.sole_survivor.picks")
        else:
            best_scheme, best_ratio = uncompressed, 1.0
            for scheme in survivors:
                ratio = scheme.estimate_ratio(sample, stats, ctx)
                decision.candidates[scheme.name] = ratio
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_scheme = scheme
        decision.chosen = best_scheme.name
        decision.estimated_ratio = best_ratio
        return best_scheme
