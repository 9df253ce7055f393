"""A sole survivor is verified, not estimated — with the old rule as oracle.

When the viability filter leaves one scheme on a pick that serves a real
encode, the selector skips that scheme's sample estimate and the compressor
holds the encoded node to Uncompressed by achieved size. The rule this
replaced ("estimate the survivor, keep it iff the estimate beats 1.0") lives
on here as :class:`ForcedEstimateSelector`, and every block in this file is
compressed under both: the bytes are identical whenever the two rules choose
the same scheme, otherwise the new node is the strictly smaller one, the
reason is on its ``SelectionDecision``, and both outputs round-trip.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core import selector as selector_module
from repro.core.compressor import compress_block, compress_column
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_block, decompress_column
from repro.core.selector import SchemeSelector
from repro.encodings import fsst
from repro.encodings.base import SchemeId
from repro.encodings.wire import unwrap
from repro.observe import MetricsRegistry, SelectionTrace, use_registry, use_trace
from repro.types import Column, ColumnType, StringArray, columns_equal

from test_roundtrip_fuzz import DOUBLE_CASES, INT_CASES, STRING_CASES

#: blake2b per workload x partition over every block's bytes + NULL bitmap at
#: seed 100: ``compression_ratio`` stays bit-equal unless a PR says otherwise
#: (``REPRO_REGEN_GOLDEN=1`` rewrites it, and the PR then has to say why).
PARTITION_DIGESTS = Path(__file__).parent / "golden" / "lakebench_partitions.json"

FUZZ_CASES = {
    ColumnType.INTEGER: INT_CASES,
    ColumnType.DOUBLE: DOUBLE_CASES,
    ColumnType.STRING: STRING_CASES,
}


class ForcedEstimateSelector(SchemeSelector):
    """The parent commit's rule: every pick estimates, one survivor or many.

    Each pick is made to look nested, which is exactly the condition under
    which the selector never takes the shortcut (and so never arms the
    compressor's size guard).
    """

    def pick(self, values, ctype, ctx):
        self._active_picks += 1
        try:
            return super().pick(values, ctype, ctx)
        finally:
            self._active_picks -= 1


def compress_both(column: Column, config: BtrBlocksConfig | None = None, oracle=ForcedEstimateSelector):
    """``(new column, its trace, oracle column, its trace)`` for one column."""
    out = []
    for cls in (SchemeSelector, oracle):
        trace = SelectionTrace()
        with use_trace(trace):
            out += [compress_column(column, selector=cls(config)), trace]
    return out


def top_level_by_block(trace: SelectionTrace) -> dict:
    """Block index -> its root decision (the only one at full cascade depth)."""
    return {d.block: d for d in trace.decisions() if d.top_level}


def assert_equal_or_smaller(column: Column, config: BtrBlocksConfig | None = None):
    """The contract, block by block; returns ``(blocks that came out smaller,
    the new rule's root decision per block)``."""
    new, new_trace, old, old_trace = compress_both(column, config)
    assert columns_equal(decompress_column(new), column)
    assert columns_equal(decompress_column(old), column)
    shortcuts = {d.block for d in new_trace.decisions() if d.sole_survivor}
    new_top, old_top = top_level_by_block(new_trace), top_level_by_block(old_trace)
    smaller = 0
    for index, (n, o) in enumerate(zip(new.blocks, old.blocks)):
        assert n.nulls == o.nulls and n.stats == o.stats
        if index not in shortcuts:
            assert n.data == o.data  # nothing skipped an estimate: same code, same bytes
            continue
        assert n.data == o.data or len(n.data) < len(o.data)
        smaller += n.data != o.data
        nd, od = new_top.get(index), old_top.get(index)
        if nd is None or not nd.sole_survivor:
            # Only a cascade child took the shortcut; the root decision — a
            # choice among estimates, all nested and so untouched — is the same.
            assert nd is None or (nd.chosen, nd.candidates) == (od.chosen, od.candidates)
            continue
        # The root took it. Same filter, so the oracle estimated exactly that
        # one scheme; the two rules agree iff estimate and achieved size fall
        # on the same side of Uncompressed.
        assert nd.candidates == {} and nd.estimated_ratio is None
        assert list(od.candidates) == [nd.sole_survivor]
        assert nd.chosen == ("uncompressed" if nd.survivor_rejected else nd.sole_survivor)
        if nd.chosen != od.chosen:
            assert len(n.data) < len(o.data)
    return smaller, new_top


def every_third_null(count: int) -> RoaringBitmap | None:
    return RoaringBitmap.from_positions(np.arange(0, count, 3)) if count else None


# -- the oracle over the round-trip fuzz corpus ---------------------------------


@pytest.mark.parametrize("block_size", [64, None], ids=["64-row", "default"])
@pytest.mark.parametrize("ctype", list(FUZZ_CASES), ids=lambda ctype: ctype.value)
def test_fuzz_corpus_equal_or_smaller(ctype, block_size):
    config = BtrBlocksConfig() if block_size is None else BtrBlocksConfig(block_size=block_size)
    smaller = 0
    for index, (name, values) in enumerate(FUZZ_CASES[ctype]):
        # NULLs ride beside the data, so each case carries them at one block
        # size and goes without at the other.
        with_nulls = (index + (block_size is None)) % 2
        nulls = every_third_null(len(values)) if with_nulls else None
        smaller += assert_equal_or_smaller(Column(name, ctype, values, nulls), config)[0]
    # Integers always have two viable bit-packers, so nothing there can move;
    # the other corpora hold blocks whose estimate misjudged the survivor.
    moved = ctype is ColumnType.STRING or (ctype is ColumnType.DOUBLE and block_size == 64)
    assert (smaller > 0) == moved


# -- the oracle over the benchmark's own tables ---------------------------------


def test_lakebench_partitions_are_bit_identical(lakebench):
    """3 workloads x 4 partitions at seed 100: the shortcut fires (FSST on
    ``l_comment``, Pseudodecimal on ``l_extendedprice``, Dictionary on the
    double blocks whose only other candidate was a Frequency without a
    majority value — ``l_quantity`` / ``l_discount`` / ``l_tax`` — and on the
    string blocks where it dominates FSST — ``l_returnflag``, ``l_shipmode``
    — ...) and every block equals the oracle's, so the rule moves no ``compression_ratio``.
    The same blocks are also held to the committed ``PARTITION_DIGESTS``, so no
    other change moves it unnoticed either."""
    fired: dict[str, set] = {}
    digests: dict[str, str] = {}
    for (name, partition), columns in lakebench.compressed(100, fsst.train_symbol_table).items():
        digest = hashlib.blake2b(digest_size=16)
        for column, new, trace in columns:
            for block in new.blocks:
                digest.update(block.data)
                digest.update(block.nulls or b"-")
            survivors = {d.sole_survivor for d in trace.decisions() if d.sole_survivor}
            if not survivors:
                continue  # no estimate was skipped: the parent's code path, verbatim
            assert not any(d.survivor_rejected for d in trace.decisions())
            config = lakebench.workloads[name].config()
            old = compress_column(column, selector=ForcedEstimateSelector(config))
            assert [b.data for b in new.blocks] == [b.data for b in old.blocks]
            fired.setdefault(name, set()).update(survivors)
        digests[f"{name}/{partition}"] = digest.hexdigest()
    everything = {"fsst", "pseudodecimal", "dictionary"}
    assert fired["tpch_cold"] == fired["tpch_small_warm"] == fired["bi_cold"] == everything
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        PARTITION_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    assert digests == json.loads(PARTITION_DIGESTS.read_text())


# -- hostile shapes: where estimate and achieved size can disagree --------------


def random_binary_strings(rows: int, length: int, seed: int = 7, alphabet: int = 256) -> StringArray:
    """All-unique strings of uniformly random bytes (below ``alphabet``): FSST
    is the only viable scheme and, at 256, has nothing to learn."""
    raw = np.random.default_rng(seed).integers(0, alphabet, (rows, length), dtype=np.uint8)
    return StringArray.from_pylist([row.tobytes() for row in raw])


def doubles_with_exceptions(rows: int, share: float, seed: int = 1) -> np.ndarray:
    """Two-decimal prices with ``share`` of the rows replaced by values
    Pseudodecimal has to patch (the viability ceiling is 50%)."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.uniform(1, 1000, rows), 2)
    hostile = rng.random(rows) < share
    values[hostile] = rng.standard_normal(int(hostile.sum()))
    return values


def sample_blind_doubles(rows: int = 16_384) -> np.ndarray:
    """Clean prices exactly where block 0's sample looks, patches everywhere
    else: viability and estimate both see a perfect Pseudodecimal block."""
    fresh = SchemeSelector()
    sampled = fresh.strategy.indices(rows, np.random.default_rng(fresh.seed))
    rng = np.random.default_rng(3)
    values = rng.standard_normal(rows)
    values[sampled] = np.round(rng.uniform(1, 1000, sampled.size), 2)
    return values


#: ``(name, type, values, sole survivor or None, guard rejected it, new < old)``
HOSTILE = [
    # The estimate's hold-out table, trained on growing prefixes of a 2.5 KiB half
    # sample, says 0.93 (1.01 under five full passes) and stores Uncompressed;
    # the real node is the same 35,220 bytes as ever, 0.72x of it.
    ("binary_8", ColumnType.STRING, random_binary_strings(4096, 8), "fsst", False, True),
    ("binary_50", ColumnType.STRING, random_binary_strings(4096, 50), "fsst", False, False),
    # The estimate said 0.998 and stored Uncompressed; the real node is 0.99x of it.
    ("binary_200", ColumnType.STRING, random_binary_strings(2048, 200), "fsst", False, True),
    # Too few rows for the saved offsets to pay for the symbol table.
    ("binary_5000", ColumnType.STRING, random_binary_strings(16, 5000), "fsst", True, False),
    ("constant", ColumnType.STRING, StringArray.from_pylist(["same-old-string"] * 3000),
     None, False, False),
    ("near_constant", ColumnType.STRING, StringArray.from_pylist(
        ["same-old-string"] * 2999 + ["the odd one out"]), None, False, False),
    # One Value is all that is viable; 15 bytes where the estimate (0.67) stored 29.
    ("single", ColumnType.STRING, StringArray.from_pylist(["lonely"]), "one_value", False, True),
    ("pde_0", ColumnType.DOUBLE, doubles_with_exceptions(4096, 0.0), "pseudodecimal", False, False),
    ("pde_25", ColumnType.DOUBLE, doubles_with_exceptions(4096, 0.25), "pseudodecimal", False, False),
    ("pde_49", ColumnType.DOUBLE, doubles_with_exceptions(4096, 0.49), "pseudodecimal", True, False),
    # The estimate said 2.1 and kept a node 3.6% *larger* than Uncompressed.
    ("sample_blind", ColumnType.DOUBLE, sample_blind_doubles(), "pseudodecimal", True, True),
]


@pytest.mark.parametrize(
    "name,ctype,values,survivor,rejected,smaller", HOSTILE, ids=[case[0] for case in HOSTILE]
)
def test_hostile_shapes_equal_or_smaller(name, ctype, values, survivor, rejected, smaller):
    column = Column(name, ctype, values, every_third_null(len(values)))
    registry = MetricsRegistry()
    with use_registry(registry):
        moved, roots = assert_equal_or_smaller(column)
    top = roots[0]  # every shape is one block
    assert (moved, top.sole_survivor, top.survivor_rejected) == (smaller, survivor, rejected)
    # Counted once: the oracle never takes the shortcut.
    assert registry.get("selector.sole_survivor.picks") == (survivor is not None)
    assert registry.get("selector.sole_survivor.rejected") == rejected
    assert registry.get("compressor.fallback.total") == 0


def test_no_block_grows_past_uncompressed():
    """All-escape FSST input (every byte value equally likely, nothing to
    learn): whichever way the guard decides, the block is never larger than
    its Uncompressed framing — which the estimate-only rule did not promise."""
    for length in (8, 50, 200):
        values = random_binary_strings(2048, length)
        uncompressed = len(compress_block(
            values, ColumnType.STRING, BtrBlocksConfig().with_pool({SchemeId.UNCOMPRESSED_STRING})
        ))
        assert len(compress_block(values, ColumnType.STRING)) <= uncompressed


# -- structure: what runs, and what the shortcut rests on -----------------------


def unique_strings(rows: int = 4096) -> StringArray:
    return StringArray.from_pylist([f"order {i:07d} shipped via rail, no remarks" for i in range(rows)])


def test_all_unique_strings_train_fsst_once_and_never_estimate(monkeypatch):
    calls = {"train": 0}
    real_train = fsst.train_symbol_table

    def counting_train(buffer):
        calls["train"] += 1
        return real_train(buffer)

    def no_estimate(self, sample, stats, ctx):
        raise AssertionError("FSST is the only viable scheme here: nothing to estimate")

    monkeypatch.setattr(fsst, "train_symbol_table", counting_train)
    monkeypatch.setattr(fsst.FSSTString, "estimate_ratio", no_estimate)
    registry, trace = MetricsRegistry(), SelectionTrace()
    with use_registry(registry), use_trace(trace):
        blob = compress_block(unique_strings(), ColumnType.STRING)
    assert unwrap(blob)[0] == SchemeId.FSST
    assert calls["train"] == 1  # the real encode's table; it was 2 with the estimate's
    assert registry.get("compressor.fallback.total") == 0
    assert registry.get("selector.sole_survivor.picks") == 1
    assert registry.get("selector.sole_survivor.rejected") == 0
    (top,) = [d for d in trace.decisions() if d.top_level]
    assert (top.sole_survivor, top.survivor_rejected, top.chosen) == ("fsst", False, "fsst")
    assert top.candidates == {} and top.estimated_ratio is None
    assert top.sample_count == 640 and top.achieved_ratio > 1.0


def _rng_state_after_pick(cls, values, ctype) -> dict:
    from repro.core.compressor import make_context

    chooser = cls()
    chooser.begin_block(3)
    chooser.pick(values, ctype, make_context(chooser))
    return chooser.rng.bit_generator.state


@pytest.mark.parametrize("ctype,values", [
    (ColumnType.STRING, unique_strings()),
    (ColumnType.DOUBLE, doubles_with_exceptions(4096, 0.25)),
], ids=["fsst", "pseudodecimal"])
def test_rng_state_after_a_pick_does_not_depend_on_the_estimate(monkeypatch, ctype, values):
    """The invariant the shortcut rests on: an estimate's nested picks see at
    most a sample's worth of rows, which sampling returns whole without
    touching the RNG — so the real encode's child picks draw the same samples
    whether or not the estimate ran. The sample draw itself is what moves the
    RNG, which is why the shortcut keeps it."""
    skipped = _rng_state_after_pick(SchemeSelector, values, ctype)
    estimated = _rng_state_after_pick(ForcedEstimateSelector, values, ctype)
    assert skipped == estimated

    def head_sample(values, ctype, strategy, rng):  # a sample that draws nothing
        head = np.arange(strategy.sample_size)
        return values.take(head) if ctype is ColumnType.STRING else values[head]

    monkeypatch.setattr(selector_module, "take_sample", head_sample)
    assert _rng_state_after_pick(SchemeSelector, values, ctype) != skipped


def test_nested_pick_with_one_survivor_still_estimates():
    """Inside Dictionary's estimate the code sequence has one viable scheme
    (the pool allows only FastBP128 for integers); that nested pick feeds its
    parent's ratio and must keep estimating. The same codes picked again for
    the real encode take the shortcut."""
    config = BtrBlocksConfig().with_pool({
        SchemeId.UNCOMPRESSED_STRING, SchemeId.DICT_STRING, SchemeId.FSST,
        SchemeId.UNCOMPRESSED_INT, SchemeId.FAST_BP128,
    })
    # Two-byte rows: 2.7 code widths saved per row, so FSST is not dominated
    # and the root still has two schemes to estimate.
    values = StringArray.from_pylist([f"{i % 40:02d}" for i in range(4096)])
    trace = SelectionTrace()
    with use_trace(trace):
        blob = compress_block(values, ColumnType.STRING, config)
    assert unwrap(blob)[0] == SchemeId.DICT_STRING
    assert decompress_block(blob, ColumnType.STRING) == values
    decisions = trace.decisions()
    (root,) = [i for i, d in enumerate(decisions) if d.top_level]
    top = decisions[root]
    assert set(top.candidates) == {"dictionary", "fsst"} and top.sole_survivor is None
    # A pick is recorded when it returns: the estimates' nested picks precede
    # the root decision, the real encode's child picks follow it.
    nested, real = decisions[:root], decisions[root + 1:]
    assert nested and all(d.candidates == {"fastbp128": d.estimated_ratio} for d in nested)
    assert all(d.sole_survivor is None for d in nested)
    assert 4096 in [d.value_count for d in real]  # the block's dictionary codes
    assert all(d.sole_survivor == "fastbp128" and d.candidates == {} for d in real)
