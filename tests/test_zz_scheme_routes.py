"""Every registered scheme's one ``decompress`` on all three routes, and its
one ``scan``.

A scheme decodes a node whole, only at sorted ``positions``, or whole into
an ``out`` slot, through one method that parses its payload once. On a
shared corpus per type, every route must give what the full decode gives:
``positions=p`` the full decode taken at ``p``, ``out=slot`` the full decode
bit for bit. Its predicate rule (``Scheme.scan``, inherited as
decode-then-evaluate where a scheme states none) must give what evaluating
the full decode gives: ``scan_block`` under every predicate kind and NULL
share, mask and hit values both -- dictionaries with RLE and bit-packed
code streams included -- and every rule that overrides ``scan`` must have
run.

:func:`register_extension_schemes` mutates the global registry; the
``scheme_registry`` fixture in ``conftest.py`` restores it after the module.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core.compressor import make_context as compression_context
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import make_context
from repro.core.selector import SchemeSelector
from repro.core.stats import compute_stats
from repro.encodings.base import Scheme, SchemeId, all_schemes, get_scheme, take_values
from repro.encodings.extensions import (
    DeltaZigZagInt,
    TruncationInt,
    register_extension_schemes,
)
from repro.encodings.wire import Reader, Writer, unwrap, wrap
from repro.observe import MetricsRegistry, use_registry
from repro.query.executor import scan_block
from repro.query.predicates import Between, Equals, GreaterThan, In, IsNull, LessThan
from repro.types import ColumnType, StringArray

from conftest import scheme_round_trip

CONFIG = BtrBlocksConfig()
ROWS = 3000

#: The pool as collected, plus the extensions the fixture registers: id -> label.
SCHEMES = {
    s.scheme_id: f"{s.name}-{s.ctype.value}"
    for s in [*all_schemes(), TruncationInt, DeltaZigZagInt]
}


@pytest.fixture(scope="module", autouse=True)
def extensions():
    return register_extension_schemes()


def _corpus() -> "dict[ColumnType, dict[str, object]]":
    rng = np.random.default_rng(35)
    ints = rng.integers(0, 1000, ROWS).astype(np.int32)
    ints[rng.random(ROWS) < 0.6] = 7  # one dominant value
    outliers = rng.integers(0, 64, ROWS).astype(np.int32)
    outliers[rng.choice(ROWS, 40, replace=False)] = rng.integers(1 << 20, 1 << 28, 40)
    decimals = np.round(rng.uniform(-500, 500, ROWS), 2)
    decimals[::97] = np.frombuffer(np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), np.float64)[0]
    decimals[1::211], decimals[2::211], decimals[3::89] = np.inf, -np.inf, -0.0
    dominant = decimals.copy()
    dominant[rng.random(ROWS) < 0.6] = 2.5
    words = np.array(["PHOENIX", "RALEIGH", "", "OSLO", "BETHESDA"])[rng.integers(0, 5, ROWS)]
    words[rng.random(ROWS) < 0.6] = "ATHENS"
    urls = [f"https://example.com/cat-{i % 40}/item?id={i * 7919 % 10007}" for i in range(ROWS)]
    return {
        ColumnType.INTEGER: {
            "dominant": ints,
            "runs": np.repeat(ints[: ROWS // 8], 8),
            "outliers": outliers,
            "constant": np.full(ROWS, -12345, dtype=np.int32),
        },
        ColumnType.DOUBLE: {
            "decimals": decimals,
            "dominant": dominant,
            "runs": np.repeat(decimals[: ROWS // 8], 8),
            "constant": np.full(ROWS, -0.0),
        },
        ColumnType.STRING: {
            "words": StringArray.from_pylist(words.tolist()),
            "urls": StringArray.from_pylist(urls),
            "runs": StringArray.from_pylist(np.repeat(words[: ROWS // 8], 8).tolist()),
            "constant": StringArray.from_pylist(["BETHESDA"] * ROWS),
        },
    }


CORPUS = _corpus()


def _selections() -> "dict[str, np.ndarray]":
    rng = np.random.default_rng(3535)
    return {
        "empty": np.empty(0, dtype=np.int64),
        "single": np.asarray([ROWS - 1]),
        "sparse": np.sort(rng.choice(ROWS, ROWS // 50, replace=False)),
        "dense": np.sort(rng.choice(ROWS, ROWS * 3 // 4, replace=False)),
        "all": np.arange(ROWS),
    }


SELECTIONS = _selections()


def _applies(scheme: Scheme, values) -> bool:
    stats = compute_stats(values, scheme.ctype)
    scheme.prepare_stats(values, stats, CONFIG)
    return scheme.is_viable(stats, CONFIG)


def _same(got, want) -> bool:
    """Equal sequences; numbers of one dtype and bit for bit."""
    if isinstance(want, StringArray):
        return isinstance(got, StringArray) and got.to_pylist() == want.to_pylist()
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_every_registered_scheme_is_covered():
    assert sorted(SCHEMES) == [s.scheme_id for s in all_schemes()]


@pytest.mark.parametrize("scheme_id", [pytest.param(i, id=label) for i, label in SCHEMES.items()])
def test_positions_and_out_equal_the_full_decode(scheme_id):
    scheme = get_scheme(scheme_id)
    ctx = make_context()
    applied = 0
    for name, values in CORPUS[scheme.ctype].items():
        if not _applies(scheme, values):
            continue
        applied += 1
        payload, full = scheme_round_trip(scheme, values)
        assert _same(full, values), name
        for label, positions in SELECTIONS.items():
            got = scheme.decompress(payload, ROWS, ctx, positions=positions)
            assert _same(got, take_values(full, positions)), (name, label)
        if scheme.ctype is not ColumnType.STRING:
            slot = np.full(ROWS, 99, dtype=np.asarray(values).dtype)
            assert scheme.decompress(payload, ROWS, ctx, out=slot) is None
            assert _same(slot, full), name
    assert applied, f"no corpus of {scheme.ctype.value} applies to {scheme.name}"


def test_one_decode_method_per_scheme():
    """``decompress`` is every scheme's only decode: no scheme class below
    :class:`Scheme` defines the two route names :class:`Scheme` forwards,
    and nothing in the library calls them."""
    for scheme in all_schemes():
        for cls in type(scheme).__mro__[: type(scheme).__mro__.index(Scheme)]:
            assert not {"decompress_into", "decompress_filtered"} & set(vars(cls)), cls
    src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    for root, _dirs, files in os.walk(src):
        for filename in files:
            if filename.endswith(".py"):
                with open(os.path.join(root, filename), encoding="utf-8") as fh:
                    text = fh.read()
                for name in ("decompress_into", "decompress_filtered"):
                    assert f".{name}(" not in text, (filename, name)


# -- the predicate slice: every scheme's ``scan`` ------------------------------


def _predicates(values) -> "dict[str, object]":
    """Every predicate kind, with constants drawn from ``values``: hits in
    the middle of the data, and an ``In`` of many scattered entries (past
    what a dictionary compiles into a compact code predicate)."""
    if isinstance(values, StringArray):
        distinct = sorted(set(values.to_pylist()))
        low, mid, high = distinct[0], distinct[len(distinct) // 2], distinct[-1]
        absent = b"\xff absent"
    else:
        finite = np.asarray(values)[np.isfinite(values)]
        distinct = np.unique(finite).tolist()
        low, mid, high = (np.quantile(finite, q).item() for q in (0.25, 0.5, 0.75))
        absent = 1e300 if finite.dtype == np.float64 else int(finite.max()) + 1
    return {
        "Equals": Equals(distinct[len(distinct) // 2]),
        "In": In([distinct[0], distinct[-1], absent]),
        "In many": In(distinct[::2][:60]),
        "Between": Between(low, high),
        "GreaterThan": GreaterThan(mid),
        "GreaterThan inclusive": GreaterThan(mid, inclusive=True),
        "LessThan": LessThan(mid),
        "LessThan inclusive": LessThan(mid, inclusive=True),
        "IsNull": IsNull(),
    }


NULLS = {
    "no NULLs": None,
    "some NULLs": RoaringBitmap.from_positions(np.arange(0, ROWS, 7, dtype=np.int64)),
    "all NULLs": RoaringBitmap.from_positions(np.arange(ROWS, dtype=np.int64)),
}


def _forced(scheme_id: int, values) -> bytes:
    """``values`` as a node of ``scheme_id``, children selected as usual."""
    scheme = get_scheme(scheme_id)
    return wrap(scheme_id, len(values), scheme.compress(values, compression_context(SchemeSelector())))


def _with_codes(blob: bytes, ctype: ColumnType, code_scheme: int) -> bytes:
    """A dictionary node with its codes child re-encoded as ``code_scheme``."""
    scheme_id, count, payload = unwrap(blob)
    reader, writer = Reader(payload), Writer()
    if ctype is ColumnType.STRING:
        writer.u8(reader.u8()).u32(reader.u32()).blob(reader.blob())
    else:
        writer.array(reader.array())
    codes = make_context().decompress_child(reader.blob(), ColumnType.INTEGER)
    return wrap(scheme_id, count, writer.blob(_forced(code_scheme, codes)).getvalue())


def _scan_cases(scheme: Scheme):
    """``(label, block, values)`` of every corpus the scheme applies to
    (sorted integers too, so page headers decide pages), dictionaries also
    with RLE and FastBP128 code streams."""
    corpus = dict(CORPUS[scheme.ctype])
    if scheme.ctype is ColumnType.INTEGER:
        corpus["sorted"] = np.sort(corpus["dominant"])
    for name, values in corpus.items():
        if not _applies(scheme, values):
            continue
        blob = _forced(scheme.scheme_id, values)
        yield name, blob, values
        if scheme.scheme_id in (SchemeId.DICT_INT, SchemeId.DICT_DOUBLE, SchemeId.DICT_STRING):
            for code_scheme in (SchemeId.RLE_INT, SchemeId.FAST_BP128):
                label = f"{name}, {get_scheme(code_scheme).name} codes"
                yield label, _with_codes(blob, scheme.ctype, code_scheme), values


def _check_scans(scheme: Scheme) -> int:
    """Hold ``scan_block`` to decode-then-evaluate on every case; the number
    of cases."""
    cases = 0
    for name, blob, values in _scan_cases(scheme):
        for label, predicate in _predicates(values).items():
            matches = np.asarray(predicate.evaluate(values), dtype=bool)
            for nulls_label, nulls in NULLS.items():
                null_mask = np.zeros(ROWS, dtype=bool) if nulls is None else nulls.to_mask(ROWS)
                want = null_mask if isinstance(predicate, IsNull) else matches & ~null_mask
                where = (name, label, nulls_label)
                mask, hits = scan_block(blob, scheme.ctype, predicate, nulls, values=True)
                assert np.array_equal(mask, want), where
                assert np.array_equal(scan_block(blob, scheme.ctype, predicate, nulls), want), where
                if isinstance(predicate, IsNull):
                    assert hits is None, where
                elif hits is not None:
                    assert _same(hits, take_values(values, np.flatnonzero(want))), where
                cases += 1
    return cases


@pytest.mark.parametrize("scheme_id", [pytest.param(i, id=label) for i, label in SCHEMES.items()])
def test_scan_equals_decode_then_evaluate(scheme_id):
    assert _check_scans(get_scheme(scheme_id)), "no corpus applies"


def test_every_scan_rule_runs():
    """Route coverage: every scheme class that states its own ``scan`` rule
    ran it on the cases above, with and without the hit values asked for,
    and the rules pushed predicates into the children: compiled and
    fallback code predicates, pages skipped and accepted from their
    headers."""
    rules = {
        cls for scheme in all_schemes()
        for cls in type(scheme).__mro__[: type(scheme).__mro__.index(Scheme)]
        if "scan" in vars(cls)
    }
    assert len(rules) >= 6, rules  # One Value, RLE, Frequency, both dictionaries, FastBP128
    ran = set()

    def spy(cls):
        rule = vars(cls)["scan"]

        def scan(self, payload, count, ctx, predicate, want, *args, **kwargs):
            ran.add((cls, want))
            return rule(self, payload, count, ctx, predicate, want, *args, **kwargs)

        return mock.patch.object(cls, "scan", scan)

    patches = [spy(cls) for cls in rules]
    registry = MetricsRegistry()
    for patch in patches:
        patch.start()
    try:
        with use_registry(registry):
            for scheme in all_schemes():
                _check_scans(scheme)
    finally:
        for patch in patches:
            patch.stop()
    missed = {(cls, want) for cls in rules for want in (False, True)} - ran
    assert not missed, sorted((cls.__name__, want) for cls, want in missed)
    for counter in ("code_compiled", "code_fallbacks", "pages_skipped", "pages_accepted"):
        assert registry.get(f"query.cdomain.{counter}"), counter
