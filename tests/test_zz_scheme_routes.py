"""Every registered scheme's one ``decompress``, on all three routes.

A scheme decodes a node whole, only at sorted ``positions``, or whole into
an ``out`` slot, through one method that parses its payload once. On a
shared corpus per type, every route must give what the full decode gives:
``positions=p`` the full decode taken at ``p``, ``out=slot`` the full decode
bit for bit.

:func:`register_extension_schemes` mutates the global registry; the
``scheme_registry`` fixture in ``conftest.py`` restores it after the module.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import make_context
from repro.core.stats import compute_stats
from repro.encodings.base import Scheme, all_schemes, get_scheme, take_values
from repro.encodings.extensions import (
    DeltaZigZagInt,
    TruncationInt,
    register_extension_schemes,
)
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
