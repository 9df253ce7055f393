"""Seeded property-style round-trip fuzzing for every registered encoding.

For each data type we generate ~50 adversarial value sequences from a fixed
seed -- empty, single value, all-NULL, alternating, extreme magnitudes,
NaN/±inf/-0.0 for floats -- and assert that ``decompress(compress(x))``
reproduces the input *exactly* (bit patterns for doubles).

Four layers are fuzzed:

1. the full pipeline (``compress_block`` / ``decompress_block``), where the
   sampling-based selector is free to pick any cascade;
2. every scheme directly (selector bypassed), so a scheme cannot hide behind
   viability filters that would normally steer hostile inputs away from it;
3. the standalone float codecs (FPC, Gorilla, Chimp, Chimp128);
4. the checksummed (v2) column container and the fault-injecting object
   store: every adversarial input survives serialization, and scans through
   a store injecting transient errors, timeouts, throttles, truncated
   ranges and bit flips return bytes *bit-identical* to a fault-free store
   (retry-then-succeed), while unretryable stores fail with a typed error
   (retries-exhausted). ``REPRO_FAULT_SEED`` overrides the fault seed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.core.compressor import compress_block, compress_column, make_context
from repro.core.decompressor import (
    decompress_block,
    decompress_column,
    make_context as decode_context,
)
from repro.core.selector import SchemeSelector
from repro.encodings.base import SchemeId, get_scheme
from repro.floats import chimp, fpc, gorilla
from repro.types import Column, ColumnType, StringArray, columns_equal

SEED = 0xB7B10C5


# -- adversarial input generators ---------------------------------------------


def int_cases() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(SEED)
    i32 = np.int32
    cases: list[tuple[str, np.ndarray]] = [
        ("empty", np.empty(0, dtype=i32)),
        ("single_zero", np.zeros(1, dtype=i32)),
        ("single_max", np.array([2**31 - 1], dtype=i32)),
        ("single_min", np.array([-(2**31)], dtype=i32)),
        ("all_zero", np.zeros(777, dtype=i32)),
        ("all_max", np.full(512, 2**31 - 1, dtype=i32)),
        ("all_min", np.full(512, -(2**31), dtype=i32)),
        ("alternating_01", np.tile(np.array([0, 1], dtype=i32), 500)),
        ("alternating_extremes", np.tile(np.array([2**31 - 1, -(2**31)], dtype=i32), 300)),
        ("ascending", np.arange(1000, dtype=i32)),
        ("descending", np.arange(1000, 0, -1).astype(i32)),
        ("two_then_spike", np.r_[np.full(999, 2, dtype=i32), np.array([2**30], dtype=i32)]),
        ("negatives", -np.arange(1, 600, dtype=i32)),
        ("powers_of_two", (2 ** np.arange(31, dtype=np.int64) % (2**31)).astype(i32)),
    ]
    for i in range(12):
        cases.append((f"uniform_{i}", rng.integers(-(2**31), 2**31, 257 + i, dtype=np.int64).astype(i32)))
    for i in range(8):
        runs = np.repeat(rng.integers(-50, 50, 20 + i), rng.integers(1, 60))
        cases.append((f"runs_{i}", runs.astype(i32)))
    for i in range(8):
        base = rng.integers(0, 2**20)
        cases.append((f"clustered_{i}", (base + rng.integers(0, 17, 400 + i)).astype(i32)))
    for i in range(8):
        sparse = np.where(rng.random(333) < 0.02, rng.integers(0, 2**30), 7)
        cases.append((f"sparse_outliers_{i}", sparse.astype(i32)))
    return cases


def double_cases() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(SEED + 1)
    f64 = np.float64
    nan_payload = np.frombuffer(np.uint64(0x7FF8DEADBEEF0001).tobytes(), dtype=f64)[0]
    cases: list[tuple[str, np.ndarray]] = [
        ("empty", np.empty(0, dtype=f64)),
        ("single_nan", np.array([np.nan], dtype=f64)),
        ("single_neg_zero", np.array([-0.0], dtype=f64)),
        ("all_nan", np.full(321, np.nan, dtype=f64)),
        ("all_pos_inf", np.full(128, np.inf, dtype=f64)),
        ("all_neg_inf", np.full(128, -np.inf, dtype=f64)),
        ("nan_payload", np.full(64, nan_payload, dtype=f64)),
        ("mixed_specials", np.tile(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=f64), 100)),
        ("alternating_sign", np.tile(np.array([1.5, -1.5], dtype=f64), 400)),
        ("tiny_denormals", np.array([5e-324, 1e-320, -5e-324] * 50, dtype=f64)),
        ("huge_magnitudes", np.array([1e308, -1e308, 1.7976931348623157e308] * 40, dtype=f64)),
        ("ascending_ints", np.arange(1000, dtype=f64)),
        ("prices", np.round(rng.uniform(0.01, 9999.99, 800), 2)),
        ("single_price", np.array([19.99], dtype=f64)),
    ]
    for i in range(10):
        cases.append((f"uniform_{i}", rng.uniform(-1e6, 1e6, 211 + i)))
    for i in range(8):
        cases.append((f"decimals_{i}", np.round(rng.uniform(-1e4, 1e4, 300 + i), i % 5)))
    for i in range(8):
        bits = rng.integers(0, 2**64, 150 + i, dtype=np.uint64)
        cases.append((f"random_bits_{i}", bits.view(f64)))
    for i in range(6):
        vals = rng.uniform(0, 100, 400)
        vals[rng.random(400) < 0.1] = np.nan
        cases.append((f"nan_sprinkled_{i}", vals))
    return cases


def string_cases() -> list[tuple[str, StringArray]]:
    rng = np.random.default_rng(SEED + 2)
    mk = StringArray.from_pylist
    cases: list[tuple[str, StringArray]] = [
        ("empty", StringArray.empty(0)),
        ("one_empty_string", mk([""])),
        ("all_empty_strings", mk([""] * 400)),
        ("single", mk(["lonely"])),
        ("all_same", mk(["OSLO"] * 500)),
        ("alternating", mk(["a", "bb"] * 300)),
        ("unicode", mk(["héllo wörld", "日本語テキスト", "🚀🌑", "عربى"] * 60)),
        ("null_bytes", mk([b"\x00\x01\x02", b"\x00", b"\xff\xfe"] * 50)),
        ("long_strings", mk(["x" * 5000, "y" * 3000, "z" * 1])),
        ("urls", mk([f"https://example.com/item?id={i}&ref=home" for i in range(300)])),
        ("mixed_lengths", mk(["" if i % 7 == 0 else "v" * (i % 97) for i in range(500)])),
    ]
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
    for i in range(20):
        words = [
            bytes(alphabet[rng.integers(0, alphabet.size, rng.integers(0, 24))])
            for _ in range(120 + i)
        ]
        cases.append((f"random_words_{i}", mk(words)))
    for i in range(10):
        pool = [f"city_{k}" for k in range(rng.integers(1, 12))]
        cases.append((f"low_card_{i}", mk([pool[j % len(pool)] for j in range(250 + i)])))
    for i in range(10):
        raw = [bytes(rng.integers(0, 256, rng.integers(0, 40), dtype=np.uint8).tobytes())
               for _ in range(100 + i)]
        cases.append((f"random_bytes_{i}", mk(raw)))
    return cases


INT_CASES = int_cases()
DOUBLE_CASES = double_cases()
STRING_CASES = string_cases()


def assert_exact(ctype: ColumnType, original, restored) -> None:
    assert len(restored) == len(original)
    if ctype is ColumnType.DOUBLE:
        assert np.array_equal(
            np.asarray(original, dtype=np.float64).view(np.uint64),
            np.asarray(restored, dtype=np.float64).view(np.uint64),
        )
    elif ctype is ColumnType.INTEGER:
        assert np.array_equal(np.asarray(original), np.asarray(restored))
    else:
        assert original == restored


# -- layer 1: full pipeline ----------------------------------------------------


@pytest.mark.parametrize("name,values", INT_CASES, ids=[n for n, _ in INT_CASES])
def test_pipeline_int_round_trip(name, values):
    blob = compress_block(values, ColumnType.INTEGER)
    assert_exact(ColumnType.INTEGER, values, decompress_block(blob, ColumnType.INTEGER))


@pytest.mark.parametrize("name,values", DOUBLE_CASES, ids=[n for n, _ in DOUBLE_CASES])
def test_pipeline_double_round_trip(name, values):
    blob = compress_block(values, ColumnType.DOUBLE)
    assert_exact(ColumnType.DOUBLE, values, decompress_block(blob, ColumnType.DOUBLE))


@pytest.mark.parametrize("name,values", STRING_CASES, ids=[n for n, _ in STRING_CASES])
def test_pipeline_string_round_trip(name, values):
    blob = compress_block(values, ColumnType.STRING)
    assert_exact(ColumnType.STRING, values, decompress_block(blob, ColumnType.STRING))


def test_all_null_columns_round_trip():
    """All-NULL columns: data slots are zeros, the bitmap carries the truth."""
    n = 1234
    all_null = RoaringBitmap.from_positions(np.arange(n))
    for column in (
        Column.ints("i", np.zeros(n, dtype=np.int32), nulls=all_null),
        Column.doubles("d", np.zeros(n), nulls=all_null),
        Column.strings("s", StringArray.from_pylist([""] * n), nulls=all_null),
    ):
        back = decompress_column(compress_column(column))
        assert columns_equal(column, back)


# -- layer 2: every scheme directly -------------------------------------------


def scheme_round_trip(scheme, values, vectorized=True):
    selector = SchemeSelector()
    payload = scheme.compress(values, make_context(selector))
    return scheme.decompress(payload, len(values), decode_context(vectorized))


def _constant(values):
    """Adversarial input reshaped to the one distribution OneValue accepts."""
    return np.full(max(len(values), 1), values[0] if len(values) else values.dtype.type(0))


INT_SCHEMES = [
    SchemeId.RLE_INT,
    SchemeId.DICT_INT,
    SchemeId.FREQUENCY_INT,
    SchemeId.FAST_BP128,
    SchemeId.FAST_PFOR,
]
DOUBLE_SCHEMES = [
    SchemeId.RLE_DOUBLE,
    SchemeId.DICT_DOUBLE,
    SchemeId.FREQUENCY_DOUBLE,
    SchemeId.PSEUDODECIMAL,
]
STRING_SCHEMES = [SchemeId.DICT_STRING, SchemeId.FREQUENCY_STRING, SchemeId.FSST]


@pytest.mark.parametrize("scheme_id", INT_SCHEMES)
@pytest.mark.parametrize("name,values", INT_CASES, ids=[n for n, _ in INT_CASES])
def test_int_schemes_direct(scheme_id, name, values):
    if len(values) == 0:
        pytest.skip("selector never routes empty blocks to a scheme")
    scheme = get_scheme(scheme_id)
    out = scheme_round_trip(scheme, values)
    assert_exact(ColumnType.INTEGER, values, out)


@pytest.mark.parametrize("scheme_id", DOUBLE_SCHEMES)
@pytest.mark.parametrize("name,values", DOUBLE_CASES, ids=[n for n, _ in DOUBLE_CASES])
def test_double_schemes_direct(scheme_id, name, values):
    if len(values) == 0:
        pytest.skip("selector never routes empty blocks to a scheme")
    scheme = get_scheme(scheme_id)
    out = scheme_round_trip(scheme, np.asarray(values, dtype=np.float64))
    assert_exact(ColumnType.DOUBLE, values, out)


@pytest.mark.parametrize("scheme_id", STRING_SCHEMES)
@pytest.mark.parametrize("name,values", STRING_CASES, ids=[n for n, _ in STRING_CASES])
def test_string_schemes_direct(scheme_id, name, values):
    if len(values) == 0:
        pytest.skip("selector never routes empty blocks to a scheme")
    scheme = get_scheme(scheme_id)
    out = scheme_round_trip(scheme, values)
    assert_exact(ColumnType.STRING, values, out)


@pytest.mark.parametrize(
    "scheme_id,cases",
    [
        (SchemeId.ONE_VALUE_INT, INT_CASES),
        (SchemeId.ONE_VALUE_DOUBLE, DOUBLE_CASES),
    ],
    ids=["one_value_int", "one_value_double"],
)
def test_one_value_direct(scheme_id, cases):
    scheme = get_scheme(scheme_id)
    ctype = scheme.ctype
    for name, values in cases:
        if len(values) == 0:
            continue
        constant = _constant(values)
        out = scheme_round_trip(scheme, constant)
        assert_exact(ctype, constant, out)


def test_one_value_string_direct():
    scheme = get_scheme(SchemeId.ONE_VALUE_STRING)
    for name, values in STRING_CASES:
        if len(values) == 0:
            continue
        constant = StringArray.from_pylist([values[0]] * len(values))
        out = scheme_round_trip(scheme, constant)
        assert_exact(ColumnType.STRING, constant, out)


def test_scalar_decoders_match_vectorized():
    """The Section 6.8 scalar fallbacks must agree bit for bit."""
    for scheme_id, cases in [
        (SchemeId.RLE_INT, INT_CASES[:10]),
        (SchemeId.DICT_INT, INT_CASES[:10]),
        (SchemeId.DICT_STRING, STRING_CASES[:8]),
    ]:
        scheme = get_scheme(scheme_id)
        ctype = scheme.ctype
        for name, values in cases:
            if len(values) == 0:
                continue
            out = scheme_round_trip(scheme, values, vectorized=False)
            assert_exact(ctype, values, out)


# -- layer 3: standalone float codecs -----------------------------------------

FLOAT_CODECS = [
    ("fpc", fpc.compress, fpc.decompress),
    ("gorilla", gorilla.compress, gorilla.decompress),
    ("chimp", chimp.compress, chimp.decompress),
    ("chimp128", chimp.compress128, chimp.decompress128),
]


@pytest.mark.parametrize("codec,compress,decompress", FLOAT_CODECS,
                         ids=[c[0] for c in FLOAT_CODECS])
@pytest.mark.parametrize("name,values", DOUBLE_CASES, ids=[n for n, _ in DOUBLE_CASES])
def test_float_codecs_round_trip(codec, compress, decompress, name, values):
    values = np.asarray(values, dtype=np.float64)
    out = decompress(compress(values), len(values))
    assert_exact(ColumnType.DOUBLE, values, out)


# -- layer 4: checksummed container + fault-injecting store --------------------

from repro.cloud import FaultProfile, RetryPolicy, SimulatedObjectStore  # noqa: E402
from repro.cloud.pricing import PricingModel  # noqa: E402
from repro.cloud.remote_table import RemoteTable, TableWriter  # noqa: E402
from repro.cloud.scan import scan_btrblocks_columns  # noqa: E402
from repro.core.compressor import compress_relation  # noqa: E402
from repro.core.file_format import column_from_bytes, column_to_bytes  # noqa: E402
from repro.core.relation import Relation  # noqa: E402
from repro.exceptions import RetryExhaustedError  # noqa: E402
from repro.observe import MetricsRegistry, use_registry  # noqa: E402

#: Deterministic default; CI's fault-matrix job also feeds one randomized
#: seed through this knob (probabilistic assertions are gated on it below).
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", str(SEED)), 0)
_DEFAULT_SEED = "REPRO_FAULT_SEED" not in os.environ

#: Tiny chunks so even the small fuzz columns take many range-GETs — enough
#: requests that per-request fault rates are virtually certain to fire.
_SMALL_CHUNKS = PricingModel(chunk_bytes=128)


def _container_cases():
    sampled = (
        [(ColumnType.INTEGER, n, v) for n, v in INT_CASES]
        + [(ColumnType.DOUBLE, n, v) for n, v in DOUBLE_CASES]
        + [(ColumnType.STRING, n, v) for n, v in STRING_CASES]
    )
    return sampled


_CONTAINER_CASES = _container_cases()


@pytest.mark.parametrize(
    "ctype,name,values",
    _CONTAINER_CASES,
    ids=[f"{c.name.lower()}_{n}" for c, n, _ in _CONTAINER_CASES],
)
def test_v2_container_round_trip(ctype, name, values):
    """Every adversarial input survives the checksummed file format."""
    if ctype is ColumnType.INTEGER:
        column = Column.ints("c", values)
    elif ctype is ColumnType.DOUBLE:
        column = Column.doubles("c", np.asarray(values, dtype=np.float64))
    else:
        column = Column.strings("c", values)
    restored = column_from_bytes(column_to_bytes(compress_column(column)))
    assert all(block.checksum is not None for block in restored.blocks)
    back = decompress_column(restored)
    assert columns_equal(column, back)


def _fuzz_relation() -> Relation:
    rng = np.random.default_rng(SEED + 3)
    n = 4096
    null_rows = np.flatnonzero(rng.random(n) < 0.05)
    return Relation(
        "fuzz",
        [
            Column.ints("ids", rng.integers(0, 2**20, n).astype(np.int32)),
            Column.doubles("price", np.round(rng.uniform(0, 1e4, n), 2)),
            Column.strings(
                "city",
                StringArray.from_pylist([f"city_{i % 13}" for i in range(n)]),
                nulls=RoaringBitmap.from_positions(null_rows),
            ),
        ],
    )


_FUZZ_COLUMNS = ["ids", "price", "city"]


@pytest.fixture(scope="module")
def fuzz_compressed():
    return compress_relation(_fuzz_relation())


def _committed_store(compressed, profile=None, **store_kwargs) -> SimulatedObjectStore:
    """``compressed`` committed fault-free; ``profile`` then applies to reads."""
    store = SimulatedObjectStore(pricing=_SMALL_CHUNKS, **store_kwargs)
    TableWriter(store).write(compressed)
    store.set_faults(profile)
    return store


def _column_payloads(store: SimulatedObjectStore) -> dict[str, bytes]:
    """Every column object of the committed table, read through the retry layer."""
    table = RemoteTable.open(store, "fuzz")
    keys = [table.column_entry(name)["file"] for name in _FUZZ_COLUMNS]
    return {key: store.get_chunked(key) for key in keys}


def test_faulty_scan_bit_identical_to_fault_free(fuzz_compressed):
    """The PR's acceptance criterion: 5% transient errors + 1% truncated
    ranges, and the retried scan still returns the exact fault-free bytes."""
    clean = _committed_store(fuzz_compressed)
    faulty = _committed_store(
        fuzz_compressed,
        FaultProfile(seed=FAULT_SEED, transient_error_rate=0.05, truncate_rate=0.01),
        retry=RetryPolicy(max_attempts=10),
    )

    want = scan_btrblocks_columns(clean, "fuzz", _FUZZ_COLUMNS)
    with use_registry(MetricsRegistry()) as registry:
        got = scan_btrblocks_columns(faulty, "fuzz", _FUZZ_COLUMNS)

    # Transport faults are the store's alone: RemoteTable must never refetch.
    assert registry.get("cloud.table.integrity_refetches") == 0
    assert want.retries == 0 and want.backoff_seconds == 0.0
    if _DEFAULT_SEED:
        # ~1200 range-GETs at >=6% combined fault rate: the deterministic
        # seed exercises the retry-then-succeed path, and backoff shows up
        # as simulated (never slept) scan time.
        assert got.retries > 0
        assert got.backoff_seconds > 0.0
        assert faulty.clock.now_seconds > 0.0
        assert got.requests > want.requests  # truncated attempts are billed
    assert _column_payloads(faulty) == _column_payloads(clean)


def test_faulty_remote_scan_decodes_identically(fuzz_compressed):
    """All five fault classes at once — including bit flips that only the
    v2 checksums can catch — and a RemoteTable scan still decodes every
    column bit-identically via verify-then-refetch."""
    profile = FaultProfile(
        seed=FAULT_SEED ^ 0xFA17,
        transient_error_rate=0.05,
        timeout_rate=0.02,
        throttle_rate=0.02,
        truncate_rate=0.01,
        corrupt_rate=0.005,
    )
    store = _committed_store(fuzz_compressed, retry=RetryPolicy(max_attempts=10))
    # Metadata integrity is out of scope here (it is JSON, not checksummed):
    # the handle reads a clean manifest before the faults switch on, so the
    # run exercises the column path, where CRC32 + refetch is the contract
    # under test.
    table = RemoteTable.open(store, "fuzz")
    store.set_faults(profile)
    result = table.scan()
    for original, restored in zip(_fuzz_relation().columns, result.columns):
        assert columns_equal(original, restored)


def test_retries_exhausted_raises_typed_error():
    store = SimulatedObjectStore(
        faults=FaultProfile(seed=FAULT_SEED, transient_error_rate=1.0),
        retry=RetryPolicy(max_attempts=3),
    )
    store.put("k", b"payload")
    with pytest.raises(RetryExhaustedError):
        store.get("k")
    # Server-rejected attempts are never billed, but their backoff is real.
    assert store.stats.get_requests == 0
    assert store.stats.retries == 2  # 3 attempts = 2 retries
    assert store.stats.backoff_seconds > 0.0


def test_timeouts_burn_simulated_client_wait():
    policy = RetryPolicy(max_attempts=4, timeout_seconds=1.0)
    store = SimulatedObjectStore(
        faults=FaultProfile(seed=FAULT_SEED, timeout_rate=1.0), retry=policy
    )
    store.put("k", b"x" * 64)
    with pytest.raises(RetryExhaustedError):
        store.get("k")
    # Every one of the 4 attempts times out and burns the full client wait,
    # on top of the 3 backoff delays.
    assert store.clock.now_seconds >= 4 * policy.timeout_seconds
    assert store.stats.backoff_seconds >= 4 * policy.timeout_seconds


def test_fault_free_store_accounting_unchanged(fuzz_compressed):
    """A store with no profile attached serves byte- and request-identical
    to one with an all-zero profile: fault plumbing costs nothing."""
    plain = _committed_store(fuzz_compressed)
    zeroed = _committed_store(fuzz_compressed, FaultProfile())
    a = scan_btrblocks_columns(plain, "fuzz", _FUZZ_COLUMNS)
    b = scan_btrblocks_columns(zeroed, "fuzz", _FUZZ_COLUMNS)
    assert (a.requests, a.bytes_downloaded, a.retries) == (
        b.requests,
        b.bytes_downloaded,
        b.retries,
    )
    assert _column_payloads(plain) == _column_payloads(zeroed)
