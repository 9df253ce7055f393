"""Pseudodecimal Encoding — the paper's novel floating-point scheme (Section 4).

Each double is encoded as two integers: signed significant digits and a
decimal exponent, such that ``digits * 10^-exponent`` reproduces the exact
bit pattern. ``3.25`` becomes ``(+325, 2)``; the double closest to ``0.99``
(``0x3FEFAE147AE147AE``) becomes just ``(99, 2)`` because the reconstruction
multiply rounds back to the identical bits. Values that cannot be encoded
(NaN, +-Inf, -0.0, digits beyond 32 bits, exponents beyond 22) are stored
separately as *patches* with a Roaring bitmap of their positions.

The digits and exponent streams cascade into the integer scheme pool
(typically FastPFOR / RLE, as in the paper's Section 4.2 diagram).
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.encodings.base import (
    CompressionContext,
    Scheme,
    SchemeId,
    deliver,
    register_scheme,
)
from repro.encodings.wire import Reader, Writer
from repro.exceptions import CorruptBlockError
from repro.types import ColumnType

MAX_EXPONENT = 22
EXPONENT_EXCEPTION = 23
_DIGIT_LIMIT = float(2**31)

#: Inverse powers of ten, 10^0 .. 10^-22, as correctly-rounded doubles.
#: The paper stores the inverse table because multiplication is faster than
#: division during decompression.
FRAC10 = np.array([float(f"1e-{e}") for e in range(MAX_EXPONENT + 1)])


def encode_block(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode doubles to (digits, exponents, patch_mask).

    For every value the smallest exponent whose reconstruction is
    bit-identical wins (mirroring the paper's Listing 2 loop); values with no
    exact decimal representation get ``exponent == EXPONENT_EXCEPTION`` and
    ``patch_mask`` set.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    digits = np.zeros(n, dtype=np.int32)
    exponents = np.full(n, EXPONENT_EXCEPTION, dtype=np.int32)
    unresolved = np.ones(n, dtype=bool)
    bits = values.view(np.uint64)
    # -0.0 can never round-trip through integer digits (0 decodes to +0.0).
    negative_zero = bits == np.uint64(0x8000000000000000)
    unresolved &= ~negative_zero
    for exponent in range(MAX_EXPONENT + 1):
        if not unresolved.any():
            break
        idx = np.nonzero(unresolved)[0]
        v = values[idx]
        with np.errstate(invalid="ignore", over="ignore"):
            candidate = np.rint(v / FRAC10[exponent])
            in_range = np.isfinite(candidate) & (np.abs(candidate) < _DIGIT_LIMIT)
            reconstructed = candidate * FRAC10[exponent]
        matches = in_range & (reconstructed.view(np.uint64) == v.view(np.uint64))
        hit = idx[matches]
        digits[hit] = candidate[matches].astype(np.int32)
        exponents[hit] = exponent
        unresolved[hit] = False
    return digits, exponents, exponents == EXPONENT_EXCEPTION


def exception_fraction(values: np.ndarray) -> float:
    """Fraction of values Pseudodecimal cannot encode (selector viability)."""
    if len(values) == 0:
        return 0.0
    _digits, _exponents, patches = encode_block(values)
    return float(patches.mean())


class Pseudodecimal(Scheme):
    """Pseudodecimal Encoding with cascading integer children."""

    scheme_id = SchemeId.PSEUDODECIMAL
    name = "pseudodecimal"
    ctype = ColumnType.DOUBLE

    def prepare_stats(self, sample: np.ndarray, stats, config) -> None:
        """Measure the sample exception fraction before viability filtering."""
        stats.pde_exception_fraction = exception_fraction(np.asarray(sample))

    def is_viable(self, stats, config) -> bool:
        if stats.count == 0:
            return False
        # Columns with few unique values compress (almost) as well with
        # dictionaries at much higher decompression speed (Section 4.2).
        if stats.unique_fraction < config.pseudodecimal_min_unique_fraction:
            return False
        if stats.pde_exception_fraction >= 0:
            return stats.pde_exception_fraction <= config.pseudodecimal_max_exception_fraction
        return True

    def compress(self, values: np.ndarray, ctx: CompressionContext) -> bytes:
        values = np.asarray(values, dtype=np.float64)
        digits, exponents, patch_mask = encode_block(values)
        patches = values[patch_mask]
        writer = Writer()
        writer.blob(ctx.compress_child(digits, ColumnType.INTEGER))
        writer.blob(ctx.compress_child(exponents, ColumnType.INTEGER))
        writer.blob(RoaringBitmap.from_bools(patch_mask).serialize())
        writer.array(patches)
        return writer.getvalue()

    @staticmethod
    def _parse(payload: bytes) -> "tuple[bytes, bytes, RoaringBitmap, np.ndarray]":
        """``(digits blob, exponents blob, patched rows, patches)``: one
        patch per row the bitmap marks."""
        reader = Reader(payload)
        digits, exponents = reader.blob(), reader.blob()
        patch_rows = RoaringBitmap.deserialize(reader.blob())
        patches = reader.array()
        if len(patch_rows) != patches.size:
            raise CorruptBlockError(
                f"pseudodecimal marks {len(patch_rows)} exceptions but stores {patches.size}"
            )
        return digits, exponents, patch_rows, patches

    def children(self, payload, count):
        digits_blob, exponents_blob, _patch_rows, _patches = self._parse(payload)
        return [("digits", digits_blob), ("exponents", exponents_blob)]

    def decompress(self, payload, count, ctx, positions=None, out=None):
        digits_blob, exponents_blob, patch_rows, patches = self._parse(payload)
        digits = ctx.decompress_child(digits_blob, ColumnType.INTEGER, positions, count)
        exponents = ctx.decompress_child(exponents_blob, ColumnType.INTEGER, positions, count)
        if not ctx.vectorized and positions is None:  # (no scalar selective kernel)
            values = np.empty(count, dtype=np.float64)
            patch_positions = set(patch_rows.to_array().tolist())
            patch_index = 0
            for i in range(count):
                if i in patch_positions:
                    values[i] = patches[patch_index]
                    patch_index += 1
                else:
                    values[i] = float(digits[i]) * FRAC10[exponents[i]]
            return deliver(values, count, None, out)
        # digits * 10^-exp in one vector multiply, the same on every route so
        # every double comes out bit-identical; the exception exponent is
        # clamped into table range, those slots are patched right after.
        values = np.asarray(digits).astype(np.float64) * FRAC10[np.minimum(exponents, MAX_EXPONENT)]
        if positions is None:
            if patches.size:
                values[patch_rows.to_array()] = patches
            return deliver(values, count, None, out)
        # A selected row is an exception iff the bitmap holds it, and the
        # exceptions before it are its slot in ``patches``.
        slots, is_patch = patch_rows.rank(positions)
        values[is_patch] = patches[slots[is_patch]]
        return values


PSEUDODECIMAL_SCHEME = register_scheme(Pseudodecimal())
