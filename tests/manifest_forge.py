"""Forge and re-sign committed table manifests in tests.

A manifest object is ``{"crc32": ..., "manifest": <body>}``; a test that
edits the body re-signs it through :func:`forge`, so only the check the
test aims at can object to the edit. :func:`forge_crc32` makes other bytes
with a chosen CRC32, for checks that must compare bytes, not checksums.
"""

from __future__ import annotations

import json
import zlib

from repro.cloud.remote_table import manifest_to_bytes
from repro.core.blockstats import pack_zone, unpack_zone


def forge(store, key: str, mutate, sign: bool = True) -> None:
    """Edit the committed manifest in place with ``mutate(body)`` and re-sign
    it, or, when ``sign`` is false, keep the CRC32 the unedited body had."""
    old = store.get(key)
    manifest = json.loads(old)["manifest"]
    mutate(manifest)
    new = manifest_to_bytes(manifest)
    if not sign:
        head = old.index(b'"manifest":')
        new = old[:head] + new[head:]
    store.put(key, new)


def block_range(entry: dict, index: int) -> "tuple[int, int]":
    """``(offset, size)`` of block ``index`` inside the entry's column file."""
    offset, size = unpack_zone(entry["zone"])[["offset", "size"]][index].tolist()
    return offset, size


def edit_zone(entry: dict, edit) -> None:
    """Rewrite the entry's packed zone records through ``edit(records)``,
    which may change fields in place or return a new record array."""
    records = unpack_zone(entry["zone"]).copy()
    edited = edit(records)
    entry["zone"] = pack_zone(records if edited is None else edited)


def forge_crc32(blob: bytes, bits, target: int) -> bytes:
    """``blob`` with some of the bit positions ``bits`` (``8 * byte + bit``)
    flipped so its CRC32 is ``target``.

    CRC32 is affine over GF(2): flipping a set of bits XORs the CRC with the
    XOR of each bit's own effect, so the flips are solved for the difference
    by Gaussian elimination (``bits`` must span all 32 bits of it; any 32
    consecutive positions do)."""
    bits = list(bits)
    crc0, basis = zlib.crc32(blob), {}
    for index, bit in enumerate(bits):
        flipped = bytearray(blob)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        effect, flips = zlib.crc32(flipped) ^ crc0, 1 << index
        while effect and effect.bit_length() in basis:
            pivot_effect, pivot_flips = basis[effect.bit_length()]
            effect, flips = effect ^ pivot_effect, flips ^ pivot_flips
        if effect:
            basis[effect.bit_length()] = (effect, flips)
    want, flips = target ^ crc0, 0
    while want:
        effect, pivot_flips = basis[want.bit_length()]
        want, flips = want ^ effect, flips ^ pivot_flips
    forged = bytearray(blob)
    for index, bit in enumerate(bits):
        if flips >> index & 1:
            forged[bit >> 3] ^= 1 << (bit & 7)
    assert zlib.crc32(forged) == target
    return bytes(forged)
