"""Forge and re-sign committed table manifests in tests.

A manifest object is ``{"crc32": ..., "manifest": <body>}``; a test that
edits the body re-signs it through :func:`forge`, so only the check the
test aims at can object to the edit.
"""

from __future__ import annotations

import json

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
