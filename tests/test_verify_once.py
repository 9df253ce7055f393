"""``verify_block`` hashes a block object once: a pass over immutable bytes is
remembered on the block, and only while it holds the very same ``data`` and
``nulls`` objects under the same count and checksum. Every reassignment, a
mutable payload, a failure, a copy or a pickle round trip hashes again, so a
remembered pass can never vouch for bytes it did not see.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.bitmap import RoaringBitmap
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.core import file_format
from repro.core.compressor import compress_column, compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.file_format import column_from_bytes, column_to_bytes, verify_block
from repro.core.relation import Relation
from repro.types import Column


@pytest.fixture
def block():
    """A checksummed block as read back from a v2 column file."""
    values = np.arange(1000, dtype=np.int32)
    column = Column.ints("v", values, nulls=RoaringBitmap.from_positions(np.arange(0, 1000, 7)))
    compressed = compress_column(column, BtrBlocksConfig(block_size=1000))
    block = column_from_bytes(column_to_bytes(compressed)).blocks[0]
    assert isinstance(block.data, bytes) and isinstance(block.nulls, bytes)
    return block


@pytest.fixture
def hashes(monkeypatch, block):
    """A list whose length is the number of CRC32s computed since ``block``
    was written."""
    calls, real = [], file_format.block_checksum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(file_format, "block_checksum", counting)
    return calls


def _flipped(payload: bytes) -> bytes:
    damaged = bytearray(payload)
    damaged[len(damaged) // 2] ^= 0x40
    return bytes(damaged)


def test_a_pass_is_hashed_once(hashes, block):
    assert verify_block(block) and verify_block(block) and verify_block(block)
    assert len(hashes) == 1


@pytest.mark.parametrize("field", ["data", "nulls"])
def test_a_reassigned_payload_is_hashed_again(hashes, block, field):
    assert verify_block(block)
    clean = getattr(block, field)
    setattr(block, field, _flipped(clean))  # what the corruption tests do
    assert not verify_block(block)
    setattr(block, field, bytes(bytearray(clean)))  # equal bytes, another object
    assert verify_block(block)
    assert len(hashes) == 3


def test_dropped_nulls_are_hashed_again(hashes, block):
    assert verify_block(block)
    block.nulls = None
    assert not verify_block(block)
    assert len(hashes) == 2


@pytest.mark.parametrize("field", ["count", "checksum"])
def test_a_reassigned_header_field_is_hashed_again(hashes, block, field):
    assert verify_block(block)
    clean = getattr(block, field)
    setattr(block, field, clean ^ 1)
    assert not verify_block(block)
    setattr(block, field, clean)  # the very objects and fields that passed
    assert verify_block(block)
    assert len(hashes) == 2


def test_a_failure_is_never_remembered(hashes, block):
    block.data = _flipped(block.data)
    assert not verify_block(block) and not verify_block(block)
    assert len(hashes) == 2 and block.verified is None


@pytest.mark.parametrize("field", ["data", "nulls"])
def test_a_mutable_payload_is_hashed_on_every_call(hashes, block, field):
    mutable = bytearray(getattr(block, field))
    setattr(block, field, mutable)
    assert verify_block(block) and verify_block(block)
    assert len(hashes) == 2 and block.verified is None
    mutable[len(mutable) // 2] ^= 0x40  # the same object, damaged in place
    assert not verify_block(block)
    assert len(hashes) == 3


def test_copies_and_pickles_carry_no_pass(hashes, block):
    assert verify_block(block) and block.verified is not None
    replaced = dataclasses.replace(block)
    assert replaced.verified is None and dataclasses.replace(block, data=block.data).verified is None
    assert not verify_block(dataclasses.replace(block, data=_flipped(block.data)))
    assert copy.copy(block).verified is None
    restored = pickle.loads(pickle.dumps(block))
    assert restored.verified is None and restored == block
    # A byte damaged in the pickle itself reaches data and memo alike, so a
    # carried pass would vouch for it.
    blob = bytearray(pickle.dumps(block))
    at = bytes(blob).index(block.data) + len(block.data) // 2
    blob[at] ^= 0x40
    assert not verify_block(pickle.loads(bytes(blob)))


def test_equality_and_repr_ignore_the_pass(block):
    fresh = dataclasses.replace(block)
    assert verify_block(block) and fresh.verified is None
    assert block == fresh and repr(block) == repr(fresh)
    assert "verified" not in repr(block)


def test_unchecksummed_blocks_remember_nothing(hashes, block):
    block.checksum = None
    assert verify_block(block) and block.verified is None and not hashes


def test_each_downloaded_block_is_hashed_once(hashes):
    """A fresh handle's scan hashes every block it downloads once (the
    download check and the decode share the pass); a warm re-scan none."""
    rng = np.random.default_rng(3)
    relation = Relation("t", [
        Column.ints("k", np.arange(8192)),
        Column.strings("s", [b"open", b"shipped", b"lost"] * 2730 + [b"open"] * 2),
        Column.doubles("d", rng.standard_normal(8192)),
    ])
    store = SimulatedObjectStore()
    TableWriter(store).write(compress_relation(relation, BtrBlocksConfig(block_size=1024)))
    hashes.clear()  # the writer's checksums
    table = RemoteTable.open(store, "t")
    table.scan()
    assert len(hashes) == 3 * 8
    table.scan()
    table.scan()
    assert len(hashes) == 3 * 8
    assert table.decode_cache.current_bytes > 0
