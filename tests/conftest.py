"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core.config import BtrBlocksConfig
from repro.types import Column, StringArray


@pytest.fixture(scope="module", autouse=True)
def scheme_registry():
    """Restore the process-global scheme registry after every module.

    :func:`~repro.encodings.extensions.register_extension_schemes` adds
    schemes to the registry that :func:`~repro.encodings.base.default_pool`
    (every selector's candidate pool) is read from. This snapshots the
    registry before a module runs and puts it back afterwards, so a module
    that registers extensions leaves the default pools of the modules after
    it as they were, whatever order the files run in.
    """
    from repro.encodings import base

    saved = dict(base._REGISTRY)
    yield
    base._REGISTRY.clear()
    base._REGISTRY.update(saved)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> BtrBlocksConfig:
    """A config with a small block size so multi-block paths get exercised."""
    return BtrBlocksConfig(block_size=1000)


@pytest.fixture
def price_doubles(rng) -> np.ndarray:
    return np.round(rng.uniform(1.0, 1000.0, 5000), 2)


@pytest.fixture
def run_ints(rng) -> np.ndarray:
    return np.repeat(rng.integers(0, 50, 250), 20).astype(np.int32)[:5000]


@pytest.fixture
def city_strings() -> StringArray:
    cities = ["PHOENIX", "RALEIGH", "BETHESDA", "ATHENS", "OSLO"]
    return StringArray.from_pylist([cities[i % 5] for i in range(5000)])


@pytest.fixture
def url_strings() -> StringArray:
    return StringArray.from_pylist(
        [f"https://example.com/products/cat-{i % 40}/item?id={i}" for i in range(3000)]
    )


def make_string_column(values, name="s") -> Column:
    return Column.strings(name, values)


def scheme_round_trip(scheme, values, config=None, vectorized=True):
    """Compress values with one specific scheme and decompress them again.

    Children still go through normal cascading selection, exactly as they
    would when the selector picks this scheme for a block.
    """
    from repro.core.compressor import make_context as compression_context
    from repro.core.decompressor import make_context as decompression_context
    from repro.core.selector import SchemeSelector

    selector = SchemeSelector(config)
    ctx = compression_context(selector)
    payload = scheme.compress(values, ctx)
    out = scheme.decompress(payload, len(values), decompression_context(vectorized))
    return payload, out


def lakebench_workloads():
    """``(PARTITIONS, WORKLOADS)`` of the benchmark's own ``workloads`` module."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "lakebench"))
    try:
        from workloads import PARTITIONS, WORKLOADS
    finally:
        sys.path.pop(0)
    return PARTITIONS, WORKLOADS


class LakebenchPartitions:
    """The benchmark's own tables, generated once per seed and compressed
    once per seed x FSST trainer for the whole session.

    Keys are ``(workload name, partition)``. :meth:`compressed` compresses
    every column inline, as the benchmark's writer does, with a fresh
    ``SchemeSelector(workload.config())`` under its own ``SelectionTrace``;
    the partition oracles assert against these and hold their own
    reference selectors, digests and listed exceptions.
    """

    def __init__(self) -> None:
        self.partitions, self.workloads = lakebench_workloads()
        self._relations: dict = {}
        self._compressed: dict = {}

    def relations(self, seed: int) -> dict:
        if seed not in self._relations:
            self._relations[seed] = {
                (name, partition): workload.generate(seed, partition)
                for name, workload in self.workloads.items()
                for partition in range(self.partitions)
            }
        return self._relations[seed]

    def compressed(self, seed: int, trainer) -> dict:
        """``key -> [(column, compressed column, its trace)]``, every FSST
        table trained by ``trainer``."""
        from repro.core.compressor import compress_column
        from repro.core.selector import SchemeSelector
        from repro.encodings import fsst
        from repro.observe import SelectionTrace, use_trace

        if (seed, trainer) in self._compressed:
            return self._compressed[seed, trainer]
        todays, fsst.train_symbol_table = fsst.train_symbol_table, trainer
        try:
            out = {}
            for key, relation in self.relations(seed).items():
                config = self.workloads[key[0]].config()
                out[key] = []
                for column in relation.columns:
                    trace = SelectionTrace()
                    with use_trace(trace):
                        compressed = compress_column(column, selector=SchemeSelector(config))
                    out[key].append((column, compressed, trace))
        finally:
            fsst.train_symbol_table = todays
        self._compressed[seed, trainer] = out
        return out


@pytest.fixture(scope="session")
def lakebench() -> LakebenchPartitions:
    return LakebenchPartitions()
