"""Tests for configuration handling."""

import pytest

from repro.core.config import BtrBlocksConfig
from repro.encodings.base import SchemeId


class TestDefaults:
    def test_paper_defaults(self):
        config = BtrBlocksConfig()
        assert config.block_size == 64_000
        assert config.max_cascade_depth == 3
        assert config.sample_runs == 10
        assert config.sample_run_length == 64
        assert config.sample_size() == 640
        assert config.rle_min_avg_run_length == 2.0
        assert config.frequency_max_unique_fraction == 0.5
        assert config.pseudodecimal_min_unique_fraction == 0.1
        assert config.pseudodecimal_max_exception_fraction == 0.5

    def test_sample_is_one_percent_of_block(self):
        config = BtrBlocksConfig()
        assert config.sample_size() / config.block_size == pytest.approx(0.01)

    def test_vectorized_by_default(self):
        assert BtrBlocksConfig().vectorized is True


class TestWithPool:
    def test_returns_new_config(self):
        base = BtrBlocksConfig()
        restricted = base.with_pool({SchemeId.DICT_INT})
        assert restricted is not base
        assert base.allowed_schemes is None
        assert restricted.allowed_schemes == frozenset({SchemeId.DICT_INT})

    def test_preserves_other_fields(self):
        base = BtrBlocksConfig(block_size=1234, max_cascade_depth=2)
        restricted = base.with_pool([SchemeId.RLE_INT])
        assert restricted.block_size == 1234
        assert restricted.max_cascade_depth == 2
