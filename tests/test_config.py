"""Tests for configuration handling."""

import numpy as np
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

    def test_fused_rle_dict_threshold(self):
        # Paper Section 5: fuse only when the average run length exceeds 3.
        from repro.core.compressor import make_context as compression_context
        from repro.core.decompressor import decompress_block, make_context
        from repro.core.selector import SchemeSelector
        from repro.encodings.base import get_scheme
        from repro.encodings.dictionary import FUSED_RLE_DICT_MIN_RUN, _try_fused_rle
        from repro.encodings.wire import Writer, wrap
        from repro.types import ColumnType

        uniq = np.arange(100, 110, dtype=np.int32)

        def rle_coded(run: int) -> bytes:
            codes = np.repeat(np.arange(10, dtype=np.int32), run)
            payload = get_scheme(SchemeId.RLE_INT).compress(
                codes, compression_context(SchemeSelector(seed=7))
            )
            return wrap(SchemeId.RLE_INT, len(codes), payload)

        assert FUSED_RLE_DICT_MIN_RUN == 3.0
        for run in (3, 4):  # either side of the threshold decodes the same values
            payload = Writer().array(uniq).blob(rle_coded(run)).getvalue()
            node = wrap(SchemeId.DICT_INT, 10 * run, payload)
            decoded = decompress_block(node, ColumnType.INTEGER)
            assert decoded.tolist() == np.repeat(uniq, run).tolist()
        assert _try_fused_rle(rle_coded(3), make_context()) is None
        # Runs of 4 should fuse and do not: the route is dead as written (see
        # _try_fused_rle's docstring, ROADMAP item 3). This line flips with the
        # fix, which has to bind DecodeLimits on the child first
        # (test_decode_limits_fuzz.py::TestHostileDictionaryRuns).
        assert _try_fused_rle(rle_coded(4), make_context()) is None


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
