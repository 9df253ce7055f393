"""The benchmark's layer tracer patches the library by name.

``lakebench/tracer.py`` replaces public callables -- every scheme's
``decompress`` among them, resolved through the scheme's MRO -- for a traced
window and puts the originals back afterwards. A library rename breaks it
silently; this catches it in tier-1 rather than in a traced benchmark run.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.core.compressor import compress_block
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_block
from repro.encodings.base import all_schemes
from repro.types import ColumnType, StringArray


def _tracer_module():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "lakebench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    return tracer


def test_installed_wraps_every_decode_and_restores_every_attribute():
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    patched = [(owner, name, owner.__dict__[name]) for owner, name, _ in tracer._patches()]
    decodes = {type(scheme): type(scheme).decompress for scheme in all_schemes()}
    blocks = {
        ColumnType.INTEGER: np.arange(1000, dtype=np.int32),
        ColumnType.DOUBLE: np.round(np.linspace(0, 10, 1000), 2),
        ColumnType.STRING: StringArray.from_pylist([f"row-{i % 7}" for i in range(1000)]),
    }
    blobs = {ctype: compress_block(values, ctype, BtrBlocksConfig()) for ctype, values in blocks.items()}
    with tracer.installed():
        for owner, name, original in patched:
            assert owner.__dict__[name] is not original, (owner, name)
        for cls, decode in decodes.items():
            assert cls.decompress is not decode, cls
        for ctype, blob in blobs.items():
            decompress_block(blob, ctype)
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)
    for cls, decode in decodes.items():
        assert cls.decompress is decode, cls
    layers = {layer for layer, *_ in tracer.spans}
    assert set(tracer_module._DECODE_LAYER.values()) <= layers
