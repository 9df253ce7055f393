"""Outside-in layer tracer: spans around the library's public callables.

Nothing under ``src/`` knows about this file. While a traced window runs,
:meth:`Tracer.installed` replaces the layers' public entry points — module
attributes as their callers see them, and methods on the public classes —
with wrappers that record ``(layer, start, end, parent, op id)`` in memory;
on exit every original is put back, so untraced windows run pristine code.
A layer's *self time* is its spans' duration minus the part their child
spans cover.

Selection is the one layer with a rule of its own: an outermost
``SchemeSelector.pick`` span keeps everything beneath it (the sample
encodes and nested picks that *are* the estimate) except statistics and
sampling, which stay separate layers. Real encodes — ``Scheme.compress``
outside any pick — are ``encodings.encode``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.cloud import objectstore, remote_table
from repro.core import compressor, decompressor, selector
from repro.encodings.base import Scheme, all_schemes
from repro.metadata.zonemap import ColumnZoneMap
from repro.query import executor, predicates
from repro.types import ColumnType

#: Root span around each operation the harness issues; its self time is
#: what no layer below claims (library glue between wrapped callables).
OP_LAYER = "op"

_DECODE_LAYER = {
    ColumnType.INTEGER: "encodings.decode.int",
    ColumnType.DOUBLE: "encodings.decode.double",
    ColumnType.STRING: "encodings.decode.string",
}

#: (owner, attribute, layer) for plain functions and methods. Module
#: attributes are patched where the *caller* looks them up.
_TARGETS = [
    (selector, "compute_stats", "core.stats"),
    (selector, "take_sample", "core.sampling"),
    (compressor, "compute_block_stats", "core.blockstats"),
    (remote_table, "column_to_bytes", "core.file_format.frame"),
    (remote_table, "column_meta_entry", "core.file_format.frame"),
    (remote_table.TableWriter, "write", "cloud.remote_table.commit"),
    (remote_table.RemoteTable, "open", "cloud.remote_table.scan"),
    (remote_table.RemoteTable, "scan", "cloud.remote_table.scan"),
    (remote_table, "column_from_bytes", "core.file_format.parse"),
    (remote_table, "block_from_region", "core.file_format.parse"),
    (remote_table, "verify_column", "core.file_format.parse"),
    (remote_table, "verify_block", "core.file_format.parse"),
    (decompressor, "verify_block", "core.file_format.parse"),
    (remote_table, "decompress_column", "core.decompressor"),
    (decompressor, "assemble_column", "core.decompressor.assemble"),
    (decompressor, "assemble_column_preallocated", "core.decompressor.assemble"),
    (remote_table, "read_rows", "core.access"),
    (executor, "scan_block", "query.executor"),
    (ColumnZoneMap, "pruned_blocks", "metadata.zonemap"),
] + [
    (objectstore.SimulatedObjectStore, name, "cloud.objectstore")
    for name in (
        "get", "get_range", "get_chunked", "keys",
        "initiate_multipart", "upload_parts", "complete_multipart",
    )
] + [
    (cls, name, "query.predicates")
    for cls in (predicates.Equals, predicates.In, predicates.Between)
    for name in ("evaluate", "may_match_range", "may_match_bytes")
] + [(predicates.Predicate, "evaluate_scalar", "query.predicates")]


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``name``."""
    for base in cls.__mro__:
        if name in base.__dict__:
            return base
    raise AttributeError(name)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: ``(layer, start, end, parent index or -1, op id)`` per span.
        self.spans: "list[tuple[str, float, float, int, int]]" = []
        self.op_id = 0
        #: Zone-map entries tested / surviving, counted where it happens.
        self.blocks_tested = 0
        self.blocks_survived = 0
        self._stack: "list[int]" = []
        self._in_pick = False

    # -- recording -------------------------------------------------------------

    def _record(self, layer, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)  # reserve the slot so children can name their parent
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (layer, start, end, parent, self.op_id)

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self._record(layer, fn, args, kwargs)

        return traced

    def _wrap_pick(self, fn):
        def traced_pick(*args, **kwargs):
            if self._in_pick:
                return fn(*args, **kwargs)  # nested pick: part of the estimate
            self._in_pick = True
            try:
                return self._record("core.selector", fn, args, kwargs)
            finally:
                self._in_pick = False

        return traced_pick

    def _wrap_encode(self, fn):
        def traced_encode(*args, **kwargs):
            if self._in_pick:
                return fn(*args, **kwargs)  # sample encode: selector time
            return self._record("encodings.encode", fn, args, kwargs)

        return traced_encode

    def _wrap_decode(self, fn):
        def traced_decode(scheme, *args, **kwargs):
            return self._record(_DECODE_LAYER[scheme.ctype], fn, (scheme, *args), kwargs)

        return traced_decode

    def _wrap_zonemap(self, fn):
        def traced_pruned_blocks(zone_map, predicate):
            survivors = self._record("metadata.zonemap", fn, (zone_map, predicate), {})
            self.blocks_tested += len(zone_map.entries)
            self.blocks_survived += len(survivors)
            return survivors

        return traced_pruned_blocks

    def op(self, fn, *args, **kwargs):
        """Run one harness operation under a fresh root span / op id."""
        self.op_id += 1
        return self._record(OP_LAYER, fn, args, kwargs)

    # -- installation ----------------------------------------------------------

    def _patches(self):
        """``(owner, attribute, replacement)`` for every wrapped callable."""
        for owner, name, layer in _TARGETS:
            raw = vars(owner)[name]
            if name == "pruned_blocks":
                yield owner, name, self._wrap_zonemap(raw)
            elif isinstance(raw, classmethod):
                yield owner, name, classmethod(self._wrap(layer, raw.__func__))
            else:
                yield owner, name, self._wrap(layer, raw)
        yield selector.SchemeSelector, "pick", self._wrap_pick(selector.SchemeSelector.pick)
        seen = set()
        for scheme in all_schemes():
            for name, wrap in (
                ("compress", self._wrap_encode),
                ("decompress", self._wrap_decode),
                ("decompress_into", self._wrap_decode),
                ("decompress_filtered", self._wrap_decode),
            ):
                owner = _owner(type(scheme), name)
                if (owner, name) in seen or (owner is Scheme and name in ("compress", "decompress")):
                    continue  # abstract on the base class
                seen.add((owner, name))
                yield owner, name, wrap(owner.__dict__[name])

    @contextmanager
    def installed(self):
        """Patch every target for the duration of one traced window."""
        originals = []
        try:
            for owner, name, replacement in self._patches():
                originals.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)

    # -- aggregation -----------------------------------------------------------

    def self_times(self, first_span: int = 0) -> "dict[str, float]":
        """Self seconds per layer over the spans recorded since ``first_span``."""
        spans = self.spans
        child = defaultdict(float)
        for layer, start, end, parent, _op in spans[first_span:]:
            if parent >= first_span:
                child[parent] += end - start
        totals: "dict[str, float]" = defaultdict(float)
        for index in range(first_span, len(spans)):
            layer, start, end, _parent, _op = spans[index]
            totals[layer] += (end - start) - child[index]
        return dict(totals)

    def op_seconds(self, first_span: int = 0) -> "list[float]":
        """Duration of every root (operation) span since ``first_span``."""
        return [
            end - start
            for layer, start, end, _parent, _op in self.spans[first_span:]
            if layer == OP_LAYER
        ]

    def spans_json(self) -> "list[dict]":
        return [
            {"name": layer, "start": start, "end": end, "parent": parent, "op": op}
            for layer, start, end, parent, op in self.spans
        ]
