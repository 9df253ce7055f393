"""The measurement: set-up laps, rounds of four timed windows, one fixed lap.

Drives the write -> scan -> selective-query lifecycle through the library's
public entry points only, in one process. Every timed window is bracketed
by the calibration kernel (:mod:`calib`); every answer is checked against
the oracle (:mod:`workloads`) *between* windows, never inside one; garbage
collection is off inside windows and forced between them.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import calib
from metrics import END_TO_END, PER_LAYER
from tracer import OP_LAYER, Tracer
from workloads import DENSE_BATCH, PARTITIONS, SCANS_PER_WINDOW, Oracle, Query, Workload

from repro import MetricsRegistry, compress_relation, decompress_relation, get_trace
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.observe import use_registry

#: Rounds run even when ``--seconds`` is already spent (two per partition).
MIN_ROUNDS = 2 * PARTITIONS
#: A traced window's layer self-times must add up to its wall within this.
TRACE_SUM_TOLERANCE = 0.10

_clock = time.perf_counter


@dataclass
class Partition:
    index: int
    relation: object
    oracle: Oracle
    compressed: object
    #: blake2b of every object the set-up write committed, by key.
    digests: "dict[str, bytes]"
    sparse: "list[Query]"
    dense: "list[Query]"
    #: The long-lived handle (warm workload only).
    handle: "RemoteTable | None" = None

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def raw_mb(self) -> float:
        return self.relation.nbytes / 1e6


@dataclass
class Window:
    """One timed window and everything diffed around it."""

    kind: str  # "setup" | "w" | "s" | "qs" | "qd"
    partition: int
    round: int
    traced: bool
    seconds: float
    calib_before: float
    calib_after: float
    op_seconds: "list[float]"
    counts: "dict[str, float]" = field(default_factory=dict)
    layers: "dict[str, float]" = field(default_factory=dict)

    @property
    def normalised(self) -> float:
        return calib.normalise(self.seconds, self.calib_before, self.calib_after)

    def to_json(self) -> dict:
        return {**self.__dict__, "normalised": self.normalised}


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


class Harness:
    def __init__(self, workload: Workload, seed: int, trace: bool, keep_spans: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.config = workload.config()
        self.kernel = calib.Kernel()
        self.calibs: "list[tuple[float, tuple[float, ...]]]" = []
        self.windows: "list[Window]" = []
        self.partitions: "list[Partition]" = []
        self.store = SimulatedObjectStore()
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if trace else None
        self.keep_spans = keep_spans
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.rounds = 0
        self.fetched = {"lap_bytes": 0, "cold_scan_bytes": 0}
        self.decode_mb_s = 0.0

    # -- bookkeeping -----------------------------------------------------------

    def _calibrate(self) -> float:
        sample = self.kernel.run()
        self.calibs.append(sample)
        return sample[0]

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)

    def _counters(self, store: "SimulatedObjectStore | None") -> "dict[str, float]":
        """Everything counted around a window, as one flat snapshot
        (``store=None``: a store that does not exist yet, all zeros)."""
        snapshot = dict(self.registry.snapshot()["counters"])
        if store is not None:
            stats = store.stats
            snapshot.update(
                {
                    "store.get_requests": stats.get_requests,
                    "store.get_bytes": stats.bytes_downloaded,
                    "store.put_requests": stats.put_requests,
                    "store.put_bytes": stats.bytes_uploaded,
                    "store.retries": stats.retries + stats.put_retries,
                }
            )
        if self.tracer is not None:
            snapshot["zonemap.blocks_tested"] = self.tracer.blocks_tested
            snapshot["zonemap.blocks_survived"] = self.tracer.blocks_survived
        return snapshot

    def _timed(self, kind, partition, ops, traced=False, scratch=False):
        """Run ``ops`` (zero-argument callables) as one timed window.

        Returns ``(window, results)``. The window is bracketed by the most
        recent calibration and one that runs right after the last
        operation; counters are diffed outside the timed region. They are
        the fixture store's, unless ``scratch``: then the (single)
        operation returns the throw-away store it created and wrote to.
        """
        calib_before = self.calibs[-1][0]
        before = self._counters(None if scratch else self.store)
        results, op_seconds = [], []
        tracer = self.tracer if traced else None
        first_span = len(self.tracer.spans) if traced else 0
        gc.collect()
        gc.disable()
        try:
            if tracer is not None:
                with tracer.installed():
                    start = _clock()
                    for op in ops:
                        t0 = _clock()
                        results.append(tracer.op(op))
                        op_seconds.append(_clock() - t0)
                    seconds = _clock() - start
            else:
                start = _clock()
                for op in ops:
                    t0 = _clock()
                    results.append(op())
                    op_seconds.append(_clock() - t0)
                seconds = _clock() - start
            calib_after = self._calibrate()
        finally:
            gc.enable()
        after = self._counters(results[0] if scratch else self.store)
        window = Window(
            kind=kind,
            partition=partition,
            round=self.rounds,
            traced=traced,
            seconds=seconds,
            calib_before=calib_before,
            calib_after=calib_after,
            op_seconds=op_seconds,
            counts={k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)},
        )
        if tracer is not None:
            window.layers = tracer.self_times(first_span)
            if not self.keep_spans:
                del tracer.spans[first_span:]
        self.windows.append(window)
        return window, results

    # -- operations (everything the library is asked to do) -------------------

    def _table(self, part: Partition) -> RemoteTable:
        if part.handle is not None:
            return part.handle
        return RemoteTable.open(self.store, part.name)

    def _write(self, relation, store) -> object:
        compressed = compress_relation(relation, self.config)
        TableWriter(store).write(compressed)
        return compressed

    def _scan_op(self, part: Partition):
        return lambda: self._table(part).scan()

    def _query_op(self, part: Partition, query: Query):
        where = {query.column: query.predicate()}
        return lambda: self._table(part).scan(columns=list(query.columns), where=where)

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> None:
        """One lap per partition: generate, first compress, write the fixture.

        The warm workload also opens its long-lived handle and scans once,
        so the rounds measure the steady cache-hit path and the cost of
        getting there shows in ``setup_s``.
        """
        workload = self.workload
        for index in range(PARTITIONS):

            def lap():
                relation = workload.generate(self.seed, index)
                compressed = self._write(relation, self.store)
                if not workload.warm:
                    return relation, compressed, None, None
                handle = RemoteTable.open(self.store, relation.name)
                return relation, compressed, handle, handle.scan()

            self._calibrate()
            _, [(relation, compressed, handle, warm_scan)] = self._timed(
                "setup", index, [lap], traced=self.tracer is not None
            )
            oracle = Oracle(relation)
            self.attempted += 1  # the fixture write; S and Q verify what it stored
            if workload.warm:
                self._check(oracle.scan_ok(warm_scan), f"warm-up scan of partition {index}")
            sparse, dense = workload.queries(oracle, self.seed, index)
            self.partitions.append(
                Partition(
                    index=index,
                    relation=relation,
                    oracle=oracle,
                    compressed=compressed,
                    digests={
                        key: _digest(self.store.get(key))
                        for key in self.store.keys(relation.name + "/")
                    },
                    sparse=sparse,
                    dense=dense,
                    handle=handle,
                )
            )
            get_trace().clear()

    # -- rounds ----------------------------------------------------------------

    def run_rounds(self, seconds: float) -> None:
        started = _clock()
        while self.rounds < MIN_ROUNDS or _clock() - started < seconds:
            part = self.partitions[self.rounds % PARTITIONS]
            # Tracing alternates by cycle (one visit of every partition), so
            # each partition has traced and untraced windows to compare.
            traced = self.tracer is not None and (self.rounds // PARTITIONS) % 2 == 0
            self._calibrate()
            self._write_window(part, traced)
            self._scan_window(part, traced)
            self._query_window("qs", part, part.sparse, traced)
            self._query_window("qd", part, part.dense, traced)
            self.rounds += 1

    def _write_window(self, part: Partition, traced: bool) -> None:
        def write():
            store = SimulatedObjectStore()
            self._write(part.relation, store)
            return store

        window, [scratch] = self._timed("w", part.index, [write], traced, scratch=True)
        same = scratch.keys() == sorted(part.digests) and all(
            _digest(scratch.get(key)) == digest for key, digest in part.digests.items()
        )
        self._check(same, f"W round {window.round}: objects differ from the first write")
        trace = get_trace()
        if traced:
            decisions = trace.decisions()
            window.counts["selector.estimates"] = sum(len(d.candidates) for d in decisions)
        trace.clear()  # the always-on selection trace must not grow with the run

    def _scan_window(self, part: Partition, traced: bool) -> None:
        ops = [self._scan_op(part)] * SCANS_PER_WINDOW
        window, results = self._timed("s", part.index, ops, traced)
        for result in results:
            self._check(part.oracle.scan_ok(result), f"S round {window.round}: scan != source")

    def _query_window(self, kind, part: Partition, queries, traced: bool) -> None:
        ops = [self._query_op(part, query) for query in queries]
        window, results = self._timed(kind, part.index, ops, traced)
        for query, result in zip(queries, results):
            self._check(
                part.oracle.query_ok(query, result),
                f"{kind} round {window.round}: {query} != oracle",
            )

    # -- the fixed lap ---------------------------------------------------------

    def fixed_lap(self) -> None:
        """Untimed: every sparse predicate once per partition, each on a
        fresh handle, against a cold scan of the same columns — so the
        share is what pruning saves, not what a cache does."""
        stats = self.store.stats
        for part in self.partitions:
            cold_bytes = {}
            for query in part.sparse:
                if query.columns not in cold_bytes:
                    before = stats.bytes_downloaded
                    cold = RemoteTable.open(self.store, part.name).scan(columns=list(query.columns))
                    cold_bytes[query.columns] = stats.bytes_downloaded - before
                    self._check(part.oracle.scan_ok(cold, query.columns), "fixed lap: cold scan != source")
                before = stats.bytes_downloaded
                result = RemoteTable.open(self.store, part.name).scan(
                    columns=list(query.columns), where={query.column: query.predicate()}
                )
                self.fetched["lap_bytes"] += stats.bytes_downloaded - before
                self.fetched["cold_scan_bytes"] += cold_bytes[query.columns]
                self._check(part.oracle.query_ok(query, result), f"fixed lap: {query} != oracle")

    def decode_lap(self) -> None:
        """In-memory ``decompress_relation`` of every partition, no store."""
        fastest = {}
        for part in self.partitions:
            samples = []
            for _ in range(3):
                t0 = _clock()
                restored = decompress_relation(part.compressed)
                samples.append(_clock() - t0)
            self._check(part.oracle.scan_ok(restored), "in-memory decompress != source")
            fastest[part.index] = calib.faster_half_mean(samples)
        self.decode_mb_s = calib.throughput_mb_s(self._raw_mb(), fastest)

    # -- metrics ---------------------------------------------------------------

    def _raw_mb(self) -> float:
        return sum(part.raw_mb for part in self.partitions)

    def _samples(self, kind, value, traced=None):
        """``{partition: [value(window), ...]}`` over windows of one kind."""
        out = defaultdict(list)
        for window in self.windows:
            if window.kind == kind and (traced is None or window.traced == traced):
                out[window.partition].append(value(window))
        return out

    def _wall_metrics(self, value, traced=None) -> "dict[str, float]":
        def per_partition(kind):
            return calib.partition_estimates(self._samples(kind, value, traced))

        return {
            "write_mb_s": calib.throughput_mb_s(self._raw_mb(), per_partition("w")),
            "scan_mb_s": calib.throughput_mb_s(self._raw_mb(), per_partition("s"), SCANS_PER_WINDOW),
            "query_sparse_ms": calib.latency_ms(per_partition("qs"), self.workload.sparse_batch),
            "query_dense_ms": calib.latency_ms(per_partition("qd"), DENSE_BATCH),
        }

    def end_to_end(self) -> "dict[str, float]":
        stored = sum(self.store.object_size(key) for key in self.store.keys())
        laps = [w.normalised for w in self.windows if w.kind == "setup"]
        metrics = self._wall_metrics(lambda w: w.normalised)
        metrics.update(
            {
                "setup_s": statistics.median(laps),
                "compression_ratio": sum(p.relation.nbytes for p in self.partitions) / stored,
                "query_fetched_share": self.fetched["lap_bytes"] / self.fetched["cold_scan_bytes"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
        return {name: metrics[name] for name in END_TO_END}

    def _cycle_seconds(self, kinds, layer) -> float:
        """Self seconds of ``layer`` per cycle: one figure per partition from
        its traced windows, summed over partitions and window kinds."""
        total = 0.0
        for kind in kinds:
            samples = self._samples(kind, lambda w: w.layers.get(layer, 0.0), traced=True)
            total += sum(calib.partition_estimates(samples).values())
        return total

    def _first_cycle(self, kinds, counter) -> float:
        """A counter summed over the first cycle's windows of ``kinds`` —
        a fixed amount of work whatever ``--seconds`` allowed afterwards."""
        return sum(
            w.counts.get(counter, 0)
            for w in self.windows
            if w.kind in kinds and w.round < PARTITIONS
        )

    def per_layer(self) -> "tuple[dict[str, float], dict[str, float]]":
        """``(listed metrics, printed-only counts)`` of a traced run."""
        w, q = ("w",), ("qs", "qd")
        # The warm workload's only cold reads happen in its set-up laps, so
        # read-side times and counts cover set-up + S on every workload.
        s = ("setup", "s")
        first, cycle = self._first_cycle, self._cycle_seconds
        write_wall = sum(
            calib.partition_estimates(self._samples("w", lambda x: x.seconds, traced=True)).values()
        )

        def share(kinds, counter, complement):
            count, rest = first(kinds, counter), first(kinds, complement)
            return count / (count + rest) if count + rest else 0.0

        def p90(kind):
            ms = sorted(
                t * 1e3 for x in self.windows if x.kind == kind and not x.traced for t in x.op_seconds
            )
            return ms[int(0.9 * (len(ms) - 1))]

        def traced_vs_untraced(traced):
            return sum(
                sum(calib.partition_estimates(self._samples(k, lambda x: x.normalised, traced)).values())
                for k in ("w", "s", "qs", "qd")
            )

        traced_windows = [x for x in self.windows if x.traced and x.kind != "setup"]
        calib_s = [sample[0] for sample in self.calibs]
        raw = self._wall_metrics(lambda x: x.seconds, traced=False)
        metrics = {
            "core.stats.self_s": cycle(w, "core.stats"),
            "core.sampling.self_s": cycle(w, "core.sampling"),
            "core.selector.self_s": cycle(w, "core.selector"),
            "core.selector.share": cycle(w, "core.selector") / write_wall,
            "core.selector.picks": first(w, "selector.picks"),
            "core.selector.estimates_per_pick": first(w, "selector.estimates") / first(w, "selector.picks"),
            "encodings.encode.self_s": cycle(w, "encodings.encode"),
            "core.blockstats.self_s": cycle(w, "core.blockstats"),
            "core.file_format.frame_self_s": cycle(w, "core.file_format.frame"),
            "cloud.remote_table.commit_self_s": cycle(w, "cloud.remote_table.commit"),
            "cloud.objectstore.put_requests": first(w, "store.put_requests"),
            "cloud.objectstore.put_bytes": first(w, "store.put_bytes"),
            "cloud.objectstore.get_requests": first(s, "store.get_requests"),
            "cloud.objectstore.get_bytes": first(s, "store.get_bytes"),
            "cloud.objectstore.self_s": cycle(s, "cloud.objectstore"),
            "cloud.remote_table.scan_self_s": cycle(s, "cloud.remote_table.scan"),
            "core.file_format.parse_self_s": cycle(s, "core.file_format.parse"),
            "core.decompressor.self_s": cycle(s, "core.decompressor"),
            "core.decompressor.assemble_self_s": cycle(s, "core.decompressor.assemble"),
            "encodings.decode.int_self_s": cycle(s, "encodings.decode.int"),
            "encodings.decode.double_self_s": cycle(s, "encodings.decode.double"),
            "encodings.decode.string_self_s": cycle(s, "encodings.decode.string"),
            "core.decompressor.decode_mb_s": self.decode_mb_s,
            "core.cache.decode_miss_share": share(s, "decode.cache.miss", "decode.cache.hit"),
            "core.cache.column_miss_share": share(
                s, "cloud.table.column_cache.miss", "cloud.table.column_cache.hit"
            ),
            "metadata.zonemap.blocks_tested": first(("qs",), "zonemap.blocks_tested"),
            "metadata.zonemap.survivor_share": first(("qs",), "zonemap.blocks_survived")
            / first(("qs",), "zonemap.blocks_tested"),
            "query.executor.self_s": cycle(q, "query.executor"),
            "query.predicates.self_s": cycle(q, "query.predicates"),
            "core.access.filtered_self_s": cycle(q, "core.access"),
            "core.access.decoded_row_share": first(("qd",), "query.cdomain.filtered.rows_selected")
            / first(("qd",), "query.cdomain.filtered.rows_total"),
            "cloud.objectstore.query_get_bytes": self.fetched["lap_bytes"],
            "query.sparse_p90_ms": p90("qs"),
            "query.dense_p90_ms": p90("qd"),
            "host.calib_ms_p50": statistics.median(calib_s) * 1e3,
            "host.calib_spread": calib.iqr_share(calib_s),
            "raw.write_mb_s": raw["write_mb_s"],
            "raw.scan_mb_s": raw["scan_mb_s"],
            "raw.query_sparse_ms": raw["query_sparse_ms"],
            "raw.query_dense_ms": raw["query_dense_ms"],
            "trace.overhead_share": traced_vs_untraced(True) / traced_vs_untraced(False) - 1.0,
            "trace.unattributed_share": sum(x.layers.get(OP_LAYER, 0.0) for x in traced_windows)
            / sum(x.seconds for x in traced_windows),
        }
        everything = ("setup", "w", "s", "qs", "qd")
        unlisted = {
            "cloud.objectstore.retries": first(everything, "store.retries"),
            "core.cache.decode_evictions": first(everything, "decode.cache.evict"),
            "core.cache.column_evictions": first(everything, "cloud.table.column_cache.evict"),
            "core.compressor.fallbacks": first(everything, "compressor.fallback.total"),
        }
        return {name: metrics[name] for name in PER_LAYER}, unlisted

    def check_trace(self) -> None:
        """Per traced window: layer self-times (unattributed included) must
        account for the harness's own wall measurement."""
        worst = {}
        for window in self.windows:
            if window.traced:
                off = abs(sum(window.layers.values()) / window.seconds - 1.0)
                worst[window.kind] = max(worst.get(window.kind, 0.0), off)
        for kind, off in sorted(worst.items()):
            print(f"trace.check {kind}: layer self-times within {off:.2%} of the window wall")
            self._check(off <= TRACE_SUM_TOLERANCE, f"traced {kind} windows: spans miss the wall by {off:.1%}")

    # -- the run ---------------------------------------------------------------

    def run(self, seconds: float) -> None:
        try:
            with use_registry(self.registry):
                self.set_up()
                self.run_rounds(seconds)
                self.fixed_lap()
                if self.tracer is not None:
                    self.decode_lap()
                    self.check_trace()
        except Exception:
            # Every workload is fault-free: an exception is a failed operation.
            traceback.print_exc()
            self._check(False, "operation raised")
