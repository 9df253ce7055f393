"""Tests for the observability layer: registry, trace, report, CLI wiring."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.cloud.objectstore import SimulatedObjectStore
from repro.cloud.remote_table import RemoteTable, TableWriter
from repro.cloud.scan import scan_btrblocks_columns
from repro.core.compressor import compress_block, compress_relation
from repro.core.decompressor import decompress_block, decompress_relation
from repro.core.relation import Relation
from repro.datagen.csvio import relation_to_csv
from repro.observe import (
    MetricsRegistry,
    SelectionDecision,
    SelectionTrace,
    build_report,
    get_registry,
    get_trace,
    report_json,
    use_registry,
    use_trace,
)
from repro.types import Column, ColumnType


@pytest.fixture
def relation(rng):
    return Relation("obs", [
        Column.doubles("price", np.round(rng.uniform(1, 500, 4000), 2)),
        Column.strings("city", [["OSLO", "ATHENS"][i % 2] for i in range(4000)]),
        Column.ints("qty", np.repeat(rng.integers(0, 9, 40), 100)),
    ])


@pytest.fixture
def isolated():
    """Fresh registry + trace swapped in as the process-wide defaults."""
    registry, trace = MetricsRegistry(), SelectionTrace()
    with use_registry(registry), use_trace(trace):
        yield registry, trace


class TestMetricsRegistry:
    def test_incr_and_get(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.incr("a", 4)
        registry.incr("b.bytes", 1024)
        assert registry.get("a") == 5
        assert registry.get("b.bytes") == 1024
        assert registry.get("missing") == 0

    def test_timer_accumulates_monotonic_time(self):
        registry = MetricsRegistry()
        with registry.timer("phase"):
            pass
        with registry.timer("phase"):
            pass
        snap = registry.snapshot()["timers"]["phase"]
        assert snap["calls"] == 2
        assert snap["seconds"] >= 0.0

    def test_reset(self):
        registry = MetricsRegistry()
        registry.incr("x")
        registry.observe_seconds("t", 1.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "timers": {}}

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("n", 1)
        b.incr("n", 2)
        b.incr("only_b", 7)
        b.observe_seconds("t", 0.5)
        a.merge(b)
        assert a.get("n") == 3
        assert a.get("only_b") == 7
        assert a.snapshot()["timers"]["t"]["calls"] == 1

    def test_thread_safe_accumulation(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(10_000):
                registry.incr("hits")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.get("hits") == 80_000

    def test_use_registry_swaps_and_restores(self):
        original = get_registry()
        fresh = MetricsRegistry()
        with use_registry(fresh):
            assert get_registry() is fresh
        assert get_registry() is original


class TestSelectionTrace:
    def _decision(self, **kw) -> SelectionDecision:
        defaults = dict(column="c", block=0, ctype="integer", depth=3,
                        value_count=10, input_bytes=40, sample_count=4)
        defaults.update(kw)
        return SelectionDecision(**defaults)

    def test_finish_computes_achieved_ratio(self):
        decision = self._decision(input_bytes=100)
        decision.finish(25)
        assert decision.achieved_ratio == 4.0
        assert decision.to_dict()["compressed_bytes"] == 25

    def test_bounded_recording_drops_beyond_cap(self):
        trace = SelectionTrace(max_decisions=3)
        for i in range(5):
            trace.record(self._decision(block=i))
        assert len(trace) == 3
        assert trace.dropped == 2
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0

    def test_per_column_aggregates_top_level_only(self):
        trace = SelectionTrace()
        top = self._decision(column="a", chosen="rle", estimated_ratio=4.0)
        top.finish(10)
        child = self._decision(column="a", top_level=False, chosen="fastbp128")
        trace.record(top)
        trace.record(child)
        (summary,) = trace.per_column()
        assert summary["column"] == "a"
        assert summary["schemes"] == {"rle": 1}
        assert summary["achieved_ratio"] == 4.0
        assert summary["estimated_ratio"] == 4.0
        assert summary["estimated_blocks"] == 1

    def test_per_column_estimate_aggregates_estimated_blocks_only(self):
        """A block picked without an estimate must not leak its input bytes
        into the numerator of the column's aggregate estimate."""
        trace = SelectionTrace()
        trace.record(self._decision(column="a", chosen="fsst", estimated_ratio=2.0))
        sole = self._decision(column="a", block=1, chosen="fsst", input_bytes=4000,
                              estimated_ratio=None, sole_survivor="fsst")
        trace.record(sole)
        trace.record(self._decision(column="b", chosen="fsst", estimated_ratio=None,
                                    sole_survivor="fsst"))
        a, b = trace.per_column()
        assert (a["blocks"], a["estimated_blocks"], a["estimated_ratio"]) == (2, 1, 2.0)
        assert (b["blocks"], b["estimated_blocks"], b["estimated_ratio"]) == (1, 0, None)
        assert sole.to_dict()["sole_survivor"] == "fsst"
        assert sole.to_dict()["estimated_ratio"] is None
        assert sole.to_dict()["survivor_rejected"] is False

    def test_use_trace_swaps_and_restores(self):
        original = get_trace()
        fresh = SelectionTrace()
        with use_trace(fresh):
            assert get_trace() is fresh
        assert get_trace() is original


class TestPipelineWiring:
    def test_compress_records_counters_and_trace(self, isolated, relation):
        registry, trace = isolated
        compressed = compress_relation(relation)
        counters = registry.snapshot()["counters"]
        assert counters["compress.columns"] == 3
        assert counters["compress.rows"] == 3 * 4000
        assert counters["compress.input_bytes"] == relation.nbytes
        assert counters["compress.output_bytes"] == sum(
            len(b.data) for c in compressed.columns for b in c.blocks
        )
        assert registry.timer_seconds("compress") > 0
        top_level = [d for d in trace.decisions() if d.top_level]
        assert {d.column for d in top_level} == {"price", "city", "qty"}
        assert all(d.achieved_ratio is not None for d in top_level)
        assert all(d.candidates or d.sole_survivor for d in top_level)
        assert registry.get("selector.sole_survivor.picks") == sum(
            d.sole_survivor is not None for d in trace.decisions()
        ) > 0  # "price": Pseudodecimal is the only viable double scheme

    def test_decompress_records_counters(self, isolated, relation):
        registry, _ = isolated
        compressed = compress_relation(relation)
        decompress_relation(compressed)
        counters = registry.snapshot()["counters"]
        assert counters["decompress.columns"] == 3
        assert counters["decompress.rows"] == 3 * 4000
        assert registry.timer_seconds("decompress") > 0

    def test_block_level_counters(self, isolated):
        registry, _ = isolated
        values = np.repeat(np.arange(5, dtype=np.int32), 100)
        blob = compress_block(values, ColumnType.INTEGER)
        decompress_block(blob, ColumnType.INTEGER)
        counters = registry.snapshot()["counters"]
        assert counters["compress.blocks"] == 1
        assert counters["decompress.blocks"] == 1
        assert counters["decompress.input_bytes"] == len(blob)

    def test_selection_timer_tracks_selector_seconds(self, isolated, relation):
        registry, _ = isolated
        compress_relation(relation)
        assert registry.timer_seconds("selection") > 0

    def test_estimated_vs_achieved_within_sanity_band(self, isolated, relation):
        """Sampling estimates must land in the ballpark of reality (§6.6)."""
        _, trace = isolated
        compress_relation(relation)
        for summary in trace.per_column():
            est, ach = summary["estimated_ratio"], summary["achieved_ratio"]
            assert ach is not None and ach > 0
            # A column of sole-survivor picks was verified, not estimated.
            assert (est is None) == (summary["estimated_blocks"] == 0)
            assert est is None or est > 0


class TestCloudWiring:
    def test_scan_counters(self, isolated, relation):
        registry, _ = isolated
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        result = scan_btrblocks_columns(store, "obs", ["price"])
        counters = registry.snapshot()["counters"]
        assert counters["cloud.scan.scans"] == 1
        assert counters["cloud.scan.requests"] == result.requests
        assert counters["cloud.scan.bytes"] == result.bytes_downloaded
        assert counters["cloud.scan.cost_usd"] > 0
        # Read through RemoteTable: the same transfer also counts as cloud.table.*
        assert counters["cloud.table.objects_fetched"] == 2  # manifest + one column
        assert counters["cloud.table.requests"] == result.requests
        assert counters["cloud.table.bytes"] == result.bytes_downloaded

    def test_remote_table_counters(self, isolated, relation):
        registry, _ = isolated
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        table = RemoteTable.open(store, "obs")
        table.scan(columns=["price"])
        table.scan(columns=["price"])  # cached: no second download
        counters = registry.snapshot()["counters"]
        assert counters["cloud.table.scans"] == 2
        assert counters["cloud.table.objects_fetched"] == 2  # manifest + one column
        assert counters["cloud.table.bytes"] > 0
        assert counters["cloud.table.cost_usd"] > 0


class TestReport:
    def test_report_schema(self, isolated, relation):
        registry, trace = isolated
        compressed = compress_relation(relation)
        store = SimulatedObjectStore()
        TableWriter(store).write(compressed)
        scan_btrblocks_columns(store, "obs", ["price", "city"])
        report = build_report(registry, trace)
        assert set(report) == {"counters", "timers", "columns", "trace"}
        assert {c["column"] for c in report["columns"]} == {"price", "city", "qty"}
        for column in report["columns"]:
            assert column["schemes"]
            assert column["estimated_ratio"] is not None or column["estimated_blocks"] == 0
            assert column["achieved_ratio"] is not None
        assert "compress" in report["timers"]
        assert report["counters"]["cloud.scan.scans"] == 1
        assert report["trace"]["decisions_recorded"] == len(trace)

    def test_report_json_round_trips(self, isolated, relation):
        registry, trace = isolated
        compress_relation(relation)
        parsed = json.loads(report_json(registry, trace, include_decisions=True))
        assert parsed["decisions"]
        decision = parsed["decisions"][0]
        assert {"column", "chosen", "candidates", "estimated_ratio"} <= set(decision)


class TestCli:
    @pytest.fixture
    def csv_path(self, tmp_path, relation):
        path = tmp_path / "obs.csv"
        path.write_text(relation_to_csv(relation), encoding="utf-8")
        return path

    def test_stats_prints_report(self, csv_path, capsys):
        assert main(["stats", str(csv_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {c["column"] for c in report["columns"]} == {"price", "city", "qty"}
        assert report["counters"]["compress.columns"] == 3

    def test_stats_writes_file_with_decisions(self, csv_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["stats", str(csv_path), "--decisions", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["decisions"]

    def test_compress_trace_flag(self, csv_path, tmp_path, capsys):
        btr = tmp_path / "obs.btr"
        trace_path = tmp_path / "trace.json"
        assert main([
            "compress", str(csv_path), str(btr), "--trace", str(trace_path)
        ]) == 0
        report = json.loads(trace_path.read_text())
        assert report["columns"]
        assert report["decisions"]
        assert report["counters"]["compress.input_bytes"] > 0
