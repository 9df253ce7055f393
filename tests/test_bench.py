"""Tests for the performance-regression harness (``repro bench``)."""

import json

import pytest

from repro.bench import SCHEME_WORKLOADS, compare, load_report, run_bench, write_report
from repro.cli import main


@pytest.fixture(scope="module")
def report():
    return run_bench(
        rows=256, workers=(1, 2), repeats=1,
        parallel_rows=512, backends=("thread",),
    )


class TestRunBench:
    def test_report_sections(self, report):
        assert set(report) == {
            "meta", "schemes", "parallel", "selection", "pipeline",
            "selective_scan", "compressed_scan",
        }
        assert report["meta"]["rows"] == 256
        assert report["meta"]["workers"] == [1, 2]
        assert report["meta"]["parallel_rows"] == 512
        assert report["meta"]["backends"] == ["thread"]
        assert "cpu_affinity" in report["meta"]

    def test_parallel_rows_defaults_to_measurable_floor(self):
        from repro.bench import DEFAULT_PARALLEL_ROWS, default_bench_backends

        meta = run_bench(
            rows=256, workers=(1,), repeats=1, decode_only=True
        )["meta"]
        assert meta["parallel_rows"] == DEFAULT_PARALLEL_ROWS
        assert meta["backends"] == list(default_bench_backends())
        assert "thread" in meta["backends"]

    def test_every_workload_measured(self, report):
        assert set(report["schemes"]) == set(SCHEME_WORKLOADS)
        for name, entry in report["schemes"].items():
            assert entry["compress_mb_s"] > 0, name
            assert entry["decompress_mb_s"] > 0, name
            assert entry["ratio"] > 0, name
            assert entry["schemes_used"], name

    def test_parallel_section(self, report):
        parallel = report["parallel"]
        assert parallel["rows"] == 512
        assert parallel["cpu_count"] >= 1
        assert set(parallel["backends"]) == {"thread"}
        thread = parallel["backends"]["thread"]
        assert set(thread["compress_seconds"]) == {"1", "2"}
        assert thread["compress_speedup"]["1"] == 1.0

    def test_parallel_section_reports_decompress_throughput(self, report):
        thread = report["parallel"]["backends"]["thread"]
        assert set(thread["decompress_mb_s"]) == {"1", "2"}
        assert all(v > 0 for v in thread["decompress_mb_s"].values())
        assert thread["decompress_speedup"]["1"] == 1.0

    def test_pipeline_section(self, report):
        pipeline = report["pipeline"]
        assert pipeline["columns"] == 2
        assert pipeline["chunks"] >= 2
        assert pipeline["fetch_seconds"] > 0
        assert pipeline["decode_seconds"] > 0
        # The pipelined wall can never exceed fetching then decoding serially.
        assert pipeline["wall_seconds"] <= pipeline["serial_seconds"] + 1e-9
        assert pipeline["speedup"] >= 1.0
        assert pipeline["fallbacks"] == 0

    def test_compressed_scan_sweep_covers_every_cell(self, report):
        """Both sections sweep 1/10/50/90/100% x clustered/scattered, the
        materialise section over every scheme family, and the minima name
        a cell that exists."""
        from repro.bench import SWEEP_FRACTIONS, SWEEP_LAYOUTS, sweep_cells

        cdomain = report["compressed_scan"]
        labels = [label for label, _ in SWEEP_FRACTIONS]
        assert labels == ["1%", "10%", "50%", "90%", "100%"]
        assert set(cdomain["workloads"]) == {"bitpack", "rle", "dictionary"}
        assert set(cdomain["materialise"]) == set(SCHEME_WORKLOADS) | {"bitpack_nulls"}
        for section in ("workloads", "materialise"):
            for name, layouts in cdomain[section].items():
                assert set(layouts) == set(SWEEP_LAYOUTS), name
                for layout, sweep in layouts.items():
                    assert list(sweep) == labels, (name, layout)
                    for label, point in sweep.items():
                        assert point["filtered_s"] > 0 and point["naive_s"] > 0
        cells = sweep_cells(cdomain)
        assert len(cells) == (3 + len(SCHEME_WORKLOADS) + 1) * len(SWEEP_LAYOUTS) * len(labels)
        assert cdomain["min_speedup"] == min(cells.values())
        assert cells[cdomain["min_speedup_at"]] == cdomain["min_speedup"]
        assert 0.0 <= cdomain["at_1pct"]["decode_fraction"] <= 1.0

    def test_decode_only_skips_compress_side(self):
        report = run_bench(rows=256, workers=(1,), repeats=1, decode_only=True)
        assert set(report) == {
            "meta", "schemes", "pipeline", "selective_scan", "compressed_scan",
        }
        assert report["meta"]["decode_only"] is True
        for name, entry in report["schemes"].items():
            assert "compress_mb_s" not in entry, name
            assert entry["decompress_mb_s"] > 0, name

    def test_selection_section(self, report):
        selection = report["selection"]
        assert set(selection) == {"full", "sticky"}
        for entry in selection.values():
            assert entry["selection_seconds"] <= entry["compress_seconds"]
            assert 0 <= entry["selection_overhead_pct"] <= 100
        assert selection["full"]["sticky_hits"] == 0
        assert selection["sticky"]["sticky_misses"] >= 1


class TestCompare:
    BASE = {
        "schemes": {"rle": {"compress_mb_s": 100.0, "decompress_mb_s": 500.0}},
        "parallel": {"backends": {"thread": {"compress_mb_s": {"1": 50.0}}}},
    }

    def test_flags_regression_beyond_threshold(self):
        current = {"schemes": {"rle": {"compress_mb_s": 60.0, "decompress_mb_s": 490.0}}}
        regressions = compare(current, self.BASE, threshold=0.30)
        assert len(regressions) == 1
        assert "schemes.rle.compress_mb_s" in regressions[0]

    def test_tolerates_drop_within_threshold(self):
        current = {"schemes": {"rle": {"compress_mb_s": 75.0, "decompress_mb_s": 500.0}}}
        assert compare(current, self.BASE, threshold=0.30) == []

    def test_ignores_metrics_missing_from_baseline(self):
        current = {"schemes": {"new": {"compress_mb_s": 0.001}}}
        assert compare(current, self.BASE) == []

    def test_never_gates_parallel_section(self):
        current = {"parallel": {"backends": {"process": {"compress_mb_s": {"1": 1.0}}}}}
        assert compare(current, self.BASE) == []

    def test_gates_decompress_throughput(self):
        current = {"schemes": {"rle": {"compress_mb_s": 100.0, "decompress_mb_s": 100.0}}}
        regressions = compare(current, self.BASE, threshold=0.30)
        assert len(regressions) == 1
        assert "schemes.rle.decompress_mb_s" in regressions[0]

    def test_never_gates_pipeline_section(self):
        base = dict(self.BASE, pipeline={"decode_mb_s": 100.0})
        current = {"pipeline": {"decode_mb_s": 1.0}}
        assert compare(current, base) == []

    def test_non_throughput_fields_ignored(self):
        base = {"schemes": {"rle": {"ratio": 50.0, "input_mb": 2.0}}}
        current = {"schemes": {"rle": {"ratio": 1.0, "input_mb": 0.1}}}
        assert compare(current, base) == []


class TestBenchCli:
    def test_writes_report_and_compares_clean(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        small = ["--rows", "256", "--workers", "1", "--repeats", "1",
                 "--parallel-rows", "512", "--backend", "thread"]
        assert main(["bench", *small, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["schemes"]) == set(SCHEME_WORKLOADS)
        assert report["meta"]["backends"] == ["thread"]
        # Comparing a report against itself can never regress.
        assert main(["bench", *small,
                     "--output", str(tmp_path / "b2.json"), "--compare", str(out),
                     "--threshold", "0.99"]) == 0

    def test_exit_code_on_regression(self, tmp_path, capsys):
        report = run_bench(rows=256, workers=(1,), repeats=1,
                           parallel_rows=512, backends=("thread",))
        doctored = json.loads(json.dumps(report))
        for entry in doctored["schemes"].values():
            entry["compress_mb_s"] *= 1e6  # impossible baseline
        baseline = tmp_path / "baseline.json"
        write_report(doctored, str(baseline))
        assert load_report(str(baseline))["schemes"]
        out = tmp_path / "current.json"
        assert main(["bench", "--rows", "256", "--workers", "1", "--repeats", "1",
                     "--parallel-rows", "512", "--backend", "thread",
                     "--output", str(out), "--compare", str(baseline)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_decode_only_flag(self, tmp_path, capsys):
        out = tmp_path / "decode.json"
        assert main(["bench", "--rows", "256", "--workers", "1", "--repeats", "1",
                     "--decode-only", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "meta", "schemes", "pipeline", "selective_scan", "compressed_scan",
        }
        assert "pipelined scan" in capsys.readouterr().out
