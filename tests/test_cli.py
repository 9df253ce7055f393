"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.relation import Relation
from repro.datagen.csvio import csv_to_relation, relation_to_csv
from repro.types import Column


@pytest.fixture
def csv_file(tmp_path, rng):
    relation = Relation("sales", [
        Column.ints("id", rng.integers(0, 50, 500)),
        Column.doubles("price", np.round(rng.uniform(0, 10, 500), 2)),
        Column.strings("city", [["OSLO", "PARIS"][i % 2] for i in range(500)]),
    ])
    path = tmp_path / "sales.csv"
    path.write_text(relation_to_csv(relation), encoding="utf-8")
    return path, relation


class TestCompressDecompress:
    def test_round_trip(self, tmp_path, csv_file, capsys):
        csv_path, relation = csv_file
        btr_path = tmp_path / "sales.btr"
        out_path = tmp_path / "restored.csv"

        assert main(["compress", str(csv_path), str(btr_path)]) == 0
        assert btr_path.exists()
        output = capsys.readouterr().out
        assert "500 rows" in output

        assert main(["decompress", str(btr_path), str(out_path)]) == 0
        restored = csv_to_relation(out_path.read_text(), "sales")
        assert restored.row_count == relation.row_count
        assert restored.column_names() == relation.column_names()
        assert np.array_equal(
            np.asarray(restored.column("price").data),
            np.asarray(relation.column("price").data),
        )

    def test_custom_block_size(self, tmp_path, csv_file, capsys):
        csv_path, _ = csv_file
        btr_path = tmp_path / "x.btr"
        assert main(["compress", str(csv_path), str(btr_path), "--block-size", "100"]) == 0

    def test_jobs_write_the_single_process_bytes(self, tmp_path, csv_file, capsys):
        csv_path, _ = csv_file
        one, two = tmp_path / "one.btr", tmp_path / "two.btr"
        assert main(["compress", str(csv_path), str(one), "--block-size", "100"]) == 0
        assert main(["compress", str(csv_path), str(two), "--block-size", "100",
                     "--jobs", "2"]) == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_non_positive_jobs_are_rejected(self, tmp_path, csv_file, jobs):
        # Regression: `--jobs 0` used to mean "every usable CPU" on one
        # backend and a ThreadPoolExecutor traceback on the other.
        csv_path, _ = csv_file
        with pytest.raises(SystemExit) as caught:
            main(["compress", str(csv_path), str(tmp_path / "x.btr"), "--jobs", jobs])
        assert "--jobs" in str(caught.value)
        assert not (tmp_path / "x.btr").exists()

    @pytest.mark.parametrize("argv", [
        ["compress", "{csv}", "{out}", "--backend", "process"],
        ["decompress", "{btr}", "{out}", "--backend", "process"],
        ["decompress", "{btr}", "{out}", "--jobs", "2"],
        ["scan", "{btr}", "--backend", "process"],
        ["scan", "{btr}", "--jobs", "2"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_only_compress_takes_a_worker_count(self, tmp_path, csv_file, capsys, argv):
        """Decoding runs inline: ``--jobs`` is a compress flag, and there is
        no backend to choose."""
        csv_path, _ = csv_file
        btr, out = tmp_path / "x.btr", tmp_path / "out"
        assert main(["compress", str(csv_path), str(btr)]) == 0
        capsys.readouterr()
        argv = [arg.format(csv=csv_path, btr=btr, out=out) for arg in argv]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect(self, tmp_path, csv_file, capsys):
        csv_path, _ = csv_file
        btr_path = tmp_path / "x.btr"
        main(["compress", str(csv_path), str(btr_path)])
        capsys.readouterr()
        assert main(["inspect", str(btr_path)]) == 0
        output = capsys.readouterr().out
        assert "price" in output
        assert "city" in output
        assert "dictionary" in output or "one_value" in output


class TestScan:
    @pytest.fixture
    def btr_file(self, tmp_path, csv_file):
        csv_path, relation = csv_file
        btr_path = tmp_path / "sales.btr"
        main(["compress", str(csv_path), str(btr_path)])
        return btr_path, relation

    def test_fault_free_scan(self, btr_file, capsys):
        btr_path, relation = btr_file
        capsys.readouterr()
        assert main(["scan", str(btr_path)]) == 0
        output = capsys.readouterr().out
        assert f"scanned {relation.row_count} rows x 3 columns" in output
        assert "retries 0" in output
        assert "faults injected" not in output

    def test_faulty_scan_retries_and_reports(self, tmp_path, btr_file, capsys):
        btr_path, _ = btr_file
        report_path = tmp_path / "scan.json"
        capsys.readouterr()
        assert main([
            "scan", str(btr_path), "--columns", "price,city",
            "--fault-transient", "0.5", "--seed", "0",
            "-o", str(report_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "2 columns" in output
        assert "faults injected: transient=" in output
        import json

        report = json.loads(report_path.read_text())
        assert report["reliability"]["retries"]["attempts"] > 0

    def test_corrupting_scan_degrades_when_asked(self, btr_file, capsys):
        btr_path, relation = btr_file
        capsys.readouterr()
        assert main([
            "scan", str(btr_path), "--fault-corrupt", "0.6", "--seed", "0",
            "--on-corrupt", "null_block",
        ]) == 0
        output = capsys.readouterr().out
        assert f"scanned {relation.row_count} rows" in output
        assert "integrity:" in output


class TestServeBenchGuards:
    def test_both_sweeps_run_through_the_cli(self, capsys):
        assert main(["serve-bench", "--tenants", "1", "--requests", "2"]) == 0
        assert "1 tenant(s)" in capsys.readouterr().out
        assert main(["serve-bench", "--brownout", "--requests", "1"]) == 0
        assert "overload layer saved" in capsys.readouterr().out

    def test_malformed_chaos_seed_env_fails_only_its_consumer(
        self, monkeypatch, tmp_path, csv_file, capsys
    ):
        # Regression: the seed envs used to be parsed in argparse defaults
        # at parser *build* time, so a malformed value crashed every
        # subcommand with a ValueError traceback.
        monkeypatch.setenv("REPRO_CHAOS_SEED", "seven")
        csv_path, _ = csv_file
        assert main(["compress", str(csv_path), str(tmp_path / "x.btr")]) == 0
        with pytest.raises(SystemExit) as caught:
            main(["serve-bench", "--brownout"])
        assert "REPRO_CHAOS_SEED" in str(caught.value)

    def test_blank_seed_envs_fall_back_to_defaults(self, monkeypatch):
        from repro.cli import _int_from_env

        monkeypatch.setenv("REPRO_SERVE_SEED", "")
        monkeypatch.setenv("REPRO_CHAOS_SEED", " ")
        assert _int_from_env("REPRO_SERVE_SEED", 202408) == 202408
        assert _int_from_env("REPRO_CHAOS_SEED", 7) == 7
        monkeypatch.setenv("REPRO_CHAOS_SEED", "0x10")
        assert _int_from_env("REPRO_CHAOS_SEED", 7) == 16

    def test_zero_deadline_is_rejected_not_silently_dropped(self):
        # Regression: `if args.deadline_ms` treated 0 as "no deadline".
        with pytest.raises(SystemExit) as caught:
            main(["serve-bench", "--deadline-ms", "0"])
        assert "--deadline-ms" in str(caught.value)

    def test_brownout_queue_limit_clamp_is_announced(self, monkeypatch, capsys):
        # Regression: --queue-limit above the brownout cap was silently
        # clamped. (The malformed chaos seed stops the run right after the
        # clamp note, keeping this test cheap.)
        monkeypatch.setenv("REPRO_CHAOS_SEED", "nope")
        with pytest.raises(SystemExit):
            main(["serve-bench", "--brownout", "--queue-limit", "64"])
        err = capsys.readouterr().err
        assert "caps --queue-limit at 32" in err
        assert "requested 64" in err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        # ``bench`` is gone: perf numbers come from lakebench and benchmarks/.
        for command in ("explode", "bench"):
            with pytest.raises(SystemExit) as caught:
                main([command])
            assert caught.value.code == 2

    def test_module_entry_point(self, tmp_path, csv_file):
        import subprocess
        import sys

        csv_path, _ = csv_file
        result = subprocess.run(
            [sys.executable, "-m", "repro", "compress", str(csv_path), str(tmp_path / "m.btr")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
