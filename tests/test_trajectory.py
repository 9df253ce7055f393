"""The committed ``BENCH_*.json`` series and the script that writes and diffs it.

No lakebench run happens here: ``pairs`` is driven over two stub ``run.py``
scripts, ``trend`` over the committed files and a doctored copy.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "benchmarks" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

COMMITTED = sorted(ROOT.glob("BENCH_*.json"))
ISSUES = sorted(json.loads(path.read_text())["issue"] for path in COMMITTED)


@pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
def test_committed_entry_matches_the_schema(path):
    entry = trajectory.validate(json.loads(path.read_text()))
    assert all(run["result"]["failed"] == 0 for run in entry["runs"] + entry["traced_runs"])


def test_trend_accepts_the_committed_series(capsys):
    assert trajectory.main(["trend"]) == 0
    out = capsys.readouterr().out
    assert "tpch_small_warm scan_mb_s" in out and "FAIL" not in out
    assert ISSUES[:6] == [16, 17, 18, 19, 20, 22]
    assert all(f"issue {issue:>3} " in out for issue in ISSUES)


def _newest(entries):
    """The newest per-PR entry (anchors are never the newest)."""
    return max(
        (entry for entry in entries if not entry.get("anchor")),
        key=lambda entry: (entry["date"], entry["issue"]),
    )


def _doctored_root(tmp_path: Path, doctor) -> Path:
    """A root holding the committed series with ``doctor`` applied to its newest entry."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    entries = [json.loads(path.read_text()) for path in COMMITTED]
    newest = _newest(entries)
    doctor(newest)
    newest["summary"] = trajectory.summarise(newest["runs"], trajectory.benchmark()[1])
    for index, entry in enumerate(entries):
        (tmp_path / f"BENCH_{index}.json").write_text(json.dumps(entry))
    return tmp_path


def test_trend_rejects_a_newest_entry_that_breaks_a_bound(tmp_path, capsys):
    def halve_scan_throughput(entry):
        for run in entry["runs"]:
            if run["side"] == "change" and run["args"]["workload"] == "tpch_cold":
                run["result"]["metrics"]["scan_mb_s"]["value"] *= 0.5

    root = _doctored_root(tmp_path, halve_scan_throughput)
    assert trajectory.trend(root) == 1
    out = capsys.readouterr().out
    assert re.search(r"FAIL issue \d+: tpch_cold scan_mb_s seed 100: -(4|5)\d\.\d%, bound 20%", out)
    newest = _newest(json.loads(path.read_text()) for path in root.glob("BENCH_*.json"))
    # Once per seed the entry ran (seed 100, and a held-out seed if any), nothing else.
    assert out.count("FAIL") == len(newest["summary"]["tpch_cold"])


def test_trend_rejects_a_failed_operation_and_a_stale_summary(tmp_path, capsys):
    def fail_one(entry):
        entry["runs"][0]["result"]["failed"] = 1

    root = _doctored_root(tmp_path, fail_one)
    assert trajectory.trend(root) == 1
    assert "failed 1 in" in capsys.readouterr().out
    # A summary that does not follow from the runs is not an entry at all.
    path = root / "BENCH_0.json"
    entry = json.loads(path.read_text())
    entry["summary"]["bi_cold"]["100"]["scan_mb_s"]["change"]["median"] *= 2
    path.write_text(json.dumps(entry))
    with pytest.raises(ValueError, match="does not follow from the runs"):
        trajectory.trend(root)


def test_a_later_benchmark_json_does_not_unmake_the_older_entries(tmp_path, capsys):
    """An entry validates under the bounds it recorded; only the newest answers to today's."""
    root = _doctored_root(tmp_path, lambda entry: None)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"]:
        if metric["name"] == "setup_s":
            metric["bound"] = 1e-6  # every entry moved more than this, one way or the other
    declared["end_to_end"].append({"name": "new_ms", "unit": "ms", "better": "lower", "bound": 0.1})
    (root / "BENCHMARK.json").write_text(json.dumps(declared))
    assert trajectory.trend(root) == 1  # no ValueError: every older entry still parses
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    newest = rf"FAIL issue {ISSUES[-1]}: \w+ (setup_s seed|new_ms: not measured)"
    assert fails and all(re.match(newest, line) for line in fails)
    assert sum("new_ms: not measured" in line for line in fails) == len(declared["workloads"])
    assert "issue  16" in out and "WORSE than bound" in out


STUB = textwrap.dedent(
    '''
    import argparse, json, sys
    from pathlib import Path
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--out"):
        parser.add_argument(flag)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    side = Path(__file__).parents[1]
    with open(side.parent / "order.log", "a") as log:
        log.write(f"{side.name} {args.workload} {args.seed} {args.trace}\\n")
    failed = FAILED
    value = {"parent": 10.0, "change": 11.0}[side.name]
    metrics = {} if args.trace else {name: {"value": value, "unit": "u"} for name in METRICS}
    result = {"correct": not failed, "attempted": 3, "failed": failed, "metrics": metrics}
    Path(args.out).write_text(json.dumps({
        "args": {"workload": args.workload, "seed": int(args.seed), "seconds": 0, "trace": args.trace},
        "host": {"nproc": 1}, "kernel_digest": "stub", "rounds": 8, "failures": [],
        "calibrations": [[0.02, []], [0.03, []], [0.04, []]], "windows": [{"big": 1}],
        "unlisted": {}, "result": result,
    }))
    print("workload", args.workload)
    print(json.dumps(result))
    sys.exit(1 if failed else 0)
    '''
)


def _stub_checkouts(tmp_path: Path, change_failed: int = 0) -> "dict[str, Path]":
    checkouts = {}
    for side, failed in (("parent", 0), ("change", change_failed)):
        script = tmp_path / side / "lakebench" / "run.py"
        script.parent.mkdir(parents=True)
        names = list(trajectory.benchmark()[1])
        script.write_text(STUB.replace("FAILED", str(failed)).replace("METRICS", repr(names)))
        checkouts[side] = tmp_path / side
    return checkouts


def test_pairs_alternates_sides_and_writes_a_valid_entry(tmp_path):
    checkouts = _stub_checkouts(tmp_path)
    out = tmp_path / "BENCH_stub.json"
    argv = ["pairs", "--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--issue", "7", "--pairs", "2", "--held-out-seed", "9", "--held-out-pairs", "1",
            "--traced", "1", "-o", str(out)]
    assert trajectory.main(argv) == 0
    order = [line.split() for line in (tmp_path / "order.log").read_text().splitlines()]
    workloads = trajectory.benchmark()[0]
    expected = [
        [side, workload, seed, trace]
        for seed, pairs, trace in (("100", 2, "0"), ("9", 1, "0"), ("100", 1, "1"))
        for pair in range(pairs)
        for workload in workloads
        for side in (("change", "parent") if pair % 2 else ("parent", "change"))
    ]
    assert order == expected
    entry = trajectory.validate(json.loads(out.read_text()))
    assert entry["issue"] == 7 and len(entry["runs"]) == 18 and len(entry["traced_runs"]) == 6
    run = entry["runs"][0]
    assert "windows" not in run and "calibrations" not in run
    assert run["calib_ms_p50"] == 30.0 and run["exit_code"] == 0 and run["host"] == {"nproc": 1}
    cell = entry["summary"]["tpch_cold"]["100"]["write_mb_s"]
    assert cell["parent"]["median"] == 10.0 and cell["change"]["median"] == 11.0
    assert (cell["pairs"], cell["change_wins"], cell["ties"]) == (2, 2, 0)
    assert entry["summary"]["tpch_cold"]["100"]["setup_s"]["change_wins"] == 0  # lower is better
    assert set(entry["summary"]["bi_cold"]) == {"100", "9"}


def test_pairs_rejects_a_run_with_failed_operations(tmp_path):
    checkouts = _stub_checkouts(tmp_path, change_failed=1)
    out = tmp_path / "BENCH_stub.json"
    with pytest.raises(SystemExit, match="failed 1"):
        trajectory.main(["pairs", "--parent", str(checkouts["parent"]), "--change",
                         str(checkouts["change"]), "--issue", "7", "-o", str(out)])
    assert not out.exists()


def test_an_anchor_entry_is_listed_apart_and_is_never_the_newest(tmp_path, capsys):
    """An anchor pairs the previous anchor's tree with a later one: ``trend``
    lists it in its own section and holds only the newest per-PR entry to
    the bounds, even when the anchor is dated later and moved further."""
    root = _doctored_root(tmp_path, lambda entry: None)
    newest = _newest(json.loads(path.read_text()) for path in root.glob("BENCH_*.json"))
    anchor = dict(newest, date="2099-01-01", anchor=True, parent_commit="a" * 40)
    for run in anchor["runs"]:
        if run["side"] == "change":
            run["result"]["metrics"]["scan_mb_s"]["value"] *= 0.5
    anchor["summary"] = trajectory.summarise(anchor["runs"], trajectory.benchmark()[1])
    (root / "BENCH_anchor.json").write_text(json.dumps(anchor))
    assert trajectory.trend(root) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    section = out[out.index(f"anchor 2099-01-01: aaaaaaa -> the tree after issue {newest['issue']}"):]
    assert re.search(r"tpch_cold scan_mb_s seed +100: \S+ -> \S+ \(-(4|5)\d\.\d%", section)
