#!/usr/bin/env python3
"""The committed perf trajectory: write one ``BENCH_<date>_issue<N>.json``, diff the series.

    python3 benchmarks/trajectory.py pairs --parent DIR --change DIR --issue N [--pairs 10] \\
        [--held-out-seed S --held-out-pairs 5] [--traced 2] -o BENCH_<date>_issueN.json
    python3 benchmarks/trajectory.py pairs --anchor --parent <previous anchor tree> \\
        --change <this anchor's tree> --issue N --traced 0 -o BENCH_<date>_anchor.json
    python3 benchmarks/trajectory.py trend

``pairs`` runs ``python3 <dir>/lakebench/run.py --workload W --seed S`` for
every ``BENCHMARK.json`` workload in alternating parent/change pairs (odd
pairs run the change first, each side from its own checkout), requires exit
0 and ``failed == 0`` of every run, and writes every run plus, per workload x
seed x end-to-end metric, each side's median and inclusive quartiles, the
pairs the change won and the ``BENCHMARK.json`` bound. ``trend`` reads every
``BENCH_*.json`` at the repo root in (date, issue) order and prints parent ->
change medians per entry; exit 1 when the newest entry has a median worse
than its parent's by more than today's bound, a failed operation, or no
measurement of a declared workload x metric. An *anchor* entry (``--anchor``:
the previous anchor's tree against the tree after PR ``--issue``) is listed
in its own section after the per-PR series and is never the newest entry. Standard library only; nothing under ``lakebench/`` is imported or touched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 100
ENTRY_KEYS = (
    "date", "issue", "parent_commit", "command", "protocol", "runs", "traced_runs", "summary",
)


def benchmark(root: Path = ROOT) -> "tuple[list[str], dict[str, dict]]":
    """``BENCHMARK.json``'s workload names and its end-to-end metrics by name."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in declared["end_to_end"]}
    return [workload["name"] for workload in declared["workloads"]], metrics


def _spread(values: "list[float]") -> dict:
    one = len(values) == 1  # (quantiles() wants two points)
    q1, median, q3 = values * 3 if one else statistics.quantiles(values, n=4, method="inclusive")
    return {
        "n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3,
        "max": max(values),
    }


def summarise(runs: "list[dict]", metrics: "dict[str, dict]") -> dict:
    """``summary[workload][seed][metric]`` over the untraced runs' pairs."""
    pairs: dict = {}
    for run in runs:
        key = (run["args"]["workload"], str(run["args"]["seed"]))
        by_pair = pairs.setdefault(key, {})
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    summary: dict = {}
    for (workload, seed), by_pair in pairs.items():
        cell = summary.setdefault(workload, {}).setdefault(seed, {})
        for name, metric in metrics.items():
            parent, change = (
                [by_pair[pair][side][name]["value"] for pair in sorted(by_pair)] for side in SIDES
            )
            higher = metric["better"] == "higher"
            cell[name] = {
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": _spread(parent),
                "change": _spread(change),
                "pairs": len(by_pair),
                "change_wins": sum(a != b and (b > a) == higher for a, b in zip(parent, change)),
                "ties": sum(a == b for a, b in zip(parent, change)),
            }
    return summary


def validate(entry: dict) -> dict:
    """The schema every committed entry shares; raises ``ValueError`` otherwise.

    The summary has to follow from the entry's own runs under the ``better``
    and ``bound`` it recorded, for the workloads and metrics it recorded: an
    entry is history, and a later ``BENCHMARK.json`` that moves a bound or adds
    a metric does not unmake it. (``trend`` holds the newest entry to today's.)
    """
    missing = [key for key in ENTRY_KEYS if key not in entry]
    if missing:
        raise ValueError(f"missing {missing}")
    for run in entry["runs"] + entry["traced_runs"]:
        if run["side"] not in SIDES or not run["kernel_digest"] or "failed" not in run["result"]:
            raise ValueError(f"malformed run record: {run.get('args')}")
    recorded = {
        name: cell
        for seeds in entry["summary"].values()
        for cells in seeds.values()
        for name, cell in cells.items()
    }
    if not recorded or entry["summary"] != summarise(entry["runs"], recorded):
        raise ValueError("summary does not follow from the runs and the bounds it recorded")
    return entry


def _run(directory: Path, workload: str, seed: int, traced: bool) -> dict:
    """One lakebench run from ``directory``: its ``--out`` record, minus the
    per-window arrays, around the result its final stdout line reports."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        argv = [sys.executable, str(directory / "lakebench" / "run.py"),
                "--workload", workload, "--seed", str(seed), "--out", str(out)]
        if traced:
            argv += ["--trace", "1"]
        done = subprocess.run(argv, cwd=directory, capture_output=True, text=True)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):  # crashed before its result line
            result = {"failed": None}
        if done.returncode != 0 or result["failed"] != 0:
            raise SystemExit(
                f"trajectory: {directory} {workload} seed {seed}: exit {done.returncode}, "
                f"failed {result['failed']}\n{done.stderr[-2000:]}"
            )
        record = json.loads(out.read_text())
    calibrations = record.pop("calibrations")
    del record["windows"]
    record.update(
        result=result,
        exit_code=done.returncode,
        calib_ms_p50=statistics.median(sample[0] for sample in calibrations) * 1e3,
    )
    return record


def pairs(args: argparse.Namespace) -> int:
    workloads, metrics = benchmark()
    directories = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    plan = [(SEED, args.pairs, False), (SEED, args.traced, True)]
    held_out = ""
    if args.held_out_seed is not None:
        plan.insert(1, (args.held_out_seed, args.held_out_pairs, False))
        held_out = f", held-out seed {args.held_out_seed} x {args.held_out_pairs} pairs"
    runs, traced_runs = [], []
    for seed, count, traced in plan:
        for pair in range(count):
            for workload in workloads:
                for side in SIDES[::-1] if pair % 2 else SIDES:
                    print(f"pair {pair} {workload} seed {seed} trace {traced:d} {side}",
                          file=sys.stderr)
                    record = _run(directories[side], workload, seed, traced)
                    (traced_runs if traced else runs).append({**record, "side": side, "pair": pair})
    head = subprocess.run(["git", "-C", str(directories["parent"]), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "issue": args.issue,
        "anchor": args.anchor,
        "parent_commit": head.stdout.strip(),
        "command": "python3 lakebench/run.py --workload <w> --seed <s> [--trace 1] --out <file>"
                   "  (BENCHMARK.json defaults)",
        "protocol": "alternating parent/change pairs (odd pairs run the change first), each side "
                    f"from its own directory; seed {SEED} x {args.pairs} pairs{held_out}, "
                    f"{args.traced} traced pairs per workload at seed {SEED}; summary = median "
                    "and inclusive quartiles per side over the pairs",
        "note": "written by benchmarks/trajectory.py pairs; each run is lakebench --out with the "
                "per-window and per-calibration arrays dropped",
        "runs": runs,
        "traced_runs": traced_runs,
        "summary": summarise(runs, metrics),
    }
    Path(args.output).write_text(json.dumps(validate(entry), indent=1) + "\n")
    print(f"trajectory entry -> {args.output}")
    return 0


def _change(cell: dict) -> float:
    """The change's median relative to the parent's (+ is larger, whatever is better)."""
    parent = cell["parent"]["median"]
    return (cell["change"]["median"] - parent) / parent if parent else 0.0


def trend(root: Path = ROOT) -> int:
    entries = sorted(
        (validate(json.loads(path.read_text())) for path in root.glob("BENCH_*.json")),
        key=lambda entry: (entry["date"], entry["issue"]),
    )
    anchors = [entry for entry in entries if entry.get("anchor")]
    entries = [entry for entry in entries if not entry.get("anchor")]
    if not entries:
        print(f"no BENCH_*.json under {root}")
        return 0
    workloads, metrics = benchmark(root)
    newest, broken = entries[-1], []
    for workload in workloads:
        for name, metric in metrics.items():
            sign = -1 if metric["better"] == "higher" else 1
            print(f"{workload} {name} ({metric['unit']}, {metric['better']} is better, "
                  f"bound {metric['bound']:.0%})")
            recorded = [
                (entry, seed, cells[name])
                for entry in entries
                for seed, cells in entry["summary"].get(workload, {}).items()
                if name in cells  # (an older entry may predate a workload or a metric)
            ]
            if not any(entry is newest for entry, _, _ in recorded):
                broken.append(f"{workload} {name}: not measured")
            for entry, seed, cell in recorded:
                worse = sign * _change(cell) > metric["bound"]
                print(f"  issue {entry['issue']:>3} {entry['date']} seed {seed:>7}: "
                      f"{cell['parent']['median']:.6g} -> {cell['change']['median']:.6g} "
                      f"({_change(cell):+.1%}, {cell['change_wins']}/{cell['pairs']} pairs) "
                      f"{'WORSE than bound' if worse else 'ok'}")
                if worse and entry is newest:
                    broken.append(f"{workload} {name} seed {seed}: {_change(cell):+.1%}, "
                                  f"bound {metric['bound']:.0%}")
    broken += [
        f"failed {run['result']['failed']} in {run['args']}"
        for run in newest["runs"] + newest["traced_runs"] if run["result"]["failed"] != 0
    ]
    for entry in anchors:
        print(f"anchor {entry['date']}: {entry['parent_commit'][:7]} -> the tree after "
              f"issue {entry['issue']}")
        for workload, seeds in entry["summary"].items():
            for seed, cells in seeds.items():
                for name, cell in cells.items():
                    print(f"  {workload} {name} seed {seed:>7}: {cell['parent']['median']:.6g} -> "
                          f"{cell['change']['median']:.6g} ({_change(cell):+.1%}, "
                          f"{cell['change_wins']}/{cell['pairs']} pairs)")
    for line in broken:
        print(f"FAIL issue {newest['issue']}: {line}")
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("pairs", help="run alternating parent/change pairs, write one entry")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--issue", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--held-out-seed", type=int, help="a seed not used while writing the change")
    p.add_argument("--held-out-pairs", type=int, default=5)
    p.add_argument("--traced", type=int, default=2, help=f"traced pairs per workload at seed {SEED}")
    p.add_argument("--anchor", action="store_true",
                   help="the parent is the previous anchor tree, not the change's parent")
    p.add_argument("--output", "-o", required=True)
    commands.add_parser("trend", help="diff the committed series against BENCHMARK.json bounds")
    args = parser.parse_args(argv)
    return pairs(args) if args.command == "pairs" else trend()


if __name__ == "__main__":
    sys.exit(main())
