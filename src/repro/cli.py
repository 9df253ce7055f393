"""Command-line interface: compress, decompress and inspect BtrBlocks files.

Usage (also via ``python -m repro``)::

    python -m repro compress  data.csv  out.btr   [--block-size N] [--depth N]
                                                  [--trace report.json] [--jobs N]
    python -m repro decompress out.btr  back.csv  [--on-corrupt MODE]
    python -m repro inspect   out.btr
    python -m repro stats     data.csv  [--decisions] [--output report.json]
    python -m repro scan      out.btr   [--columns a,b] [--fault-transient P]
                              [--fault-truncate P] [--fault-corrupt P] ...
    python -m repro write     out.btr   [--fault-put-transient P] [--fault-torn P]
                              [--crash-after N] [--recover] ...
    python -m repro serve-bench [--tenants 1,4,16] [--requests N] [--output serve.json]

``compress`` ingests a CSV (with type inference), compresses it and writes
the single-buffer BtrBlocks serialization; ``--trace`` additionally dumps
the observability report (per-column schemes, estimated vs. achieved
ratios, phase timings) as JSON; ``--jobs N`` compresses the blocks on N
worker processes, with output bytes identical to the default single-process
run. ``inspect`` prints the per-column scheme histogram, sizes and ratios
without decompressing any data. ``stats`` compresses in memory purely to
produce that JSON report. ``scan`` commits the table to a clean simulated
object store, then reads it back through ``RemoteTable`` — optionally under
an injected fault profile — and reports requests, retries, backoff,
integrity events and simulated cost (see docs/RELIABILITY.md). ``write``
replays the transactional *upload*: the table commits through the
multipart + manifest protocol under injected PUT faults (torn writes,
duplicate delivery, throttles, a writer crash at step N), then reports the
write-side billing — and, with ``--recover``, what a recovery sweep
reclaimed after a crash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.compressor import compress_relation
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import ON_CORRUPT_MODES, decompress_relation
from repro.core.file_format import relation_from_bytes, relation_to_bytes
from repro.datagen.csvio import csv_to_relation, relation_to_csv
from repro.observe import (
    MetricsRegistry,
    SelectionTrace,
    report_json,
    use_registry,
    use_trace,
)


#: ``--brownout`` runs a deliberately small queue so the sweep actually
#: exercises admission shedding; larger ``--queue-limit`` values are capped
#: (with a note on stderr) rather than silently honored-then-ignored.
_BROWNOUT_QUEUE_CAP = 32


def _int_from_env(name: str, fallback: int) -> int:
    """Parse an integer environment variable lazily, at command run time.

    Parsing in an ``argparse`` default would run at parser *build* time,
    so a malformed value would crash every subcommand with a traceback;
    here only the command that consumes the variable fails, with a
    message. Unset or blank falls back; base prefixes (``0x…``) work.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return fallback
    try:
        return int(raw, 0)
    except ValueError:
        raise SystemExit(f"repro: ${name}={raw!r} is not an integer") from None


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise SystemExit(
            f"repro compress: --jobs must be a positive worker count (got {args.jobs})"
        )
    text = Path(args.input).read_text(encoding="utf-8")
    relation = csv_to_relation(text, name=Path(args.input).stem)
    config = BtrBlocksConfig(block_size=args.block_size, max_cascade_depth=args.depth)
    registry, trace = MetricsRegistry(), SelectionTrace()
    with use_registry(registry), use_trace(trace):
        try:
            compressed = compress_relation(relation, config, workers=args.jobs)
        finally:
            if args.jobs > 1:  # a one-shot command keeps no warm pool
                from repro import procpool

                procpool.shutdown_pool()
    payload = relation_to_bytes(compressed)
    Path(args.output).write_bytes(payload)
    ratio = relation.nbytes / compressed.nbytes if compressed.nbytes else float("inf")
    print(f"{args.input}: {relation.row_count} rows, {len(relation.columns)} columns")
    print(f"in-memory {relation.nbytes:,} B -> compressed {compressed.nbytes:,} B "
          f"({ratio:.2f}x), file {len(payload):,} B")
    if args.trace:
        Path(args.trace).write_text(
            report_json(registry, trace, include_decisions=True), encoding="utf-8"
        )
        print(f"observability report -> {args.trace}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Compress in memory and emit the observability JSON report."""
    text = Path(args.input).read_text(encoding="utf-8")
    relation = csv_to_relation(text, name=Path(args.input).stem)
    config = BtrBlocksConfig(block_size=args.block_size, max_cascade_depth=args.depth)
    registry, trace = MetricsRegistry(), SelectionTrace()
    with use_registry(registry), use_trace(trace):
        compress_relation(relation, config)
    report = report_json(registry, trace, include_decisions=args.decisions)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        print(f"observability report -> {args.output}")
    else:
        print(report)
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    limits = None
    if args.max_rows_per_block or args.max_bytes_per_block:
        from dataclasses import replace

        from repro.core.config import DEFAULT_DECODE_LIMITS

        overrides = {}
        if args.max_rows_per_block:
            overrides["max_rows_per_block"] = args.max_rows_per_block
        if args.max_bytes_per_block:
            overrides["max_bytes_per_block"] = args.max_bytes_per_block
        limits = replace(DEFAULT_DECODE_LIMITS, **overrides)
    compressed = relation_from_bytes(Path(args.input).read_bytes())
    with use_registry(registry):
        relation = decompress_relation(
            compressed, on_corrupt=args.on_corrupt, limits=limits
        )
    Path(args.output).write_text(relation_to_csv(relation), encoding="utf-8")
    print(f"{args.input}: restored {relation.row_count} rows, "
          f"{len(relation.columns)} columns -> {args.output}")
    corrupt = int(registry.get("decompress.corrupt_blocks"))
    if corrupt:
        print(f"WARNING: {corrupt} corrupt block(s) degraded via "
              f"on_corrupt={args.on_corrupt!r} "
              f"({int(registry.get('decompress.corrupt_rows'))} rows affected)")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    """Replay a (optionally fault-injected) cloud column scan of a table."""
    from repro.cloud import FaultProfile, RemoteTable, SimulatedObjectStore, TableWriter

    compressed = relation_from_bytes(Path(args.input).read_bytes())
    profile = None
    rates = {
        "transient_error_rate": args.fault_transient,
        "timeout_rate": args.fault_timeout,
        "throttle_rate": args.fault_throttle,
        "truncate_rate": args.fault_truncate,
        "corrupt_rate": args.fault_corrupt,
    }
    if any(rate > 0 for rate in rates.values()):
        profile = FaultProfile(seed=args.seed, **rates)
    store = SimulatedObjectStore()
    TableWriter(store).write(compressed)
    store.set_faults(profile)
    registry, trace = MetricsRegistry(), SelectionTrace()
    with use_registry(registry), use_trace(trace):
        table = RemoteTable.open(store, compressed.name, on_corrupt=args.on_corrupt)
        names = ([c.strip() for c in args.columns.split(",") if c.strip()]
                 if args.columns else None)
        result = table.scan(columns=names)
    pricing = store.pricing
    seconds = store.simulated_transfer_seconds()
    cost = pricing.request_cost(store.stats.get_requests) + pricing.compute_cost(seconds)
    print(f"{args.input}: scanned {result.row_count} rows x "
          f"{len(result.columns)} columns from simulated S3")
    print(f"  requests {store.stats.get_requests}, "
          f"bytes {store.stats.bytes_downloaded:,}, "
          f"retries {store.stats.retries}, "
          f"backoff {store.stats.backoff_seconds:.3f}s")
    faults = {name.split(".")[-1]: int(registry.get(name)) for name in
              ("cloud.faults.transient", "cloud.faults.timeout",
               "cloud.faults.throttle", "cloud.faults.truncated",
               "cloud.faults.corrupt") if registry.get(name)}
    if faults:
        print("  faults injected: " +
              ", ".join(f"{kind}={count}" for kind, count in faults.items()))
    refetches = int(registry.get("cloud.table.integrity_refetches"))
    corrupt = int(registry.get("decompress.corrupt_blocks"))
    if refetches or corrupt:
        print(f"  integrity: {refetches} damaged download(s) refetched, "
              f"{corrupt} block(s) degraded via on_corrupt={args.on_corrupt!r}")
    print(f"  simulated transfer {seconds:.4f}s, cost ${cost:.6f}")
    if args.output:
        Path(args.output).write_text(
            report_json(registry, trace), encoding="utf-8"
        )
        print(f"observability report -> {args.output}")
    return 0


def _cmd_write(args: argparse.Namespace) -> int:
    """Replay a transactional table write against the simulated store."""
    from repro.cloud import (
        FaultProfile,
        RemoteTable,
        SimulatedObjectStore,
        TableWriter,
        WriteCostModel,
        recover,
    )
    from repro.exceptions import ObjectStoreError, WriterCrashError

    compressed = relation_from_bytes(Path(args.input).read_bytes())
    rates = {
        "put_transient_error_rate": args.fault_put_transient,
        "put_timeout_rate": args.fault_put_timeout,
        "put_throttle_rate": args.fault_put_throttle,
        "torn_write_rate": args.fault_torn,
        "duplicate_delivery_rate": args.fault_duplicate,
    }
    profile = None
    if any(rate > 0 for rate in rates.values()) or args.crash_after >= 0:
        profile = FaultProfile(
            seed=args.seed, crash_after_put_ops=args.crash_after, **rates
        )
    store = SimulatedObjectStore(faults=profile)
    registry, trace = MetricsRegistry(), SelectionTrace()
    status = 0
    with use_registry(registry), use_trace(trace):
        writer = TableWriter(store)
        try:
            version = writer.write(compressed)
            print(f"{args.input}: committed {compressed.name!r} version {version} "
                  f"({len(compressed.columns)} columns)")
        except WriterCrashError as exc:
            status = 1
            print(f"{args.input}: writer crashed before commit ({exc})")
        except ObjectStoreError as exc:
            status = 1
            print(f"{args.input}: write failed and rolled back "
                  f"({type(exc).__name__}: {exc})")
        stats = store.stats
        print(f"  put requests {stats.put_requests}, "
              f"bytes uploaded {stats.bytes_uploaded:,}, "
              f"retries {stats.put_retries}, "
              f"backoff {stats.put_backoff_seconds:.3f}s")
        faults = {name.split(".")[-1]: int(registry.get(name)) for name in
                  ("cloud.faults.put_transient", "cloud.faults.put_timeout",
                   "cloud.faults.put_throttle", "cloud.faults.torn_write",
                   "cloud.faults.duplicate_delivery", "cloud.faults.writer_crash")
                  if registry.get(name)}
        if faults:
            print("  faults injected: " +
                  ", ".join(f"{kind}={count}" for kind, count in faults.items()))
        cost_model = WriteCostModel(store.pricing)
        metrics = cost_model.from_stats(compressed.name, stats)
        print(f"  simulated upload {store.simulated_upload_seconds():.4f}s, "
              f"cost ${cost_model.cost_usd(metrics):.6f}")
        if args.recover:
            # Recovery runs as a fresh process: the dead writer's fault
            # profile no longer applies.
            store.set_faults(None)
            report = recover(store, compressed.name)
            print(f"  recovery: aborted {report.aborted_uploads} upload(s), "
                  f"deleted {report.deleted_objects} orphaned object(s), "
                  f"reclaimed {report.reclaimed_bytes:,} staged bytes")
            try:
                table = RemoteTable.open(store, compressed.name)
                print(f"  readable version after recovery: {table.version}")
            except Exception:
                print("  no committed version is visible (nothing was published)")
    if args.output:
        Path(args.output).write_text(report_json(registry, trace), encoding="utf-8")
        print(f"observability report -> {args.output}")
    return status


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Sweep the multi-tenant scan server and print latency/cache/$ figures."""
    from repro.serve.bench import run_brownout_bench, run_serve_bench

    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise SystemExit(
            f"repro serve-bench: --deadline-ms must be a positive number of "
            f"milliseconds (got {args.deadline_ms:g})"
        )
    deadline_seconds = args.deadline_ms / 1e3 if args.deadline_ms is not None else None
    seed = args.seed if args.seed is not None else _int_from_env("REPRO_SERVE_SEED", 202408)
    if args.brownout:
        queue_limit = (
            _BROWNOUT_QUEUE_CAP if args.queue_limit is None else args.queue_limit
        )
        if queue_limit > _BROWNOUT_QUEUE_CAP:
            print(
                f"note: --brownout caps --queue-limit at {_BROWNOUT_QUEUE_CAP} "
                f"(requested {queue_limit}) so the sweep exercises shedding",
                file=sys.stderr,
            )
            queue_limit = _BROWNOUT_QUEUE_CAP
        chaos_seed = (
            args.chaos_seed
            if args.chaos_seed is not None
            else _int_from_env("REPRO_CHAOS_SEED", 7)
        )
        report = run_brownout_bench(
            rows=args.rows,
            tables=args.tables,
            requests_per_tenant=args.requests,
            seed=seed,
            chaos_seed=chaos_seed,
            deadline_seconds=0.75 if deadline_seconds is None else deadline_seconds,
            max_concurrency=args.concurrency,
            queue_limit=queue_limit,
        )
        print(f"serve-bench --brownout: seed {report['seed']}, chaos seed "
              f"{report['chaos_seed']}, {len(report['episodes'])} episode(s), "
              f"deadline {1e3 * report['deadline_seconds']:.0f} ms")
        for phase in ("brownout", "fault_free"):
            for name in ("hardened", "unhardened"):
                m = report[phase][name]
                print(f"  {phase:10s} {name:10s}: "
                      f"{m['completed_on_time']:3d} on time, "
                      f"{m['completed_late']:3d} late, "
                      f"{m['shed']:3d} shed, "
                      f"{m['retries']:3d} retries, "
                      f"{m['wasted_bytes_total']:8,d} wasted B, "
                      f"goodput {m['goodput_per_second']:6.1f}/s, "
                      f"p99 {1e3 * m['p99_latency_seconds']:7.2f} ms")
        print(f"  overload layer saved {report['retries_saved']} retrie(s) and "
              f"{report['wasted_bytes_saved']:,} wasted byte(s) under brownout")
        if args.output:
            Path(args.output).write_text(
                json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
            )
            print(f"serve-bench report -> {args.output}")
        return 0
    report = run_serve_bench(
        tenant_sweep=tuple(int(t) for t in args.tenants.split(",") if t.strip()),
        rows=args.rows,
        tables=args.tables,
        requests_per_tenant=args.requests,
        seed=seed,
        max_concurrency=args.concurrency,
        queue_limit=64 if args.queue_limit is None else args.queue_limit,
        deadline_seconds=deadline_seconds,
    )
    print(f"serve-bench: seed {report['seed']}, {report['tables']} tables x "
          f"{report['rows']:,} rows, concurrency {report['max_concurrency']}, "
          f"queue limit {report['queue_limit']}")
    for level in report["levels"]:
        print(f"  {level['tenants']:3d} tenant(s): "
              f"p50 {1e3 * level['p50_latency_seconds']:7.2f} ms  "
              f"p99 {1e3 * level['p99_latency_seconds']:7.2f} ms  "
              f"cache hit {100.0 * level['cache_hit_rate']:5.1f}%  "
              f"${level['cost_usd_per_query']:.3e}/query  "
              f"({level['completed']}/{level['requests']} served, "
              f"{level['rejected']} rejected)")
        if level["rejected"] or level["shed"]:
            print(f"                retry-after hint: "
                  f"mean {1e3 * level['retry_after_mean_seconds']:.1f} ms, "
                  f"max {1e3 * level['retry_after_max_seconds']:.1f} ms "
                  f"over {level['retry_after_hints']} rejection(s)")
        if level["deadline_exceeded"] or level["shed"]:
            print(f"                deadlines: {level['deadline_exceeded']} "
                  f"exceeded, {level['shed']} shed at admission")
    ratio = report.get("cost_ratio_16_vs_1")
    if ratio is not None:
        print(f"  $/query at 16 tenants vs 1: {ratio:.2f}x")
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"serve-bench report -> {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    compressed = relation_from_bytes(Path(args.input).read_bytes())
    blocks = [b for c in compressed.columns for b in c.blocks]
    checksummed = sum(1 for b in blocks if b.checksum is not None)
    print(f"table {compressed.name!r}: {len(compressed.columns)} columns, "
          f"{compressed.nbytes:,} compressed bytes, "
          f"{checksummed}/{len(blocks)} blocks CRC32-checksummed")
    header = f"{'column':24s} {'type':8s} {'rows':>9s} {'bytes':>10s} {'blocks':>6s}  schemes"
    print(header)
    print("-" * len(header))
    for column in compressed.columns:
        schemes = ", ".join(
            f"{name} x{count}" for name, count in sorted(column.scheme_histogram().items())
        )
        print(f"{column.name[:24]:24s} {column.ctype.value:8s} {column.count:>9,} "
              f"{column.nbytes:>10,} {len(column.blocks):>6}  {schemes}")
    if args.explain:
        from repro.inspect import explain_column

        print("\ncascade trees (first block of each column):")
        for column in compressed.columns:
            print(f"\n{column.name}:")
            for line in explain_column(column).splitlines():
                print(f"  {line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BtrBlocks (SIGMOD 2023) reproduction: columnar compression for data lakes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a CSV file to .btr")
    compress.add_argument("input")
    compress.add_argument("output")
    compress.add_argument("--block-size", type=int, default=64_000)
    compress.add_argument("--depth", type=int, default=3)
    compress.add_argument("--trace", metavar="PATH",
                          help="write the observability JSON report to PATH")
    compress.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="compress blocks on N worker processes (default 1)")
    compress.set_defaults(func=_cmd_compress)

    decompress = sub.add_parser("decompress", help="decompress a .btr file to CSV")
    decompress.add_argument("input")
    decompress.add_argument("output")
    decompress.add_argument("--on-corrupt", choices=ON_CORRUPT_MODES, default="raise",
                            help="policy for checksum-damaged blocks (default raise)")
    decompress.add_argument("--max-rows-per-block", type=int, metavar="N",
                            help="decode limit: reject blocks declaring more rows")
    decompress.add_argument("--max-bytes-per-block", type=int, metavar="N",
                            help="decode limit: reject blocks declaring larger payloads")
    decompress.set_defaults(func=_cmd_decompress)

    scan = sub.add_parser(
        "scan", help="replay a (fault-injectable) cloud column scan of a .btr table"
    )
    scan.add_argument("input")
    scan.add_argument("--columns", metavar="NAMES",
                      help="comma-separated column names (default: all)")
    scan.add_argument("--fault-transient", type=float, default=0.0, metavar="P",
                      help="probability of an injected transient error per GET")
    scan.add_argument("--fault-timeout", type=float, default=0.0, metavar="P",
                      help="probability of an injected client timeout per GET")
    scan.add_argument("--fault-throttle", type=float, default=0.0, metavar="P",
                      help="probability of an injected throttle (SlowDown) per GET")
    scan.add_argument("--fault-truncate", type=float, default=0.0, metavar="P",
                      help="probability a range GET's payload is cut short")
    scan.add_argument("--fault-corrupt", type=float, default=0.0, metavar="P",
                      help="probability a served payload has a bit flipped")
    scan.add_argument("--seed", type=int, default=0,
                      help="fault-injection RNG seed (default 0)")
    scan.add_argument("--on-corrupt", choices=ON_CORRUPT_MODES, default="raise",
                      help="policy for checksum-damaged blocks (default raise)")
    scan.add_argument("--output", "-o", metavar="PATH",
                      help="write the observability JSON report to PATH")
    scan.set_defaults(func=_cmd_scan)

    write = sub.add_parser(
        "write",
        help="replay a transactional (fault-injectable) table write to simulated S3",
    )
    write.add_argument("input")
    write.add_argument("--fault-put-transient", type=float, default=0.0, metavar="P",
                       help="probability of an injected transient error per PUT-class request")
    write.add_argument("--fault-put-timeout", type=float, default=0.0, metavar="P",
                       help="probability of an injected client timeout per PUT-class request")
    write.add_argument("--fault-put-throttle", type=float, default=0.0, metavar="P",
                       help="probability of an injected throttle per PUT-class request")
    write.add_argument("--fault-torn", type=float, default=0.0, metavar="P",
                       help="probability a byte-carrying PUT is torn (prefix lands, then failure)")
    write.add_argument("--fault-duplicate", type=float, default=0.0, metavar="P",
                       help="probability a PUT is applied but its response is lost")
    write.add_argument("--crash-after", type=int, default=-1, metavar="N",
                       help="kill the writer after N PUT-class protocol steps (-1 = never)")
    write.add_argument("--seed", type=int, default=0,
                       help="fault-injection RNG seed (default 0)")
    write.add_argument("--recover", action="store_true",
                       help="after the write (or crash), sweep orphaned staged parts/objects")
    write.add_argument("--output", "-o", metavar="PATH",
                       help="write the observability JSON report to PATH")
    write.set_defaults(func=_cmd_write)

    inspect = sub.add_parser("inspect", help="show per-column schemes and sizes")
    inspect.add_argument("input")
    inspect.add_argument("--explain", action="store_true",
                         help="print the full cascade tree per column")
    inspect.set_defaults(func=_cmd_inspect)

    stats = sub.add_parser(
        "stats", help="compress a CSV in memory and print the observability report"
    )
    stats.add_argument("input")
    stats.add_argument("--block-size", type=int, default=64_000)
    stats.add_argument("--depth", type=int, default=3)
    stats.add_argument("--decisions", action="store_true",
                       help="include the full per-block selection trace")
    stats.add_argument("--output", "-o", metavar="PATH",
                       help="write the JSON report to PATH instead of stdout")
    stats.set_defaults(func=_cmd_stats)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="sweep the multi-tenant scan server: p50/p99 latency, cache "
             "hit rate and $/query as tenancy scales",
    )
    serve_bench.add_argument("--tenants", default="1,4,16", metavar="LIST",
                             help="comma-separated tenant counts to sweep "
                                  "(default 1,4,16)")
    serve_bench.add_argument("--rows", type=int, default=4000,
                             help="rows per catalog table (default 4000)")
    serve_bench.add_argument("--tables", type=int, default=3,
                             help="tables in the served catalog (default 3)")
    serve_bench.add_argument("--requests", type=int, default=8,
                             help="requests per tenant (default 8)")
    serve_bench.add_argument("--seed", type=int, default=None,
                             help="workload seed (default $REPRO_SERVE_SEED or 202408)")
    serve_bench.add_argument("--concurrency", type=int, default=4,
                             help="max concurrent scans in service (default 4)")
    serve_bench.add_argument("--queue-limit", type=int, default=None,
                             help="admission queue bound; beyond it requests "
                                  "are rejected (default 64, capped at 32 "
                                  "under --brownout)")
    serve_bench.add_argument("--deadline-ms", type=float, default=None,
                             metavar="MS",
                             help="per-request latency budget in milliseconds; "
                                  "enables deadline propagation and doomed-work "
                                  "shedding (default: no deadline)")
    serve_bench.add_argument("--brownout", action="store_true",
                             help="run the brownout chaos sweep instead: the "
                                  "overload layer (deadlines, retry budgets, "
                                  "circuit breaker) on vs off under seeded "
                                  "brownout episodes plus a fault-free control")
    serve_bench.add_argument("--chaos-seed", type=int, default=None,
                             help="brownout episode seed (default "
                                  "$REPRO_CHAOS_SEED or 7)")
    serve_bench.add_argument("--output", "-o", metavar="PATH",
                             help="also write the JSON report to PATH")
    serve_bench.set_defaults(func=_cmd_serve_bench)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
