"""The benchmark's metric vocabulary: every name, unit and direction once.

``BENCHMARK.json`` is generated from these tables (``run.py
--emit-benchmark-json``) and ``run.py`` prints exactly these names, so the
file the driver reads and the program it runs cannot drift apart.
"""

from __future__ import annotations

#: Seconds one run measures (``--seconds`` as the driver passes it).
RUN_SECONDS = 24

#: name -> (unit, better, bound). Bounds are fixed from the committed A/A
#: record (``AA_<date>.json``); see README.md for the rule.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "write_mb_s": ("MB/s", "higher", 0.20),
    "compression_ratio": ("ratio", "higher", 0.02),
    "scan_mb_s": ("MB/s", "higher", 0.20),
    "query_sparse_ms": ("ms", "lower", 0.20),
    "query_dense_ms": ("ms", "lower", 0.15),
    "query_fetched_share": ("ratio", "lower", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: name -> (unit, better). Listed in BENCHMARK.json; every one is non-zero
#: on all three workloads. Times are raw (un-normalised) self seconds per
#: cycle — one visit of each partition.
PER_LAYER = {
    # W: compress_relation + TableWriter.write
    "core.stats.self_s": ("s", "lower"),
    "core.sampling.self_s": ("s", "lower"),
    "core.selector.self_s": ("s", "lower"),
    "core.selector.share": ("ratio", "lower"),
    "core.selector.picks": ("count", "lower"),
    "core.selector.estimates_per_pick": ("ratio", "lower"),
    "encodings.encode.self_s": ("s", "lower"),
    "core.blockstats.self_s": ("s", "lower"),
    "core.file_format.frame_self_s": ("s", "lower"),
    "cloud.remote_table.commit_self_s": ("s", "lower"),
    "cloud.objectstore.put_requests": ("count", "lower"),
    "cloud.objectstore.put_bytes": ("bytes", "lower"),
    # S: RemoteTable.open().scan() of every column
    "cloud.objectstore.get_requests": ("count", "lower"),
    "cloud.objectstore.get_bytes": ("bytes", "lower"),
    "cloud.objectstore.self_s": ("s", "lower"),
    "cloud.remote_table.scan_self_s": ("s", "lower"),
    "core.file_format.parse_self_s": ("s", "lower"),
    "core.decompressor.self_s": ("s", "lower"),
    "core.decompressor.assemble_self_s": ("s", "lower"),
    "encodings.decode.int_self_s": ("s", "lower"),
    "encodings.decode.double_self_s": ("s", "lower"),
    "encodings.decode.string_self_s": ("s", "lower"),
    "core.decompressor.decode_mb_s": ("MB/s", "higher"),
    "core.cache.decode_miss_share": ("ratio", "lower"),
    "core.cache.column_miss_share": ("ratio", "lower"),
    # Q: scan([filter, 2 payload columns], where=)
    "metadata.zonemap.blocks_tested": ("count", "lower"),
    "metadata.zonemap.survivor_share": ("ratio", "lower"),
    "query.executor.self_s": ("s", "lower"),
    "query.predicates.self_s": ("s", "lower"),
    "core.access.filtered_self_s": ("s", "lower"),
    "core.access.decoded_row_share": ("ratio", "lower"),
    "cloud.objectstore.query_get_bytes": ("bytes", "lower"),
    "query.sparse_p90_ms": ("ms", "lower"),
    "query.dense_p90_ms": ("ms", "lower"),
    # harness
    "host.calib_ms_p50": ("ms", "lower"),
    "host.calib_spread": ("ratio", "lower"),
    "raw.write_mb_s": ("MB/s", "higher"),
    "raw.scan_mb_s": ("MB/s", "higher"),
    "raw.query_sparse_ms": ("ms", "lower"),
    "raw.query_dense_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document for these tables and workloads."""
    return {
        "command": ["python3", "lakebench/run.py"],
        "paths": ["lakebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
