"""Section 6.7 — loading individual columns from S3.

The paper's first end-to-end experiment fetches only the columns random
queries touch. BtrBlocks stores one file per column plus a separate
metadata file -- here the manifest ``TableWriter`` commits and ``RemoteTable``
reads (1 manifest GET, then parallel chunked column GETs); Parquet
bundles everything into one file with a trailing footer, forcing three
*dependent* requests (footer length -> footer -> column ranges). On the
five largest workbooks the paper measures BtrBlocks scans ~9x cheaper than
compressed Parquet and ~20x cheaper than uncompressed Parquet.

The gap here is driven by the same two factors as in the paper: dependent
round-trip latency and bytes moved per single-column read.
"""

import numpy as np
import pytest

from _harness import print_table, publicbi_largest_five
from repro.cloud import SimulatedObjectStore, TableWriter
from repro.cloud.scan import (
    scan_btrblocks_columns,
    scan_parquet_like_columns,
    upload_parquet_like,
)
from repro.core.compressor import compress_relation
from repro.baselines.parquet_like import ParquetLikeFormat


#: The paper's five largest workbooks hold GBs per column; the synthetic
#: suite is ~1000x smaller, so the byte term of the cost model is scaled
#: back up (latency round trips are scale-independent).
DATA_SCALE = 1000.0


def test_sec67_single_column_loads(benchmark):
    relations = publicbi_largest_five()[:3]
    rng = np.random.default_rng(17)

    def run():
        store = SimulatedObjectStore()
        rows = []
        for relation in relations:
            TableWriter(store).write(compress_relation(relation))
            for codec in ("none", "snappy"):
                fmt = ParquetLikeFormat(codec)
                upload_parquet_like(store, f"{relation.name}-{codec}",
                                    fmt.compress_relation(relation))
        totals = {"btrblocks": 0.0, "parquet": 0.0, "parquet+snappy": 0.0}
        requests = {"btrblocks": 0, "parquet": 0, "parquet+snappy": 0}
        for relation in relations:
            # A "random query" touches 2 columns (the paper samples queries
            # from the workbooks' dashboards).
            picks = rng.choice(len(relation.columns), size=2, replace=False)
            names = [relation.columns[i].name for i in picks]
            btr = scan_btrblocks_columns(store, relation.name, names)
            totals["btrblocks"] += btr.cost_usd(store, DATA_SCALE)
            requests["btrblocks"] += btr.scaled_requests(store, DATA_SCALE)
            for codec, label in (("none", "parquet"), ("snappy", "parquet+snappy")):
                result = scan_parquet_like_columns(store, f"{relation.name}-{codec}", names)
                totals[label] += result.cost_usd(store, DATA_SCALE)
                requests[label] += result.scaled_requests(store, DATA_SCALE)
        return totals, requests

    totals, requests = benchmark.pedantic(run, rounds=1, iterations=1)
    base = totals["btrblocks"]
    print_table(
        "Section 6.7: single-column S3 scans (3 workbooks, 2 columns each)",
        ["Format", "GET requests", "Relative cost"],
        [[label, requests[label], totals[label] / base] for label in totals],
    )
    # The paper's ordering: BtrBlocks cheapest; uncompressed Parquet worst
    # (it moves the most bytes on top of the same dependent round trips).
    # The paper's 9x/20x factors additionally reflect Spark's file
    # splitting and whole-file fallback loads, which this model does not
    # imitate, so only the ordering and a clear margin are asserted.
    assert totals["btrblocks"] < totals["parquet+snappy"]
    assert totals["parquet+snappy"] <= totals["parquet"]
    assert totals["parquet"] / totals["btrblocks"] > 1.2
