"""The three workloads: seeded inputs, predicates, and the oracle.

Everything the library is handed is generated here from ``--seed`` through
``numpy.random.default_rng([seed, ...])``. The oracle is independent of the
library's query code: a query's expected answer is a NumPy mask over the
raw source arrays, gathered per projected column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import BtrBlocksConfig, Column, ColumnType, Relation, columns_equal
from repro.bitmap import RoaringBitmap
from repro.datagen import generate_dataset
from repro.datagen.tpch import lineitem
from repro.query.predicates import Between, Equals, In, Predicate

#: Partitions (separate tables) per workload.
PARTITIONS = 4
#: Full-column scans per S window and dense queries per Qd window.
SCANS_PER_WINDOW = 5
DENSE_BATCH = 4
#: Row-share bands the seeded predicates are built (and verified) to hit.
SPARSE_MAX_SHARE = 0.01
DENSE_MIN_SHARE = 0.50

_BI_DATASETS = ("CommonGovernment", "NYC", "CMSProvider", "Telco")
_BI_ROWS = 16_384  # generate_dataset doubles it for these four: 32,768 rows


@dataclass(frozen=True)
class Query:
    """One selective scan: ``scan(columns, where={column: predicate})``."""

    column: str
    kind: str  # "eq" | "in" | "between"
    args: tuple
    columns: "tuple[str, ...]"

    def predicate(self) -> Predicate:
        if self.kind == "eq":
            return Equals(self.args[0])
        if self.kind == "in":
            return In(self.args)
        return Between(self.args[0], self.args[1])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``None`` keeps the default 64,000-row blocks.
    block_size: "int | None"
    #: Sparse queries per Qs window, sized to ~0.25 s when the benchmark
    #: was defined.
    sparse_batch: int
    #: One long-lived handle per partition (default caches) instead of a
    #: fresh ``RemoteTable.open`` per operation.
    warm: bool
    generate: "Callable[[int, int], Relation]"
    make_queries: "Callable[[Oracle, np.random.Generator, int], tuple[list[Query], list[Query]]]"

    def config(self) -> BtrBlocksConfig:
        if self.block_size is None:
            return BtrBlocksConfig()
        return BtrBlocksConfig(block_size=self.block_size)

    def queries(self, oracle: "Oracle", seed: int, partition: int):
        """``(sparse batch, dense batch)`` for one partition, band-verified."""
        rng = np.random.default_rng([seed, partition, 1])
        sparse, dense = self.make_queries(oracle, rng, self.sparse_batch)
        rows = oracle.relation.row_count
        for query in sparse:
            hits = len(oracle.rows(query))
            if not 0 < hits <= SPARSE_MAX_SHARE * rows:
                raise AssertionError(f"sparse predicate {query} matches {hits}/{rows} rows")
        for query in dense:
            hits = len(oracle.rows(query))
            if hits < DENSE_MIN_SHARE * rows:
                raise AssertionError(f"dense predicate {query} matches {hits}/{rows} rows")
        return sparse, dense


# -- oracle --------------------------------------------------------------------


class Oracle:
    """Expected answers for one source partition, from its raw arrays."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._raw: "dict[str, np.ndarray]" = {}
        self._rows: "dict[Query, np.ndarray]" = {}

    def raw(self, name: str) -> np.ndarray:
        """The column as one comparable NumPy array (bytes objects for strings)."""
        if name not in self._raw:
            column = self.relation.column(name)
            if column.ctype is ColumnType.STRING:
                self._raw[name] = np.array(column.data.to_pylist(), dtype=object)
            else:
                self._raw[name] = np.asarray(column.data)
        return self._raw[name]

    def rows(self, query: Query) -> np.ndarray:
        """Matching row numbers; kept, because every round asks again."""
        if query not in self._rows:
            self._rows[query] = np.nonzero(self._mask(query))[0]
        return self._rows[query]

    def _mask(self, query: Query) -> np.ndarray:
        values = self.raw(query.column)
        if query.kind == "eq":
            mask = values == query.args[0]
        elif query.kind == "in":
            mask = np.zeros(len(values), dtype=bool)
            for value in query.args:
                mask |= values == value
        else:
            mask = (values >= query.args[0]) & (values <= query.args[1])
        mask = np.asarray(mask, dtype=bool)
        source = self.relation.column(query.column)
        if source.nulls is not None:
            mask &= ~source.null_mask()  # SQL: NULL never matches a value test
        return mask

    def scan_ok(self, result: Relation, columns=None) -> bool:
        """A scan must return the asked columns (default: all, in source
        order) bit-identical to the source."""
        names = self.relation.column_names() if columns is None else list(columns)
        return result.column_names() == names and all(
            columns_equal(got, self.relation.column(got.name)) for got in result.columns
        )

    def query_ok(self, query: Query, result: Relation) -> bool:
        """A selective scan must equal mask-then-gather over the raw arrays."""
        if result.column_names() != list(query.columns):
            return False
        rows = self.rows(query)
        for got in result.columns:
            source = self.relation.column(got.name)
            if source.ctype is ColumnType.STRING:
                data = source.data.take(rows)
            else:
                data = np.asarray(source.data)[rows]
            nulls = None
            if source.nulls is not None:
                positions = np.nonzero(source.null_mask()[rows])[0]
                if positions.size:
                    nulls = RoaringBitmap.from_positions(positions)
            if not columns_equal(got, Column(got.name, source.ctype, data, nulls)):
                return False
        return True


# -- Public-BI-like predicates, chosen from the data's value frequencies -------


def _scalar(value):
    return value if isinstance(value, bytes) else int(value)


def _rare(values, counts, rows):
    """Indices of values that alone stay inside the sparse band."""
    return np.nonzero(counts <= SPARSE_MAX_SHARE * rows)[0]


def _sparse_in(values, counts, rows, rng):
    """2-3 rare values whose rows together stay inside the sparse band."""
    rare = _rare(values, counts, rows)
    picked: list = []
    budget = SPARSE_MAX_SHARE * rows
    for index in rng.permutation(rare)[:3]:
        if counts[index] <= budget:
            picked.append(_scalar(values[index]))
            budget -= counts[index]
    return tuple(picked)


def _sparse_between(values, counts, rows, rng):
    """A run of adjacent sorted values covering at most the sparse band."""
    rare = _rare(values, counts, rows)
    start = int(rng.choice(rare))
    budget = SPARSE_MAX_SHARE * rows * 0.8
    stop = start
    covered = counts[start]
    while stop + 1 < len(values) and covered + counts[stop + 1] <= budget:
        stop += 1
        covered += counts[stop]
    return _scalar(values[start]), _scalar(values[stop])


def _dense_between(values, counts, rows, rng):
    """A run of adjacent sorted values covering 50-70% of the rows."""
    cumulative = np.concatenate([[0], np.cumsum(counts)])
    target = rng.uniform(0.55, 0.70) * rows
    latest = int(np.searchsorted(cumulative, rows - target, side="right")) - 1
    start = int(rng.integers(0, max(latest, 0) + 1))
    stop = int(np.searchsorted(cumulative, cumulative[start] + target, side="left")) - 1
    stop = min(max(stop, start), len(values) - 1)
    return _scalar(values[start]), _scalar(values[stop])


def _bi_queries(oracle: Oracle, rng: np.random.Generator, sparse_batch: int):
    relation = oracle.relation
    rows = relation.row_count
    # Sorted distinct values and their row counts, per candidate filter column.
    profiles = {
        c.name: np.unique(oracle.raw(c.name), return_counts=True)
        for c in relation.columns
        if c.ctype is not ColumnType.DOUBLE
    }

    def eligible(ctype):
        return [
            c.name
            for c in relation.columns
            if c.ctype is ctype and len(_rare(*profiles[c.name], rows)) >= 8
        ]

    # Dictionary-coded string filter: the eligible string column with the
    # fewest distinct values; int filter: the one with the most.
    text = min(eligible(ColumnType.STRING), key=lambda name: len(profiles[name][0]))
    number = max(eligible(ColumnType.INTEGER), key=lambda name: len(profiles[name][0]))
    double = next(c.name for c in relation.columns if c.ctype is ColumnType.DOUBLE)
    payload_text = next(
        c.name for c in relation.columns if c.ctype is ColumnType.STRING and c.name != text
    )

    def query(column, kind, args):
        return Query(column, kind, tuple(args), (column, double, payload_text))

    sparse = []
    for i in range(sparse_batch):
        column = text if i % 4 < 2 else number
        values, counts = profiles[column]
        if i % 4 == 0:
            sparse.append(query(column, "eq", [_scalar(values[rng.choice(_rare(values, counts, rows))])]))
        elif i % 4 == 2:
            sparse.append(query(column, "between", _sparse_between(values, counts, rows, rng)))
        else:
            sparse.append(query(column, "in", _sparse_in(values, counts, rows, rng)))
    dense = [
        query(column, "between", _dense_between(*profiles[column], rows, rng))
        for column in (text, number, text, number)
    ]
    return sparse, dense


# -- TPC-H-like predicates: ranges on the sorted key ---------------------------


def _tpch_queries(oracle: Oracle, rng: np.random.Generator, sparse_batch: int):
    keys = oracle.raw("l_orderkey")
    low, span = int(keys.min()), int(keys.max()) - int(keys.min())
    columns = ("l_orderkey", "l_extendedprice", "l_shipmode")

    def ranges(count, width):
        # Stratified starts: one per equal slice of the key span, so the
        # number of ranges straddling a block boundary barely moves with
        # the seed.
        starts = (np.arange(count) + rng.uniform(0, 1, count)) / count * (1.0 - width)
        return [
            Query(
                "l_orderkey",
                "between",
                (low + int(s * span), low + int((s + width) * span)),
                columns,
            )
            for s in starts
        ]

    return ranges(sparse_batch, 0.005), ranges(DENSE_BATCH, 0.60)


def _tpch_partition(rows: int):
    def generate(seed: int, partition: int) -> Relation:
        table = lineitem(rows, np.random.default_rng([seed, partition]))
        return Relation(f"lineitem_p{partition}", table.columns)

    return generate


def _bi_partition(seed: int, partition: int) -> Relation:
    return generate_dataset(_BI_DATASETS[partition], _BI_ROWS, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bi_cold",
            why=(
                "Public-BI-like string-heavy tables, one 64k block per column, fresh handle "
                "per op: full-pool selection, FSST/dictionary decode, code-space predicates"
            ),
            block_size=None,
            sparse_batch=40,
            warm=False,
            generate=_bi_partition,
            make_queries=_bi_queries,
        ),
        Workload(
            name="tpch_cold",
            why=(
                "Sorted numeric TPC-H lineitem, 4 blocks per column, fresh handle per op: "
                "bitpack/PFOR/RLE decode, zone maps skip GETs, dense queries at the crossover"
            ),
            block_size=16_384,
            sparse_batch=80,
            warm=False,
            generate=_tpch_partition(65_536),
            make_queries=_tpch_queries,
        ),
        Workload(
            name="tpch_small_warm",
            why=(
                "Same generator in 2,048-row blocks behind one long-lived handle whose caches "
                "hold the table: per-block fixed costs and the cache-hit path, not kernels"
            ),
            block_size=2_048,
            sparse_batch=160,
            warm=True,
            generate=_tpch_partition(16_384),
            make_queries=_tpch_queries,
        ),
    )
}
