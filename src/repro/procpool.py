"""Process-pool compression: shared-memory block tasks.

``compress_relation(..., workers=N)`` with ``N > 1`` lands here. The GIL
serialises the Python half of every block's selection and encode, so the
per-``(column, block)`` work units run in a pool of *processes*, with column
data carried in one ``multiprocessing.shared_memory`` segment so no column
bytes are ever pickled:

* the parent packs each column's raw values (and serialized NULL bitmap)
  into the segment;
* each worker task slices its block range out of shared memory, rebuilds the
  chunk and runs :func:`~repro.core.compressor.compress_chunk_block` with a
  fresh, identically-seeded selector — so compressed bytes are bit-identical
  to the inline loop;
* compressed blocks are small by definition and pickle back, along with each
  worker's metrics snapshot and trace decisions for the parent to merge
  (counter and trace parity with the inline loop).

The pool itself is persistent: one :class:`ProcessPoolExecutor` (preferring
the ``fork`` start method) is kept warm and reused across calls
(``parallel.backend.process.pool_starts`` / ``pool_reuses``). A worker that
dies mid-task (kill -9, segfault, OOM) breaks the pool; that surfaces as the
typed :class:`~repro.exceptions.WorkerDiedError` after the broken pool is
discarded, and ``compress_relation`` reruns the call inline from the
untouched inputs. The segment is unlinked in a ``finally`` block, so success,
failure and KeyboardInterrupt all leave ``/dev/shm`` clean
(``parallel.shm.*`` counters account the lifecycle).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import signal
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.bitmap import RoaringBitmap
from repro.core.blocks import CompressedColumn, CompressedRelation
from repro.core.compressor import compress_chunk_block, iter_block_ranges
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import _EMPTY_DTYPES
from repro.core.relation import Relation
from repro.core.selector import SchemeSelector
from repro.exceptions import WorkerDiedError
from repro.observe import (
    MetricsRegistry,
    SelectionTrace,
    get_registry,
    get_trace,
    use_registry,
    use_trace,
)
from repro.types import Column, ColumnType, StringArray

__all__ = [
    "available",
    "collect_futures",
    "compress_relation_process",
    "shutdown_pool",
    "start_method",
]


# -- test hooks ----------------------------------------------------------------

#: When set to a stage name ("fetch-handoff" / "mid-compress" / "pre-assemble"),
#: the first worker task reaching that stage SIGKILLs its own process — the
#: worker-death matrix's injection point. Inherited by fork-started workers,
#: so tests must set it *before* the pool forks (shutdown_pool() first).
_TEST_KILL: "str | None" = None

#: When set to N, the parent raises KeyboardInterrupt after submitting N
#: tasks — the Ctrl-C leg of the segment-leak matrix.
_TEST_INTERRUPT_AFTER_SUBMITS: "int | None" = None


def _maybe_kill(stage: str) -> None:
    if _TEST_KILL == stage:
        os.kill(os.getpid(), signal.SIGKILL)


def _maybe_interrupt(submitted: int) -> None:
    if _TEST_INTERRUPT_AFTER_SUBMITS is not None and submitted >= _TEST_INTERRUPT_AFTER_SUBMITS:
        raise KeyboardInterrupt("injected interrupt (test hook)")


# -- shared-memory segments ----------------------------------------------------

_SEGMENT_COUNTER = itertools.count()
#: Names of segments this process created and has not yet unlinked — the
#: leak-check surface for tests (must be empty after every call).
_ACTIVE_SEGMENTS: "set[str]" = set()


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create one named segment, counted under ``parallel.shm.*``."""
    while True:
        name = f"btrb-{os.getpid()}-{next(_SEGMENT_COUNTER)}"
        try:
            seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
            break
        except FileExistsError:  # stale segment from a recycled pid
            continue
    _ACTIVE_SEGMENTS.add(seg.name)
    get_registry().incr_many(
        [("parallel.shm.segments", 1), ("parallel.shm.bytes", max(1, nbytes))]
    )
    return seg


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    """Close + unlink, tolerating both double-release and exported views.

    Unlink is the anti-leak operation (it removes the ``/dev/shm`` entry);
    a close that fails because some NumPy view is still alive only delays
    unmapping until garbage collection and must not mask the unlink.
    """
    try:
        seg.close()
    except BufferError:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    if seg.name in _ACTIVE_SEGMENTS:
        _ACTIVE_SEGMENTS.discard(seg.name)
        get_registry().incr("parallel.shm.unlinked")


_worker_tracking_off = False


def _disable_worker_shm_tracking() -> None:
    """Stop this *worker* process registering attached segments.

    Python < 3.13 registers even attachments with the resource tracker
    (``SharedMemory(track=False)`` only exists from 3.13). Under ``fork``
    the tracker process is shared with the parent, so a worker-side
    register/unregister pair would tamper with the parent's own
    registration and the parent's eventual unlink would be double-counted.
    The parent owns every segment's lifecycle, so workers simply skip
    shared-memory tracking; other resource types are untouched.
    """
    global _worker_tracking_off
    if _worker_tracking_off:
        return
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    _worker_tracking_off = True


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach to a parent-owned segment (untracked)."""
    _disable_worker_shm_tracking()
    return shared_memory.SharedMemory(name=name)


def _close_quiet(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except BufferError:  # a transient view still alive; freed with the worker
        pass


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


# -- the persistent pool -------------------------------------------------------

_pool: "ProcessPoolExecutor | None" = None
_pool_workers = 0


def start_method() -> "str | None":
    """The multiprocessing start method the pool uses (prefer ``fork``)."""
    methods = mp.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    return methods[0] if methods else None


def available() -> bool:
    """Whether a process pool can run on this platform at all."""
    return start_method() is not None


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, started lazily and kept warm across calls.

    A pool is reused while the requested worker count matches; asking for a
    different count (or a prior worker death) starts a fresh one.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers == workers:
        get_registry().incr("parallel.backend.process.pool_reuses")
        return _pool
    shutdown_pool()
    method = start_method()
    if method is None:
        raise WorkerDiedError("no multiprocessing start method available")
    _pool = ProcessPoolExecutor(max_workers=workers, mp_context=mp.get_context(method))
    _pool_workers = workers
    get_registry().incr("parallel.backend.process.pool_starts")
    return _pool


def shutdown_pool() -> None:
    """Discard the shared pool (worker death, tests, worker-count change)."""
    global _pool, _pool_workers
    if _pool is not None:
        pool, _pool, _pool_workers = _pool, None, 0
        pool.shutdown(wait=True, cancel_futures=True)


def collect_futures(futures: "Sequence[Future]") -> list:
    """Collect futures in submission order with deterministic errors.

    On failure, pending futures are cancelled, everything still running is
    drained (so no task can keep reading a segment after this returns), and
    the error of the *lowest-index* task is raised — always the same
    exception for the same failing inputs, regardless of scheduling.
    """
    if not futures:
        return []
    done, pending = wait(futures, return_when=FIRST_EXCEPTION)
    if any(not f.cancelled() and f.exception() is not None for f in done):
        for future in pending:
            future.cancel()
    first_error: "BaseException | None" = None
    for future in futures:  # submission order; .exception() drains running tasks
        if future.cancelled():
            continue
        error = future.exception()
        if error is not None and first_error is None:
            first_error = error
    if first_error is not None:
        raise first_error
    return [future.result() for future in futures]


def _dispatch(job, tasks, workers: int) -> list:
    """Submit every block task to the pool and collect results deterministically.

    Errors follow :func:`collect_futures`; a broken pool (worker killed
    mid-task) becomes the typed :class:`WorkerDiedError` after the pool is
    discarded so the next call starts clean.
    """
    registry = get_registry()
    try:
        pool = get_pool(workers)
        futures = []
        for task in tasks:
            futures.append(pool.submit(_compress_task, job, task))
            _maybe_interrupt(len(futures))
        registry.incr("parallel.backend.process.tasks", len(futures))
        return collect_futures(futures)
    except BrokenProcessPool as exc:
        shutdown_pool()
        registry.incr("parallel.backend.process.worker_deaths")
        raise WorkerDiedError(
            "a process-pool worker died mid-task; pool discarded"
        ) from exc


# -- compression ---------------------------------------------------------------

def _compress_task(job, task):
    """Worker: rebuild one block chunk from shared memory and compress it.

    Runs under a fresh registry + trace and ships their contents back with
    the block, so the parent can merge them — counter and trace totals then
    match the inline loop, which records into the caller's registry directly.
    """
    seg_name, config, descs = job
    index, col_idx, block_index, start, stop = task
    name, ctype, rows, data_off, aux_off, nulls_off, nulls_len = descs[col_idx]
    seg = _attach_segment(seg_name)
    try:
        _maybe_kill("fetch-handoff")
        if ctype is ColumnType.STRING:
            offsets_full = np.frombuffer(
                seg.buf, dtype=np.int64, count=rows + 1, offset=aux_off
            )
            base = int(offsets_full[start])
            sub_offsets = offsets_full[start : stop + 1] - base  # copies
            str_bytes = int(offsets_full[stop]) - base
            buffer = np.frombuffer(
                seg.buf, dtype=np.uint8, count=str_bytes, offset=data_off + base
            ).copy()
            del offsets_full
            values: "np.ndarray | StringArray" = StringArray(buffer, sub_offsets)
        else:
            dtype = _EMPTY_DTYPES[ctype]
            values = np.frombuffer(
                seg.buf,
                dtype=dtype,
                count=stop - start,
                offset=data_off + start * np.dtype(dtype).itemsize,
            ).copy()
        nulls = None
        if nulls_len:
            positions = RoaringBitmap.deserialize(
                bytes(seg.buf[nulls_off : nulls_off + nulls_len])
            ).to_array()
            inside = positions[(positions >= start) & (positions < stop)]
            if inside.size:
                nulls = RoaringBitmap.from_positions(inside - start)
    finally:
        _close_quiet(seg)
    chunk = Column(name, ctype, values, nulls)
    registry = MetricsRegistry()
    trace = SelectionTrace()
    with use_registry(registry), use_trace(trace):
        _maybe_kill("mid-compress")
        selector = SchemeSelector(config)
        block = compress_chunk_block(chunk, block_index, selector)
    _maybe_kill("pre-assemble")
    return index, block, registry.snapshot(), trace.decisions()


def compress_relation_process(
    relation: Relation, config: "BtrBlocksConfig | None", workers: int
) -> CompressedRelation:
    """Compress a relation on a pool of ``workers`` processes.

    Every block task builds a fresh, identically-seeded selector from the
    pickled config, exactly like the inline loop — compressed bytes are a
    pure function of ``(column, block index, config, seed)``, so output is
    bit-identical. Raises :class:`WorkerDiedError` on a killed worker
    (inputs are untouched, nothing is torn).
    """
    config = config or BtrBlocksConfig()
    total = 0
    layouts = []
    for column in relation.columns:
        nulls_bytes = column.nulls.serialize() if column.nulls is not None else b""
        if column.ctype is ColumnType.STRING:
            data_nbytes = int(column.data.buffer.nbytes)
            aux_nbytes = int(column.data.offsets.nbytes)
        else:
            data_nbytes = int(column.data.nbytes)
            aux_nbytes = 0
        data_off = total
        total = _align(total + data_nbytes)
        aux_off = total
        total = _align(total + aux_nbytes)
        nulls_off = total
        total = _align(total + len(nulls_bytes))
        layouts.append((data_off, aux_off, nulls_off, nulls_bytes))

    registry = get_registry()
    registry.incr("parallel.backend.process.runs")
    seg = _create_segment(total)
    try:
        descs = []
        for column, (data_off, aux_off, nulls_off, nulls_bytes) in zip(
            relation.columns, layouts
        ):
            if column.ctype is ColumnType.STRING:
                buffer, offsets = column.data.buffer, column.data.offsets
                np.frombuffer(
                    seg.buf, dtype=np.uint8, count=buffer.size, offset=data_off
                )[:] = buffer
                np.frombuffer(
                    seg.buf, dtype=np.int64, count=offsets.size, offset=aux_off
                )[:] = offsets
            else:
                np.frombuffer(
                    seg.buf, dtype=column.data.dtype, count=len(column), offset=data_off
                )[:] = column.data
            if nulls_bytes:
                seg.buf[nulls_off : nulls_off + len(nulls_bytes)] = nulls_bytes
            descs.append(
                (
                    column.name,
                    column.ctype,
                    len(column),
                    data_off,
                    aux_off,
                    nulls_off,
                    len(nulls_bytes),
                )
            )
        tasks = []
        for col_idx, column in enumerate(relation.columns):
            for block_index, start, stop in iter_block_ranges(
                len(column), config.block_size
            ):
                tasks.append((len(tasks), col_idx, block_index, start, stop))
        job = (seg.name, config, descs)
        results = _dispatch(job, tasks, workers)
    finally:
        _release_segment(seg)

    trace = get_trace()
    columns = [CompressedColumn(c.name, c.ctype) for c in relation.columns]
    for task, (_, block, snapshot, decisions) in zip(tasks, results):
        columns[task[1]].blocks.append(block)
        registry.merge_snapshot(snapshot)
        for decision in decisions:
            trace.record(decision)
    registry.incr("compress.columns", len(relation.columns))
    return CompressedRelation(relation.name, columns)
