"""Process-pool sharding for the Table 1/2 coverage sweeps.

Fault cases are embarrassingly parallel: each one is classified against
the same golden behaviour, so a coverage sweep
(:mod:`repro.coverage.engine`) can be split into contiguous fault-case
shards (:func:`shard_bounds`), evaluated in worker processes, and
merged back by concatenating the per-case counts in shard order.
Because every shard computes exact integer counts and the merge is
order-preserving, results are bit-identical for any worker count --
the invariance property ``tests/test_table2_exact.py`` asserts.

Only those sweeps use the pool; it pays off on the Table 1 ``mul`` and
``div`` sweeps.  Stuck-at campaigns and fault dictionaries run in the
calling process, where a per-call pool measured slower or no faster.

Workers are plain module-level functions taking picklable arguments
(operator names, widths, case ranges) and rebuilding netlists and
engines locally; on fork-based platforms they inherit the parent's warm
caches for free.  Workers run the library's one execution backend
(:mod:`repro.gates.backends`) and start without the parent's ``fused``
workspace.
"""

from __future__ import annotations

import numbers
import os
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.obs import events, metrics

#: Below this much total work (items x per-item cost) the pool overhead
#: outweighs any parallel gain and auto-selection stays single-process.
DEFAULT_SHARD_THRESHOLD = 1 << 24

#: Upper bound on auto-selected workers; explicit ``workers=`` may exceed it.
MAX_AUTO_WORKERS = 8


def resolve_workers(
    workers: Optional[int], n_items: int, cost: Optional[int] = None
) -> int:
    """Decide the process count for a coverage sweep.

    ``workers=None`` selects automatically: multiple processes only when
    the machine has spare cores and the estimated ``cost`` (e.g.
    ``n_cases * n_vectors``) crosses :data:`DEFAULT_SHARD_THRESHOLD`.
    An explicit ``workers`` value must be a positive integer and is
    honoured as given, which is what the shard-invariance tests use to
    force a pool on any machine; anything else (``0``, ``-3``, ``2.5``,
    ``True``) raises :class:`~repro.errors.SimulationError`.
    """
    if workers is not None:
        bad_type = isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
        if bad_type or workers < 1:
            raise SimulationError(
                f"workers= must be a positive integer or None, got {workers!r}"
            )
        return int(workers)
    cpus = os.cpu_count() or 1
    if cpus <= 1 or n_items < 2:
        return 1
    if cost is not None and cost < DEFAULT_SHARD_THRESHOLD:
        return 1
    return min(cpus, MAX_AUTO_WORKERS, n_items)


def shard_bounds(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced ``[lo, hi)`` ranges covering ``n_items``.

    Shard sizes differ by at most one; empty shards are dropped, so the
    concatenation of shard results always reproduces the unsharded
    order exactly.
    """
    n_shards = max(1, min(n_shards, n_items)) if n_items else 1
    base, extra = divmod(n_items, n_shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for shard in range(n_shards):
        hi = lo + base + (1 if shard < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


def _instrumented_shard(
    worker: Callable[..., Any], index: int, args: Tuple[Any, ...]
) -> Tuple[Any, float, int, List[Any]]:
    """Evaluate one shard in a worker process, piggybacking telemetry.

    Returns ``(result, seconds, worker_pid, metrics_raw)`` -- the
    results-queue side channel that carries per-shard wall time and the
    worker registry's series back to the parent.  Forked pool workers
    exit via ``os._exit``, so their dump-on-exit hooks never run; this
    return path is the only way their metrics survive.  The worker
    registry is drained after capture so a pool process that evaluates
    several shards reports per-shard deltas, not cumulative totals.
    """
    events.emit(events.SHARD_STARTED, shard=index, worker_pid=os.getpid())
    start = time.perf_counter()
    result = worker(*args)
    seconds = time.perf_counter() - start
    raw = metrics.registry().raw_series()
    metrics.registry().reset()
    return result, seconds, os.getpid(), raw


def run_sharded(
    worker: Callable[..., Any],
    arg_tuples: Sequence[Tuple[Any, ...]],
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run ``worker(*args)`` for each tuple, in order, across processes.

    One process per argument tuple (callers size the tuples via
    :func:`shard_bounds`); results are returned in submission order so
    merges are deterministic.  A single tuple short-circuits to an
    in-process call -- no pool, no pickling.

    ``on_result(index, result)``, when given, fires in the *parent*
    process as each shard completes -- in completion order, not
    submission order.  The checkpoint runtime uses it to land partial
    results in the store the moment they exist, so a sweep killed
    mid-pool keeps every finished shard.

    Every shard's lifecycle is emitted through :mod:`repro.obs.events`
    (submitted / completed / failed / merged, each counted in
    ``repro_events_total``; ``shard_started`` fires inside the worker
    process and reaches the parent trace only via a shared
    ``REPRO_TRACE`` file).  Per-shard wall seconds and worker-process
    metrics ride back on the results queue itself, so the telemetry
    spans the process boundary without any extra IPC; worker metrics
    are merged into the parent registry before the merged event fires.
    """
    n_shards = len(arg_tuples)
    if n_shards <= 1:
        results = []
        for index, args in enumerate(arg_tuples):
            events.emit(events.SHARD_SUBMITTED, shard=index, n_shards=n_shards)
            events.emit(events.SHARD_STARTED, shard=index, worker_pid=os.getpid())
            start = time.perf_counter()
            result = worker(*args)
            events.emit(
                events.SHARD_COMPLETED, shard=index, worker_pid=os.getpid(),
                seconds=time.perf_counter() - start,
            )
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        events.emit(events.SHARDS_MERGED, n_shards=n_shards)
        return results
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=n_shards) as pool:
        futures = {}
        for index, args in enumerate(arg_tuples):
            futures[pool.submit(_instrumented_shard, worker, index, args)] = index
            events.emit(events.SHARD_SUBMITTED, shard=index, n_shards=n_shards)
        results: List[Any] = [None] * n_shards
        for future in as_completed(futures):
            index = futures[future]
            try:
                result, seconds, worker_pid, raw = future.result()
            except BaseException as exc:
                events.emit(events.SHARD_FAILED, shard=index, error=type(exc).__name__)
                raise
            metrics.registry().merge_raw(raw)
            events.emit(
                events.SHARD_COMPLETED, shard=index, worker_pid=worker_pid,
                seconds=seconds,
            )
            if on_result is not None:
                on_result(index, result)
            results[index] = result
        events.emit(events.SHARDS_MERGED, n_shards=n_shards)
        return results
