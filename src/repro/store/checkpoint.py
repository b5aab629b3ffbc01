"""Checkpointed, resumable shard execution.

:func:`run_checkpointed` is the bridge between the shard runner
(:func:`repro.faults.sharding.run_sharded`) and the result store: every
shard's partial result lands in the store *as it completes*, keyed by
the coverage sweep's final :class:`~repro.store.hashing.CacheKey`
scoped to the shard's span (``key.with_shard(lo, hi)``).  A re-run of
the same sweep -- after a crash, a kill, or on another day -- loads every
finished shard from the store and executes only the missing ones; the
caller's order-preserving merge then reproduces the uninterrupted
result bit-identically, because loaded and freshly computed shards are
exact round-trips of each other.

For tests, :func:`shard_hook` installs a callable fired *before* each
shard executes.  While a hook is installed, execution is sequential and
in-process, so a hook that raises after ``k`` shards simulates a crash
that leaves exactly ``k`` checkpoints behind -- the crash/replay suite
(``tests/test_store_resume.py``) is built on this.  Every run records a
:class:`CheckpointReport` retrievable via :func:`last_checkpoint_report`
stating how many shards loaded versus executed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import events
from repro.store.hashing import CacheKey
from repro.store.store import ResultStore

#: Test-only pre-shard callable; forces sequential in-process execution.
_SHARD_HOOK: Optional[Callable[[int], None]] = None

_LAST_REPORT: Optional["CheckpointReport"] = None


@dataclass(frozen=True)
class CheckpointReport:
    """What one checkpointed run did: ``loaded`` shards came from the
    store, ``executed`` shards ran; ``loaded + executed == total``."""

    total: int
    loaded: int
    executed: int


def last_checkpoint_report() -> Optional[CheckpointReport]:
    """The report of the most recent completed :func:`run_checkpointed`
    call in this process (``None`` before the first)."""
    return _LAST_REPORT


@contextmanager
def shard_hook(hook: Optional[Callable[[int], None]]):
    """Install ``hook(shard_index)`` to fire before each shard executes.

    Execution becomes sequential and in-process for the duration, so a
    raising hook leaves all previously completed shards checkpointed --
    the crash simulation of the replay test suite.
    """
    global _SHARD_HOOK
    previous = _SHARD_HOOK
    _SHARD_HOOK = hook
    try:
        yield
    finally:
        _SHARD_HOOK = previous


def run_checkpointed(
    worker: Callable[..., Any],
    arg_tuples: Sequence[Tuple[Any, ...]],
    keys: Sequence[CacheKey],
    store: Optional[ResultStore],
    provenance: Optional[dict] = None,
) -> List[Any]:
    """Run ``worker(*args)`` per tuple with per-shard store checkpoints.

    ``keys[i]`` addresses shard ``i``'s partial result.  Shards already
    in the store load instead of executing; missing shards run (pooled,
    unless a :func:`shard_hook` is installed) and are stored the moment
    they complete.  Results return in submission order, so the caller's
    merge is identical to an unsharded :func:`run_sharded` merge.

    With ``store=None`` this degrades to plain :func:`run_sharded`.
    """
    global _LAST_REPORT
    total = len(arg_tuples)
    if len(keys) != total:
        raise ValueError(f"{len(keys)} keys for {total} shards")
    if store is None:
        results = run_sharded_compat(worker, list(arg_tuples))
        _LAST_REPORT = CheckpointReport(total=total, loaded=0, executed=total)
        return results

    results: List[Any] = [None] * total
    missing: List[int] = []
    for index, key in enumerate(keys):
        value = store.get(key)
        if value is None:
            missing.append(index)
        else:
            results[index] = value
            events.emit(
                events.CHECKPOINT_RESUMED, shard=index, n_shards=total
            )

    if missing:
        if _SHARD_HOOK is not None:
            for index in missing:
                _SHARD_HOOK(index)
                result = worker(*arg_tuples[index])
                store.put(keys[index], result, provenance)
                events.emit(
                    events.CHECKPOINT_WRITTEN, shard=index, n_shards=total
                )
                results[index] = result
        else:
            sub_tuples = [arg_tuples[index] for index in missing]

            def land(position: int, result: Any) -> None:
                store.put(keys[missing[position]], result, provenance)
                events.emit(
                    events.CHECKPOINT_WRITTEN,
                    shard=missing[position],
                    n_shards=total,
                )

            sub_results = run_sharded_compat(worker, sub_tuples, on_result=land)
            for position, index in enumerate(missing):
                results[index] = sub_results[position]

    _LAST_REPORT = CheckpointReport(
        total=total, loaded=total - len(missing), executed=len(missing)
    )
    return results


def run_sharded_compat(worker, arg_tuples, on_result=None):
    """Late import of the shard runner (faults imports the store, so a
    module-level import here would cycle)."""
    from repro.faults.sharding import run_sharded

    if _SHARD_HOOK is not None:
        results = []
        for index, args in enumerate(arg_tuples):
            _SHARD_HOOK(index)
            result = worker(*args)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    return run_sharded(worker, arg_tuples, on_result=on_result)


__all__ = [
    "CheckpointReport",
    "last_checkpoint_report",
    "run_checkpointed",
    "shard_hook",
]
