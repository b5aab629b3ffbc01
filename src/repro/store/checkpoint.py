"""Checkpointed, resumable shard execution.

:func:`run_checkpointed` is the bridge between the shard loop
(:func:`repro.faults.sharding.run_sharded`) and the result store: every
shard's partial result lands in the store *as it completes*, under the
caller's key for that span (typically a final key scoped with
``key.with_shard(lo, hi)``).  A re-run of the same spans -- after a
crash, a kill, or on another day -- loads every finished shard from the
store and executes only the missing ones; the caller's order-preserving
merge then reproduces the uninterrupted result bit-identically, because
loaded and freshly computed shards are exact round-trips of each other.
With ``store=None`` the same entry simply runs every shard.

No library code calls it any more: the Table 1/2 coverage evaluations
run whole and write one entry each (:mod:`repro.coverage.engine`).  The
module stays while ``perfbench/tracer.py`` wraps :func:`run_checkpointed`
by name; it goes together with that wrapper.

For tests, :func:`shard_hook` installs a callable fired *before* each
shard executes, so a hook that raises after ``k`` shards simulates a
crash that leaves exactly ``k`` checkpoints behind.  Every run records
a :class:`CheckpointReport` retrievable via
:func:`last_checkpoint_report` stating how many shards loaded versus
executed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import events
from repro.store.hashing import CacheKey
from repro.store.store import ResultStore

#: Test-only callable fired before each shard executes.
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

    Shards run in order, so a raising hook leaves all previously
    completed shards checkpointed -- the crash simulation of the replay
    test suite.
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
    keys: Optional[Sequence[CacheKey]],
    store: Optional[ResultStore],
    provenance: Optional[dict] = None,
) -> List[Any]:
    """Run ``worker(*args)`` per tuple with per-shard store checkpoints.

    ``keys[i]`` addresses shard ``i``'s partial result.  Shards already
    in the store load instead of executing; missing shards run in order
    through :func:`~repro.faults.sharding.run_sharded` and are stored
    the moment they complete.  Results return in submission order, so
    the caller's merge is identical to an unsharded merge.

    With ``store=None`` nothing loads or lands and ``keys`` may be
    ``None``: every shard runs.
    """
    # Late import: repro.faults imports the store, so a module-level
    # import here would cycle.
    from repro.faults.sharding import run_sharded

    global _LAST_REPORT
    total = len(arg_tuples)
    if store is not None and (keys is None or len(keys) != total):
        raise ValueError(f"a store needs one key per shard ({total})")
    results: List[Any] = [None] * total
    missing: List[int] = []
    for index in range(total):
        value = None if store is None else store.get(keys[index])  # type: ignore[index]
        if value is None:
            missing.append(index)
        else:
            results[index] = value
            events.emit(events.CHECKPOINT_RESUMED, shard=index, n_shards=total)

    def land(position: int, result: Any) -> None:
        index = missing[position]
        results[index] = result
        if store is not None:
            store.put(keys[index], result, provenance)  # type: ignore[index]
            events.emit(events.CHECKPOINT_WRITTEN, shard=index, n_shards=total)

    def run(index: int) -> Any:
        if _SHARD_HOOK is not None:
            _SHARD_HOOK(index)
        return worker(*arg_tuples[index])

    if missing:
        run_sharded(run, [(index,) for index in missing], on_result=land)

    _LAST_REPORT = CheckpointReport(
        total=total, loaded=total - len(missing), executed=len(missing)
    )
    return results


__all__ = [
    "CheckpointReport",
    "last_checkpoint_report",
    "run_checkpointed",
    "shard_hook",
]
