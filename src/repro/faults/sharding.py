"""The shard loop of the Table 1/2 coverage sweeps.

A coverage sweep (:mod:`repro.coverage.engine`) computes exact integer
counts per fault case, so its case range can be cut into contiguous
spans and the per-span results concatenated in span order with a
result bit-identical to one uncut run.  The sweeps run one span over
the whole collapsed case range in the calling process; the store's
checkpoint runtime (:func:`repro.store.run_checkpointed`) hands its
missing spans to :func:`run_sharded`, which evaluates them in order
and reports each one's lifecycle.

Nothing in the library starts a process pool: a 2-process pool over
the Table 1 ``mul`` n = 8 sweep saved 3.5% of wall time for 20% more
CPU, and forked workers could not reuse the sweep plans kept on the
calling process's engines.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import events


def run_sharded(
    worker: Callable[..., Any],
    arg_tuples: Sequence[Tuple[Any, ...]],
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run ``worker(*args)`` for each tuple, in order, in this process.

    Results return in submission order, so merges are deterministic.
    ``on_result(index, result)``, when given, fires as each shard
    completes; the checkpoint runtime uses it to land each partial
    result in the store the moment it exists.

    Every shard's lifecycle is emitted through :mod:`repro.obs.events`
    (submitted / started / completed or failed, then one merged event),
    each counted in ``repro_events_total``, so a trace balances
    ``submitted == completed + failed`` even when a worker raises.
    """
    n_shards = len(arg_tuples)
    results = []
    for index, args in enumerate(arg_tuples):
        events.emit(events.SHARD_SUBMITTED, shard=index, n_shards=n_shards)
        events.emit(events.SHARD_STARTED, shard=index, worker_pid=os.getpid())
        start = time.perf_counter()
        try:
            result = worker(*args)
        except BaseException as exc:
            events.emit(events.SHARD_FAILED, shard=index, error=type(exc).__name__)
            raise
        events.emit(
            events.SHARD_COMPLETED, shard=index, worker_pid=os.getpid(),
            seconds=time.perf_counter() - start,
        )
        if on_result is not None:
            on_result(index, result)
        results.append(result)
    events.emit(events.SHARDS_MERGED, n_shards=n_shards)
    return results
