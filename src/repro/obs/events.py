"""Campaign lifecycle events: one vocabulary, two sinks.

Every named event goes through :func:`emit`, which fans out to both
telemetry sinks at once: the ``repro_events_total{event=...}`` counter
in the metrics registry, and a trace event record (ring buffer and,
with ``REPRO_TRACE`` set, the JSON-lines file).  Emitting sites across
the stack import only this module, so the taxonomy lives in one place:

=====================  ==============================================
event                  emitted by
=====================  ==============================================
``shard_submitted``    :func:`repro.faults.sharding.run_sharded`, one
                       per case span it is handed
``shard_started``      ditto, with the running pid
``shard_completed``    ditto, with the span's wall seconds
``shard_failed``       ditto, when the span's worker raised
``shards_merged``      ditto, once after the ordered merge
``checkpoint_written`` :func:`repro.store.checkpoint.run_checkpointed`
                       after landing a shard artifact in the store
``checkpoint_resumed`` ditto, when a shard is served from the store
                       instead of recomputed
``store_corrupt``      :class:`repro.store.store.ResultStore` on
                       detect-discard-recompute of a bad artifact
``campaign_completed`` :meth:`repro.gates.engine.BitParallelEngine.
                       campaign` with fault/vector/run totals
=====================  ==============================================

The balance invariant CI asserts: in any complete trace, the number of
``shard_submitted`` events equals ``shard_completed`` plus
``shard_failed``, and every ``shards_merged`` record's ``n_shards``
matches its campaign's submissions.
"""

from __future__ import annotations

from typing import Any

from . import metrics, trace

SHARD_SUBMITTED = "shard_submitted"
SHARD_STARTED = "shard_started"
SHARD_COMPLETED = "shard_completed"
SHARD_FAILED = "shard_failed"
SHARDS_MERGED = "shards_merged"
CHECKPOINT_WRITTEN = "checkpoint_written"
CHECKPOINT_RESUMED = "checkpoint_resumed"
STORE_CORRUPT = "store_corrupt"
CAMPAIGN_COMPLETED = "campaign_completed"
INCREMENTAL_CAMPAIGN = "incremental_campaign"

#: Every name :func:`emit` is expected to be called with.
EVENT_NAMES = (
    SHARD_SUBMITTED,
    SHARD_STARTED,
    SHARD_COMPLETED,
    SHARD_FAILED,
    SHARDS_MERGED,
    CHECKPOINT_WRITTEN,
    CHECKPOINT_RESUMED,
    STORE_CORRUPT,
    CAMPAIGN_COMPLETED,
    INCREMENTAL_CAMPAIGN,
)


# Pre-resolved per-event counter handles: emit runs once per campaign,
# so the label resolution is hoisted out of the hot path (the
# handles stay valid across registry resets -- see CounterHandle).
_HANDLES: dict = {}


def emit(name: str, **fields: Any) -> None:
    """Record one lifecycle event in both the registry and the trace."""
    handle = _HANDLES.get(name)
    if handle is None:
        handle = _HANDLES[name] = metrics.counter_handle(
            "repro_events_total", event=name
        )
    handle.inc()
    trace.emit_event(name, **fields)


__all__ = [
    "CAMPAIGN_COMPLETED",
    "CHECKPOINT_RESUMED",
    "CHECKPOINT_WRITTEN",
    "EVENT_NAMES",
    "INCREMENTAL_CAMPAIGN",
    "SHARDS_MERGED",
    "SHARD_COMPLETED",
    "SHARD_FAILED",
    "SHARD_STARTED",
    "SHARD_SUBMITTED",
    "STORE_CORRUPT",
    "emit",
]
