"""Unified telemetry: metrics registry, tracing spans, lifecycle events.

The observability layer the campaign stack reports through:

* :mod:`repro.obs.metrics` -- process-global thread-safe
  :class:`MetricsRegistry` (counters/gauges/histograms) with a JSON
  exporter and a ``REPRO_METRICS`` dump-on-exit;
* :mod:`repro.obs.trace` -- nestable :func:`span` context managers and
  :func:`emit_event`, recording to an in-memory ring and, with
  ``REPRO_TRACE`` set, a JSON-lines file safe across processes;
* :mod:`repro.obs.events` -- the campaign lifecycle vocabulary (shard
  submitted/started/completed/merged, checkpoint written/resumed,
  store corruption, campaign completed) every subsystem emits through;
* :mod:`repro.obs.report` -- ``python -m repro.obs.report trace.jsonl``
  reconstructs campaign throughput, shard balance, store hit rate and
  per-backend kernel time from a trace alone.

Instrumentation is passive: enabling it never changes campaign results
(bit-identity is tested) and the always-on cost is bench-gated under
5% (``benchmarks/bench_obs.py``).
"""

from .metrics import (
    METRICS_ENV,
    MetricsRegistry,
    get_counter,
    inc,
    kernel_profiling_enabled,
    observe,
    registry,
    set_gauge,
    set_kernel_profiling,
)
from .trace import (
    RING_CAPACITY,
    TRACE_ENV,
    clear_ring,
    current_span,
    emit_event,
    read_trace,
    ring_records,
    span,
    tracing_to_file,
)
from .events import EVENT_NAMES, emit


def __getattr__(name: str):
    # report is imported lazily so ``python -m repro.obs.report`` does
    # not find the module pre-imported by its own package (runpy warns).
    if name in ("live_summary", "summarize", "report"):
        import importlib

        module = importlib.import_module(".report", __name__)
        if name == "report":
            return module
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EVENT_NAMES",
    "METRICS_ENV",
    "MetricsRegistry",
    "RING_CAPACITY",
    "TRACE_ENV",
    "clear_ring",
    "current_span",
    "emit",
    "emit_event",
    "get_counter",
    "inc",
    "kernel_profiling_enabled",
    "live_summary",
    "observe",
    "read_trace",
    "registry",
    "ring_records",
    "set_gauge",
    "set_kernel_profiling",
    "span",
    "summarize",
    "tracing_to_file",
]
