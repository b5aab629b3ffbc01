"""Observability end to end: trace a coverage sweep, then report on it.

The walk-through:

1. run the n = 4 adder's Table 2 gate sweep untraced -- the reference
   result;
2. point ``REPRO_TRACE`` at a JSON-lines file and re-run the same sweep
   through a result store -- every span (``coverage_evaluate`` and the
   engine spans below it) lands in the trace, and kernel profiling
   switches on; the sweep runs whole and writes one ``coverage`` entry;
3. assert the traced run is **bit-identical** to the untraced one --
   telemetry is passive by contract (`benchmarks/bench_obs.py` gates
   its overhead under 5%);
4. rebuild the sweep's story from the trace alone with
   :func:`repro.obs.report.summarize` -- span durations, with no shard
   loop to report -- and overlay the live registry for
   store hit rate and per-backend kernel time, exactly what
   ``python -m repro.obs.report trace.jsonl --metrics dump.jsonl``
   renders post-hoc.

Stuck-at campaigns trace the same way; everything runs in the calling
process.

Run:  PYTHONPATH=src python examples/traced_campaign.py
"""

import os
import sys
import tempfile

from repro.coverage.engine import evaluate_adder
from repro.obs import metrics, read_trace, registry, trace
from repro.obs.report import kernel_summary, render, store_summary, summarize
from repro.store import ResultStore

WIDTH = 4


def main() -> None:
    # 1. Untraced reference.
    os.environ.pop(trace.TRACE_ENV, None)
    reference = evaluate_adder(WIDTH, method="gate", store=False)

    # 2. The same sweep, fully instrumented.
    trace_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-trace-"), "trace.jsonl"
    )
    store = ResultStore(tempfile.mkdtemp(prefix="repro-store-"))
    os.environ[trace.TRACE_ENV] = trace_path
    try:
        traced = evaluate_adder(WIDTH, method="gate", store=store)
    finally:
        os.environ.pop(trace.TRACE_ENV, None)

    # 3. Telemetry is passive: results are bit-identical.
    assert traced == reference
    print(f"traced sweep bit-identical to untraced ({trace_path})")

    # 4. Reconstruct the sweep from the trace, then overlay the live
    # registry (post-hoc the final metrics record and a REPRO_METRICS
    # dump serve the same role via ``--metrics``).
    records = read_trace(trace_path)
    assert any(r.get("name") == "coverage_evaluate" for r in records)
    summary = summarize(records)
    snapshot = registry().snapshot()
    summary["store"] = store_summary(snapshot)
    summary["kernels"] = kernel_summary(snapshot)

    assert summary["shards"] is None
    # The registry is process-global; the store's own stats count only
    # this sweep's writes: its one coverage entry.
    assert store.stats.snapshot()["puts"] == 1
    if metrics.METRICS_ENV not in os.environ:
        # Kernel profiling rides the env gates: off again once unset.
        assert metrics.kernel_profiling_enabled() is False

    print()
    render(summary, sys.stdout)


if __name__ == "__main__":
    main()
