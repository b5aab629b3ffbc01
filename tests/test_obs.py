"""The unified telemetry subsystem (:mod:`repro.obs`).

Covers the metrics registry (exact totals under a
multi-thread hammer and under concurrent kernel calls from plain
threads),
span nesting and ring-buffer overflow, kernel-profiling hooks (one
observation per top-level kernel call, gated off by default), the
campaign lifecycle events (shard balance, checkpoint resume/write,
store corruption), the bit-identity of traced vs untraced
campaigns, the exporters, the dump-on-exit file, and the report tool.
"""

import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.coverage.engine import evaluate_adder
from repro.faults.injector import run_sharded_stuck_at_campaign
from repro.faults.sharding import run_sharded
from repro.gates import builders
from repro.gates.backends.fused import FusedBackend
from repro.gates.backends.plan import OverridePlan
from repro.gates.compile import compile_netlist
from repro.gates.engine import exhaustive_word_range, run_stuck_at_campaign
from repro.gates.faults import default_fault_universe
from repro.obs import events, metrics, trace
from repro.obs import report as obs_report
from repro.obs.metrics import MetricsRegistry
from repro.store import CacheKey, ResultStore
from repro.store.checkpoint import run_checkpointed
from repro.store.store import StoreCorruptionWarning


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Isolate every test: fresh registry series, default-size ring."""
    metrics.registry().reset()
    trace.clear_ring(trace.RING_CAPACITY)
    yield
    metrics.set_kernel_profiling(None)
    metrics.registry().reset()
    trace.clear_ring(trace.RING_CAPACITY)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.inc("ops_total", tag="a")
    reg.inc("ops_total", 2.0, tag="a")
    reg.inc("ops_total", tag="b")
    reg.set_gauge("depth", 3, unit="rca")
    reg.set_gauge("depth", 7, unit="rca")
    for value in (0.001, 0.01, 5.0):
        reg.observe("lat_seconds", value)
    snap = reg.snapshot()
    assert snap["counters"]["ops_total{tag=a}"] == 3.0
    assert snap["counters"]["ops_total{tag=b}"] == 1.0
    assert snap["gauges"]["depth{unit=rca}"] == 7.0
    hist = snap["histograms"]["lat_seconds"]
    assert hist["count"] == 3
    assert hist["sum"] == pytest.approx(5.011)
    assert hist["min"] == pytest.approx(0.001)
    assert hist["max"] == pytest.approx(5.0)
    assert reg.get_counter("ops_total", tag="a") == 3.0
    assert reg.get_counter("missing") == 0.0
    assert reg.counter_total("ops_total") == 4.0


def test_thread_hammer_exact_totals():
    reg = MetricsRegistry()
    n_threads, n_incs = 16, 5000

    def hammer(tid):
        for i in range(n_incs):
            reg.inc("hammer_total", worker=tid % 4)
            reg.observe("hammer_seconds", 0.001)

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter_total("hammer_total") == n_threads * n_incs
    total = sum(
        h["count"] for k, h in reg.snapshot()["histograms"].items()
        if k.startswith("hammer_seconds")
    )
    assert total == n_threads * n_incs


def test_merge_raw_and_snapshot_roundtrip():
    reg = MetricsRegistry()
    reg.inc("a_total", 3, k="v")
    reg.observe("h_seconds", 0.5)
    raw = reg.raw_series()
    other = MetricsRegistry()
    other.merge_raw(raw)
    other.merge_raw(raw)
    assert other.get_counter("a_total", k="v") == 6.0
    hist = other.snapshot()["histograms"]["h_seconds"]
    assert hist["count"] == 2 and hist["sum"] == pytest.approx(1.0)
    # snapshot-form merge (the dump/report path)
    third = MetricsRegistry()
    metrics.merge_snapshot(third, reg.snapshot())
    assert third.get_counter("a_total", k="v") == 3.0


def test_exporters():
    reg = MetricsRegistry()
    reg.inc("x_total", tag="t")
    reg.observe("y_seconds", 0.25, backend="fused")
    decoded = json.loads(reg.to_json())
    assert decoded["counters"]["x_total{tag=t}"] == 1.0
    hist = decoded["histograms"]["y_seconds{backend=fused}"]
    assert hist["count"] == 1 and hist["sum"] == 0.25


def test_collector_gauges_surface_in_snapshot():
    reg = MetricsRegistry()
    reg.register_collector("probe", lambda: {"probe_gauge": 42.0})
    try:
        assert reg.snapshot()["gauges"]["probe_gauge"] == 42.0
    finally:
        reg.register_collector("probe", None)
    assert "probe_gauge" not in reg.snapshot()["gauges"]


# ----------------------------------------------------------------------
# Tracing spans and the ring
# ----------------------------------------------------------------------
def test_span_nesting_and_record_shape():
    with trace.span("outer", netlist="rca") as outer_id:
        assert trace.current_span() == outer_id
        with trace.span("inner") as inner_id:
            assert trace.current_span() == inner_id
            trace.emit_event("probe", k=1)
    assert trace.current_span() is None
    records = trace.ring_records()
    by_name = {r.get("name"): r for r in records}
    inner, outer = by_name["inner"], by_name["outer"]
    assert inner["parent"] == outer_id and outer["parent"] is None
    assert inner["span"] == inner_id
    # inner closes first, so it precedes outer in emission order
    assert records.index(inner) < records.index(outer)
    assert outer["dur"] >= inner["dur"] >= 0.0
    assert by_name["probe"]["span"] == inner_id
    assert by_name["probe"]["type"] == "event"
    assert outer["attrs"] == {"netlist": "rca"}
    assert outer["pid"] and outer["thread"]


def test_span_error_annotation():
    with pytest.raises(ValueError):
        with trace.span("doomed"):
            raise ValueError("boom")
    (record,) = trace.ring_records()
    assert record["error"] == "ValueError"


def test_ring_overflow_drops_oldest_and_counts():
    trace.clear_ring(8)
    assert trace.ring_capacity() == 8
    before = metrics.get_counter("repro_trace_ring_dropped_total")
    for i in range(20):
        trace.emit_event("tick", i=i)
    records = trace.ring_records()
    assert len(records) == 8
    assert [r["attrs"]["i"] for r in records] == list(range(12, 20))
    assert metrics.get_counter("repro_trace_ring_dropped_total") - before == 12


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"type": "event", "name": "ok"}\nnot json\n')
    with pytest.raises(ValueError, match="t.jsonl:2"):
        trace.read_trace(str(path))
    path.write_text('{"no_type": 1}\n')
    with pytest.raises(ValueError, match="not a trace record"):
        trace.read_trace(str(path))


# ----------------------------------------------------------------------
# Kernel profiling hooks
# ----------------------------------------------------------------------
def _rca_probe(width=8, n_words=512, n_faults=64):
    net = builders.ripple_carry_adder(width)
    compiled = compile_netlist(net)
    words = exhaustive_word_range(compiled.n_inputs, 0, n_words)
    faults = default_fault_universe(net)[:n_faults]
    return compiled, words, OverridePlan(compiled, [[f] for f in faults])


def test_kernel_profiling_off_by_default(monkeypatch):
    monkeypatch.delenv(metrics.METRICS_ENV, raising=False)
    monkeypatch.delenv(trace.TRACE_ENV, raising=False)
    assert not metrics.kernel_profiling_enabled()
    compiled, words, plan = _rca_probe()
    FusedBackend(compiled).run_detect(words, plan, plan.n_rows)
    assert metrics.registry().snapshot()["histograms"] == {}
    monkeypatch.setenv(trace.TRACE_ENV, "/dev/null")
    assert metrics.kernel_profiling_enabled()


def test_kernel_profiling_records_once_per_toplevel_call():
    metrics.set_kernel_profiling(True)
    compiled, words, plan = _rca_probe()
    be = FusedBackend(compiled)
    for _ in range(3):
        # run_detect delegates to run_matrix internally on some
        # backends; only the outermost call may record.
        be.run_detect(words, plan, plan.n_rows)
    hists = metrics.registry().snapshot()["histograms"]
    assert list(hists) == ["repro_kernel_seconds{backend=fused,kernel=run_detect}"]
    assert hists["repro_kernel_seconds{backend=fused,kernel=run_detect}"]["count"] == 3


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_threaded_tiles_hammer_counters(threads, monkeypatch):
    """Exact metric totals under real kernel concurrency: ``threads``
    plain threads each drive their own fused backend, and every kernel
    call increments counters from its thread; totals must match a
    lock-protected shadow count and results must stay bit-identical to
    a single-threaded call."""
    compiled, words, plan = _rca_probe()
    # Force profiling off for the reference call: the fused histogram
    # must stay empty even when REPRO_METRICS/REPRO_TRACE is exported
    # (the CI observability leg runs this suite fully instrumented).
    metrics.set_kernel_profiling(False)
    expected = FusedBackend(compiled).run_detect(words, plan, plan.n_rows)
    metrics.set_kernel_profiling(True)

    shadow = []
    shadow_lock = threading.Lock()
    original = FusedBackend.run_detect

    def counting(self, w, p, n):
        for _ in range(10):
            metrics.inc("tile_hammer_total", kernel="run_detect")
        with shadow_lock:
            shadow.append(threading.current_thread().name)
        return original(self, w, p, n)

    monkeypatch.setattr(FusedBackend, "run_detect", counting)
    n_calls = 4
    mismatches = []

    def worker():
        # The fused workspace is per thread: one backend per thread.
        be = FusedBackend(compiled)
        for _ in range(n_calls):
            got = be.run_detect(words, plan, plan.n_rows)
            if not np.array_equal(got, expected):
                mismatches.append(threading.current_thread().name)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
    try:
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in pool)
    assert not mismatches
    assert len(shadow) == threads * n_calls
    assert metrics.get_counter("tile_hammer_total", kernel="run_detect") == 10 * len(shadow)
    # Every top-level call records exactly one timing, whichever thread
    # made it.
    hists = metrics.registry().snapshot()["histograms"]
    key = "repro_kernel_seconds{backend=fused,kernel=run_detect}"
    assert hists[key]["count"] == threads * n_calls


# ----------------------------------------------------------------------
# Lifecycle events
# ----------------------------------------------------------------------
def _event_count(name):
    return metrics.get_counter("repro_events_total", event=name)


def test_run_sharded_emits_balanced_events():
    result = run_sharded(_square, [(3,), (4,), (5,)])
    assert result == [9, 16, 25]
    assert _event_count(events.SHARD_SUBMITTED) == 3
    assert _event_count(events.SHARD_COMPLETED) == 3
    assert _event_count(events.SHARDS_MERGED) == 1
    completed = [
        r["attrs"] for r in trace.ring_records()
        if r.get("name") == events.SHARD_COMPLETED
    ]
    assert {f["shard"] for f in completed} == {0, 1, 2}
    assert all(f["seconds"] >= 0.0 for f in completed)
    assert all(f["worker_pid"] for f in completed)


def _square(x):
    return x * x


def _boxed_square(x):
    return {"v": x * x}  # a shape the store's JSON codec accepts


def test_single_shard_path_emits_events_too():
    assert run_sharded(_square, [(6,)]) == [36]
    for name in (events.SHARD_SUBMITTED, events.SHARD_COMPLETED, events.SHARDS_MERGED):
        assert _event_count(name) == 1


def _inverse(x):
    return 1 / x


def test_failed_shard_keeps_events_balanced():
    with pytest.raises(ZeroDivisionError):
        run_sharded(_inverse, [(1,), (0,), (2,)])
    assert _event_count(events.SHARD_SUBMITTED) == 2
    assert _event_count(events.SHARD_COMPLETED) == 1
    assert _event_count(events.SHARD_FAILED) == 1
    assert _event_count(events.SHARDS_MERGED) == 0


def test_checkpoint_events(tmp_path):
    store = ResultStore(tmp_path)
    keys = [
        CacheKey(kind="test", netlist="n", universe="u", space="s",
                 method="m", params=str(i))
        for i in range(3)
    ]
    run_checkpointed(_boxed_square, [(1,), (2,), (3,)], keys, store)
    assert metrics.get_counter("repro_events_total", event=events.CHECKPOINT_WRITTEN) == 3
    again = run_checkpointed(_boxed_square, [(1,), (2,), (3,)], keys, store)
    assert again == [{"v": 1}, {"v": 4}, {"v": 9}]
    assert metrics.get_counter("repro_events_total", event=events.CHECKPOINT_RESUMED) == 3


def test_store_corruption_counted_and_traced(tmp_path):
    store = ResultStore(tmp_path, lru_size=0)  # force the disk read path
    key = CacheKey(kind="campaign", netlist="n", universe="u", space="s",
                   method="m", params="p")
    store.put(key, np.arange(4))
    npz_path, _ = store.paths(key)
    with open(npz_path, "wb") as handle:
        handle.write(b"garbage")
    with pytest.warns(StoreCorruptionWarning):
        assert store.get(key) is None
    assert metrics.get_counter("repro_store_corrupt_total", kind="campaign") == 1.0
    corrupt = [
        r for r in trace.ring_records() if r.get("name") == events.STORE_CORRUPT
    ]
    assert len(corrupt) == 1
    assert corrupt[0]["attrs"]["kind"] == "campaign"
    assert corrupt[0]["attrs"]["digest"] == key.digest[:12]


def test_store_stats_surface_as_gauges(tmp_path):
    from repro.store import open_store

    store = open_store(tmp_path)
    key = CacheKey(kind="probe", netlist="n", universe="u", space="s",
                   method="m", params="p")
    store.put(key, {"v": 7})
    assert store.get(key) == {"v": 7}
    gauges = metrics.registry().snapshot()["gauges"]
    assert gauges["repro_store_open"] >= 1.0
    assert gauges["repro_store_stats_puts"] >= 1.0
    assert gauges["repro_store_stats_hits"] >= 1.0


# ----------------------------------------------------------------------
# Campaign bit-identity and trace integrity
# ----------------------------------------------------------------------
def test_unopenable_trace_path_warns_once_and_stops_retrying(tmp_path, monkeypatch):
    # A REPRO_TRACE path that cannot be opened used to fail silently and
    # retry the open on every record.
    bad = str(tmp_path / "missing-dir" / "trace.jsonl")
    opens = []
    real_open = trace.os.open

    def counting_open(path, *args, **kwargs):
        if path == bad:
            opens.append(path)
        return real_open(path, *args, **kwargs)

    trace._SINK.close()
    monkeypatch.setenv(trace.TRACE_ENV, bad)
    monkeypatch.setattr(trace.os, "open", counting_open)
    try:
        with pytest.warns(UserWarning) as caught:
            for _ in range(5):
                trace.emit_event("probe")
    finally:
        trace._SINK.close()
    messages = [str(w.message) for w in caught if trace.TRACE_ENV in str(w.message)]
    assert len(messages) == 1 and bad in messages[0]
    assert len(opens) == 1


def test_traced_campaign_bit_identical_and_balanced(tmp_path, monkeypatch):
    net = builders.ripple_carry_adder(4)
    monkeypatch.delenv(trace.TRACE_ENV, raising=False)
    plain = run_sharded_stuck_at_campaign(net, store=False)
    plain_sweep = evaluate_adder(3, store=False)

    trace_path = tmp_path / "campaign.jsonl"
    monkeypatch.setenv(trace.TRACE_ENV, str(trace_path))
    traced = run_sharded_stuck_at_campaign(net, store=False)
    # The campaign runs no shard loop; the sweep runs one span.
    traced_sweep = evaluate_adder(3, store=False)

    assert np.array_equal(plain.detected, traced.detected)
    assert np.array_equal(plain.first_detected, traced.first_detected)
    assert plain.n_simulated_runs == traced.n_simulated_runs
    assert traced_sweep == plain_sweep

    records = trace.read_trace(str(trace_path))  # strict parse
    names = [r.get("name") for r in records if r.get("type") == "event"]
    submitted = names.count(events.SHARD_SUBMITTED)
    assert submitted == 1
    assert submitted == names.count(events.SHARD_COMPLETED) + names.count(
        events.SHARD_FAILED
    )
    assert names.count(events.SHARDS_MERGED) == 1
    span_names = [r["name"] for r in records if r.get("type") == "span"]
    assert "sharded_campaign" in span_names

    summary = obs_report.summarize(records)
    assert summary["shards"]["balanced"] is True
    assert summary["shards"]["completed"] == 1
    campaigns = [
        c for c in summary["campaigns"] if c["span"] == "sharded_campaign"
    ]
    assert campaigns and campaigns[0]["netlist"] == net.name


def test_engine_campaign_span_and_event():
    net = builders.ripple_carry_adder(4)
    result = run_stuck_at_campaign(net)
    records = trace.ring_records()
    spans = [r for r in records if r.get("type") == "span" and r["name"] == "campaign"]
    assert spans and spans[-1]["attrs"]["netlist"] == net.name
    done = [r for r in records if r.get("name") == events.CAMPAIGN_COMPLETED]
    assert done[-1]["attrs"]["n_faults"] == len(result.faults)
    assert done[-1]["attrs"]["n_simulated_runs"] == result.n_simulated_runs
    # the completion event is attributed to the campaign span
    assert done[-1]["span"] == spans[-1]["span"]


# ----------------------------------------------------------------------
# Dump-on-exit and the report tool
# ----------------------------------------------------------------------
def test_metrics_dump_on_exit(tmp_path):
    dump_path = tmp_path / "metrics.jsonl"
    code = (
        "from repro.obs import metrics\n"
        "metrics.inc('probe_total', 5, leg='x')\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**_clean_env(), metrics.METRICS_ENV: str(dump_path)},
    )
    merged = metrics.load_dump(str(dump_path))
    assert merged["counters"]["probe_total{leg=x}"] == 5.0


def _clean_env():
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop(trace.TRACE_ENV, None)
    return env


def test_report_cli_renders_trace(tmp_path, monkeypatch, capsys):
    trace_path = tmp_path / "t.jsonl"
    monkeypatch.setenv(trace.TRACE_ENV, str(trace_path))
    evaluate_adder(3, store=False)
    monkeypatch.delenv(trace.TRACE_ENV)

    assert obs_report.main([str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "shards: submitted=1 completed=1" in out
    assert "balanced=yes" in out
    assert obs_report.main([str(trace_path), "--json"]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["shards"]["balanced"] is True


def test_live_summary_uses_ring_and_registry():
    metrics.set_kernel_profiling(True)
    compiled, words, plan = _rca_probe(n_words=64)
    FusedBackend(compiled).run_detect(words, plan, plan.n_rows)
    with trace.span("campaign", netlist="probe", backend="fused"):
        pass
    summary = obs_report.live_summary()
    assert summary["campaigns"][0]["netlist"] == "probe"
    assert summary["kernels"][0]["backend"] == "fused"
    assert summary["kernels"][0]["calls"] == 1
