"""Head-to-head: interpreted vs compiled bit-parallel fault simulation.

The batched stuck-at campaign over the paper's 32-fault full-adder
universe with exhaustive vectors must give bit-identical coverage
classifications to per-fault ``NetlistSimulator`` loops.  Its timing
table is printed and recorded, not gated: at ~0.1ms per campaign the
ratio measures per-call overhead and scheduler noise, so no floor on it
gives the same verdict on every run.

Three baselines are measured:

* *interpreted per-fault* -- the seed implementation
  (:class:`ReferenceSimulator`, the dict-keyed interpreter) walked once
  per fault, the hot path this refactor replaces;
* *compiled per-fault (fresh)* -- a new :class:`NetlistSimulator` per
  fault, the seed idiom of ``arch/cell.py``;
* *compiled per-fault (hoisted)* -- one :class:`NetlistSimulator`
  reused across faults, the strongest per-fault baseline.

A ripple-carry-adder scaling row shows the gap widening with netlist
size; that workload is large enough to gate at ``BENCH_SPEEDUP_FLOOR``.

Backend head-to-head: the same RCA-8 exhaustive campaign runs under
every registered execution backend (:mod:`repro.gates.backends`) in the
fault-major regime -- the whole collapsed universe through one fault
matrix per word chunk -- with bit-identical classifications required
and the ``fused`` backend gated at ``BENCH_BACKEND_SPEEDUP``x over the
``python_loop`` reference.
"""

import os
import time

import numpy as np

from repro.gates import builders
from repro.gates import engine as gate_engine
from repro.gates.backends import list_backends
from repro.gates.engine import run_stuck_at_campaign
from repro.gates.faults import full_fault_list
from repro.gates.simulate import NetlistSimulator, ReferenceSimulator

# Floors are env-overridable so shared CI runners (noisy neighbours,
# unknown CPUs) can gate on relaxed ratios while local runs keep the
# full acceptance threshold.
#: Floor of the batched RCA-8 campaign over the per-fault loop.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SPEEDUP_FLOOR", "10.0"))
#: Acceptance floor of the ``fused`` backend over ``python_loop`` on
#: the RCA-8 exhaustive stuck-at campaign (fault-major regime).
BACKEND_SPEEDUP_FLOOR = float(os.environ.get("BENCH_BACKEND_SPEEDUP", "3.0"))
#: Fault batch size of the backend head-to-head.  One batch carries the
#: whole collapsed RCA-8 universe (194 groups), the regime the backend
#: layer targets: the reference loop must allocate a fresh ~45 MB
#: fault matrix per call (past glibc's mmap threshold, so every call
#: page-faults it in again), while the fused backend's persistent
#: workspace and tainted-prefix walk amortise both allocation and
#: arithmetic.
BACKEND_FAULT_CHUNK = 256


def _best(fns, repeats=11, inner=5):
    """Best-of average runtime per callable, interleaved round-robin.

    Interleaving measures every variant under the same machine load in
    each round, so background noise shifts all rows rather than
    penalising whichever variant ran last.  Returns (times, results).
    """
    results = [fn() for fn in fns]
    times = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(inner):
                results[i] = fn()
            times[i].append((time.perf_counter() - start) / inner)
    return [min(t) for t in times], results


def _classify_per_fault(make_sim, netlist, faults):
    """Per-fault loop: one truth table per fault vs the golden table."""

    def run():
        golden = make_sim(netlist).truth_table()
        return [
            bool((make_sim(netlist).truth_table(fault) != golden).any())
            for fault in faults
        ]

    return run


def _classify_per_fault_hoisted(sim_cls, netlist, faults):
    def run():
        sim = sim_cls(netlist)
        golden = sim.truth_table()
        return [bool((sim.truth_table(fault) != golden).any()) for fault in faults]

    return run


def _throughput(n_vectors, n_faults, seconds):
    return n_vectors * n_faults / seconds


def test_bench_backend_speedup(once, record, monkeypatch):
    """Registered backends, head to head, on the RCA-8 campaign."""
    once(lambda: None)
    monkeypatch.setattr(gate_engine, "CAMPAIGN_FAULT_CHUNK", BACKEND_FAULT_CHUNK)
    netlist = builders.ripple_carry_adder(8)
    backends = [name for name in list_backends() if name != "reference"]
    assert backends == ["python_loop", "fused"]

    def campaign(backend):
        return lambda: run_stuck_at_campaign(netlist, backend=backend)

    times, results = _best([campaign(name) for name in backends],
                           repeats=7, inner=1)
    # Bit-identical classifications across every registered backend.
    baseline = results[0]
    for result in results[1:]:
        assert np.array_equal(result.detected, baseline.detected)
        assert np.array_equal(result.first_detected, baseline.first_detected)

    by_name = dict(zip(backends, times))
    t_loop = by_name["python_loop"]
    print()
    print(f"Backend head-to-head -- RCA-8 exhaustive campaign "
          f"({baseline.n_faults} faults x {baseline.n_vectors} vectors, "
          f"fault_chunk={BACKEND_FAULT_CHUNK})")
    for name in backends:
        print(f"  {name:12s} {by_name[name] * 1e3:9.3f}ms"
              f" {t_loop / by_name[name]:8.2f}x")
        record(f"backend_{name}", by_name[name],
               speedup_vs_python_loop=t_loop / by_name[name],
               backend=name)

    assert t_loop / by_name["fused"] >= BACKEND_SPEEDUP_FLOOR, (
        f"fused backend only {t_loop / by_name['fused']:.2f}x faster than "
        f"python_loop (fused {by_name['fused'] * 1e3:.3f}ms vs "
        f"{t_loop * 1e3:.3f}ms)"
    )


def test_bench_engine_full_adder(once, record):
    once(lambda: None)
    netlist = builders.full_adder()
    faults = full_fault_list(netlist)
    n_vectors = 1 << len(netlist.primary_inputs)
    assert len(faults) == 32

    (t_interp, t_fresh, t_hoist, t_batch), (c_interp, c_fresh, c_hoist, result) = _best(
        [
            _classify_per_fault_hoisted(ReferenceSimulator, netlist, faults),
            _classify_per_fault(NetlistSimulator, netlist, faults),
            _classify_per_fault_hoisted(NetlistSimulator, netlist, faults),
            lambda: run_stuck_at_campaign(netlist),
        ]
    )

    batched_classes = list(result.detected)
    # Bit-identical coverage classifications across all engines.
    assert c_interp == c_fresh == c_hoist == batched_classes

    print()
    print("Engine head-to-head -- full adder, 32 stuck-at faults x 8 vectors")
    print(f"  {'variant':34s} {'time':>10s} {'vectors*faults/s':>18s} {'speedup':>9s}")
    rows = [
        ("interpreted per-fault (seed)", t_interp),
        ("compiled per-fault (fresh sim)", t_fresh),
        ("compiled per-fault (hoisted sim)", t_hoist),
        ("compiled batched campaign", t_batch),
    ]
    for label, t in rows:
        print(
            f"  {label:34s} {t * 1e3:8.3f}ms"
            f" {_throughput(n_vectors, len(faults), t):18.3e}"
            f" {t_interp / t:8.1f}x"
        )
    print(f"  ({result.summary()})")
    # Seconds only: no ratio, so the trajectory check does not gate it.
    record("full_adder_interpreted", t_interp)
    record("full_adder_batched", t_batch)


def test_bench_engine_scaling(once, record):
    """The batched gap grows with netlist size (RCA-8, sampled faults)."""
    once(lambda: None)
    netlist = builders.ripple_carry_adder(8)
    faults = full_fault_list(netlist)
    rng = np.random.default_rng(20050307)
    n_vectors = 4096
    vectors = {
        name: rng.integers(0, 2, size=n_vectors, dtype=np.uint8)
        for name in netlist.primary_inputs
    }

    def per_fault():
        sim = NetlistSimulator(netlist)
        golden = {k: v.copy() for k, v in sim.outputs(vectors).items()}
        out = []
        for fault in faults:
            faulty = sim.outputs(vectors, fault)
            out.append(
                any((faulty[k] != golden[k]).any() for k in golden)
            )
        return out

    def batched():
        return run_stuck_at_campaign(netlist, inputs=vectors)

    (t_loop, t_batch), (c_loop, result) = _best(
        [per_fault, batched], repeats=3, inner=1
    )
    assert c_loop == list(result.detected)

    print()
    print(
        f"Scaling -- ripple-carry adder(8): {len(faults)} faults x "
        f"{n_vectors} vectors"
    )
    print(f"  compiled per-fault loop   {t_loop * 1e3:9.3f}ms")
    print(
        f"  compiled batched campaign {t_batch * 1e3:9.3f}ms"
        f"  ({t_loop / t_batch:.1f}x, {result.n_simulated_runs} runs for "
        f"{len(faults)} faults)"
    )
    record("rca8_per_fault", t_loop)
    record("rca8_batched", t_batch, speedup=t_loop / t_batch)
    assert t_loop / t_batch >= SPEEDUP_FLOOR
