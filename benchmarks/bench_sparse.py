"""The cone-scheduled campaign and the incremental-recompute gate.

* ``campaign_rca8`` -- the RCA-8 whole-universe campaign on the fused
  backend, warm (schedule caches populated), best of several repeats.
  Recorded for the trajectory, not gated: there is one campaign sweep,
  so there is no second path to compare it against.
* ``incremental_vs_scratch`` -- asserted on bit-identity *before* the
  timing gate: after a single-gate edit, the
  incremental campaign must beat a from-scratch campaign by
  ``BENCH_INCREMENTAL_SPEEDUP`` (acceptance: 5x) while re-simulating
  only the classes whose reach intersects the edit's dirty cone.  The
  workload is two independent ripple-carry blocks in one netlist: the
  edit dirties one block's low sum bit, so the provably-unaffected
  second block -- including its deep-detection faults -- merges from
  the old result untouched.

The recorded ``speedup`` ratio feeds the trajectory gate
(`check_trajectory.py`); the committed baseline pins it at the
acceptance floor rather than a machine-specific measurement.
"""

import os
import time

import numpy as np

from repro.faults.incremental import incremental_stuck_at_campaign
from repro.gates import builders
from repro.gates.engine import run_stuck_at_campaign
from repro.gates.netlist import CellType, Netlist

#: Acceptance floor; env-overridable for noisy shared runners.
INCREMENTAL_SPEEDUP_FLOOR = float(
    os.environ.get("BENCH_INCREMENTAL_SPEEDUP", "5.0")
)

WIDTH = 8
REPEATS = 9


def _best(fn, repeats=REPEATS):
    """Best-of-N wall time of ``fn()`` -- the least-noise estimator for
    sub-10ms deterministic workloads on shared runners."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def dual_rca(width: int) -> Netlist:
    """Two independent ``width``-bit ripple-carry adders, one netlist.

    The blocks share no nets, so an edit inside one block provably
    cannot disturb the other -- the incremental recompute's best case,
    with the second block contributing the expensive deep-detection
    faults a scratch run must still walk the vector space for.
    """
    nl = Netlist(f"dualrca{width}")
    for blk in ("u", "v"):
        a = [nl.add_input(f"{blk}a{i}") for i in range(width)]
        b = [nl.add_input(f"{blk}b{i}") for i in range(width)]
        carry = nl.add_input(f"{blk}cin")
        for i in range(width):
            t = f"{blk}fa{i}"
            nl.add_gate(CellType.XOR, [a[i], b[i]], f"{t}_p", name=f"{t}_x1")
            nl.add_gate(CellType.XOR, [f"{t}_p", carry], f"{t}_s", name=f"{t}_x2")
            nl.add_gate(CellType.AND, [a[i], b[i]], f"{t}_g1", name=f"{t}_a1")
            nl.add_gate(CellType.AND, [f"{t}_p", carry], f"{t}_g2", name=f"{t}_a2")
            nl.add_gate(
                CellType.OR, [f"{t}_g1", f"{t}_g2"], f"{t}_cout", name=f"{t}_o1"
            )
            nl.mark_output(f"{t}_s")
            carry = f"{t}_cout"
        nl.mark_output(carry)
    return nl


def test_campaign_rca8(record):
    netlist = builders.ripple_carry_adder(WIDTH)
    result = run_stuck_at_campaign(netlist)
    assert result.detected.all()

    seconds = _best(lambda: run_stuck_at_campaign(netlist))
    print(f"\nRCA-{WIDTH} whole universe: {seconds * 1e3:.2f}ms")
    record(f"campaign_rca{WIDTH}", seconds)


def test_incremental_vs_scratch_single_gate_edit(record):
    old = dual_rca(4)
    new = old.copy()
    new.replace_gate("ufa0_x2", cell_type=CellType.XNOR)

    old_result = run_stuck_at_campaign(old)
    inc = incremental_stuck_at_campaign(old, new, old_result=old_result)
    scratch = run_stuck_at_campaign(new)
    assert np.array_equal(inc.result.detected, scratch.detected)
    assert np.array_equal(inc.result.first_detected, scratch.first_detected)
    assert inc.result.faults == scratch.faults
    assert inc.result.n_vectors == scratch.n_vectors
    # Only the edit's cone is re-simulated: every re-run class reaches
    # the dirtied output, everything else merges from the old result.
    assert not inc.scratch
    assert inc.n_resimulated_classes < len(scratch.groups) // 4
    assert inc.reuse_fraction > 0.75

    inc_s = _best(
        lambda: incremental_stuck_at_campaign(old, new, old_result=old_result)
    )
    scratch_s = _best(lambda: run_stuck_at_campaign(new))
    speedup = scratch_s / max(inc_s, 1e-9)
    print(
        f"\ndual-RCA-4 single-gate edit: scratch {scratch_s * 1e3:.2f}ms, "
        f"incremental {inc_s * 1e3:.2f}ms ({speedup:.2f}x), {inc.reason}"
    )
    record(
        "incremental_vs_scratch",
        inc_s,
        speedup=speedup,
        scratch_seconds=scratch_s,
        n_resimulated_classes=inc.n_resimulated_classes,
        reuse_fraction=inc.reuse_fraction,
    )
    assert speedup >= INCREMENTAL_SPEEDUP_FLOOR, (
        f"incremental {speedup:.2f}x over scratch, "
        f"floor {INCREMENTAL_SPEEDUP_FLOOR}x"
    )
