"""Edit-sim loop: cone-scheduled campaigns + incremental recomputation.

The walk-through:

1. run the RCA-8 whole-universe campaign -- the sweep walks only each
   fault batch's fan-out cone and retires detected faults between
   escalating vector slabs;
2. edit one gate (the bit-0 sum XOR, whose cone reaches a single
   primary output) and recompute incrementally -- the edit's dirty
   cone is proved, untouched verdicts are reused from the previous
   result, and only the remainder is re-simulated, again
   bit-identically to a from-scratch campaign;
3. chain a second edit through the result store: the merged
   incremental result lands under the new netlist's regular campaign
   key, so the next incremental step finds its "old" result there
   without being handed one.

Run:  PYTHONPATH=src python examples/incremental_campaign.py
"""

import tempfile
import time

import numpy as np

from repro import ResultStore, diff_netlists, incremental_stuck_at_campaign
from repro.faults.injector import run_sharded_stuck_at_campaign
from repro.gates import builders
from repro.gates.engine import run_stuck_at_campaign
from repro.gates.netlist import CellType

WIDTH = 8


def main() -> None:
    v1 = builders.ripple_carry_adder(WIDTH)

    # 1. The whole-universe campaign on the cone-scheduled sweep.
    t0 = time.perf_counter()
    first = run_stuck_at_campaign(v1)
    t_first = time.perf_counter() - t0
    print(f"RCA-{WIDTH} campaign: {t_first * 1e3:.1f} ms, {first.summary()}")

    # 2. One-gate edit, recomputed incrementally against the old result.
    v2 = v1.copy()
    v2.replace_gate("fa0_x2", cell_type=CellType.XNOR)
    print("edit:", diff_netlists(v1, v2).describe())

    t0 = time.perf_counter()
    inc = incremental_stuck_at_campaign(v1, v2, old_result=first)
    t_inc = time.perf_counter() - t0
    t0 = time.perf_counter()
    scratch = run_stuck_at_campaign(v2)
    t_scratch = time.perf_counter() - t0
    assert np.array_equal(inc.result.detected, scratch.detected)
    assert np.array_equal(inc.result.first_detected, scratch.first_detected)
    print(
        f"incremental {t_inc * 1e3:.1f} ms vs scratch "
        f"{t_scratch * 1e3:.1f} ms -- {inc.reason}"
    )
    assert inc.reuse_fraction > 0.5

    # 3. Chain a second edit through the store: no old_result handed in.
    store = ResultStore(tempfile.mkdtemp(prefix="repro-store-"))
    run_sharded_stuck_at_campaign(v1, store=store)
    step1 = incremental_stuck_at_campaign(v1, v2, store=store)
    v3 = v2.copy()
    v3.replace_gate("fa7_x2", cell_type=CellType.XNOR)
    step2 = incremental_stuck_at_campaign(v2, v3, store=store)
    assert not step1.scratch and not step2.scratch
    assert np.array_equal(
        step2.result.detected, run_stuck_at_campaign(v3).detected
    )
    print(f"chained through store: {step2.reason}")


if __name__ == "__main__":
    main()
