"""Memoised coverage sweeps: the content-addressed result store end to end.

The walk-through:

1. run the n = 4 adder coverage column cold through a store and again
   warm -- the second run is served entirely from cache, bit-identical;
2. re-run the same sweep under a *different* worker count -- the final
   artifact key excludes worker counts, so it is a pure hit, not a
   recompute;
3. simulate a crash: kill a 4-way sharded sweep after 2 shards via
   the test hook, then resume -- the resumed run loads the 2 finished
   checkpoints, executes only the 2 missing shards
   (``last_checkpoint_report()`` proves it), and merges byte-identically
   with an uninterrupted reference run.

Only the Table 1/2 coverage sweeps shard across processes; stuck-at
campaigns and fault dictionaries run in the calling process and memoise
as one store entry each.  Everything is opt-in: without ``store=`` (or
``REPRO_STORE=1`` in the environment) the stack never touches the
filesystem.

Run:  PYTHONPATH=src python examples/cached_campaigns.py
"""

import tempfile
import time

from repro import ResultStore
from repro.coverage.engine import evaluate_adder
from repro.store import last_checkpoint_report, shard_hook

WIDTH = 4


def main() -> None:
    store = ResultStore(tempfile.mkdtemp(prefix="repro-store-"))

    # 1. Cold vs warm: bit-identical, served from cache.
    t0 = time.perf_counter()
    cold = evaluate_adder(WIDTH, store=store)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = evaluate_adder(WIDTH, store=store)
    warm_s = time.perf_counter() - t0
    assert warm == cold
    print(
        f"adder n={WIDTH} coverage: cold {cold_s * 1e3:.1f} ms, "
        f"warm {warm_s * 1e3:.2f} ms "
        f"({store.stats.hits} hits / {store.stats.puts} entries)"
    )

    # 2. The final key is shard-free: a different worker count is a pure hit.
    puts_before = store.stats.puts
    two_way = evaluate_adder(WIDTH, workers=2, store=store)
    assert store.stats.puts == puts_before  # nothing recomputed
    assert two_way == cold
    print("re-sharded sweep: pure hit, coverage counts identical")

    # 3. Crash and resume.
    reference = evaluate_adder(WIDTH, workers=4, store=False)
    crash_store = ResultStore(tempfile.mkdtemp(prefix="repro-store-"))
    completed = {"n": 0}

    def crash_after_two(index):
        if completed["n"] >= 2:
            raise RuntimeError("simulated crash")
        completed["n"] += 1

    try:
        with shard_hook(crash_after_two):
            evaluate_adder(WIDTH, workers=4, store=crash_store)
    except RuntimeError:
        pass
    print(f"killed after {len(crash_store)} shard checkpoints")

    resumed = evaluate_adder(WIDTH, workers=4, store=crash_store)
    report = last_checkpoint_report()
    assert report.loaded == 2 and report.executed == 2
    assert resumed == reference
    print(
        f"resumed: loaded {report.loaded}, re-executed {report.executed} "
        f"of {report.total} shards -- merge byte-identical"
    )


if __name__ == "__main__":
    main()
