"""Memoised coverage sweeps: the content-addressed result store end to end.

The walk-through:

1. run the n = 4 adder coverage column cold through a store and again
   warm -- the second run is served entirely from cache, bit-identical;
2. open a fresh handle on the same store directory and run the sweep
   again -- the final artifact key is content-addressed, so another
   process or another day gets a pure hit, not a recompute.

Coverage sweeps, stuck-at campaigns and fault dictionaries all run in
the calling process and memoise as one store entry each.  Everything is
opt-in: without ``store=`` (or ``REPRO_STORE=1`` in the environment)
the stack never touches the filesystem.

Run:  PYTHONPATH=src python examples/cached_campaigns.py
"""

import tempfile
import time

from repro import ResultStore
from repro.coverage.engine import evaluate_adder

WIDTH = 4


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-store-")
    store = ResultStore(root)

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

    # 2. A fresh handle on the same directory: a pure hit.
    fresh = ResultStore(root)
    again = evaluate_adder(WIDTH, store=fresh)
    assert fresh.stats.hits == 1 and fresh.stats.puts == 0  # nothing recomputed
    assert again == cold
    print("fresh store handle: pure hit, coverage counts identical")


if __name__ == "__main__":
    main()
