"""One measuring interpreter: set up a workload, iterate, check, report.

Started by ``perfbench/run.py`` in a fresh interpreter with every
``REPRO_*`` variable cleared; writes one JSON result file and exits.

It sets the workload up, runs the first iteration (cold in-process
caches, what a CLI invocation pays), then exactly ``--steady`` more
rounds.  The count does not depend on how fast the iterations run, so a
faster program gets no more samples than a slower one.  Only a host far
slower than the one the counts were planned on cuts it short: no round
starts after ``--budget-deadline`` once ``--min-steady`` have run, or
after ``--hard-deadline``; the result then says ``truncated``.

With ``--trace 1`` the first iteration runs under the span tracer and
its per-layer aggregates are reported, and each steady round is an
untraced iteration followed by a traced one, so the tracing overhead is
measured in one process.  With ``--thorough`` the first iteration also
gets the checks that recompute results outside the timed region.  With
``--setup-only`` the interpreter stops after set-up.  After set-up and
after every iteration it times a fixed pure-Python loop, which the
parent uses to scale the samples to the reference host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

#: Written to stderr around ``import repro`` so the parent can pick this
#: interpreter's ``-X importtime`` lines out of the rest.
IMPORT_BEGIN = "perfbench-import-begin"
IMPORT_END = "perfbench-import-end"


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reference_loop_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop: the host's speed now.

    The loop does not touch the program, so its time moves only with
    the host: CPU frequency and neighbours' load.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return min(times)


class Runner:
    """Runs iterations of one workload and tallies checks."""

    def __init__(self, workload, state, expected) -> None:
        self.workload = workload
        self.state = state
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.first_digest: Optional[str] = None
        self.errors: List[str] = []

    def iteration(self, traced: bool, thorough: bool) -> Optional[Dict[str, Any]]:
        """Run, time and check one iteration; ``None`` when it raised."""
        from perfbench import tracer as tr

        wl = self.workload
        tracer = patches = None
        if traced:
            tracer = tr.Tracer()
            patches = tr.install(tracer)
            tracer.begin_iteration()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            outcome = wl.iterate(self.state)
        except Exception:
            self.errors.append(traceback.format_exc())
            self.attempted += len(wl.ops)
            self.failed += len(wl.ops)
            if patches is not None:
                tr.uninstall(patches)
            return None
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        record: Dict[str, Any] = {
            "wall": wall, "cpu": cpu, "work": outcome.work, "phases": outcome.phases,
            "ops": len(wl.ops),
        }
        if tracer is not None:
            record["trace"] = tracer.end_iteration()
            record["spans"] = tracer.dump()
            tr.uninstall(patches)
        bad = set(wl.check(self.state, outcome, self.expected, thorough))
        got = wl.outputs_digest(outcome)
        if self.first_digest is None:
            self.first_digest = got
        elif got != self.first_digest:
            self.failures.append(f"{'traced' if traced else 'untraced'} digest differs")
            bad = set(wl.ops)
        self.attempted += len(wl.ops)
        self.failed += len(bad)
        self.failures += sorted(bad)
        record["digest"] = got
        wl.cleanup(self.state, outcome)
        record["ref_after"] = reference_loop_s()
        return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--thorough", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up: one more set-up time sample")
    parser.add_argument("--steady", type=int, required=True)
    parser.add_argument("--min-steady", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--budget-deadline", type=float, required=True)
    parser.add_argument("--hard-deadline", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.stderr.write(IMPORT_BEGIN + "\n")
    sys.stderr.flush()
    import numpy
    import repro
    from perfbench.workloads import WORKLOADS, load_expected

    sys.stderr.write(IMPORT_END + "\n")
    sys.stderr.flush()

    workload = WORKLOADS[args.workload]
    os.makedirs(args.work, exist_ok=True)
    state = workload.setup(args.seed, args.work)
    setup_s = time.monotonic() - args.spawned
    runner = Runner(workload, state, load_expected())
    ref0 = reference_loop_s()

    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "ref0": ref0,
    }
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    result = {
        **result,
        "host": {
            "numpy": numpy.__version__,
            "backend": repro.resolve_backend_name(None),
        },
    }
    first = runner.iteration(traced=bool(args.trace), thorough=args.thorough)
    result["first"] = first
    steady: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    truncated = False
    while first is not None and len(steady) < args.steady:
        now = time.monotonic()
        if now >= args.hard_deadline or (
            now >= args.budget_deadline and len(steady) >= args.min_steady
        ):
            truncated = True
            break
        record = runner.iteration(traced=False, thorough=False)
        if record is None:
            break
        steady.append(record)
        if args.trace:
            record = runner.iteration(traced=True, thorough=False)
            if record is None:
                break
            del record["spans"]  # only the first iteration's are kept
            traced.append(record)
    result["steady"] = steady
    result["traced"] = traced
    result["truncated"] = truncated
    result["peak_rss_mb"] = _peak_rss_mb()
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["failures"] = runner.failures
    result["errors"] = runner.errors
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
