"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 0 --seconds 20 --trace 0

The run starts ``PROCESSES`` fresh interpreters one after another
(every ``REPRO_*`` variable cleared, ``PYTHONPATH=src``).  Each sets the
workload up from the seed, runs its first iteration and then a fixed
number of steady iterations.  That number comes from ``--seconds`` and
the workload's nominal iteration time in ``NOMINAL_ITER_S``, never from
how fast this run goes, so every program version is measured over the
same number of samples.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of the traced first iterations.
Workload and metric names and units come from ``BENCHMARK.json``.

End-to-end times are reported in reference-host seconds: each sample is
scaled by ``REFERENCE_LOOP_S`` over the time of a fixed pure-Python
loop run in the same interpreter just before and just after it, so a
host that runs everything slower for a while (CPU frequency, neighbours'
load) does not read as a slower program.  The raw seconds and every
loop time stay in the result file.

The last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  Everything a
run measured, with the host record and the spans, lands in
``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402
from perfbench.child import IMPORT_BEGIN, IMPORT_END, reference_loop_s  # noqa: E402

#: Fresh interpreters per run, each set up and cold-iterated once.
PROCESSES = 4

#: Further interpreters per untraced run that only set up, for more
#: ``setup_s`` samples.
SETUP_ONLY_PROCESSES = 4

#: No child may outlive this many seconds after the run started.
HARD_LIMIT_S = 150.0

#: The k-th of the ``PROCESSES`` interpreters starts no steady round
#: past ``k / PROCESSES`` of this multiple of ``--seconds`` (the last
#: one runs at least one), and the run is then marked truncated.  A host
#: as fast as the one ``NOMINAL_ITER_S`` was taken on never gets there;
#: it keeps a much slower host within the run budget.
BUDGET_FACTOR = 1.15

#: Seconds one untraced iteration of each workload takes on a quiet
#: 2-core 2 GHz Xeon virtual machine.  They turn ``--seconds`` into a
#: fixed iteration count; they are not measurements.
NOMINAL_ITER_S = {
    "paper_tables": 1.5,
    "fir_codesign": 2.3,
    "fir_fault_campaign": 2.1,
    "test_flow": 3.2,
}

#: Time of ``child.reference_loop_s`` on the quiet host ``NOMINAL_ITER_S``
#: was taken on; end-to-end times are scaled to this host speed.
REFERENCE_LOOP_S = 0.016

#: End-to-end metrics that are times, scaled to the reference host.
TIMED_METRICS = ("setup_s", "first_iter_s", "iter_s", "cpu_s")

#: Workload-specific figures; each reads 0 on the workloads that lack it.
WORKLOAD_FIGURES = (
    "situations_per_s", "vm_instr_per_s", "fault_vectors_per_s",
    "cold_pass_s", "edit_s", "warm_pass_s",
)

#: The tracer's iteration wall and the runner's own clock around the
#: same iteration may differ by this share (plus 5 ms) at most.
WALL_TOLERANCE = 0.01

OUT_DIR = os.path.join(ROOT, ".perfbench")


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def build() -> None:
    """Byte-compile the sources once, so set-up times exclude compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, env=child_env(), check=True, timeout=300,
        stdout=subprocess.DEVNULL,
    )


def steady_rounds(workload: str, seconds: float, trace: int) -> List[int]:
    """Steady rounds of each interpreter: a function of the arguments only.

    The run does about ``seconds / NOMINAL_ITER_S`` iterations (a traced
    round is two), the first one of each interpreter included; the later
    interpreters take the rounds that do not divide evenly, and the last
    one always takes at least one.
    """
    total = round(seconds / (NOMINAL_ITER_S[workload] * (2 if trace else 1)))
    rounds = max(1, total - PROCESSES)
    base, extra = divmod(rounds, PROCESSES)
    return [base + (1 if i >= PROCESSES - extra else 0) for i in range(PROCESSES)]


def run_child(args: argparse.Namespace, index: int, t_start: float,
              work: str, setup_only: bool = False) -> Dict[str, Any]:
    out = os.path.join(work, f"child-{index}.json")
    hard = t_start + HARD_LIMIT_S
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    spawned = time.monotonic()
    cmd += [
        "-m", "perfbench.child", "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--spawned", repr(spawned),
        "--steady",
        "0" if setup_only else str(steady_rounds(args.workload, args.seconds, args.trace)[index]),
        "--budget-deadline",
        repr(t_start + BUDGET_FACTOR * args.seconds * (index + 1) / PROCESSES),
        "--hard-deadline", repr(hard),
        "--work", os.path.join(work, f"w{index}"), "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif index == PROCESSES - 1:
        # The checks that recompute results run once per run; the
        # parent compares every child's first-iteration digest.  Every
        # run has at least one steady sample.
        cmd += ["--thorough", "--min-steady", "1"]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, hard + 20.0 - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {index} timed out")
    finally:
        # Reap anything the child left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"child {index} failed ({proc.returncode}):\n{stderr[-4000:]}")
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    if args.trace and not setup_only:
        result["imports"] = import_breakdown(stderr)
    return result


def import_breakdown(stderr: str) -> Dict[str, float]:
    """Self import seconds per ``repro`` subpackage from ``-X importtime``."""
    totals = {f"import.{sub}_s": 0.0 for sub in spec.IMPORT_SUBPACKAGES}
    totals["import.repro_s"] = 0.0
    totals["import.external_s"] = 0.0
    inside = False
    for line in stderr.splitlines():
        if line == IMPORT_BEGIN:
            inside = True
        elif line == IMPORT_END:
            inside = False
        elif inside and line.startswith("import time:") and "|" in line:
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue  # the column header
            module = fields[2]
            parts = module.split(".")
            if parts[0] == "perfbench":
                continue
            if parts[0] != "repro":
                key = "import.external_s"
            elif len(parts) > 1 and parts[1] in spec.IMPORT_SUBPACKAGES:
                key = f"import.{parts[1]}_s"
            else:
                key = "import.repro_s"
            totals[key] += int(fields[0]) * 1e-6
    return totals


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def end_to_end(children: List[Dict[str, Any]],
               setups: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The bounded metrics: medians of samples in reference-host seconds.

    Each iteration is scaled by the mean of the reference-loop times
    measured just before and just after it, set-up by the one measured
    right after it.  Medians do not drift with the number of samples, so
    a program that runs more of them reads the same.
    """
    raw: Dict[str, List[float]] = {name: [] for name in TIMED_METRICS}
    scaled: Dict[str, List[float]] = {name: [] for name in TIMED_METRICS}

    def add(name: str, seconds: float, ref: float) -> None:
        raw[name].append(seconds)
        scaled[name].append(seconds * REFERENCE_LOOP_S / ref)

    for c in children + setups:
        add("setup_s", c["setup_s"], c["ref0"])
    for c in children:
        before = c["ref0"]
        for k, r in enumerate([c["first"]] + c["steady"]):
            ref = (before + r["ref_after"]) / 2
            if k == 0:
                add("first_iter_s", r["wall"], ref)
            else:
                add("iter_s", r["wall"], ref)
                add("cpu_s", r["cpu"], ref)
            before = r["ref_after"]
    values = {name: statistics.median(xs) for name, xs in scaled.items()}
    values["peak_rss_mb"] = max(c["peak_rss_mb"] for c in children)
    detail = {
        name: {"n": len(xs), "samples": xs, "quartiles": quartiles(xs),
               "raw_samples": raw[name], "raw_median": statistics.median(raw[name])}
        for name, xs in scaled.items()
    }
    detail["reference_loop_s"] = [
        [c["ref0"]] + [r["ref_after"] for r in [c["first"]] + c["steady"]] for c in children
    ]
    steady = [r for c in children for r in c["steady"]]
    return {"values": values, "detail": detail, "workload": workload_metrics(steady)}


def workload_metrics(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Throughput and phase medians of untraced iterations."""
    out: Dict[str, float] = {}
    if not records:
        return out
    wall = statistics.median(r["wall"] for r in records)
    for phase in records[0]["phases"]:
        out[phase] = statistics.median(r["phases"][phase] for r in records)
    work = records[0]["work"]
    if "situations" in work:
        out["situations_per_s"] = work["situations"] / wall
    if "vm_instructions" in work:
        out["vm_instr_per_s"] = work["vm_instructions"] / wall
    if "fault_vectors" in work:
        out["fault_vectors_per_s"] = work["fault_vectors"] / out["cold_pass_s"]
    return out


def per_layer(children: List[Dict[str, Any]], attempted: int, failed: int) -> Dict[str, Any]:
    """Per-layer metrics: means over the traced first iterations."""
    traces = [c["first"]["trace"] for c in children]
    n = len(traces)
    values: Dict[str, float] = {}

    def mean(get) -> float:
        return sum(get(t) for t in traces) / n

    for key in children[0]["imports"]:
        values[key] = sum(c["imports"][key] for c in children) / n
    for layer, name in spec.SELF_METRICS.items():
        values[name] = mean(lambda t: t["layers"].get(layer, [0, 0])[1])
    for layer, name in spec.CALL_METRICS.items():
        values[name] = mean(lambda t: t["layers"].get(layer, [0, 0])[0]
                            + t["workers"].get(layer, [0, 0])[0])
    for layer in spec.WORKER_LAYERS:
        values[f"{layer}.worker_s"] = mean(lambda t: t["workers"].get(layer, [0, 0])[1])

    def count(key: str) -> float:
        return mean(lambda t: t["counts"].get(key, 0.0))

    def registry(key: str) -> float:
        return mean(lambda t: t["registry"].get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["gates.backends.cells"] = count("backend_cells")
    values["gates.backends.cells_per_s"] = ratio(
        values["gates.backends.cells"],
        values["gates.backends.self_s"] + values["gates.backends.worker_s"],
    )
    skipped = registry("repro_sparse_gates_skipped_total")
    values["gates.sparse.skipped_frac"] = ratio(
        skipped, skipped + registry("repro_sparse_gates_evaluated_total"))
    values["faults.sharding.shards"] = count("shards")
    values["faults.sharding.wall_s"] = count("shard_wall_s")
    values["faults.sharding.busy_s"] = count("shard_busy_s")
    values["faults.sharding.overhead_s"] = count("shard_overhead_s")
    values["faults.sharding.failed"] = count("shard_failed")
    values["arch.units.faulty_calls"] = count("faulty_calls")
    values["vm.instructions"] = count("vm_instructions")
    values["vm.cycles"] = count("vm_cycles")
    values["faults.injector.runs"] = count("injector_runs")
    values["tpg.dictionary.cells"] = count("dictionary_cells")
    values["tpg.compact_ratio"] = ratio(count("compact_kept"), count("compact_candidates"))
    values["store.bytes_written"] = count("store_bytes_written")
    hits = registry("repro_store_hits_total")
    values["store.hit_frac"] = ratio(hits, hits + registry("repro_store_misses_total"))
    values["store.corrupt"] = registry("repro_store_corrupt_total")
    reused = count("incremental_reused_faults")
    values["faults.incremental.reuse_frac"] = ratio(
        reused, reused + count("incremental_resimulated_faults"))
    values["faults.incremental.resimulated_classes"] = count("incremental_resimulated_classes")
    values["iter_wall_s"] = mean(lambda t: t["wall"])
    values["unattributed_s"] = mean(lambda t: t["unattributed"])

    steady = [r for c in children for r in c["steady"]]
    untraced = [r["wall"] for r in steady]
    traced = [r["wall"] for c in children for r in c["traced"]]
    values["obs.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if untraced and traced else 0.0
    )
    workload = workload_metrics(steady)
    if "vm_instr_per_s" not in workload and untraced and values["vm.instructions"]:
        workload["vm_instr_per_s"] = values["vm.instructions"] / statistics.median(untraced)
    for key in WORKLOAD_FIGURES:
        values[key] = workload.get(key, 0.0)
    values["failed_frac"] = ratio(failed, attempted)

    # Self times plus unattributed equal the tracer's wall by
    # construction; this only guards the layer -> metric map.
    accounted = sum(values[name] for name in spec.SELF_METRICS.values()) + values["unattributed_s"]
    closure = accounted - values["iter_wall_s"]
    # The tracer's clock against the runner's own, around the same
    # iteration: this is what ties the self times to real time.
    wall_gap = max(abs(c["first"]["trace"]["wall"] - c["first"]["wall"]) for c in children)
    wall_ok = all(
        abs(c["first"]["trace"]["wall"] - c["first"]["wall"])
        <= WALL_TOLERANCE * c["first"]["wall"] + 0.005
        for c in children
    )
    return {"values": values, "self_time_closure_s": closure,
            "wall_gap_s": wall_gap, "wall_ok": wall_ok}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    workloads = sorted(w["name"] for w in spec.benchmark()["workloads"])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no src/repro package next to the benchmark; "
                         "run from a full checkout of the repository\n")
        return 2
    build()
    t_start = time.monotonic()
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    work = os.path.join(OUT_DIR, "work", f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        children = [run_child(args, i, t_start, work) for i in range(PROCESSES)]
        setups = [] if args.trace else [
            run_child(args, PROCESSES + i, t_start, work, setup_only=True)
            for i in range(SETUP_ONLY_PROCESSES)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if any(c["first"] is None for c in children) or not children[-1]["steady"]:
        errors = "\n".join(e for c in children for e in c["errors"])
        sys.stderr.write(f"perfbench: {args.workload} raised before it could be timed\n{errors}")
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    failures = sorted({f for c in children for f in c["failures"]})
    # The interpreters must agree: the operations of every child whose
    # first iteration differs from the last (thoroughly checked) one fail.
    reference = children[-1]["first"]["digest"]
    if any(c["first"]["digest"] != reference for c in children):
        failures.append("first iterations differ between interpreters")
        failed += sum(c["first"]["ops"] for c in children if c["first"]["digest"] != reference)
        failed = min(failed, attempted)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steady_rounds": steady_rounds(args.workload, args.seconds, args.trace),
        "truncated": any(c["truncated"] for c in children),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "reference_loop_s": reference_loop_s(),
            **children[-1]["host"],
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "errors": errors,
    }
    correct = failed == 0 and not errors
    if args.trace:
        layer = per_layer(children, attempted, failed)
        if abs(layer["self_time_closure_s"]) > 1e-6 * max(1.0, layer["values"]["iter_wall_s"]):
            correct = False
            record["failures"].append("self times do not sum to the iteration wall")
        if not layer["wall_ok"]:
            correct = False
            record["failures"].append("tracer wall disagrees with the runner's clock")
        record["self_time_closure_s"] = layer["self_time_closure_s"]
        record["tracer_wall_gap_s"] = layer["wall_gap_s"]
        values = layer["values"]
        units = {m["name"]: m["unit"] for m in spec.benchmark()["per_layer"]}
        spans = {f"child{i}": c["first"].pop("spans") for i, c in enumerate(children)}
        trace_path = os.path.join(
            OUT_DIR, "results", f"{args.workload}-seed{args.seed}-spans.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
        record["spans_file"] = os.path.relpath(trace_path, ROOT)
    else:
        e2e = end_to_end(children, setups)
        values = e2e["values"]
        units = {m["name"]: m["unit"] for m in spec.benchmark()["end_to_end"]}
        record["detail"] = e2e["detail"]
        record["workload_metrics"] = e2e["workload"]
        record["workload_metrics"]["failed_frac"] = failed / attempted if attempted else 0.0
    record["correct"] = correct
    record["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    path = os.path.join(
        OUT_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for name in units:
        print(f"{name:42s} {values[name]:.6g} {units[name]}")
    if record["truncated"]:
        print(f"truncated: fewer steady rounds than planned {record['steady_rounds']}")
    for name, value in record.get("workload_metrics", {}).items():
        print(f"{name:42s} {value:.6g} (workload)")
    print(f"check: {'ok' if correct else 'FAILED'} ({failed}/{attempted} operations failed)"
          + (f" {failures[:8]}" if failures else ""))
    for err in errors[:3]:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
