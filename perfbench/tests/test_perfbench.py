"""Tests of the benchmark itself: names, checks, seeds and the tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import run, spec, tracer  # noqa: E402
from perfbench.child import IMPORT_BEGIN, IMPORT_END, Runner  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    PaperTables,
    digest,
    load_expected,
)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def paper_outcome():
    """One real paper_tables iteration, set up from a non-default seed."""
    wl = WORKLOADS["paper_tables"]
    state = wl.setup(1, None)
    return state, wl.iterate(state)


def test_benchmark_json_names_the_workloads(benchmark_json):
    assert sorted(w["name"] for w in benchmark_json["workloads"]) == sorted(WORKLOADS)
    assert sorted(run.NOMINAL_ITER_S) == sorted(WORKLOADS)


def _fake_children(n_steady=3):
    trace = {
        "wall": 2.0, "unattributed": 0.5,
        "layers": {layer: [1.0, 1.5 / len(spec.SELF_METRICS)] for layer in spec.SELF_METRICS},
        "workers": {"gates.backends": [2.0, 0.7]},
        "counts": {"backend_cells": 10.0},
        "registry": {},
    }
    steady = [{"wall": 1.0 + 0.1 * k, "cpu": 1.2, "phases": {"cold_pass_s": 0.5},
               "work": {"fault_vectors": 100.0}, "ref_after": run.REFERENCE_LOOP_S}
              for k in range(n_steady)]
    child = {
        "setup_s": 0.2, "peak_rss_mb": 40.0, "ref0": run.REFERENCE_LOOP_S,
        "first": {"wall": 2.0, "cpu": 2.0, "trace": trace, "digest": "d", "ops": 1,
                  "ref_after": run.REFERENCE_LOOP_S},
        "steady": steady, "traced": steady, "truncated": False,
        "imports": run.import_breakdown(""),
    }
    return [copy.deepcopy(child) for _ in range(run.PROCESSES)]


def test_runner_reports_exactly_the_benchmark_metrics(benchmark_json):
    children = _fake_children()
    e2e = run.end_to_end(children, [])["values"]
    assert sorted(e2e) == sorted(m["name"] for m in benchmark_json["end_to_end"])
    layer = run.per_layer(children, attempted=10, failed=0)
    assert sorted(layer["values"]) == sorted(m["name"] for m in benchmark_json["per_layer"])
    # Self times plus the unattributed bucket close on the iteration wall.
    assert abs(layer["self_time_closure_s"]) < 1e-9
    assert layer["wall_ok"]
    children[1]["first"]["wall"] = 1.5  # the runner's clock saw less
    assert not run.per_layer(children, attempted=10, failed=0)["wall_ok"]


def test_times_are_scaled_to_the_reference_host():
    children = _fake_children()
    quiet = run.end_to_end(children, [])["values"]
    assert quiet["iter_s"] == pytest.approx(1.1)
    # A host that runs everything twice as slowly reads the same.
    for c in children:
        c["setup_s"] *= 2
        c["ref0"] *= 2
        for r in [c["first"]] + c["steady"]:
            r["wall"] *= 2
            r["cpu"] *= 2
            r["ref_after"] *= 2
    slow = run.end_to_end(children, [])["values"]
    assert slow == pytest.approx(quiet)


def test_sample_counts_do_not_depend_on_speed():
    rounds = run.steady_rounds("paper_tables", 20, 0)
    assert len(rounds) == run.PROCESSES and rounds[-1] >= 1
    assert sum(rounds) + run.PROCESSES == round(20 / run.NOMINAL_ITER_S["paper_tables"])
    assert sum(run.steady_rounds("paper_tables", 20, 1)) < sum(rounds)
    assert run.steady_rounds("test_flow", 1, 1) == [0] * (run.PROCESSES - 1) + [1]


def test_import_breakdown_attributes_subpackages():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       900 |        900 |   json",
        IMPORT_BEGIN,
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |   numpy",
        "import time:       200 |        200 |     repro.gates.engine",
        "import time:        50 |       1250 | repro",
        "import time:        30 |         30 |   perfbench.workloads",
        IMPORT_END,
    ])
    totals = run.import_breakdown(stderr)
    assert totals["import.external_s"] == pytest.approx(1e-3)
    assert totals["import.gates_s"] == pytest.approx(2e-4)
    assert totals["import.repro_s"] == pytest.approx(5e-5)


def test_paper_tables_identical_across_seeds(paper_outcome):
    state, outcome = paper_outcome
    # Pinned from the default seed, checked against another seed's run.
    assert WORKLOADS["paper_tables"].check(state, outcome, load_expected(), True) == []


def test_fir_codesign_ignores_the_seed(tmp_path):
    wl = WORKLOADS["fir_codesign"]
    # The state is the flow alone, built from fixed arguments.
    assert wl.setup(0, str(tmp_path)).keys() == wl.setup(1, str(tmp_path)).keys() == {"flow"}


def test_wrong_expected_value_counts_as_failed(paper_outcome):
    state, outcome = paper_outcome
    wrong = copy.deepcopy(load_expected())
    wrong["paper_tables"]["table1.mul"]["both"][1] += 1

    class Replay(PaperTables):
        def iterate(self, state):
            return outcome

    runner = Runner(Replay(), state, wrong)
    assert runner.iteration(traced=False, thorough=True) is not None
    assert runner.failures == ["table1.mul"]
    assert runner.failed / runner.attempted > 0


@pytest.mark.parametrize("name", ["fir_fault_campaign", "test_flow"])
def test_seed_changes_inputs(name, tmp_path):
    wl = WORKLOADS[name]

    def inputs(seed):
        state = wl.setup(seed, str(tmp_path))
        if name == "test_flow":
            return [digest([str(g) for g in v.gates]) for v in state["versions"]]
        return digest([state["samples"], [f.describe() for f in state["faults"]]])

    assert inputs(0) == inputs(0)
    assert inputs(0) != inputs(1)


def test_tracer_is_result_neutral_and_closes():
    from repro.coverage import engine

    plain = engine.evaluate_adder(4)
    original = engine.evaluate_adder
    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        assert engine.evaluate_adder is not original
        t.begin_iteration()
        traced = engine.evaluate_adder(4)
        agg = t.end_iteration()
    finally:
        tracer.uninstall(patches)
    assert engine.evaluate_adder is original
    assert traced == plain
    assert {"coverage.engine", "gates.backends"} <= set(agg["layers"])
    self_total = sum(self_s for _, self_s in agg["layers"].values())
    assert self_total + agg["unattributed"] == pytest.approx(agg["wall"], abs=1e-9)
    assert agg["counts"]["backend_cells"] > 0
