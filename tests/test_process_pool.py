"""Everything runs in the calling process, and what the sweeps accept.

No entry point starts a process pool or takes ``workers=``: stuck-at
campaigns, fault dictionaries, the ATPG entry points and the Table 1/2
coverage sweeps all run in the calling process.  The sweeps reject a
width that is not a positive integer before any store lookup.
"""

import concurrent.futures
import inspect

import pytest

from repro.coverage import report as coverage_report
from repro.coverage.engine import (
    evaluate_adder,
    evaluate_divider,
    evaluate_gate_level,
    evaluate_multiplier,
    evaluate_operator,
    evaluate_subtractor,
    theoretical_situations,
)
from repro.errors import SimulationError
from repro.faults.injector import (
    run_gate_level_campaign,
    run_sharded_stuck_at_campaign,
)
from repro.store import ResultStore
from repro.tpg.dictionary import build_fault_dictionary, replay_detected
from repro.tpg.generate import (
    compact_test_set,
    unit_netlist,
    unit_space,
    unit_test_set,
)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class TestInProcess:
    def test_campaign_and_dictionary_never_start_a_pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        result, raw = run_gate_level_campaign(unit_netlist("add", 8), store=False)
        assert result.total == raw.n_faults > 0
        netlist = unit_netlist("mul", 8)
        dictionary = build_fault_dictionary(
            netlist, unit_space("mul", 8), store=False
        )
        assert dictionary.n_vectors == unit_space("mul", 8).n_vectors
        assert dictionary.detected_count > 0

    def test_table_sweeps_never_start_a_pool(self, monkeypatch):
        # The Table 1 mul n = 8 sweep is the largest default sweep.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        stats = evaluate_multiplier(8, store=False)
        assert stats["both"].situations == theoretical_situations("mul", 8)

    @pytest.mark.parametrize(
        "function",
        (
            run_sharded_stuck_at_campaign,
            run_gate_level_campaign,
            evaluate_gate_level,
            build_fault_dictionary,
            replay_detected,
            compact_test_set,
            unit_test_set,
            evaluate_adder,
            evaluate_subtractor,
            evaluate_multiplier,
            evaluate_divider,
            evaluate_operator,
        ),
    )
    def test_no_workers_parameter(self, function):
        assert "workers" not in inspect.signature(function).parameters


class TestWidthValidation:
    @pytest.mark.parametrize("width", (-1, 0, 2.5, True, "x", None))
    def test_evaluator_rejects_bad_width(self, width, tmp_path):
        # An open store must not turn the check into a lookup.
        store = ResultStore(tmp_path)
        for evaluate in (
            evaluate_adder, evaluate_subtractor, evaluate_multiplier, evaluate_divider
        ):
            with pytest.raises(SimulationError, match="width="):
                evaluate(width, store=store)

    @pytest.mark.parametrize("width", ("-2", "0"))
    def test_report_cli_rejects_bad_width(self, width, capsys):
        # The CLI reports the evaluator's message as a usage error.
        with pytest.raises(SystemExit) as exc:
            coverage_report.main(["table1", "--width", width])
        assert exc.value.code == 2
        assert "width=" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ("auto", "transfer"))
    def test_transfer_width_cap_names_width(self, method, tmp_path):
        # Past the transfer DP's 30-bit cap the chain evaluators name
        # ``width=`` and the cap, before any store lookup.
        store = ResultStore(tmp_path)
        for evaluate in (evaluate_adder, evaluate_subtractor):
            with pytest.raises(SimulationError, match="width=30 .*width=31"):
                evaluate(31, method=method, store=store)
        stats = store.stats.snapshot()
        assert stats["hits"] + stats["misses"] == 0
