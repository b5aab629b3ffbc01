"""Benchmark regenerating Table 1: overloading techniques and coverage.

Paper reference (Table 1):

    add: tech1 97.25 / tech2 98.81 / both 99.11
    sub: tech1 96.85 / tech2 94.01 / both 99.58
    mul: tech1 96.22 / tech2 96.38 / both 97.43
    div: tech1 94.33 / tech2 97.16 / (both not published)

Widths are sized so the whole table regenerates exactly in seconds; the
structural claims (orderings, high coverage) are asserted, the absolute
percentages are printed next to the paper's.
"""

import pytest

from repro.coverage.engine import evaluate_operator
from repro.coverage.report import render_table1

#: Operator -> width, sized for bench runtime.
CONFIG = {"add": 8, "sub": 8, "mul": 6, "div": 6}


@pytest.fixture(scope="module")
def results():
    return {op: evaluate_operator(op, width) for op, width in CONFIG.items()}


def test_table1_regenerates(results, once):
    table = once(
        render_table1,
        width=8,
        operators=tuple(CONFIG),
        results=results,
    )
    print()
    print(table)
    assert "Table 1" in table


def test_table1_add_orderings(results):
    add = results["add"]
    assert add["both"].coverage >= add["tech2"].coverage >= add["tech1"].coverage
    assert add["tech1"].coverage > 0.93


def test_table1_sub_both_best(results):
    sub = results["sub"]
    assert sub["both"].coverage >= max(sub["tech1"].coverage, sub["tech2"].coverage)
    assert sub["both"].coverage > 0.97


def test_table1_mul_techniques_comparable(results):
    mul = results["mul"]
    assert abs(mul["tech1"].coverage - mul["tech2"].coverage) < 0.05
    assert mul["both"].coverage >= mul["tech1"].coverage


def test_table1_div_range_check_wins(results):
    """Paper: div tech2 (97.16) beats tech1 (94.33)."""
    div = results["div"]
    assert div["tech2"].coverage >= div["tech1"].coverage
