"""Pins the documented deviations from the paper's coverage numbers.

``docs/architecture.md`` ("Deviations from the paper") states them in
closed form; these tests hold the measured evaluators and the recorded
paper values to those statements, so a change to either shows up as a
failing closed form rather than a silently moved table cell.
"""

import pytest

from repro.coverage.engine import evaluate_adder
from repro.coverage.report import PAPER_TABLE1, PAPER_TABLE2

TECHNIQUES = ("tech1", "tech2", "both")


def measured_form(n):
    """Measured uncovered situations (Tech1, Tech2, Both) / ``4**(n-1)``."""
    return (2 * n + 8, 6, 5)


def paper_form(n):
    """The paper's uncovered situations (Tech1, Tech2, Both) / ``4**(n-1)``."""
    return (2 * n + 4, 4, 3)


#: Table 2 rows whose printed percentages are exhaustive counts.
EXHAUSTIVE_PAPER_ROWS = (1, 2, 3, 4, 8)


def _percent(form, n):
    # uncovered / situations = form * 4**(n-1) / (32 * n * 4**n)
    return tuple(100 * (1 - u / (128 * n)) for u in form(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_measured_uncovered_counts_follow_the_closed_form(n):
    stats = evaluate_adder(n, store=False)
    assert all(stats[t].situations == 32 * n * 4 ** n for t in TECHNIQUES)
    uncovered = tuple(stats[t].situations - stats[t].covered for t in TECHNIQUES)
    assert uncovered == tuple(u * 4 ** (n - 1) for u in measured_form(n))


@pytest.mark.parametrize("n", EXHAUSTIVE_PAPER_ROWS)
def test_exhaustive_paper_rows_follow_the_paper_form(n):
    for printed, exact in zip(PAPER_TABLE2[n], _percent(paper_form, n)):
        assert printed == pytest.approx(exact, abs=0.005)


def test_paper_n4_percentages_fit_32768_situations_not_7808():
    # 12 * 4**3 = 768 Tech1-uncovered situations: 97.66 % of 32,768.
    assert 100 * (1 - 768 / 32768) == pytest.approx(PAPER_TABLE2[4][0], abs=0.005)
    assert 100 * (1 - 768 / 7808) != pytest.approx(PAPER_TABLE2[4][0], abs=0.5)


def test_paper_n16_row_fits_neither_form():
    for form in (paper_form, measured_form):
        assert any(
            abs(printed - exact) > 0.005
            for printed, exact in zip(PAPER_TABLE2[16], _percent(form, 16))
        )


def test_paper_table1_add_row_is_not_its_table2_n8_row():
    row = tuple(PAPER_TABLE1[("add", t)] for t in TECHNIQUES)
    assert row == (97.25, 98.81, 99.11)
    assert PAPER_TABLE2[8] == (98.05, 99.61, 99.71)
    assert all(abs(a - b) > 0.5 for a, b in zip(row, PAPER_TABLE2[8]))


def test_two_bit_analysis_observes_292_errors_not_216():
    stats = evaluate_adder(2, store=False)
    assert stats["both"].situations == 1024
    assert stats["both"].observable_errors == 292
    assert tuple(stats[t].detected_while_correct for t in TECHNIQUES) == (212, 244, 268)
