"""Golden-file pins for the regenerated paper tables.

Table 1 at n = 8, Table 2 over its published widths, the in-text
2-bit adder analysis and the n = 8 ATPG report are compared byte for
byte against ``tests/golden/``, so any change to a count, a rounding,
a provenance label or a generated test set shows up here.  Table 1's
n = 8 ``mul``/``div`` rows are the largest default sweeps.
"""

import pathlib

import pytest

from repro.coverage.report import render_table1, render_table2, render_two_bit_analysis
from repro.tpg.report import render_tpg_report

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "render,name",
    [
        (lambda: render_table1(8), "table1_w8.txt"),
        (render_table2, "table2.txt"),
        (render_two_bit_analysis, "twobit.txt"),
        (lambda: render_tpg_report(width=8), "tpg_w8.txt"),
    ],
    ids=["table1_w8", "table2", "twobit", "tpg_w8"],
)
def test_table_text_byte_identical(render, name):
    assert render() == (GOLDEN / name).read_text()
