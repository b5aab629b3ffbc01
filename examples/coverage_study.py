"""Worst-case fault-coverage study (Tables 1 and 2).

Regenerates the paper's coverage experiments: the overloaded operator's
checking operation runs on the same faulty unit as the nominal
operation, and we count how often error compensation defeats it.

Since PR 2 every Table 2 row is *exact*: small operand spaces stream
through the batched gate-level engine, wide widths (n = 8, 16) go
through the carry-state transfer matrix -- where the paper itself had
to fall back to random sampling.  The ``mode`` column states the
provenance of every cell.

Run:  python examples/coverage_study.py
"""

from repro.coverage.engine import evaluate_adder, evaluate_operator
from repro.coverage.report import (
    TABLE2_WIDTHS,
    render_table1,
    render_table2,
    render_two_bit_analysis,
)


def main() -> None:
    widths = list(TABLE2_WIDTHS)
    results = {n: evaluate_adder(n) for n in widths}
    print(render_table2(widths=widths, results=results))
    print()
    print(render_two_bit_analysis(stats=results[2]))
    print()

    table1 = {op: evaluate_operator(op, width=6) for op in ("add", "sub", "mul", "div")}
    print(render_table1(width=6, results=table1))
    print()

    # The headline worst-case numbers the paper quotes in prose.
    both = results[2]["both"]
    print(
        f"2-bit adder, both techniques: per-fault-case coverage spans "
        f"[{100 * both.per_case_min:.2f}%, {100 * both.per_case_max:.2f}%] "
        f"(paper: [81.90%, 99.87%] across strategies)"
    )


if __name__ == "__main__":
    main()
