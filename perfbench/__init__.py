"""End-to-end benchmark of the reproduction, with a traced per-layer breakdown.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""
