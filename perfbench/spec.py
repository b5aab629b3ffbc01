"""Where the benchmark's metric names come from.

Workload and metric names, units and bounds live in ``BENCHMARK.json``
at the repository root and are read from there.  This module only maps
the tracer's span layers onto the per-layer metric names they feed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")


def benchmark() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    with open(BENCHMARK_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: Subpackages of ``repro`` whose import time is itemised.
IMPORT_SUBPACKAGES = (
    "analysis", "apps", "arch", "codesign", "core", "coverage", "faults",
    "gates", "hdlgen", "obs", "store", "tpg", "vm",
)

#: Layers whose spans may also run inside shard pool workers; their
#: worker-side time is reported as ``<layer>.worker_s``.
WORKER_LAYERS = (
    "gates.backends", "gates.engine", "gates.sparse", "gates.compile",
    "arch.testbench", "arch.cell", "analysis", "coverage.engine",
    "tpg.dictionary",
)

#: Span layer -> name of its self-time metric.  Self times of these
#: layers plus ``unattributed_s`` sum to ``iter_wall_s``.
SELF_METRICS: Dict[str, str] = {
    "gates.backends": "gates.backends.self_s",
    "gates.engine": "gates.engine.self_s",
    "gates.sparse": "gates.sparse.schedule_s",
    "gates.compile": "gates.compile.self_s",
    "arch.testbench": "arch.testbench.self_s",
    "arch.cell": "arch.cell.self_s",
    "analysis": "analysis.self_s",
    "coverage.engine": "coverage.engine.self_s",
    "coverage.transfer": "coverage.transfer.self_s",
    "faults.sharding": "faults.sharding.self_s",
    "arch.units": "arch.units.self_s",
    "vm.compile": "vm.compile.self_s",
    "vm.run": "vm.run.self_s",
    "codesign.hw": "codesign.hw.self_s",
    "codesign.swmodel": "codesign.swmodel.self_s",
    "faults.injector": "faults.injector.self_s",
    "tpg.generate": "tpg.generate.self_s",
    "tpg.dictionary": "tpg.dictionary.self_s",
    "tpg.compaction": "tpg.compaction.self_s",
    "store.get": "store.get.s",
    "store.put": "store.put.s",
    "faults.incremental": "faults.incremental.self_s",
}

#: Layers whose span count is reported as ``<layer>.calls``.
CALL_METRICS: Dict[str, str] = {
    "gates.backends": "gates.backends.calls",
    "gates.engine": "gates.engine.calls",
    "gates.compile": "gates.compile.calls",
    "arch.testbench": "arch.testbench.calls",
    "arch.cell": "arch.cell.calls",
    "analysis": "analysis.calls",
    "coverage.engine": "coverage.engine.calls",
    "coverage.transfer": "coverage.transfer.calls",
    "arch.units": "arch.units.calls",
    "vm.run": "vm.run.calls",
    "store.get": "store.get.calls",
    "store.put": "store.put.calls",
}
