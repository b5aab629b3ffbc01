"""Span tracer installed around the public entry points of each repro layer.

Nothing under ``src/`` changes: :func:`install` replaces module-level
functions at every import site (every ``repro.*`` and ``perfbench.*``
module attribute bound to the original object) and class methods on
their defining class, and :func:`uninstall` puts the originals back.

Each wrapped call records one span ``(name, start, end, parent)`` in
memory.  A call into the layer that is already innermost is not a new
span (``evaluate_operator -> evaluate_adder`` is one coverage span), so
a layer's self time is its spans' durations minus the time their child
spans cover, and the self times of all layers plus the iteration root's
own time (``unattributed``) sum exactly to the iteration wall.

Shard pool workers are forked from the traced process and inherit the
wrappers.  A worker keeps no span list; when its outermost span closes
it adds its per-layer totals to the ``repro.obs`` metrics registry,
which :mod:`repro.faults.sharding` already ships back to the parent
with every shard result.  The parent reads them as ``worker`` totals,
while its own ``faults.sharding`` span shows the time it waited.

The tracer assumes one thread calls into the library (the default
``fused`` backend); calls from any other thread run untraced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

_perf = time.perf_counter

#: Registry counter carrying worker-side totals back to the parent.
WORKER_COUNTER = "perfbench_worker_total"

#: Always-on registry counters the program already emits, read as
#: per-iteration deltas.
REGISTRY_COUNTERS = (
    "repro_sparse_gates_evaluated_total",
    "repro_sparse_gates_skipped_total",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_store_corrupt_total",
)

_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.worker = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[Any] = []
        # Open frames: [layer, start, child_seconds, span_index].
        self.stack: List[list] = []
        self.layers: Dict[str, List[float]] = {}  # layer -> [calls, self_s]
        self.counts: Dict[str, float] = {}
        self._registry_start: Dict[Tuple[str, Tuple], float] = {}

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def enter_worker_mode(self) -> None:
        """Forked into a pool worker: aggregate only, flush via the registry."""
        self.worker = True
        self.thread = threading.get_ident()
        self.stack = []
        self.spans = []
        self.layers = {}
        self.counts = {}

    def _flush_worker(self) -> None:
        for layer, (calls, self_s) in self.layers.items():
            obs_metrics.inc(WORKER_COUNTER, calls, layer=layer, field="calls")
            obs_metrics.inc(WORKER_COUNTER, self_s, layer=layer, field="self_s")
        for key, value in self.counts.items():
            obs_metrics.inc(WORKER_COUNTER, value, layer="counts", field=key)
        self.layers = {}
        self.counts = {}

    # ------------------------------------------------------------------
    def begin_iteration(self) -> None:
        self.layers = {}
        self.counts = {}
        self._registry_start = _registry_values()
        idx = len(self.spans)
        self.spans.append(None)
        self.stack = [[None, _perf(), 0.0, idx]]

    def end_iteration(self) -> Dict[str, Any]:
        """Close the iteration root span and return its aggregates."""
        end = _perf()
        _, start, child, idx = self.stack.pop()
        if self.stack:
            raise RuntimeError("iteration ended inside an open span")
        self.spans[idx] = (self.name_id("iteration"), start, end, -1)
        wall = end - start
        deltas = {
            key: value - self._registry_start.get(key, 0.0)
            for key, value in _registry_values().items()
        }
        registry: Dict[str, float] = {}
        workers: Dict[str, List[float]] = {}
        worker_counts: Dict[str, float] = {}
        for (name, labels), value in deltas.items():
            if not value:
                continue
            if name == WORKER_COUNTER:
                label = dict(labels)
                if label["layer"] == "counts":
                    worker_counts[label["field"]] = value
                else:
                    slot = workers.setdefault(label["layer"], [0.0, 0.0])
                    slot[0 if label["field"] == "calls" else 1] += value
            else:
                registry[name] = registry.get(name, 0.0) + value
        counts = dict(self.counts)
        for key, value in worker_counts.items():
            counts[key] = counts.get(key, 0.0) + value
        return {
            "wall": wall,
            "unattributed": wall - child,
            "layers": {k: list(v) for k, v in self.layers.items()},
            "workers": workers,
            "counts": counts,
            "registry": registry,
        }

    def dump(self) -> Dict[str, Any]:
        """Every recorded span as ``[name_id, start, end, parent_index]``."""
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans if s is not None],
        }


def _registry_values() -> Dict[Tuple[str, Tuple], float]:
    values: Dict[Tuple[str, Tuple], float] = {}
    for family, name, labels, value in obs_metrics.registry().raw_series():
        if family != "counter":
            continue
        if name == WORKER_COUNTER or name in REGISTRY_COUNTERS:
            values[(name, tuple(labels))] = float(value)
    return values


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.enter_worker_mode()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# ----------------------------------------------------------------------
# The wrapper
# ----------------------------------------------------------------------
Hook = Callable[["Tracer", tuple, dict, Any, float], None]


def _make_wrapper(layer: str, name: str, fn: Callable, before: Optional[Callable] = None,
                  after: Optional[Hook] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = _ACTIVE
        if t is None or threading.get_ident() != t.thread:
            return fn(*args, **kwargs)
        stack = t.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        if before is not None:
            before()
        idx = -1
        if not t.worker:
            idx = len(t.spans)
            t.spans.append(None)
        frame = [layer, 0.0, 0.0, idx]
        parent_idx = stack[-1][3] if stack else -1
        stack.append(frame)
        result = None
        start = frame[1] = _perf()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _perf()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][2] += dur
            slot = t.layers.get(layer)
            if slot is None:
                slot = t.layers[layer] = [0.0, 0.0]
            slot[0] += 1
            slot[1] += dur - frame[2]
            if idx >= 0:
                t.spans[idx] = (t.name_id(name), start, end, parent_idx)
            if after is not None:
                after(t, args, kwargs, result, dur)
            if t.worker and not stack:
                t._flush_worker()

    return wrapper


# ----------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ----------------------------------------------------------------------
def _arg(args: tuple, kwargs: dict, pos: int, name: str, default: Any = None) -> Any:
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _kernel_cells(t, args, kwargs, result, dur) -> None:
    words = _arg(args, kwargs, 1, "words")
    n_rows = _arg(args, kwargs, 3, "n_rows", 1)
    if words is not None:
        t.count("backend_cells", float(int(n_rows) * int(words.shape[1])))


_ALU_UNIT = {
    "add": "adder", "sub": "adder", "neg": "adder", "mul": "multiplier",
    "divmod": "divider", "div": "divider", "mod": "divider",
}


def _alu_faulty(method: str) -> Hook:
    unit = _ALU_UNIT[method]

    def hook(t, args, kwargs, result, dur) -> None:
        if args[0].faulty_unit == unit:
            t.count("faulty_calls", 1.0)

    return hook


def _unit_faulty(t, args, kwargs, result, dur) -> None:
    if args[0].is_faulty:
        t.count("faulty_calls", 1.0)


def _vm_counts(t, args, kwargs, result, dur) -> None:
    if result is not None:
        t.count("vm_instructions", float(result.instructions))
        t.count("vm_cycles", float(result.cycles))


def _injector_runs(t, args, kwargs, result, dur) -> None:
    if result is not None:
        # The golden run plus one run per fault.
        t.count("injector_runs", float(result.total + 1))


def _dictionary_cells(t, args, kwargs, result, dur) -> None:
    if result is not None:
        t.count("dictionary_cells", float(result.words.size))


def _cover_ratio(t, args, kwargs, result, dur) -> None:
    dictionary = _arg(args, kwargs, 0, "dictionary")
    if result is not None and dictionary is not None:
        t.count("compact_kept", float(len(result.order)))
        t.count("compact_candidates", float(dictionary.n_vectors))


def _store_put_bytes(t, args, kwargs, result, dur) -> None:
    store, key = args[0], _arg(args, kwargs, 1, "key")
    for path in store.paths(key):
        try:
            t.count("store_bytes_written", float(os.path.getsize(path)))
        except OSError:
            pass


def _incremental_counts(t, args, kwargs, result, dur) -> None:
    if result is not None:
        t.count("incremental_reused_faults", float(result.n_reused_faults))
        t.count("incremental_resimulated_faults", float(result.n_resimulated_faults))
        t.count("incremental_resimulated_classes", float(result.n_resimulated_classes))


def _sharding_events(t, args, kwargs, result, dur) -> None:
    seconds = []
    failed = 0
    for record in obs_trace.ring_records():
        if record.get("type") != "event":
            continue
        if record["name"] == "shard_completed":
            seconds.append(float(record.get("attrs", {}).get("seconds", 0.0)))
        elif record["name"] == "shard_failed":
            failed += 1
    t.count("shards", float(len(seconds) + failed))
    t.count("shard_failed", float(failed))
    t.count("shard_busy_s", sum(seconds))
    t.count("shard_wall_s", dur)
    t.count("shard_overhead_s", dur - max(seconds, default=0.0))


# ----------------------------------------------------------------------
# Layer table: module-level functions and class methods per layer
# ----------------------------------------------------------------------
_KERNELS = ("run_words", "run_matrix", "run_outputs", "run_detect", "run_detect_sparse")

_FUNCTIONS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("gates.engine", "repro.gates.engine", ("run_stuck_at_campaign", "engine_for")),
    ("gates.sparse", "repro.gates.sparse", ("build_schedule",)),
    ("gates.compile", "repro.gates.compile", ("compile_netlist",)),
    ("arch.testbench", "repro.arch.testbench", ("table2_architecture",)),
    ("arch.cell", "repro.arch.cell", (
        "collapsed_cell_library", "faulty_cell_library", "effective_faulty_cells",
        "reference_cell", "cell_netlist", "bitflip_cell_library",
    )),
    ("analysis", "repro.analysis.collapse", ("collapse_faults",)),
    ("analysis", "repro.analysis.cones", ("analyze_cones", "analyze_gate_cones")),
    ("analysis", "repro.analysis.testability", ("scoap", "fault_efforts", "hardest_faults")),
    ("analysis", "repro.analysis.lint", ("lint_netlist",)),
    ("coverage.engine", "repro.coverage.engine", (
        "evaluate_operator", "evaluate_adder", "evaluate_subtractor",
        "evaluate_multiplier", "evaluate_divider", "evaluate_gate_level",
        "_gate_case_counts",
    )),
    ("coverage.transfer", "repro.coverage.transfer", ("case_flag_counts",)),
    ("faults.sharding", "repro.faults.sharding", ("run_sharded",)),
    ("faults.sharding", "repro.store.checkpoint", ("run_checkpointed",)),
    ("vm.compile", "repro.vm.compiler", ("compile_dfg",)),
    ("vm.compile", "repro.vm.optimizer", ("optimize",)),
    ("codesign.swmodel", "repro.codesign.swmodel", ("estimate_software",)),
    ("faults.injector", "repro.faults.injector", (
        "run_sharded_stuck_at_campaign", "run_gate_level_campaign",
    )),
    ("tpg.generate", "repro.tpg.generate", (
        "generate_tests", "compact_test_set", "unit_test_set",
    )),
    ("tpg.dictionary", "repro.tpg.dictionary", (
        "build_fault_dictionary", "dictionary_for_vectors", "replay_detected",
        "_dictionary_shard",
    )),
    ("tpg.compaction", "repro.tpg.compaction", ("greedy_cover", "reverse_compact")),
    ("faults.incremental", "repro.faults.incremental", ("incremental_stuck_at_campaign",)),
]

_METHODS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("gates.engine", "repro.gates.engine", "BitParallelEngine", (
        "pack_inputs", "exhaustive", "run_words", "output_words", "truth_tables",
        "run_fault_groups", "detect_words", "campaign",
    )),
    ("arch.testbench", "repro.arch.testbench", "_Table2ArchitectureBase", (
        "input_rows", "valid_words", "valid_count", "test_space", "fault_group",
    )),
    ("arch.testbench", "repro.arch.testbench", "Table2DividerArchitecture", (
        "valid_words", "valid_count",
    )),
    ("arch.units", "repro.arch.alu", "FaultableALU", tuple(_ALU_UNIT)),
    ("arch.units", "repro.arch.adders", "RippleCarryAdderUnit", ("add", "sub", "neg")),
    ("arch.units", "repro.arch.multiplier", "ArrayMultiplierUnit", ("mul",)),
    ("arch.units", "repro.arch.divider", "RestoringDividerUnit", ("divmod", "div", "mod")),
    ("vm.run", "repro.vm.machine", "Machine", ("run",)),
    ("codesign.hw", "repro.codesign.flow", "ReliableCoDesignFlow", ("_hardware",)),
    ("faults.injector", "repro.faults.injector", "FaultInjector", ("run", "golden_run")),
    ("store.get", "repro.store.store", "ResultStore", ("get",)),
    ("store.put", "repro.store.store", "ResultStore", ("put",)),
]

#: Span name -> hook counting work where it happens.
_HOOKS: Dict[str, Hook] = {
    "Machine.run": _vm_counts,
    "FaultInjector.run": _injector_runs,
    "build_fault_dictionary": _dictionary_cells,
    "dictionary_for_vectors": _dictionary_cells,
    "greedy_cover": _cover_ratio,
    "ResultStore.put": _store_put_bytes,
    "incremental_stuck_at_campaign": _incremental_counts,
    "run_sharded": _sharding_events,
    "run_checkpointed": _sharding_events,
    **{f"FaultableALU.{m}": _alu_faulty(m) for m in _ALU_UNIT},
    **{f"{cls}.{m}": _unit_faulty for cls, methods in (
        ("RippleCarryAdderUnit", ("add", "sub", "neg")),
        ("ArrayMultiplierUnit", ("mul",)),
        ("RestoringDividerUnit", ("divmod", "div", "mod")),
    ) for m in methods},
}


def _backend_classes() -> List[type]:
    base = importlib.import_module("repro.gates.backends.base").Backend
    importlib.import_module("repro.gates.backends")
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


#: ``(owner, attribute, original)`` for every patch one install applied.
Patches = List[Tuple[Any, str, Any]]


def install(tracer: Tracer) -> Patches:
    """Wrap every layer entry point and make ``tracer`` the active one."""
    global _ACTIVE
    undo: Patches = []
    sites: Dict[int, List[Tuple[Any, str]]] = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith(("repro.", "perfbench"))
        ):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                sites.setdefault(id(value), []).append((module, attr))

    for layer, mod_name, names in _FUNCTIONS:
        module = importlib.import_module(mod_name)
        for name in names:
            fn = getattr(module, name)
            after = _HOOKS.get(name)
            before = obs_trace.clear_ring if after is _sharding_events else None
            wrapper = _make_wrapper(layer, name, fn, before, after)
            for owner, attr in sites.get(id(fn), [(module, name)]):
                undo.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    targets = [
        (layer, importlib.import_module(mod).__dict__[cls], methods)
        for layer, mod, cls, methods in _METHODS
    ]
    targets += [("gates.backends", cls, _KERNELS) for cls in _backend_classes()]
    for layer, cls, methods in targets:
        for method in methods:
            fn = cls.__dict__.get(method)
            if not callable(fn):
                continue
            name = f"{cls.__name__}.{method}"
            after = _kernel_cells if layer == "gates.backends" else _HOOKS.get(name)
            undo.append((cls, method, fn))
            setattr(cls, method, _make_wrapper(layer, name, fn, None, after))
    _ACTIVE = tracer
    return undo


def uninstall(undo: Patches) -> None:
    """Restore every patched attribute and deactivate the tracer."""
    global _ACTIVE
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    _ACTIVE = None
