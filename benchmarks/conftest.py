"""Shared benchmark configuration.

Heavy experiments run once per benchmark (rounds=1) -- they are
deterministic simulations, not microbenchmarks, and their value is the
regenerated table, which each bench prints through the ``report``
fixture so ``pytest benchmarks/ --benchmark-only -s`` shows the
paper-vs-measured comparison.

Trajectory recording: ``--json DIR`` makes every bench persist its
per-case timings.  Benches call the ``record`` fixture
(``record(case, seconds, **extra)``); at session end one
``BENCH_<suite>.json`` file per benchmark module (``bench_engine.py``
-> ``BENCH_engine.json``) is written into ``DIR``, stamped with the
active execution backend (:mod:`repro.gates.backends`), so CI can
archive the files as artifacts and regressions become diffable
trajectories instead of pass/fail gates.  Without ``--json`` the
fixture is a no-op.
"""

import json
import os
import platform
import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="DIR",
        dest="bench_json_dir",
        help=(
            "write BENCH_<suite>.json benchmark-trajectory files "
            "(per-case timings + active backend) into DIR"
        ),
    )


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once and return its result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


class BenchRecorder:
    """Collects per-case benchmark timings and writes them as JSON."""

    def __init__(self, directory):
        self.directory = directory
        self.suites = {}

    def record(self, suite, case, seconds, **extra):
        entry = {"case": case, "seconds": float(seconds)}
        entry.update(extra)
        self.suites.setdefault(suite, []).append(entry)

    def flush(self):
        if not self.suites:
            return
        from repro.gates.backends import list_backends, resolve_backend_name
        from repro.obs import registry

        os.makedirs(self.directory, exist_ok=True)
        meta = {
            "backend": resolve_backend_name(),
            "available_backends": list(list_backends()),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            # End-of-session telemetry snapshot (store hit rates, event
            # counts, per-backend kernel histograms when profiling on).
            "metrics": registry().snapshot(),
        }
        for suite, cases in self.suites.items():
            path = os.path.join(self.directory, f"BENCH_{suite}.json")
            with open(path, "w") as handle:
                json.dump({"suite": suite, **meta, "cases": cases}, handle, indent=2)
                handle.write("\n")


def pytest_configure(config):
    directory = config.getoption("bench_json_dir")
    config._bench_recorder = BenchRecorder(directory) if directory else None


def pytest_sessionfinish(session):
    recorder = getattr(session.config, "_bench_recorder", None)
    if recorder is not None:
        recorder.flush()


@pytest.fixture
def record(request):
    """Per-case trajectory recording: ``record(case, seconds, **extra)``.

    The suite name derives from the benchmark module (``bench_engine.py``
    records into ``BENCH_engine.json``).  A no-op unless the session was
    started with ``--json DIR``.
    """
    recorder = getattr(request.config, "_bench_recorder", None)
    suite = request.node.fspath.purebasename
    if suite.startswith("bench_"):
        suite = suite[len("bench_") :]

    def _record(case, seconds, **extra):
        if recorder is not None:
            recorder.record(suite, case, seconds, **extra)

    return _record


def pytest_collection_modifyitems(items):
    # Keep table order stable: table1, table2, twobit, table3, figures,
    # ablations.
    items.sort(key=lambda item: item.fspath.basename)
