"""Census of the library's knobs.

Every ``REPRO_*`` name in a string literal under ``src/repro`` must be
one of the documented environment variables, and README's
environment-variable sentence must name each of them, so a new knob
cannot land undocumented.  A path knob that cannot be opened warns
naming its variable.  Chunk geometry is no knob at all: it is a set of
module constants, pinned here at their measured values.
"""

import ast
import pathlib
import re

import pytest

from repro.coverage import engine as coverage_engine
from repro.gates import engine as gate_engine
from repro.obs import metrics, trace
from repro.tpg import dictionary as tpg_dictionary
from repro.tpg import generate as tpg_generate

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOBS = {"REPRO_STORE", "REPRO_STORE_DIR", "REPRO_TRACE", "REPRO_METRICS"}
NAME = re.compile(r"REPRO_[A-Z_]+")


def _literal_names():
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(NAME.findall(node.value))
    return names


def test_env_knob_census():
    assert _literal_names() == KNOBS
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = next(
        s for s in re.split(r"(?<=\.)\s", readme) if "environment variables:" in s
    )
    for name in KNOBS:
        assert f"`{name}`" in sentence, name


def test_unusable_telemetry_paths_name_their_variable(tmp_path, monkeypatch):
    # A directory cannot be opened for appending.
    bad = str(tmp_path)
    monkeypatch.setenv("REPRO_METRICS", bad)
    metrics.inc("env_knob_probe_total")
    with pytest.warns(UserWarning) as caught:
        metrics.dump()
    assert [str(w.message).split(":")[0] for w in caught] == [
        f"cannot dump metrics to REPRO_METRICS={bad!r}"
    ]

    trace._SINK.close()
    monkeypatch.setenv("REPRO_TRACE", bad)
    try:
        with pytest.warns(UserWarning) as caught:
            trace.emit_event("env_knob_probe")
    finally:
        trace._SINK.close()
    assert [str(w.message).split(":")[0] for w in caught] == [
        f"cannot trace to REPRO_TRACE={bad!r}"
    ]


def test_chunk_constants():
    # Two pairs, both defined next to each other: campaigns, fault
    # dictionaries and the ATPG residue sweep share the sweep pair, the
    # Table sweeps use their own, and no consumer defines a third.
    assert (gate_engine.SWEEP_WORD_CHUNK, gate_engine.SWEEP_FAULT_CHUNK) == (256, 64)
    assert (gate_engine.TABLE_WORD_CHUNK, gate_engine.TABLE_FAULT_CHUNK) == (512, 16)
    for module in (coverage_engine, tpg_dictionary, tpg_generate):
        own = {
            name
            for name in vars(module)
            if name.endswith(("_WORD_CHUNK", "_FAULT_CHUNK"))
            and getattr(gate_engine, name, None) is not getattr(module, name)
        }
        assert not own, module.__name__
