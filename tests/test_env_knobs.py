"""Census of the library's knobs.

Every ``REPRO_*`` name in a string literal under ``src/repro`` must be
one of the documented environment variables, and README's
environment-variable sentence must name each of them, so a new knob
cannot land undocumented.  Chunk geometry is no knob at all: it is a
set of module constants, pinned here at their measured values.
"""

import ast
import pathlib
import re

from repro.coverage import engine as coverage_engine
from repro.gates import engine as gate_engine
from repro.tpg import dictionary as tpg_dictionary
from repro.tpg import generate as tpg_generate

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOBS = {"REPRO_BACKEND", "REPRO_STORE", "REPRO_STORE_DIR", "REPRO_TRACE", "REPRO_METRICS"}
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


def test_chunk_constants():
    assert (gate_engine.CAMPAIGN_WORD_CHUNK, gate_engine.CAMPAIGN_FAULT_CHUNK) == (512, 64)
    for module, prefix in (
        (coverage_engine, "GATE"),
        (tpg_dictionary, "DICT"),
        (tpg_generate, "TPG"),
    ):
        geometry = (
            getattr(module, f"{prefix}_WORD_CHUNK"),
            getattr(module, f"{prefix}_FAULT_CHUNK"),
        )
        assert geometry == (256, 64), module.__name__
