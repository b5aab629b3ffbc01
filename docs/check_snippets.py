"""Execute every ``python`` code block in the Markdown docs.

CI runs this so README/docs snippets cannot rot: each fenced block is
executed in file order. Blocks within one document share a namespace
(later snippets may use earlier imports); documents are isolated from
each other.  Plain ``.py`` targets (runnable example scripts) execute
as ``__main__``, so the checked examples cannot rot either.

Usage:  PYTHONPATH=src python docs/check_snippets.py [files...]
"""

from __future__ import annotations

import pathlib
import re
import runpy
import sys

FENCE = re.compile(r"^```python\s*$")
END = re.compile(r"^```\s*$")

#: Documents checked by default, repo-root relative.  Markdown files
#: contribute their fenced blocks; ``.py`` entries run whole.
DEFAULT_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/api.md",
    "examples/compact_test_sets.py",
    "examples/cached_campaigns.py",
    "examples/static_analysis.py",
    "examples/traced_campaign.py",
    "examples/incremental_campaign.py",
    "examples/quickstart.py",
    "examples/coverage_study.py",
    "examples/fault_campaign.py",
    "examples/fir_codesign.py",
    "examples/generate_hdl.py",
)


def python_blocks(text: str):
    block: list = []
    inside = False
    for line in text.splitlines():
        if inside:
            if END.match(line):
                inside = False
                yield "\n".join(block)
                block = []
            else:
                block.append(line)
        elif FENCE.match(line):
            inside = True


def check(path: pathlib.Path) -> int:
    if path.suffix == ".py":
        runpy.run_path(str(path), run_name="__main__")
        print(f"{path}: script ok")
        return 1
    namespace: dict = {"__name__": f"docsnippet::{path.name}"}
    count = 0
    for count, code in enumerate(python_blocks(path.read_text()), start=1):
        try:
            exec(compile(code, f"{path}#block{count}", "exec"), namespace)
        except Exception:
            print(f"FAILED {path} block {count}:\n{code}\n", file=sys.stderr)
            raise
    print(f"{path}: {count} snippet(s) ok")
    return count


def main(argv: list) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    targets = [pathlib.Path(a) for a in argv] or [
        root / name for name in DEFAULT_DOCS
    ]
    total = 0
    for path in targets:
        if path.exists():
            total += check(path)
        else:
            print(f"skipping missing {path}", file=sys.stderr)
    if total == 0:
        print("no snippets found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
