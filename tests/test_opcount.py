"""tools/opcount.py, the bytecode cost proxy, counts the same on every run.

The tool is loaded from its file (tools/ is no package); each count runs
in a fresh interpreter on this tree.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _opcount():
    spec = importlib.util.spec_from_file_location("opcount", ROOT / "tools" / "opcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_one_op_count_the_same():
    opcount = _opcount()
    first = opcount.count_opcodes(ROOT, "intersect_cli", 1)
    assert len(first) == 1 and first[0] > 1000
    assert opcount.count_opcodes(ROOT, "intersect_cli", 1) == first
