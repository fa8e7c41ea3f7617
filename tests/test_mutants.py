"""Each mutant of tools/mutants.py still finds its text exactly once.

tools/mutants.py is read as source (not imported), so this test runs no
mutant; it fails as soon as a refactor moves or duplicates the text a
mutant targets, instead of the mutant run reporting it stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.py"


def _mutants():
    tree = ast.parse(MUTANTS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MUTANTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("%s has no MUTANTS table" % MUTANTS.name)


def test_each_mutant_text_occurs_once():
    mutants = _mutants()
    assert mutants
    for name, (rel, text, mutated) in mutants.items():
        assert mutated != text, name
        count = (ROOT / rel).read_text(encoding="utf-8").count(text)
        assert count == 1, "mutant %s: its text occurs %d times in %s" % (name, count, rel)
