"""The benchmark's tracer wraps package names by lookup; each must still exist.

perfbench/tracing.py is read as source (not imported), so this test needs
nothing from the benchmark and fails as soon as a traced name is deleted or
renamed in the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("%s has no %s table" % (TRACING.name, name))


def test_traced_functions_exist():
    functions = _table("FUNCTIONS")
    assert functions
    for layer, names in functions.items():
        module = importlib.import_module("skychow." + layer)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, "skychow.%s lacks %s" % (layer, missing)


def test_traced_methods_are_defined_on_their_classes():
    methods = _table("METHODS")
    assert methods
    for layer, classes in methods.items():
        module = importlib.import_module("skychow." + layer)
        for cls_name, attrs in classes:
            cls = getattr(module, cls_name)
            missing = [attr for attr in attrs if attr not in cls.__dict__]
            assert not missing, "skychow.%s.%s lacks %s" % (layer, cls_name, missing)
