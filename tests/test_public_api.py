"""Functions the benchmark's tracer expects stay public in their modules."""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _expected_names():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("EXPECTED not found in bench/tracing.py")


def test_traced_boundaries_are_public_functions():
    names = _expected_names()
    assert names
    for dotted in names:
        module_name, func_name = dotted.split(".")
        module = importlib.import_module("lharg." + module_name)
        fn = getattr(module, func_name, None)
        assert inspect.isfunction(fn), f"{dotted} is not a function"
        assert not func_name.startswith("_")
        # the tracer names a function by where it is defined
        assert fn.__module__ == "lharg." + module_name, dotted
