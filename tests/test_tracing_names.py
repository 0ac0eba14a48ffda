"""The benchmark's traced names must still resolve in the package.

``bench/tracing.py`` wraps each ``module.name`` or ``module.Class.attr``
listed in its ``LAYERS`` table; a renamed or deleted one would only fail
when a traced benchmark run starts. The table is read as a literal, without
importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> list[str]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return [f"{layer}.{name}" for layer, names in layers.items() for name in names]
    raise AssertionError("bench/tracing.py defines no LAYERS table")


def resolves(name: str) -> bool:
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"steineradapt.{layer}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer replaces a method through the class's own namespace
        return method in vars(getattr(module, cls_name, object))
    return hasattr(module, attr)


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    assert [name for name in names if not resolves(name)] == []
