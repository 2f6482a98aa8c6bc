"""The benchmark's tracer rebinds library functions by name; keep those names alive.

`perfbench/tracing.py` is read as source, not imported, so this check needs
nothing the benchmark needs.
"""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _traced_pairs() -> list[tuple[str, str]]:
    with open(TRACING, encoding="utf-8") as f:
        tree = ast.parse(f.read(), TRACING)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def test_every_traced_function_exists():
    pairs = _traced_pairs() + [("stepwise", "enumerate_omega_delta")]
    missing = [
        f"{mod}.{attr}"
        for mod, attr in pairs
        if not callable(getattr(importlib.import_module(f"naselect.{mod}"), attr, None))
    ]
    assert missing == []
    assert len(pairs) > 10
