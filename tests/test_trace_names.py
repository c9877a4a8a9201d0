"""The benchmark tracer wraps functions by dotted name; every name it lists
must still resolve in the package, or `perfbench/run.py --trace 1` breaks."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _listed_names():
    """The TRACED and COUNTED tuples of the tracer, read from its source."""
    names = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TRACED", "COUNTED"):
                names[target.id] = ast.literal_eval(node.value)
    return names


def test_every_traced_name_resolves():
    names = _listed_names()
    assert names["TRACED"] and names["COUNTED"]
    for dotted in names["TRACED"] + names["COUNTED"]:
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"lionsjet.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{dotted} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"{dotted} is not callable"
