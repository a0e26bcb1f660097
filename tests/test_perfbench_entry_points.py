"""The benchmark's traced run wraps fsmguard functions by name, so each name
it lists must resolve.  perfbench/spans.py is read as text, never imported."""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _entry_points() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no ENTRY_POINTS")


def test_traced_entry_points_resolve():
    entry_points = _entry_points()
    assert entry_points
    missing = [f"fsmguard.{module}.{name}"
               for module, names in entry_points.items() for name in names
               if not callable(getattr(importlib.import_module(f"fsmguard.{module}"), name, None))]
    assert missing == []
