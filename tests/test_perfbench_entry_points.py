"""The benchmark calls fsmguard and wraps its functions by name, so each
name it lists must resolve and each call must fit its signature.  perfbench
is read as text, never imported."""
import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
# what perfbench binds the package to: fg is fsmguard, llm is fsmguard.llm
_MODULES = {"fg": "fsmguard", "llm": "fsmguard.llm"}


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


def _library_calls():
    """(file:line, module, name, positional count, keyword names) of each
    ``fg.X(...)`` and ``llm.X(...)`` call in perfbench."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id in _MODULES):
                yield (f"{path.name}:{node.lineno}", _MODULES[node.func.value.id],
                       node.func.attr, len(node.args), [k.arg for k in node.keywords])


def test_perfbench_calls_bind_to_the_library_signatures():
    calls = list(_library_calls())
    assert calls
    broken = []
    for where, module, name, positional, keywords in calls:
        target = getattr(importlib.import_module(module), name, None)
        if isinstance(target, type) and issubclass(target, BaseException):
            continue  # an exception takes any arguments
        try:
            inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))
        except (TypeError, ValueError) as exc:
            broken.append(f"{where}: {module}.{name}: {exc}")
    assert broken == []
