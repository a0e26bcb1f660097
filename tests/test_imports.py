"""What importing fsmguard loads.  The HTTP client loads on first use, and
no thread pool loads at all: sweeps and corpus generation run their jobs on
plain ``threading`` threads.  Every package submodule loads with the
package, because the benchmark's traced run looks its entry points up in
sys.modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
UNLOADED = ("urllib.request", "http.client", "ssl", "email.parser", "concurrent.futures")

# Runs in a fresh interpreter: the first snapshot is the bare interpreter's
# modules, taken before anything of fsmguard loads.
PROBE = """
import sys
bare = set(sys.modules)
import fsmguard, fsmguard.llm
imported = set(sys.modules)
from fsmguard import (RuleConfig, SourceText, VulnClass, generate_corpus, mitigate,
                      run_all_checks, verify_mitigation)
from fsmguard.llm import MockProvider, policy_check_pipeline, sweep_params, temperature_grid
src = SourceText.from_file(sys.argv[1])
protected = frozenset({"WAIT_KEY"})
cfg = RuleConfig(fif=True)
outcome = mitigate(src, run_all_checks(src, protected, cfg), rule_config=cfg)
assert outcome.fixed
assert verify_mitigation(src, outcome.design, outcome.fixed, protected, cfg).intended_present
swept = sweep_params(policy_check_pipeline(["No deadlock states."]), [src], temperature_grid(),
                     lambda: MockProvider(["Policy 1: not violated"]), in_flight=4)
assert len(swept) == 11 and not any(t.failed for t in swept.values())
clean = SourceText.from_file(sys.argv[2])
assert len(generate_corpus([clean], {VulnClass.STATIC_DEADLOCK: 2}, 0, workers=2)) == 4
print(repr((sorted(imported - bare), sorted(set(sys.modules) - bare))))
"""


def _entry_modules() -> list[str]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
            return [f"fsmguard.{mod}" for mod in ast.literal_eval(node.value)]
    raise AssertionError(f"{SPANS} defines no ENTRY_POINTS")


@pytest.fixture(scope="module")
def probe() -> tuple[list[str], list[str]]:
    """The modules added by the import, then by the import and the run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    designs = ROOT / "designs"
    out = subprocess.run([sys.executable, "-c", PROBE, str(designs / "aes_ctrl.v"),
                          str(designs / "vending.v")],
                         env=env, capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


def test_import_and_check_load_neither_http_nor_thread_pool(probe):
    """Nor do a mock sweep and a corpus built on two workers."""
    imported, after_run = probe
    assert [m for m in UNLOADED if m in imported] == []
    assert [m for m in UNLOADED if m in after_run] == []
    assert "fsmguard.mitigate" in imported


def test_every_traced_module_loads_with_the_package(probe):
    imported, _ = probe
    modules = _entry_modules()
    assert modules
    assert [m for m in modules if m not in imported] == []
