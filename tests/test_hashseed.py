"""Outputs that do not depend on the string hash seed: undeclared protected
states are reported in source order (annotations) or sorted (arguments),
and the CLI writes the same bytes under every ``PYTHONHASHSEED``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsmguard import SourceText, StgError, extract_stg, parse_source

from conftest import DESIGNS, FIXTURES, design_ast

ROOT = Path(__file__).resolve().parents[1]
UNDECLARED = FIXTURES / "protected_undeclared.v"

# Runs in a fresh interpreter; prints one digest of every output, the
# temporary directory's path written as <tmp>.
PROBE = r"""
import contextlib, hashlib, io, sys, tempfile
from pathlib import Path
from fsmguard import cli_dispatch

designs, fixtures = Path(sys.argv[1]), Path(sys.argv[2])
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    runs = [["check", "--json", str(p)]
            for p in sorted(designs.glob("*.v")) + sorted(fixtures.glob("*.v"))]
    runs += [
        ["check", "--json", "--protected", "NOPE_A", "--protected", "NOPE_B",
         "--protected", "NOPE_C", str(designs / "vending.v")],
        ["inject", "--class", "cwe835_trap", "--seed", "5", "--protected", "IDLE,DISPENSING_ITEM",
         "--out-design", str(out / "i.v"), "--out-plan", str(out / "i.json"),
         str(designs / "vending.v")],
        ["mitigate", "--fif", "--protected", "WAIT_KEY,FINAL_ROUND", "--out-design", str(out / "m.v"),
         "--out-report", str(out / "m.json"), str(designs / "aes_ctrl.v")],
        ["sanitize", "--seed", "3", "--out-design", str(out / "s.v"),
         "--out-map", str(out / "s.json"), str(fixtures / "trojan_unit.v")],
    ]
    for argv in runs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_dispatch(argv)
        digest.update(repr((code, stdout.getvalue(), stderr.getvalue())).replace(tmp, "<tmp>").encode())
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
print(digest.hexdigest())
"""


def test_protected_annotations_are_reported_in_source_order():
    result = parse_source(SourceText.from_file(UNDECLARED))
    assert result.ast is None
    assert [d.message for d in result.diagnostics if d.code == "E_PROTECTED"] == [
        f"@protected names undeclared state {name}" for name in ("NOPE_C", "NOPE_A", "NOPE_B")]


@pytest.mark.parametrize("names, message", [
    (["NOPE_B", "NOPE_C", "NOPE_A"], "protected states NOPE_A, NOPE_B, NOPE_C are not declared"),
    (["NOPE", "IDLE"], "protected state NOPE is not declared"),
])
def test_undeclared_protected_states_are_named_sorted(names, message):
    with pytest.raises(StgError) as info:
        extract_stg(design_ast("vending"), names)
    assert str(info.value) == message


def test_cli_outputs_do_not_depend_on_the_hash_seed():
    """Two interpreters with different PYTHONHASHSEEDs, run side by side."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    procs = [subprocess.Popen([sys.executable, "-c", PROBE, str(DESIGNS), str(FIXTURES)],
                              env={**env, "PYTHONHASHSEED": seed}, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for seed in ("1", "2")]
    outs = [proc.communicate(timeout=60) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    first, second = (out.strip() for out, _ in outs)
    assert len(first) == 64 and first == second
