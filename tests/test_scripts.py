"""Smoke tests of the experiment scripts at their smallest size."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("run_mitigation_experiment.py", ("--per-class", "1"),
     ("class", "inputs", "mitigated", "rate %")),
    ("run_detection_sweep.py", ("--count", "1"),
     ("temperature", "inputs", "accurate", "accuracy %")),
])
def test_experiment_script_prints_its_table(script, args, header):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first = done.stdout.splitlines()[0]
    assert first.split(maxsplit=len(header) - 1) == list(header)
    assert len(done.stdout.splitlines()) > 1
