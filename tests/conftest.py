import sys
from pathlib import Path

import pytest

from fsmguard import SourceText, extract_stg, parse_source

DESIGNS = Path(__file__).resolve().parent.parent / "designs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def design_source(name: str) -> SourceText:
    return SourceText.from_file(DESIGNS / f"{name}.v")


def design_ast(name: str):
    return parse_source(design_source(name)).expect_ast()


def design_stg(name: str, protected=()):
    return extract_stg(design_ast(name), protected)


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Wrap module.name in every fsmguard module that holds it (callers
    import it by name); the returned list grows by one per call."""
    original = getattr(sys.modules[module], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("fsmguard") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.fixture
def cold_gate_memo(monkeypatch):
    """An empty injection memo for the test, so every plan_injection key it
    uses runs the gate once; the memo in use before comes back afterwards."""
    gated = {}
    monkeypatch.setattr(sys.modules["fsmguard.inject"], "_GATED", gated)
    return gated


@pytest.fixture
def vending():
    return design_source("vending")


@pytest.fixture
def vending_deadlock():
    return design_source("vending_deadlock")


@pytest.fixture
def aes_ctrl():
    return design_source("aes_ctrl")


@pytest.fixture
def aes_ctrl_default():
    return design_source("aes_ctrl_default")


@pytest.fixture
def fsm_review():
    return design_source("fsm_review")


@pytest.fixture
def rsa_ctrl():
    return design_source("rsa_ctrl")


@pytest.fixture
def moore_conflict():
    return design_source("moore_conflict")


@pytest.fixture
def clean_bases():
    return [design_source(n) for n in ("vending", "aes_ctrl_default", "rsa_ctrl")]
