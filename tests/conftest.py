import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fsmguard import (
    DEFAULT_KEYWORDS,
    EncodingAssignment,
    FifResult,
    Guard,
    RuleError,
    SourceText,
    Stg,
    Transition,
    extract_stg,
    fif_metric,
    parse_source,
)
from fsmguard.tokens import rename_identifiers

DESIGNS = Path(__file__).resolve().parent.parent / "designs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def design_source(name: str) -> SourceText:
    return SourceText.from_file(DESIGNS / f"{name}.v")


def design_ast(name: str):
    return parse_source(design_source(name)).expect_ast()


def design_stg(name: str, protected=()):
    return extract_stg(design_ast(name), protected)


def out_edges(stg: Stg, name: str) -> list:
    """The traversable edges leaving a state, in source order."""
    return [t for t in stg.transitions if t.source == name and not t.guard.is_constant_false]


def unprotected_transitions(stg: Stg) -> list[Transition]:
    """Transitions whose endpoints are both unprotected, in source order,
    self edges included."""
    return [t for _, _, t in stg.scored]


def score_assignment(stg: Stg, mapping: dict[str, int]) -> list[tuple[str, str]]:
    """Transitions between unprotected states, self edges excluded, whose
    assigned encodings sit at HD != 1: the residual a re-encoding leaves."""
    return [(t.source, t.target) for t in unprotected_transitions(stg)
            if not t.is_self and (mapping[t.source] ^ mapping[t.target]).bit_count() != 1]


def fif_results(stg: Stg, include_self_edges: bool = False) -> list[FifResult]:
    """FIF for every (unprotected transition, protected state) pair: the
    reference the FIF pipeline's replay is scored against."""
    protected = sorted(stg.protected_names)
    if not protected:
        raise RuleError("FIF rule requires a protected state")
    results = []
    for t in unprotected_transitions(stg):
        if t.is_self and not include_self_edges:
            continue
        for p in protected:
            base = fif_metric(*(f"{stg.code_of(n):0{stg.width}b}" for n in (t.source, t.target, p)))
            results.append(FifResult(base.per_bit, base.overall, t.source, t.target, p))
    return results


def contains_keywords(text: str, keywords: tuple[str, ...] = DEFAULT_KEYWORDS) -> bool:
    low = text.lower()
    return any(k in low for k in keywords)


def residual_count(assignment: EncodingAssignment) -> int:
    return len(assignment.residual_violations)


def widened_vending(width: int, default_arm: bool = True) -> SourceText:
    """designs/vending.v with a width-bit state register (its 4 codes kept),
    with or without its default arm."""
    text = design_source("vending").content
    if not default_arm:
        text = re.sub(r"        default: begin\n.*?        end\n", "", text, flags=re.S)
    text = re.sub(r"3'b(\d+)", lambda m: f"{width}'b{m[1]:0>{width}}", text)
    return SourceText(text.replace("reg [2:0]", f"reg [{width - 1}:0]"))


def broken_emit(monkeypatch) -> None:
    """Make mitigate emit each repaired design without its endcase, so the
    repaired text no longer parses."""
    mitigate_module = sys.modules["fsmguard.mitigate"]
    emit = mitigate_module.emit_verilog

    def without_endcase(ast):
        src = emit(ast)
        return SourceText(src.content.replace("endcase", ""), src.origin)

    monkeypatch.setattr(mitigate_module, "emit_verilog", without_endcase)


def rename_states(stg: Stg, mapping: dict[str, str]) -> Stg:
    """Rebuild the graph under a rename map covering states and guard
    signals; used to compare sanitized or generated designs against their
    originals."""
    def m(name: str) -> str:
        return mapping.get(name, name)

    def m_guard(g: Guard) -> Guard:
        return Guard(g.kind, rename_identifiers(g.text, mapping))

    return Stg(
        states=tuple(replace(s, name=m(s.name)) for s in stg.states),
        transitions=tuple(
            replace(t, source=m(t.source), target=m(t.target), guard=m_guard(t.guard))
            for t in stg.transitions
        ),
        reset_state=m(stg.reset_state),
        width=stg.width,
    )


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


@pytest.fixture
def saturated_base():
    """A clean 1-bit design using both codes: no class that needs an unused
    encoding can be injected into it."""
    return SourceText("""module m (input clk, input rst, input go);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin
case (s)
A: begin
if (go) n = B;
else n = A;
end
B: n = A;
default: n = A;
endcase
end
endmodule""", origin="tiny.v")
