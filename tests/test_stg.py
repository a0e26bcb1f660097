"""STG extraction and the shared graph primitives."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmguard import (
    Guard,
    GuardKind,
    Rule,
    RuleViolation,
    SourceText,
    Span,
    State,
    Stg,
    StgError,
    Transition,
    dump_stg,
    emit_verilog,
    extract_stg,
    parse_source,
    reachable_states,
    run_all_checks,
    stg_isomorphic_modulo_encoding,
)

from conftest import design_ast, design_source, design_stg, out_edges, unprotected_transitions


def make_stg(codes: dict[str, str], edges, reset, protected=()):
    width = len(next(iter(codes.values())))
    states = tuple(State(n, int(c, 2), n in protected) for n, c in codes.items())
    transitions = tuple(Transition(a, b, Guard.always()) for a, b in edges)
    return Stg(states=states, transitions=transitions, reset_state=reset, width=width)


def _without_arm(ast, label: str):
    return replace(ast, comb=replace(ast.comb, arms=[a for a in ast.comb.arms if a.label != label]))


# -- extraction -----------------------------------------------------------------

def test_extract_vending_machine_edges():
    stg = design_stg("vending")
    assert len(stg.states) == 4
    pairs = {(t.source, t.target, t.guard.text) for t in stg.transitions}
    assert ("ACCEPTING_COINS", "PRODUCT_SELECTED", "coin") in pairs
    assert stg.reset_state == "IDLE"
    # a state without an arm takes the default arm's target
    armless = _without_arm(design_ast("vending"), "DISPENSING_ITEM")
    assert out_edges(extract_stg(armless), "DISPENSING_ITEM") == [
        Transition("DISPENSING_ITEM", "IDLE", Guard.always())]


def test_extract_aes_ctrl_two_edges_per_arm():
    stg = design_stg("aes_ctrl", {"WAIT_KEY"})
    assert len(stg.states) == 5
    assert len(stg.transitions) == 10
    # with no default arm and no leading default, a state without an arm holds
    armless = _without_arm(design_ast("aes_ctrl"), "FINAL_ROUND")
    assert out_edges(extract_stg(armless), "FINAL_ROUND") == [
        Transition("FINAL_ROUND", "FINAL_ROUND", Guard.hold())]
    per_arm = {}
    for t in stg.transitions:
        per_arm[t.source] = per_arm.get(t.source, 0) + 1
    assert set(per_arm.values()) == {2}


def _vending_with_wait(default_body: str, leading: str = "") -> SourceText:
    """designs/vending.v with an armless WAIT = 3'b100 that IDLE enters on
    coin, default_body as its default arm's next-state logic, and leading
    as a next-state default ahead of the case statement."""
    text = design_source("vending").content.replace(
        "parameter DISPENSING_ITEM = 3'b011;\n",
        "parameter DISPENSING_ITEM = 3'b011;\nparameter WAIT = 3'b100;\n")
    text = text.replace("            if (productSelected) begin",
                        "            if (coin) next_state = WAIT;\n"
                        "            if (productSelected) begin", 1)
    text = text.replace("            next_state = IDLE;\n        end\n    endcase",
                        f"            {default_body}\n        end\n    endcase")
    return SourceText(text.replace("    case (current_state)", f"    {leading}\n    case (current_state)"))


@pytest.mark.parametrize("default_body, leading, wait_edges", [
    ("if (coin) next_state = IDLE; else next_state = ACCEPTING_COINS;", "",
     ["WAIT -> IDLE [coin]", "WAIT -> ACCEPTING_COINS [!(coin)]"]),
    ("if (coin) next_state = IDLE;", "next_state = PRODUCT_SELECTED;",
     ["WAIT -> IDLE [coin]", "WAIT -> PRODUCT_SELECTED [!(coin)]"]),
    ("if (coin) next_state = IDLE;", "",
     ["WAIT -> IDLE [coin]", "WAIT -> WAIT [hold]"]),
], ids=["if-else", "if-then-leading-default", "if-then-hold"])
def test_an_armless_state_runs_the_default_arms_branches(default_body, leading, wait_edges):
    """A state with no arm takes every branch of the default arm, at its
    parameter's line; a branch left open falls to the leading default, or
    holds without one."""
    src = _vending_with_wait(default_body, leading)
    report = run_all_checks(src)
    stg = report.expect_stg()
    assert dump_stg(stg).splitlines()[-2:] == wait_edges
    assert {t.span.start for t in out_edges(stg, "WAIT")} == {13}
    assert Rule.STATIC_DEADLOCK not in report.violated_rules


def test_extract_implicit_hold_self_edge():
    text = """module m (input clk, input rst, input go, output reg y);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin
case (s)
A: begin
if (go) n = B;
end
B: begin
y = 1;
end
endcase
end
endmodule"""
    stg = extract_stg(parse_source(SourceText(text)).expect_ast())
    a_edges = {(t.source, t.target, t.guard.kind.value) for t in out_edges(stg, "A")}
    assert ("A", "B", "expr") in a_edges
    assert ("A", "A", "hold") in a_edges
    # B assigns only an output: forced hold self edge
    assert [(t.target, t.guard.kind.value) for t in out_edges(stg, "B")] == [("B", "hold")]


def test_extract_leading_default_routes_fallthrough():
    stg = design_stg("fsm_review")
    s0_targets = {(t.target, t.guard.text) for t in out_edges(stg, "s0")}
    assert s0_targets == {("s1", "start"), ("s0", "!(start)")}


_FALLTHROUGH = """module m (input clk, input rst, input a, input b, input c, output reg y);
parameter A = 2'b00;
parameter B = 2'b01;
parameter C = 2'b10;
reg [1:0] s;
reg [1:0] n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin
    n = A;
    case (s)
        A: begin
            if (a) begin
                if (b) n = B;
            end else if (c) n = C;
        end
        B: begin
            n = A;
            y = 1;
            if (a) begin
                if (b) n = C;
                else n = B;
            end
        end
        C: begin
            if (a) n = B;
            else n = A;
        end
    endcase
end
endmodule
"""


@pytest.mark.parametrize("leading, a_falls_to", [("n = A;", "A -> A [!(a) && !(c)]"),
                                                 ("y = 0;", "A -> A [hold]")])
def test_dump_stg_fallthrough_edges(leading, a_falls_to):
    """A is never fully assigned: it falls to the leading default, or holds
    without one.  B's unconditional base takes what its chain leaves, and C's
    chain covers every path, so C has no fallthrough edge."""
    text = _FALLTHROUGH.replace("    n = A;\n    case", f"    {leading}\n    case")
    stg = extract_stg(parse_source(SourceText(text)).expect_ast())
    assert dump_stg(stg) == "\n".join([
        "A -> B [a && b]",
        "A -> C [c]",
        a_falls_to,
        "B -> C [a && b]",
        "B -> B [a && !(b)]",
        "B -> A [!(a)]",
        "C -> B [a]",
        "C -> A [!(a)]",
    ]) + "\n"


def test_extract_protected_must_be_declared():
    with pytest.raises(StgError):
        design_stg("vending", {"NOT_A_STATE"})


def test_extract_armless_state_holds():
    text = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; endcase end
endmodule"""
    stg = extract_stg(parse_source(SourceText(text)).expect_ast())
    assert [(t.target, t.guard.kind.value) for t in out_edges(stg, "B")] == [("B", "hold")]


def test_repeated_state_name_is_rejected():
    states = (State("a", 0b011), State("b", 0b000), State("a", 0b100))
    with pytest.raises(StgError, match="state a is declared twice"):
        Stg(states=states, transitions=(Transition("a", "b", Guard.always()),),
            reset_state="a", width=3)


# -- reachability -----------------------------------------------------------------

def test_reachable_excludes_unreachable_state():
    assert reachable_states(design_stg("fsm_review")) == {"s0", "s1", "s2", "s4"}


def test_reachable_includes_injected_deadlock():
    reach = reachable_states(design_stg("vending_deadlock"))
    assert reach == {"IDLE", "ACCEPTING_COINS", "PRODUCT_SELECTED",
                     "DISPENSING_ITEM", "DEADLOCK_STATE"}


def test_reachable_single_state():
    stg = make_stg({"A": "0"}, [("A", "A")], "A")
    assert reachable_states(stg) == {"A"}


def test_reachable_skips_constant_false_guards():
    states = {"A": "00", "B": "01", "C": "10"}
    stg = Stg(
        states=tuple(State(n, int(c, 2)) for n, c in states.items()),
        transitions=(
            Transition("A", "B", Guard.always()),
            Transition("B", "C", Guard.expr("1'b0")),
        ),
        reset_state="A",
        width=2,
    )
    assert reachable_states(stg) == {"A", "B"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reachable_monotone_under_edge_addition(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    names = [f"s{i}" for i in range(n)]
    codes = {name: format(i, "03b") for i, name in enumerate(names)}
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=12))
    extra = data.draw(st.tuples(st.sampled_from(names), st.sampled_from(names)))
    before = reachable_states(make_stg(codes, edges, names[0]))
    after = reachable_states(make_stg(codes, edges + [extra], names[0]))
    assert before <= after


# -- unprotected transitions -------------------------------------------------------

def test_unprotected_transitions_rsa():
    edges = unprotected_transitions(design_stg("rsa_ctrl", {"RESULT"}))
    assert len(edges) == 7
    assert (edges[0].source, edges[0].target) == ("IDLE", "INIT")
    assert all("RESULT" not in (t.source, t.target) for t in edges)


def test_unprotected_transitions_all_protected():
    stg = design_stg("aes_ctrl", {"WAIT_KEY", "WAIT_DATA", "INITIAL_ROUND",
                                  "DO_ROUND", "FINAL_ROUND"})
    assert unprotected_transitions(stg) == []


def test_unprotected_transitions_aes():
    edges = {(t.source, t.target) for t in
             unprotected_transitions(design_stg("aes_ctrl", {"WAIT_KEY"}))}
    assert ("FINAL_ROUND", "WAIT_DATA") in edges
    assert all("WAIT_KEY" not in pair for pair in edges)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unprotected_subset_property(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    names = [f"s{i}" for i in range(n)]
    codes = {name: format(i, "03b") for i, name in enumerate(names)}
    protected = set(data.draw(st.lists(st.sampled_from(names), max_size=3)))
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=12))
    stg = make_stg(codes, edges, names[0], protected)
    up = unprotected_transitions(stg)
    assert set(up) <= set(stg.transitions)
    for t in up:
        assert t.source not in protected and t.target not in protected


# -- isomorphism -------------------------------------------------------------------

def test_iso_listing7_vs_listing8():
    a = design_stg("aes_ctrl", {"WAIT_KEY"})
    b = design_stg("aes_ctrl_default", {"WAIT_KEY"})
    assert stg_isomorphic_modulo_encoding(a, b)


def test_iso_base_vs_deadlocked():
    a = design_stg("vending")
    b = design_stg("vending_deadlock")
    assert not stg_isomorphic_modulo_encoding(a, b)


def test_iso_reflexive():
    for name in ("vending", "aes_ctrl", "rsa_ctrl"):
        stg = design_stg(name)
        assert stg_isomorphic_modulo_encoding(stg, stg)


# -- cross-module invariant ----------------------------------------------------------

@pytest.mark.parametrize("name", ["vending", "aes_ctrl", "fsm_review", "rsa_ctrl"])
def test_extract_commutes_with_emit(name):
    ast = design_ast(name)
    direct = extract_stg(ast)
    reparsed = parse_source(emit_verilog(ast)).expect_ast()
    assert stg_isomorphic_modulo_encoding(direct, extract_stg(reparsed))
    assert [s.code for s in direct.states] == [
        s.code for s in extract_stg(reparsed).states]


def test_dump_stg_format():
    text = dump_stg(design_stg("vending"))
    lines = text.strip().splitlines()
    assert lines[0] == "IDLE -> PRODUCT_SELECTED [productSelected]"
    assert all(" -> " in line and line.endswith("]") for line in lines)


# -- values --------------------------------------------------------------------

def test_value_classes_compare_hash_order_and_repr():
    """Spans, guards, states, transitions and findings are plain slot
    classes that nothing mutates; equality and hash skip the fields marked
    compare=False, and spans order by (start, end)."""
    go = Guard.expr("go")
    t = Transition("A", "B", go, Span(3, 4))
    moved = replace(t, span=Span(9, 9))
    assert t == moved and hash(t) == hash(moved) and len({t, moved}) == 1
    assert t != replace(t, guard=Guard.expr("stop"))
    assert moved.span == Span(9, 9) and t.span == Span(3, 4)
    assert repr(t) == ("Transition(source='A', target='B', guard=Guard(kind=<GuardKind.EXPR: "
                       "'expr'>, text='go'), span=Span(start=3, end=4))")

    s = State("A", 2, True, Span(1, 1))
    assert s == State("A", 2, True, Span(7, 8)) and hash(s) == hash(State("A", 2, True, Span(7, 8)))
    assert s != State("A", 2, False, Span(1, 1))
    assert repr(s) == "State(name='A', code=2, protected=True, span=Span(start=1, end=1))"

    assert go == Guard(GuardKind.EXPR, "go") and hash(go) == hash(Guard(GuardKind.EXPR, "go"))
    assert go != Guard.hold("go")

    v = RuleViolation(Rule.HD_NOT_ONE, ("A", "B"), ("A", "B"), Span(3, 4), {"hamming_distance": 2})
    other = replace(v, evidence={"hamming_distance": 0})
    assert v == other and hash(v) == hash(other) and len({v, other}) == 1
    assert v != replace(v, span=Span(5, 5))
    assert repr(v) == ("RuleViolation(rule=<Rule.HD_NOT_ONE: 'HD_NOT_ONE'>, states=('A', 'B'), "
                       "transition=('A', 'B'), span=Span(start=3, end=4), "
                       "evidence={'hamming_distance': 2})")

    assert sorted([Span(2, 3), Span(1, 5), Span(1, 2)]) == [Span(1, 2), Span(1, 5), Span(2, 3)]
    assert Span(1, 2) < Span(2, 2) and Span.point(4) == Span(4, 4)
    assert hash(Span(1, 2)) == hash(Span(1, 2)) and len({Span(1, 2), Span(1, 2)}) == 1
    for bad in ((0, 1), (3, 2)):
        with pytest.raises(ValueError):
            Span(*bad)

    for value in (t, s, go, v, Span(1, 1)):
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("make, message", [
    (lambda: Span(0, 0), "bad span 0..0"),
    (lambda: Span(3, 2), "bad span 3..2"),
    (lambda: Span.point(0), "bad span 0..0"),
    (lambda: replace(Span(2, 3), end=1), "bad span 2..1"),
])
def test_span_rejects_a_bad_range(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_span_equality_order_hash_and_repr():
    a = Span(2, 3)
    assert a == Span(2, 3) == Span(start=2, end=3) and a != Span(2, 4) and a != (2, 3)
    assert Span(2, 3) < Span(2, 4) < Span(3, 3) and not a < Span(2, 3)
    assert Span(1, 9) <= Span(2, 2) and Span(3, 3) >= Span(2, 9)
    assert hash(a) == hash(Span(2, 3)) == hash((2, 3))
    assert repr(a) == "Span(start=2, end=3)" and a.to_json() == [2, 3]
    assert replace(a, end=7) == Span(2, 7) and a == Span(2, 3)
    assert Span.point(5) == Span(5, 5)
    with pytest.raises(TypeError):
        Span(1)
    with pytest.raises(AttributeError):
        a.note = "x"
