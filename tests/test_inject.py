"""Seeded vulnerability injection: determinism, exactness, minimality."""
import difflib
import hashlib
import json
import sys
from dataclasses import replace

import pytest

import fsmguard.inject
from fsmguard import (
    CorpusError,
    FsmAst,
    InjectError,
    Rule,
    RULE_FOR_CLASS,
    SourceText,
    VulnClass,
    emit_verilog,
    extract_stg,
    generate_corpus,
    parse_source,
    plan_injection,
    remove_default_arm,
    run_all_checks,
    stg_isomorphic_modulo_encoding,
    uniquify_encodings,
)

from conftest import count_calls, design_ast, design_source, rename_states, widened_vending


def _violated(text, protected=frozenset()):
    return sorted(v.rule.value for v in run_all_checks(text, protected).violations)


# -- static deadlock -------------------------------------------------------------

def test_deadlock_injection_flags_exactly_one(vending):
    ast = design_ast("vending")
    injected, plan = plan_injection(VulnClass.STATIC_DEADLOCK, ast, seed=3)
    report = run_all_checks(emit_verilog(injected))
    assert [v.rule for v in report.violations] == [Rule.STATIC_DEADLOCK]
    assert report.violations[0].states == ("deadlock_state",)
    assert plan.added_states == ("deadlock_state",)


def test_deadlock_injection_matches_reference_shape():
    """Some seed redirects IDLE's fallthrough, reproducing the bundled
    deadlocked vending machine up to the new state's name and encoding."""
    base = design_ast("vending")
    reference = extract_stg(design_ast("vending_deadlock"))
    for seed in range(200):
        injected, plan = plan_injection(VulnClass.STATIC_DEADLOCK, base, seed=seed)
        if plan.target_state != "IDLE":
            continue
        stg = extract_stg(injected)
        renamed = rename_states(stg, {"deadlock_state": "DEADLOCK_STATE"})
        if stg_isomorphic_modulo_encoding(renamed, reference):
            break
    else:
        pytest.fail("no seed reproduced the reference deadlock shape")


def test_deadlock_injection_deterministic(vending):
    ast = design_ast("vending")
    a = emit_verilog(plan_injection(VulnClass.STATIC_DEADLOCK, ast, seed=11)[0]).content
    b = emit_verilog(plan_injection(VulnClass.STATIC_DEADLOCK, ast, seed=11)[0]).content
    assert a == b


def test_deadlock_injection_leaves_sequential_block(vending):
    ast = design_ast("vending")
    injected, _ = plan_injection(VulnClass.STATIC_DEADLOCK, ast, seed=5)
    assert injected.seq == ast.seq


def test_deadlock_injection_rejects_deadlocked_design():
    with pytest.raises(InjectError):
        plan_injection(VulnClass.STATIC_DEADLOCK, design_ast("vending_deadlock"), seed=0)


def test_deadlock_injection_needs_free_encoding():
    # two states on one bit: the encoding space is saturated
    from fsmguard import SourceText
    text = """module m (input clk, input rst, input go);
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
B: begin
n = A;
end
default: n = A;
endcase
end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    with pytest.raises(InjectError):
        plan_injection(VulnClass.STATIC_DEADLOCK, ast, seed=0)


# -- duplicate encoding ------------------------------------------------------------

def test_duplicate_injection_aes_pair():
    """Some seed picks (WAIT_DATA, DO_ROUND): DO_ROUND becomes 3'b001."""
    ast = design_ast("aes_ctrl")
    for seed in range(200):
        injected, plan = plan_injection(VulnClass.DUPLICATE_ENCODING, ast, seed=seed)
        if plan.target_state == "DO_ROUND" and injected.param("DO_ROUND").code == 0b001:
            report = run_all_checks(emit_verilog(injected))
            dups = report.violations_of(Rule.DUPLICATE_ENCODING)
            assert len(dups) == 1
            assert set(dups[0].states) == {"WAIT_DATA", "DO_ROUND"}
            break
    else:
        pytest.fail("no seed produced the WAIT_DATA/DO_ROUND pair")


def test_duplicate_injection_single_state_errors():
    from fsmguard import SourceText
    text = """module m (input clk, input rst);
parameter A = 1'b0;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; default: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    with pytest.raises(InjectError):
        plan_injection(VulnClass.DUPLICATE_ENCODING, ast, seed=0)


def test_duplicate_plan_names_rewritten_parameter(vending):
    ast = design_ast("vending")
    injected, plan = plan_injection(VulnClass.DUPLICATE_ENCODING, ast, seed=9)
    assert plan.target_state in ast.param_names
    original = ast.param(plan.target_state).code
    assert injected.param(plan.target_state).code != original


# -- unreachable state --------------------------------------------------------------

def test_unreachable_injection_aes_default():
    ast = design_ast("aes_ctrl_default")
    injected, plan = plan_injection(VulnClass.UNREACHABLE_STATE, ast, seed=4)
    report = run_all_checks(emit_verilog(injected))
    assert [v.rule for v in report.violations] == [Rule.UNREACHABLE_STATE]
    (v,) = report.violations
    assert v.states == plan.added_states
    assert v.evidence["variant"] == "with-outgoing"


def test_unreachable_injection_exhausted_space():
    from fsmguard import SourceText
    text = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    with pytest.raises(InjectError):
        plan_injection(VulnClass.UNREACHABLE_STATE, ast, seed=0)


# -- default removal -----------------------------------------------------------------

def test_remove_default_matches_listing7_shape():
    ast = design_ast("aes_ctrl_default")
    injected, _ = remove_default_arm(ast)
    assert injected.comb.default_arm is None
    report = run_all_checks(emit_verilog(injected))
    assert [v.rule for v in report.violations] == [Rule.MISSING_DEFAULT]
    # arm set matches the no-default variant structurally
    reference = design_ast("aes_ctrl")
    assert [a.label for a in injected.comb.arms] == [a.label for a in reference.comb.arms]


@pytest.mark.parametrize("width, total", [(3, ""), (8, ""), (32, f" ({2 ** 32 - 4} in all)")])
def test_remove_default_notes_name_the_codes_as_the_finding_does(width, total):
    """The note lists what the MISSING_DEFAULT finding lists, and counts the
    codes only where that list is cut short."""
    ast = parse_source(widened_vending(width)).expect_ast()
    injected, plan = remove_default_arm(ast)
    (finding,) = run_all_checks(emit_verilog(injected)).violations
    codes = ", ".join(finding.evidence["unused_encodings"])
    assert plan.notes == f"default arm removed; unhandled encodings: {codes}{total}"


def test_remove_default_twice_errors():
    ast = design_ast("aes_ctrl_default")
    injected, _ = remove_default_arm(ast)
    with pytest.raises(InjectError):
        remove_default_arm(injected)


_ONE_BIT_FULL = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; default: n = A; endcase end
endmodule"""


def test_remove_default_fully_covered_errors():
    ast = parse_source(SourceText(_ONE_BIT_FULL)).expect_ast()
    with pytest.raises(InjectError):
        remove_default_arm(ast)


def _taking_unused_codes() -> list:
    """What each caller that takes a few unused codes gives, or its error."""
    duplicated, _ = plan_injection(VulnClass.DUPLICATE_ENCODING, design_ast("vending"), 3)
    full = parse_source(SourceText(_ONE_BIT_FULL)).expect_ast()
    calls = [
        lambda: plan_injection(VulnClass.UNREACHABLE_STATE, design_ast("vending"), 1)[0],
        lambda: plan_injection(VulnClass.UNREACHABLE_STATE, full, 0)[0],
        lambda: remove_default_arm(full)[0],
        lambda: uniquify_encodings(duplicated),
        lambda: uniquify_encodings(full.with_encodings({"B": 0})),
        lambda: uniquify_encodings(parse_source(SourceText(_ONE_BIT_FULL.replace(
            "parameter B = 1'b1;", "parameter B = 1'b0;\nparameter C = 1'b1;"))).expect_ast()),
    ]
    out = []
    for call in calls:
        try:
            out.append(emit_verilog(call()).content)
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_taking_unused_codes_lists_no_others(monkeypatch):
    """The injector and uniquify_encodings take the lowest few free codes,
    and remove_default_arm checks that one exists before it refuses; none
    may list all 2^w of them to do it."""
    expected = _taking_unused_codes()

    def refuse(self):
        raise AssertionError("unused_encodings enumerated")

    monkeypatch.setattr(FsmAst, "unused_encodings", refuse)
    monkeypatch.setattr(fsmguard.inject, "_GATED", {})  # run the edit generators again
    assert _taking_unused_codes() == expected


# -- trap loop -----------------------------------------------------------------------

def test_trap_injection_two_added_states(vending):
    ast = design_ast("vending")
    injected, plan = plan_injection(VulnClass.CWE835_TRAP, ast, seed=2)
    assert len(plan.added_states) == 2
    report = run_all_checks(emit_verilog(injected))
    traps = report.violations_of(Rule.TRAP_LOOP_CWE835)
    assert len(traps) == 1
    assert set(traps[0].states) == set(plan.added_states)
    assert [v.rule for v in report.violations] == [Rule.TRAP_LOOP_CWE835]


def test_trap_injection_needs_two_encodings():
    ast = design_ast("aes_ctrl_default")
    # 5 states of 8 leave 3 free: fine.  Squeeze to 1 free by duplising: use
    # a 1-bit design instead.
    from fsmguard import SourceText
    text = """module m (input clk, input rst, input go);
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
endmodule"""
    small = parse_source(SourceText(text)).expect_ast()
    with pytest.raises(InjectError):
        plan_injection(VulnClass.CWE835_TRAP, small, seed=0)


# -- dispatch ------------------------------------------------------------------------

def test_dispatch_unknown_class(vending):
    with pytest.raises((InjectError, AttributeError, ValueError)):
        plan_injection("bogus", design_ast("vending"), 0)  # type: ignore[arg-type]


def test_dispatch_records_requested_seed(vending):
    ast = design_ast("aes_ctrl_default")
    _, plan = plan_injection(VulnClass.MISSING_DEFAULT, ast, 1234)
    assert plan.seed == 1234


# -- cross-class invariants ------------------------------------------------------------

BASES = ("vending", "aes_ctrl_default", "rsa_ctrl")


@pytest.mark.parametrize("vuln", list(VulnClass))
@pytest.mark.parametrize("base", BASES)
def test_injection_interface_preserved(vuln, base):
    ast = design_ast(base)
    injected, _ = plan_injection(vuln, ast, seed=13)
    assert injected.interface_key() == ast.interface_key()
    assert injected.seq == ast.seq


@pytest.mark.parametrize("vuln", list(VulnClass))
@pytest.mark.parametrize("base", BASES)
def test_injection_minimality(vuln, base):
    """Only the plan's spans differ between emitted base and injected text."""
    ast = design_ast(base)
    injected, plan = plan_injection(vuln, ast, seed=21)
    before = emit_verilog(ast).content.splitlines()
    after = emit_verilog(injected).content.splitlines()
    allowed = set()
    for span in plan.modified_spans:
        allowed.update(range(span.start, span.end + 1))
    matcher = difflib.SequenceMatcher(a=before, b=after, autojunk=False)
    for tag, _, _, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        changed = set(range(j1 + 1, j2 + 1))  # 1-based lines in the new text
        assert changed <= allowed, (tag, changed - allowed, plan.modified_spans)


@pytest.mark.parametrize("vuln", list(VulnClass))
@pytest.mark.parametrize("base", BASES)
def test_plan_carries_the_injected_design_it_emitted(vuln, base):
    """The plan holds the text its spans index; it is in memory only, so the
    plan's equality and JSON ignore it."""
    injected, plan = plan_injection(vuln, design_ast(base), seed=5)
    assert plan.text == emit_verilog(injected)
    bare = replace(plan, text=None)
    assert bare == plan and bare.to_json() == plan.to_json()


@pytest.mark.parametrize("vuln", list(VulnClass))
def test_injection_deterministic_across_runs(vuln):
    ast = design_ast("aes_ctrl_default")
    first = emit_verilog(plan_injection(vuln, ast, seed=99)[0]).content
    second = emit_verilog(plan_injection(vuln, ast, seed=99)[0]).content
    assert first == second


def test_unreachable_injection_into_aes_no_default():
    """On the no-default AES controller some seed exits to WAIT_KEY; the only
    new finding is the unreachable state."""
    ast = design_ast("aes_ctrl")
    base_rules = {v.rule for v in run_all_checks(design_source("aes_ctrl")).violations}
    for seed in range(100):
        injected, plan = plan_injection(VulnClass.UNREACHABLE_STATE, ast, seed=seed)
        if plan.target_state == "WAIT_KEY":
            break
    else:
        pytest.fail("no seed exited to WAIT_KEY")
    report = run_all_checks(emit_verilog(injected))
    assert Rule.UNREACHABLE_STATE in report.violated_rules
    assert report.violated_rules - base_rules == {Rule.UNREACHABLE_STATE}
    assert len(injected.parameters) == 6


# -- golden identity ---------------------------------------------------------------------

# sha256 over every class x corpus base x seeds 0-4, with the empty protected
# set and with the base's reset state protected: the emitted design and the
# plan JSON of each injection, or the error of each refused one.
INJECT_GOLDEN_SHA256 = "3382ece929df36a6ccfd311dfa6ab7e9b30cf9f7f6c221bfc29991d745bc1b0f"


def test_injection_gate_lets_checker_faults_propagate(monkeypatch, cold_gate_memo):
    """The gate drops a candidate whose STG cannot be extracted; any other
    error from the checker is a fault and must reach the caller."""
    base = design_ast("vending")
    real = fsmguard.inject.run_checks_on_ast

    def faulty(ast, *args, **kwargs):
        if ast is base:
            return real(ast, *args, **kwargs)
        raise RuntimeError("checker fault")

    monkeypatch.setattr(fsmguard.inject, "run_checks_on_ast", faulty)
    with pytest.raises(RuntimeError, match="checker fault"):
        plan_injection(VulnClass.STATIC_DEADLOCK, base, seed=0)


@pytest.mark.parametrize("vuln", [VulnClass.STATIC_DEADLOCK, VulnClass.CWE835_TRAP])
def test_redirect_injection_extracts_only_what_it_checks(vuln, monkeypatch, cold_gate_memo):
    """The redirect edits read reachability from the base check's STG, so
    every extraction belongs to a check: the base's or a candidate's."""
    base = design_ast("vending")
    checks = count_calls(monkeypatch, "fsmguard.rules", "run_checks_on_ast")
    extractions = count_calls(monkeypatch, "fsmguard.stg", "extract_stg")
    plan_injection(vuln, base, seed=0)
    assert len(checks) > 1
    assert len(extractions) == len(checks)


def injection_digest() -> str:
    digest = hashlib.sha256()
    for vuln in sorted(VulnClass, key=lambda v: v.value):
        for base in BASES:
            ast = design_ast(base)
            for protected in (frozenset(), frozenset({ast.seq.reset_target})):
                for seed in range(5):
                    try:
                        injected, plan = plan_injection(vuln, ast, seed, protected)
                    except InjectError as exc:
                        digest.update(f"error: {exc}\n".encode())
                        continue
                    digest.update(emit_verilog(injected).content.encode())
                    digest.update(json.dumps(plan.to_json(), sort_keys=True).encode())
    return digest.hexdigest()


def test_injection_golden_identity():
    assert injection_digest() == INJECT_GOLDEN_SHA256


# -- the gate memo -------------------------------------------------------------------------

def test_injection_golden_identity_cold_then_warm(cold_gate_memo):
    assert injection_digest() == INJECT_GOLDEN_SHA256
    assert cold_gate_memo
    assert injection_digest() == INJECT_GOLDEN_SHA256


@pytest.mark.parametrize("vuln", [VulnClass.STATIC_DEADLOCK, VulnClass.DUPLICATE_ENCODING])
def test_warm_memo_checks_nothing_and_emits_only_the_drawn_design(
        vuln, monkeypatch, cold_gate_memo):
    """A re-parse of the same design hits the memo: no check runs, and the
    only designs emitted are the base (for the key) and the result."""
    first, first_plan = plan_injection(vuln, design_ast("vending"), 7)
    checks = count_calls(monkeypatch, "fsmguard.rules", "run_checks_on_ast")
    emits = count_calls(monkeypatch, "fsmguard.emitter", "emit_with_markers")
    base = design_ast("vending")
    injected, plan = plan_injection(vuln, base, 7)
    assert checks == []
    assert [args[0] for args in emits] == [base, injected]
    assert emit_verilog(injected).content == emit_verilog(first).content
    assert (json.dumps(plan.to_json(), sort_keys=True)
            == json.dumps(first_plan.to_json(), sort_keys=True))


def test_memo_key_accepts_a_plain_set_of_protected_states():
    ast = design_ast("vending")
    assert (plan_injection(VulnClass.STATIC_DEADLOCK, ast, 2, {"IDLE"})[1]
            == plan_injection(VulnClass.STATIC_DEADLOCK, ast, 2, frozenset({"IDLE"}))[1])


def test_memoized_refusal_repeats_its_message_without_checking(monkeypatch, cold_gate_memo):
    ast = design_ast("vending_deadlock")
    with pytest.raises(InjectError) as first:
        plan_injection(VulnClass.STATIC_DEADLOCK, ast, 0)
    checks = count_calls(monkeypatch, "fsmguard.rules", "run_checks_on_ast")
    with pytest.raises(InjectError) as second:
        plan_injection(VulnClass.STATIC_DEADLOCK, design_ast("vending_deadlock"), 1)
    assert str(second.value) == str(first.value) == "design already contains a static deadlock"
    assert checks == []


@pytest.mark.parametrize("fault_on_base", [True, False])
def test_checker_fault_leaves_no_memo_entry(fault_on_base, monkeypatch, cold_gate_memo):
    base = design_ast("vending")
    real = fsmguard.inject.run_checks_on_ast

    def faulty(ast, *args, **kwargs):
        if ast is base and not fault_on_base:
            return real(ast, *args, **kwargs)
        raise RuntimeError("checker fault")

    monkeypatch.setattr(fsmguard.inject, "run_checks_on_ast", faulty)
    with pytest.raises(RuntimeError, match="checker fault"):
        plan_injection(VulnClass.STATIC_DEADLOCK, base, seed=0)
    assert cold_gate_memo == {}
    monkeypatch.setattr(fsmguard.inject, "run_checks_on_ast", real)
    plan_injection(VulnClass.STATIC_DEADLOCK, base, seed=0)
    assert len(cold_gate_memo) == 1


def test_memo_holds_at_most_its_bound_and_evicts_the_oldest(monkeypatch, cold_gate_memo):
    monkeypatch.setattr(fsmguard.inject, "_GATED_MAX", 2)
    keys = []
    for base in BASES:
        for vuln in (VulnClass.UNREACHABLE_STATE, VulnClass.DUPLICATE_ENCODING):
            plan_injection(vuln, design_ast(base), 0)
            keys.append((emit_verilog(design_ast(base)).content, vuln, frozenset()))
            assert len(cold_gate_memo) <= 2
    assert list(cold_gate_memo) == keys[-2:]


@pytest.mark.parametrize("bound", [64, 1])
def test_parallel_corpus_from_a_cold_memo_matches_serial(bound, clean_bases, saturated_base,
                                                         monkeypatch):
    """Workers fill the shared memo from cold, and with a bound of one they
    evict on every miss; with threads switching often, they still build the
    serial corpus and the memo stays within its bound.  An unsatisfiable mix
    fails alike at any width, with the error of its lowest-index failing job."""
    mix = {VulnClass.STATIC_DEADLOCK: 4, VulnClass.CWE835_TRAP: 4,
           VulnClass.DUPLICATE_ENCODING: 4}
    monkeypatch.setattr(fsmguard.inject, "_GATED_MAX", bound)
    gated = {}
    monkeypatch.setattr(fsmguard.inject, "_GATED", gated)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        parallel = generate_corpus(clean_bases, mix, 4321, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(gated) <= bound
    monkeypatch.setattr(fsmguard.inject, "_GATED", {})
    serial = generate_corpus(clean_bases, mix, 4321, workers=1)
    assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]

    # jobs 0-1 inject, 2-3 and 4-5 fail, each class with its own message
    unsatisfiable = {VulnClass.DUPLICATE_ENCODING: 2, VulnClass.MISSING_DEFAULT: 2,
                     VulnClass.STATIC_DEADLOCK: 2}
    errors = []
    for workers in (1, 4):
        with pytest.raises(CorpusError) as raised:
            generate_corpus([saturated_base], unsatisfiable, 4321, workers=workers)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("mix unsatisfiable for class MISSING_DEFAULT: tiny.v: ")
