"""Edits build new ASTs and share the nodes they leave alone, so none of them
may change its input: after each call the input still equals a fresh parse
and still emits the same text.  Likewise no call that reads a report changes
its STG or its findings."""

import pytest

from fsmguard import (
    RuleConfig,
    SourceText,
    VulnClass,
    add_default_arm,
    apply_encoding_assignment,
    emit_verilog,
    extract_stg,
    mitigate,
    parse_source,
    plan_injection,
    reencode_states,
    remove_default_arm,
    remove_static_deadlock,
    remove_unreachable_state,
    run_all_checks,
    run_checks_on_ast,
    sanitize_identifiers,
    uniquify_encodings,
    verify_mitigation,
)

from conftest import FIXTURES, design_source

BASES = ("vending", "aes_ctrl_default", "rsa_ctrl")


def _untouched(src: SourceText, edit):
    """Run edit on a fresh parse of src and check that the parse survives."""
    ast = parse_source(src).expect_ast()
    text = emit_verilog(ast).content
    out = edit(ast)
    assert ast == parse_source(src).expect_ast()
    assert emit_verilog(ast).content == text
    return out


def _checked(ast):
    """The report the fixers read: a check of ast itself."""
    return run_checks_on_ast(ast, frozenset())


def _injected(base: str, vuln: VulnClass, seed: int) -> SourceText:
    ast = parse_source(design_source(base)).expect_ast()
    return emit_verilog(plan_injection(vuln, ast, seed)[0])


def test_add_default_arm_leaves_input():
    _untouched(design_source("aes_ctrl"), lambda ast: add_default_arm(ast, "WAIT_KEY"))


def test_remove_unreachable_state_leaves_input():
    _untouched(design_source("fsm_review"),
               lambda ast: remove_unreachable_state(_checked(ast), "s3"))
    _untouched(SourceText.from_file(FIXTURES / "mutual_unreachable.v"),
               lambda ast: remove_unreachable_state(_checked(ast), ["U1", "U2"]))


def test_remove_static_deadlock_leaves_input():
    _untouched(design_source("vending_deadlock"),
               lambda ast: remove_static_deadlock(_checked(ast), "DEADLOCK_STATE", "IDLE"))
    trapped = parse_source(_injected("vending", VulnClass.CWE835_TRAP, 5)).expect_ast()
    member = next(p.name for p in trapped.parameters if p.name.startswith("trap_state"))
    _untouched(emit_verilog(trapped),
               lambda ast: remove_static_deadlock(_checked(ast), member, "IDLE"))


def test_remove_static_deadlock_without_inputs_leaves_input():
    text = """module m (input clk, input rst);
parameter A = 2'b00;
parameter B = 2'b01;
reg [1:0] s;
reg [1:0] n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = B; default: n = A; endcase end
endmodule"""
    fixed = _untouched(SourceText(text),
                       lambda ast: remove_static_deadlock(_checked(ast), "B", "A"))
    assert fixed.arm_for("B").body[-1].rhs == "A"


def test_uniquify_encodings_leaves_input():
    _untouched(_injected("vending", VulnClass.DUPLICATE_ENCODING, 3), uniquify_encodings)


def test_apply_encoding_assignment_leaves_input():
    def reencode(ast):
        assignment = reencode_states(extract_stg(ast, {"WAIT_KEY"}))
        return apply_encoding_assignment(ast, assignment)
    fixed = _untouched(design_source("aes_ctrl"), reencode)
    assert fixed.encodings != parse_source(design_source("aes_ctrl")).expect_ast().encodings


def test_remove_default_arm_leaves_input():
    _untouched(design_source("aes_ctrl_default"), remove_default_arm)


def test_sanitize_identifiers_leaves_input():
    _untouched(SourceText.from_file(FIXTURES / "trojan_unit.v"), sanitize_identifiers)
    text = "// @protected IDLE\n" + design_source("vending").content
    out = _untouched(SourceText(text),
                     lambda ast: sanitize_identifiers(ast, keywords=("e", "i", "o")))
    assert out.ast.protected_annotations == {out.rename_map["IDLE"]}


@pytest.mark.parametrize("vuln", list(VulnClass))
@pytest.mark.parametrize("base", BASES)
def test_plan_injection_leaves_input(vuln, base, cold_gate_memo):
    reset = parse_source(design_source(base)).expect_ast().seq.reset_target
    for protected in (frozenset(), frozenset({reset})):
        for seed in range(3):
            _untouched(design_source(base),
                       lambda ast: plan_injection(vuln, ast, seed, protected))


@pytest.mark.parametrize("vuln", list(VulnClass))
def test_injected_result_survives_later_injections(vuln):
    base = parse_source(design_source("aes_ctrl_default")).expect_ast()
    first, _ = plan_injection(vuln, base, 0)
    text = emit_verilog(first)
    plan_injection(vuln, base, 1)
    plan_injection(VulnClass.UNREACHABLE_STATE, first, 2)
    assert emit_verilog(first) == text
    assert first == parse_source(text).expect_ast()


@pytest.mark.parametrize("name, protected", [
    ("aes_ctrl", {"WAIT_KEY"}), ("fsm_review", set()), ("fsm_review", {"s3"}),
    ("vending_deadlock", set())])
def test_mitigate_leaves_its_parsed_design(name, protected):
    """mitigate repairs the AST its report carries and scores stg_preserved
    against that report's STG, so its fixes must not reach that AST."""
    src = design_source(name)
    report = run_all_checks(src, protected)
    mitigate(src, report)
    assert report.ast == parse_source(src).expect_ast()
    assert emit_verilog(report.ast).content == emit_verilog(parse_source(src).expect_ast()).content


# -- reports -------------------------------------------------------------------

MITIGATED = [("aes_ctrl", {"WAIT_KEY"}, RuleConfig(fif=True)), ("fsm_review", set(), RuleConfig()),
             ("fsm_review", {"s3"}, RuleConfig()), ("vending_deadlock", set(), RuleConfig())]


def _judged(report) -> tuple:
    """The report's STG, spans included, and the JSON of its findings."""
    stg = report.stg
    return ([(s, s.span) for s in stg.states],
            [(t, t.span) for t in stg.transitions],
            [v.to_json() for v in report.violations])


def _report_untouched(src: SourceText, call, protected=frozenset(), config=RuleConfig()):
    """Run call on a check of src and check that the report still equals a
    fresh check of src."""
    report = run_all_checks(src, protected, config)
    out = call(report)
    assert _judged(report) == _judged(run_all_checks(src, protected, config))
    return out


@pytest.mark.parametrize("name, protected, config", MITIGATED)
def test_mitigate_and_verify_leave_report(name, protected, config):
    src = design_source(name)
    report = run_all_checks(src, protected, config)
    fresh = _judged(run_all_checks(src, protected, config))
    outcome = mitigate(src, report, rule_config=config)
    assert _judged(report) == fresh
    assert outcome.design.derived_from is report
    verify_mitigation(src, outcome.design, outcome.fixed, protected, config)
    assert _judged(report) == fresh


def test_reencode_states_leaves_report():
    assignment = _report_untouched(design_source("aes_ctrl"),
                                   lambda report: reencode_states(report.stg),
                                   {"WAIT_KEY"}, RuleConfig(fif=True))
    assert assignment.mapping


def test_remove_unreachable_state_leaves_report():
    _report_untouched(design_source("fsm_review"),
                      lambda report: remove_unreachable_state(report, "s3"))
    _report_untouched(SourceText.from_file(FIXTURES / "mutual_unreachable.v"),
                      lambda report: remove_unreachable_state(report, ["U1", "U2"]))


def test_remove_static_deadlock_leaves_report():
    _report_untouched(design_source("vending_deadlock"),
                      lambda report: remove_static_deadlock(report, "DEADLOCK_STATE", "IDLE"))
