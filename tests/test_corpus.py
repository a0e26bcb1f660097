"""Corpus generation, fidelity verdicts, and identifier sanitization."""
import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

import fsmguard.rules
from fsmguard import (
    CorpusError,
    ParseFailure,
    Rule,
    RuleConfig,
    SourceText,
    VulnClass,
    emit_verilog,
    extract_stg,
    generate_corpus,
    parse_source,
    plan_injection,
    read_corpus,
    run_all_checks,
    sanitize_identifiers,
    stg_isomorphic_modulo_encoding,
    verify_insertion,
    verify_mitigation,
    write_corpus,
)
from fsmguard.mitigate import mitigate
from fsmguard.stg import StgError

from conftest import contains_keywords, count_calls, design_ast, design_source, rename_states


# -- verify_insertion ---------------------------------------------------------------

def test_verify_insertion_reference_pair(vending, vending_deadlock):
    verdict = verify_insertion(vending, vending_deadlock, VulnClass.STATIC_DEADLOCK)
    assert verdict.overall
    assert verdict.syntax_ok and verdict.intended_present and verdict.interface_ok
    assert verdict.unintended == ()


def test_verify_insertion_unmodified_fails(vending):
    verdict = verify_insertion(vending, vending, VulnClass.STATIC_DEADLOCK)
    assert not verdict.overall
    assert not verdict.intended_present
    assert verdict.syntax_ok


def test_verify_insertion_catches_collateral_damage(vending):
    # compose two injections: deadlock plus a dropped default arm
    ast = design_ast("vending")
    injected, _ = plan_injection(VulnClass.STATIC_DEADLOCK, ast, 3)
    from fsmguard import remove_default_arm
    double, _ = remove_default_arm(injected)
    verdict = verify_insertion(vending, emit_verilog(double),
                               VulnClass.STATIC_DEADLOCK)
    assert not verdict.overall
    assert verdict.intended_present
    assert {v.rule for v in verdict.unintended} == {Rule.MISSING_DEFAULT}


def test_verify_insertion_unparseable_modified(vending):
    verdict = verify_insertion(vending, SourceText("module broken"),
                               VulnClass.STATIC_DEADLOCK)
    assert not verdict.overall
    assert not verdict.syntax_ok


def test_verify_insertion_interface_gate(vending):
    renamed = SourceText(vending.content.replace("fsm_module", "other_module"))
    ast = design_ast("vending")
    injected, _ = plan_injection(VulnClass.STATIC_DEADLOCK, ast, 3)
    text = emit_verilog(injected).content.replace("fsm_module", "other_module")
    verdict = verify_insertion(vending, SourceText(text), VulnClass.STATIC_DEADLOCK)
    assert not verdict.overall
    assert not verdict.interface_ok


# -- verify_mitigation ---------------------------------------------------------------

def test_verify_mitigation_reference_pair(aes_ctrl, aes_ctrl_default):
    verdict = verify_mitigation(aes_ctrl, aes_ctrl_default,
                                [Rule.MISSING_DEFAULT], frozenset({"WAIT_KEY"}))
    # the residual HD violation is pre-existing, not new
    assert verdict.overall
    assert verdict.intended_present
    assert verdict.unintended == ()
    assert verdict.stg_ok


def test_verify_mitigation_unparseable(aes_ctrl):
    verdict = verify_mitigation(aes_ctrl, SourceText("module nope"),
                                [Rule.MISSING_DEFAULT], frozenset({"WAIT_KEY"}))
    assert not verdict.overall
    assert not verdict.syntax_ok


def test_verify_mitigation_rechecks_an_original_whose_carried_check_failed(aes_ctrl):
    """A carried report without an AST is never reused: the original is
    checked again and its parse failure raised."""
    broken = SourceText("module nope")
    carried = SourceText(aes_ctrl.content, derived_from=run_all_checks(broken))
    with pytest.raises(ParseFailure):
        verify_mitigation(broken, carried, [])


def test_verify_mitigation_renamed_module_fails(aes_ctrl, aes_ctrl_default):
    text = aes_ctrl_default.content.replace("fsm_module", "rebuilt")
    verdict = verify_mitigation(aes_ctrl, SourceText(text),
                                [Rule.MISSING_DEFAULT], frozenset({"WAIT_KEY"}))
    assert not verdict.interface_ok
    assert not verdict.overall


def test_verify_mitigation_rejects_untripped_targets(vending, aes_ctrl_default):
    with pytest.raises(CorpusError):
        verify_mitigation(vending, aes_ctrl_default, [Rule.MISSING_DEFAULT])


@pytest.mark.parametrize("fault", [StgError, RuntimeError])
def test_verify_mitigation_stg_comparison_faults(aes_ctrl, aes_ctrl_default, monkeypatch, fault):
    """verify_mitigation compares the STGs its two checks extracted.  When the
    mitigated design's extraction raises StgError, its report has no STG and
    stg_ok reads False; any other error is a fault and reaches the caller."""
    def faulty(ast, *args, **kwargs):
        if ast.comb.default_arm is not None:  # only the mitigated design has one
            raise fault("extraction fault")
        return extract_stg(ast, *args, **kwargs)

    monkeypatch.setattr(fsmguard.rules, "extract_stg", faulty)
    args = (aes_ctrl, aes_ctrl_default, [Rule.MISSING_DEFAULT], frozenset({"WAIT_KEY"}))
    if fault is StgError:
        assert verify_mitigation(*args).stg_ok is False
    else:
        with pytest.raises(RuntimeError, match="extraction fault"):
            verify_mitigation(*args)


# -- generate_corpus ----------------------------------------------------------------

def test_corpus_deadlock_only_labels(clean_bases):
    records = generate_corpus(clean_bases, {VulnClass.STATIC_DEADLOCK: 10}, 77,
                              clean_ratio=0.0)
    assert len(records) == 10
    for r in records:
        assert r.labels == ("STATIC_DEADLOCK",)
        report = run_all_checks(SourceText(r.source, origin=r.id))
        assert {v.rule.value for v in report.violations} == {"STATIC_DEADLOCK"}


def test_corpus_labels_match_checker_exactly(clean_bases):
    mix = {VulnClass.DUPLICATE_ENCODING: 3, VulnClass.CWE835_TRAP: 3,
           VulnClass.UNREACHABLE_STATE: 3}
    for r in generate_corpus(clean_bases, mix, 5):
        report = run_all_checks(SourceText(r.source, origin=r.id),
                                frozenset(r.protected))
        assert tuple(sorted({v.rule.value for v in report.violations})) == r.labels


def test_corpus_empty_mix(clean_bases):
    assert generate_corpus(clean_bases, {}, 1) == []


def test_corpus_equal_seeds_identical_files(tmp_path, clean_bases):
    mix = {VulnClass.STATIC_DEADLOCK: 4, VulnClass.MISSING_DEFAULT: 2}
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_corpus(generate_corpus(clean_bases, mix, 99), a)
    write_corpus(generate_corpus(clean_bases, mix, 99), b)
    assert a.read_bytes() == b.read_bytes()


def test_corpus_parallel_generation_identical(tmp_path, clean_bases):
    mix = {VulnClass.STATIC_DEADLOCK: 6, VulnClass.DUPLICATE_ENCODING: 6}
    a = tmp_path / "serial.jsonl"
    b = tmp_path / "parallel.jsonl"
    write_corpus(generate_corpus(clean_bases, mix, 1234, workers=1), a)
    write_corpus(generate_corpus(clean_bases, mix, 1234, workers=4), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("ratio", [float("nan"), -1, float("inf")])
def test_corpus_rejects_a_clean_ratio_that_is_negative_or_not_finite(ratio):
    # checked before the bases: this base is not clean
    with pytest.raises(CorpusError, match="clean ratio"):
        generate_corpus([design_source("vending_deadlock")], {VulnClass.STATIC_DEADLOCK: 1}, 1,
                        clean_ratio=ratio)


def test_corpus_clean_interleave_ratio(clean_bases):
    records = generate_corpus(clean_bases, {VulnClass.STATIC_DEADLOCK: 4}, 3,
                              clean_ratio=1.0)
    buggy = [r for r in records if r.vuln is not None]
    clean = [r for r in records if r.vuln is None]
    assert len(buggy) == 4 and len(clean) == 4
    for r in clean:
        assert r.labels == () and r.plan is None
        assert run_all_checks(SourceText(r.source, origin=r.id)).violations == []


def test_corpus_roundtrips_through_jsonl(tmp_path, clean_bases):
    records = generate_corpus(clean_bases, {VulnClass.UNREACHABLE_STATE: 3}, 8)
    path = tmp_path / "c.jsonl"
    write_corpus(records, path)
    loaded = read_corpus(path)
    assert [r.id for r in loaded] == [r.id for r in records]
    assert loaded[0].plan == records[0].plan
    assert loaded[0].source == records[0].source


def test_corpus_rejects_dirty_base(aes_ctrl):
    with pytest.raises(CorpusError, match="not clean"):
        generate_corpus([aes_ctrl], {VulnClass.STATIC_DEADLOCK: 1}, 0)


def test_corpus_rejects_a_base_with_an_orphan_state_under_every_config():
    """Every rule runs under every config the checker admits, so no config
    lets a base with an unreachable state pass as clean (its records would
    leave UNREACHABLE_STATE out of their labels)."""
    text = design_source("vending").content.replace(
        "parameter DISPENSING_ITEM = 3'b011;\n",
        "parameter DISPENSING_ITEM = 3'b011;\nparameter ORPHAN = 3'b100;\n")
    base = SourceText(text.replace("        default: begin",
                                   "        ORPHAN: next_state = IDLE;\n        default: begin"))
    mix = {VulnClass.STATIC_DEADLOCK: 2, VulnClass.CWE835_TRAP: 1}
    fields = [f.name for f in dataclasses.fields(RuleConfig)]
    for values in itertools.product([False, True], repeat=len(fields)):
        with pytest.raises(CorpusError, match="is not clean: UNREACHABLE_STATE$"):
            generate_corpus([base], mix, 0, config=RuleConfig(**dict(zip(fields, values))))


@pytest.mark.parametrize("vuln", [VulnClass.STATIC_DEADLOCK, VulnClass.MISSING_DEFAULT])
def test_corpus_rejects_base_without_stg(vending, vuln):
    # the base parses, but its STG cannot be built for an undeclared
    # protected state; it must not pass as clean
    with pytest.raises(CorpusError, match=r"vending\.v has no STG: .*E_STG.*NOPE"):
        generate_corpus([vending], {vuln: 1}, 0, protected=frozenset({"NOPE"}))


def test_corpus_unsatisfiable_mix_names_class(saturated_base):
    # a saturated 1-bit design cannot take a deadlock state
    with pytest.raises(CorpusError, match="STATIC_DEADLOCK"):
        generate_corpus([saturated_base], {VulnClass.STATIC_DEADLOCK: 1}, 0)


def test_corpus_gate_passes_verify_insertion(clean_bases):
    by_origin = {b.origin: b for b in clean_bases}
    records = generate_corpus(clean_bases, {VulnClass.CWE835_TRAP: 3}, 21,
                              clean_ratio=0.0)
    for r in records:
        verdict = verify_insertion(by_origin[r.base_id],
                                   SourceText(r.source, origin=r.id), r.vuln)
        assert verdict.overall


# sha256 of the JSONL of a corpus holding two records of every class; the
# bases are named by file name so the digest does not depend on the checkout.
CORPUS_GOLDEN_SHA256 = "f580558fba96fec54b817f724279b56da852d82ece4eec3d76fb2109111e6d38"


def test_corpus_emits_each_injected_design_once(clean_bases, monkeypatch):
    """plan_injection hands over the injected text it emitted, so with the gate
    memo warm each plan costs one emit_verilog: the memo key's."""
    mix = {VulnClass.STATIC_DEADLOCK: 3, VulnClass.DUPLICATE_ENCODING: 3}
    expected = generate_corpus(clean_bases, mix, 31, clean_ratio=0.0)
    plans = count_calls(monkeypatch, "fsmguard.inject", "plan_injection")
    emits = count_calls(monkeypatch, "fsmguard.emitter", "emit_verilog")
    assert generate_corpus(clean_bases, mix, 31, clean_ratio=0.0) == expected
    assert plans and len(emits) == len(plans)


def test_corpus_golden_identity(tmp_path, clean_bases):
    bases = [SourceText(b.content, origin=Path(b.origin).name) for b in clean_bases]
    path = tmp_path / "golden.jsonl"
    write_corpus(generate_corpus(bases, {v: 2 for v in VulnClass}, 2023), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS_GOLDEN_SHA256


# -- mitigation over the injected corpus ------------------------------------------------

@pytest.mark.parametrize("vuln", [VulnClass.DUPLICATE_ENCODING,
                                  VulnClass.UNREACHABLE_STATE,
                                  VulnClass.STATIC_DEADLOCK])
def test_mitigation_fidelity_on_corpus(vuln, clean_bases):
    records = generate_corpus(clean_bases, {vuln: 6}, 404, clean_ratio=0.0)
    for r in records:
        src = SourceText(r.source, origin=r.id)
        report = run_all_checks(src)
        outcome = mitigate(src, report)
        verdict = verify_mitigation(src, outcome.design,
                                    [Rule(label) for label in r.labels])
        assert verdict.overall, r.id


def _reused_verdict_matches_a_fresh_one(src: SourceText, protected: frozenset[str],
                                        config: RuleConfig) -> None:
    outcome = mitigate(src, run_all_checks(src, protected, config), rule_config=config)
    design = outcome.design
    assert design.derived_from is not None
    plain = SourceText(design.content, design.origin)
    reused = verify_mitigation(src, design, outcome.fixed, protected, config)
    fresh = verify_mitigation(src, plain, outcome.fixed, protected, config)
    assert json.dumps(reused.to_json()) == json.dumps(fresh.to_json()), (src.origin, protected)


# Every shipped design that parses (moore_conflict does not).
@pytest.mark.parametrize("name", ["vending", "vending_deadlock", "aes_ctrl",
                                  "aes_ctrl_default", "fsm_review", "rsa_ctrl"])
@pytest.mark.parametrize("fif", [False, True])
def test_reused_check_gives_the_verdict_of_a_fresh_one(name, fif):
    """verify_mitigation on mitigate's design, which carries the original's
    check, gives the same JSON as on a copy without it (which checks the
    original again): each shipped design with each of its states protected."""
    src = design_source(name)
    config = RuleConfig(fif=fif)
    for state in design_ast(name).param_names:
        _reused_verdict_matches_a_fresh_one(src, frozenset({state}), config)


@pytest.mark.parametrize("fif", [False, True])
def test_reused_check_gives_the_verdict_of_a_fresh_one_on_a_corpus(clean_bases, fif):
    mix = {VulnClass.DUPLICATE_ENCODING: 2, VulnClass.UNREACHABLE_STATE: 2,
           VulnClass.STATIC_DEADLOCK: 2, VulnClass.CWE835_TRAP: 2,
           VulnClass.MISSING_DEFAULT: 2}
    for r in generate_corpus(clean_bases, mix, 606, clean_ratio=0.25):
        _reused_verdict_matches_a_fresh_one(SourceText(r.source, origin=r.id),
                                            frozenset(r.protected), RuleConfig(fif=fif))


# -- sanitize ----------------------------------------------------------------------

TROJAN_TEXT = """module trojan_trigger_unit (
    input clk,
    input rst,
    input trigger_arm,
    output reg leak
);
// trigger logic
parameter SAFE = 2'b00;
parameter TROJAN_FIRE = 2'b01;
reg [1:0] cs;
reg [1:0] ns;
always @(posedge clk or posedge rst) begin
    if (rst) begin
        cs <= SAFE;
    end else begin
        cs <= ns;
    end
end
always @(*) begin
    case (cs)
        SAFE: begin
            leak = 0;
            if (trigger_arm) ns = TROJAN_FIRE;
            else ns = SAFE;
        end
        TROJAN_FIRE: begin
            leak = 1;
            ns = SAFE;
        end
        default: ns = SAFE;
    endcase
end
endmodule
"""


def test_sanitize_renames_and_scrubs():
    ast = parse_source(SourceText(TROJAN_TEXT, origin="trojan.v")).expect_ast()
    result = sanitize_identifiers(ast)
    assert result.rename_map["trojan_trigger_unit"] == "u0"
    text = emit_verilog(result.ast).content
    assert "// logic" in text
    assert not contains_keywords(text)


def test_sanitize_output_reparses():
    ast = parse_source(SourceText(TROJAN_TEXT)).expect_ast()
    result = sanitize_identifiers(ast)
    reparsed = parse_source(emit_verilog(result.ast))
    assert reparsed.ok


def test_sanitize_no_matches_is_identity(vending):
    ast = design_ast("vending")
    result = sanitize_identifiers(ast)
    assert result.rename_map == {}
    assert result.ast == ast


def test_sanitize_preserves_stg_structure():
    ast = parse_source(SourceText(TROJAN_TEXT)).expect_ast()
    result = sanitize_identifiers(ast)
    original = extract_stg(ast)
    renamed_original = rename_states(original, result.rename_map)
    assert stg_isomorphic_modulo_encoding(renamed_original, extract_stg(result.ast))


def test_sanitize_case_insensitive_substring():
    ast = parse_source(SourceText(TROJAN_TEXT.replace("trigger_arm", "TrIgGeRx"))).expect_ast()
    result = sanitize_identifiers(ast)
    assert "TrIgGeRx" in result.rename_map


def test_sanitize_deterministic():
    ast = parse_source(SourceText(TROJAN_TEXT)).expect_ast()
    a = emit_verilog(sanitize_identifiers(ast, seed=5).ast).content
    b = emit_verilog(sanitize_identifiers(ast, seed=5).ast).content
    assert a == b


def test_renaming_keeps_sized_literals():
    """With an input named b1, the b1 inside the literal 1'b1 is no name:
    neither sanitize nor rename_states may rewrite it."""
    text = (design_source("vending").content.replace("coin", "b1")
            .replace("if (b1)", "if (b1 == 1'b1)"))
    ast = parse_source(SourceText(text, origin="b1.v")).expect_ast()
    result = sanitize_identifiers(ast, keywords=("b1",))
    assert result.rename_map == {"b1": "sig0"}
    emitted = emit_verilog(result.ast)
    assert "if (sig0 == 1'b1)" in emitted.content
    assert parse_source(emitted).ok
    renamed = rename_states(extract_stg(ast), result.rename_map)
    assert "sig0 == 1'b1" in {t.guard.text for t in renamed.transitions}
    assert stg_isomorphic_modulo_encoding(renamed, extract_stg(result.ast))


def test_sanitize_requires_keywords():
    ast = parse_source(SourceText(TROJAN_TEXT)).expect_ast()
    with pytest.raises(ValueError):
        sanitize_identifiers(ast, keywords=())


@pytest.mark.parametrize("keywords", [("",), ("trojan", ""), ("trojan", " \t")])
def test_sanitize_rejects_blank_keyword(keywords):
    """An empty keyword is a substring of every name and comment word."""
    ast = parse_source(SourceText(TROJAN_TEXT)).expect_ast()
    with pytest.raises(ValueError):
        sanitize_identifiers(ast, keywords=keywords)


def test_sanitize_state_register_port_renamed_once():
    """A state register that is an output port is one name: one map entry,
    and the emitted header port stays the register the design drives."""
    text = (TROJAN_TEXT.replace("output reg leak", "output reg leak,\n    output reg [1:0] trojan_q")
            .replace("reg [1:0] cs;\n", "").replace("cs", "trojan_q"))
    ast = parse_source(SourceText(text)).expect_ast()
    result = sanitize_identifiers(ast, keywords=("_q",))
    assert result.rename_map == {"trojan_q": "sig0"}
    emitted = emit_verilog(result.ast).content
    assert "output reg [1:0] sig0" in emitted
    assert [line for line in emitted.splitlines() if line.startswith("reg ")] == ["reg [1:0] ns;"]
    reparsed = parse_source(SourceText(emitted)).expect_ast()
    assert reparsed.state_cur == "sig0"
    assert stg_isomorphic_modulo_encoding(rename_states(extract_stg(ast), result.rename_map),
                                          extract_stg(reparsed))
