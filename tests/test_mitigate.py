"""Mitigation fixes, the re-encoding search, and the end-to-end driver."""
import importlib
import itertools
import random
import tracemalloc

import pytest

from fsmguard import (
    EncodingAssignment,
    MitigationError,
    ParseFailure,
    Rule,
    RuleConfig,
    SourceText,
    StgError,
    VulnClass,
    add_default_arm,
    apply_encoding_assignment,
    emit_verilog,
    extract_stg,
    mitigate,
    parse_source,
    plan_injection,
    reencode_states,
    remove_static_deadlock,
    remove_unreachable_state,
    run_all_checks,
    run_checks_on_ast,
    score_assignment,
    stg_isomorphic_modulo_encoding,
    tokenize,
    uniquify_encodings,
    unprotected_transitions,
    verify_mitigation,
)

from conftest import (DESIGNS, FIXTURES, count_calls, design_ast, design_source, design_stg,
                      residual_count)
from test_stg import make_stg


# -- add_default_arm ------------------------------------------------------------

def test_add_default_matches_listing8_arms():
    ast = design_ast("aes_ctrl")
    fixed = add_default_arm(ast, "WAIT_KEY")
    reference = design_ast("aes_ctrl_default")
    assert fixed.comb.default_arm is not None
    assert fixed.comb.default_arm.body == reference.comb.default_arm.body
    report = run_all_checks(emit_verilog(fixed), {"WAIT_KEY"})
    assert Rule.MISSING_DEFAULT not in report.violated_rules


def test_add_default_requires_absence():
    with pytest.raises(MitigationError):
        add_default_arm(design_ast("aes_ctrl_default"), "WAIT_KEY")


def test_add_default_undeclared_target():
    with pytest.raises(MitigationError):
        add_default_arm(design_ast("aes_ctrl"), "NOWHERE")


# -- reencode_states -------------------------------------------------------------

def brute_force_min_residual(stg, protected=frozenset()):
    names = stg.state_names
    prot = set(protected) | set(stg.protected_names)
    edges = [(t.source, t.target) for t in unprotected_transitions(stg)
             if t.source != t.target]
    best = len(edges) + 1
    for perm in itertools.permutations(range(2 ** stg.width), len(names)):
        mapping = dict(zip(names, perm))
        cost = sum(1 for a, b in edges
                   if bin(mapping[a] ^ mapping[b]).count("1") != 1)
        best = min(best, cost)
    return best


def test_reencode_aes_reaches_zero_residual():
    stg = design_stg("aes_ctrl", {"WAIT_KEY"})
    assignment = reencode_states(stg, {"WAIT_KEY"})
    assert residual_count(assignment) == 0
    assert residual_count(assignment) == brute_force_min_residual(stg, {"WAIT_KEY"})
    codes = set(assignment.mapping.values())
    assert len(codes) == len(assignment.mapping)  # injective


def test_reencode_two_states_one_bit():
    stg = make_stg({"A": "0", "B": "1"}, [("A", "B"), ("B", "A")], "A")
    assignment = reencode_states(stg)
    assert residual_count(assignment) == 0
    assert set(assignment.mapping.values()) == {0, 1}


def test_reencode_too_many_states():
    codes = {f"s{i}": format(i, "03b") for i in range(8)}
    stg = make_stg(codes, [("s0", "s1")], "s0")
    squeezed = make_stg({**codes, "s8": "000"}, [("s0", "s1")], "s0")
    with pytest.raises(MitigationError):
        reencode_states(squeezed)


def test_reencode_ties_break_lexicographically():
    stg = design_stg("aes_ctrl", {"WAIT_KEY"})
    a = reencode_states(stg, {"WAIT_KEY"})
    b = reencode_states(stg, {"WAIT_KEY"})
    assert a.mapping == b.mapping
    # declaration-ordered assignment is the smallest zero-residual one:
    # checked against an exhaustive scan
    names = stg.state_names
    edges = [(t.source, t.target) for t in unprotected_transitions(stg)]
    best = None
    for perm in itertools.permutations(range(8), len(names)):
        mapping = dict(zip(names, perm))
        cost = sum(1 for x, y in edges if bin(mapping[x] ^ mapping[y]).count("1") != 1)
        if cost == 0 and (best is None or perm < best):
            best = perm
    got = tuple(a.mapping[n] for n in names)
    assert got == best


def test_reencode_matches_bruteforce_on_random_stgs():
    import random
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(3, 5)
        names = [f"s{i}" for i in range(n)]
        codes = {name: format(i, "03b") for i, name in enumerate(names)}
        edges = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(2, 7))}
        stg = make_stg(codes, sorted(edges), names[0])
        assignment = reencode_states(stg)
        assert residual_count(assignment) == brute_force_min_residual(stg)


def test_reencode_4bit_case_matches_bruteforce():
    codes = {"a": "0000", "b": "0001", "c": "0010", "d": "0011"}
    stg = make_stg(codes, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")],
                   "a")
    assignment = reencode_states(stg)
    assert residual_count(assignment) == brute_force_min_residual(stg)


def _reference_reencode(stg, protected=frozenset(), include_self_edges=False):
    """The plain exhaustive backtrack the branch-and-bound search replaced:
    first strictly better complete assignment in lexicographic order wins."""
    names = stg.state_names
    width = stg.width
    protected_set = set(protected) | set(stg.protected_names)
    edges = [(t.source, t.target) for t in unprotected_transitions(stg)
             if (include_self_edges or t.source != t.target)
             if t.source not in protected_set and t.target not in protected_set]
    index = {n: i for i, n in enumerate(names)}
    edge_pairs = [(index[a], index[b]) for a, b in edges]
    best_count = len(edges) + 1
    best = None

    def partial_cost(assign):
        k = len(assign)
        return sum(1 for a, b in edge_pairs
                   if a < k and b < k and bin(assign[a] ^ assign[b]).count("1") != 1)

    def search(assign, used):
        nonlocal best_count, best
        cost = partial_cost(assign)
        if cost >= best_count:
            return
        if len(assign) == len(names):
            best_count, best = cost, list(assign)
            return
        for code in range(2 ** width):
            if code not in used:
                assign.append(code)
                used.add(code)
                search(assign, used)
                used.discard(code)
                assign.pop()

    search([], set())
    mapping = dict(zip(names, best))
    residual = tuple((a, b) for a, b in edges if bin(mapping[a] ^ mapping[b]).count("1") != 1)
    return EncodingAssignment(mapping=mapping, residual_violations=residual, optimal=True)


def _random_stg(rng, width, n):
    names = [f"s{i}" for i in range(n)]
    codes = {name: format(rng.randrange(2 ** width), f"0{width}b") for name in names}
    # repeated picks give duplicate edges and self edges
    edges = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * n))]
    flagged = {name for name in names if rng.random() < 0.15}
    return make_stg(codes, edges, names[0], protected=flagged), names


def test_reencode_equals_exhaustive_reference_on_random_stgs():
    rng = random.Random(2024)
    shapes = [(2 + i % 3, None) for i in range(300)] + [(4, 6)] * 4
    for width, n in shapes:
        n = n or rng.randint(1, min(6 if width < 4 else 5, 2 ** width))
        stg, names = _random_stg(rng, width, n)
        protected = {name for name in names if rng.random() < 0.15}
        include_self_edges = rng.random() < 0.5
        got = reencode_states(stg, protected, include_self_edges)
        assert got == _reference_reencode(stg, protected, include_self_edges), (
            stg, protected, include_self_edges)


def _ring_with_chords(n, width):
    names = [f"s{i}" for i in range(n)]
    codes = {name: format(i, f"0{width}b") for i, name in enumerate(names)}
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges += [(names[i], names[(7 * i + 3) % n]) for i in range(n)]
    return make_stg(codes, edges, names[0])


def test_reencode_ten_states_width_four_is_proven_optimal():
    stg = _ring_with_chords(10, 4)
    assignment = reencode_states(stg)
    assert assignment.optimal
    assert len(set(assignment.mapping.values())) == 10
    assert list(assignment.residual_violations) == score_assignment(stg, assignment.mapping)


def test_reencode_budget_returns_incumbent_not_optimal(monkeypatch):
    monkeypatch.setattr(importlib.import_module("fsmguard.mitigate"), "SEARCH_NODE_BUDGET", 1)
    stg = _ring_with_chords(10, 4)
    assignment = reencode_states(stg)
    assert not assignment.optimal
    assert sorted(assignment.mapping) == sorted(stg.state_names)
    assert len(set(assignment.mapping.values())) == 10
    assert list(assignment.residual_violations) == score_assignment(stg, assignment.mapping)


def test_mitigate_reports_whether_the_encoding_is_optimal(aes_ctrl, monkeypatch):
    report = run_all_checks(aes_ctrl, {"WAIT_KEY"})
    data = mitigate(aes_ctrl, report).to_json()
    assert data["schema_version"] == 2
    assert data["encoding_optimal"] is True
    monkeypatch.setattr(importlib.import_module("fsmguard.mitigate"), "SEARCH_NODE_BUDGET", 1)
    assert mitigate(aes_ctrl, report).encoding_optimal is False


def test_reencode_wide_register_builds_rows_for_placed_codes_only():
    # designs/vending.v widened to 12 bits: a full code-pair table would hold
    # 2^24 entries, more than 100 MB, for a four-state search
    text = design_source("vending").content.replace("3'b", "12'b").replace("[2:0]", "[11:0]")
    wide = extract_stg(parse_source(SourceText(text)).expect_ast(), {"IDLE"})
    tracemalloc.start()
    try:
        got = reencode_states(wide, {"IDLE"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.mapping == reencode_states(design_stg("vending", {"IDLE"}), {"IDLE"}).mapping
    assert peak < 16 * 2**20


def test_reencode_residual_skips_edges_of_passed_protected_states():
    codes = {"a": "00", "b": "01", "c": "10", "d": "11"}
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "b"), ("b", "a")]
    passed = reencode_states(make_stg(codes, edges, "a"), {"d"})
    assert passed.residual_violations == (("b", "c"),)
    assert passed == reencode_states(make_stg(codes, edges, "a", protected={"d"}))


def test_reencode_rejects_an_undeclared_protected_state():
    with pytest.raises(MitigationError, match="protected state NO_SUCH is not declared"):
        reencode_states(design_stg("aes_ctrl"), {"WAIT_KEY", "NO_SUCH"})


def test_score_assignment_listing8():
    stg = design_stg("aes_ctrl_default", {"WAIT_KEY"})
    mapping = {s.name: s.code for s in stg.states}
    assert score_assignment(stg, mapping) == [("FINAL_ROUND", "WAIT_DATA")]


# -- deadlock / unreachable / duplicates --------------------------------------------

def test_remove_deadlock_clears_flag():
    src = design_source("vending_deadlock")
    ast = design_ast("vending_deadlock")
    fixed = remove_static_deadlock(run_checks_on_ast(ast, frozenset()), "DEADLOCK_STATE", "IDLE")
    report = run_all_checks(emit_verilog(fixed))
    assert Rule.STATIC_DEADLOCK not in report.violated_rules


def test_remove_deadlock_same_state_errors():
    report = run_checks_on_ast(design_ast("vending_deadlock"), frozenset())
    with pytest.raises(MitigationError):
        remove_static_deadlock(report, "DEADLOCK_STATE", "DEADLOCK_STATE")


def test_remove_deadlock_requires_flagged_state():
    ast = design_ast("vending")
    with pytest.raises(MitigationError):
        remove_static_deadlock(run_checks_on_ast(ast, frozenset()), "IDLE", "ACCEPTING_COINS")


def test_remove_trap_by_exiting_one_member():
    ast = design_ast("vending")
    injected, plan = plan_injection(VulnClass.CWE835_TRAP, ast, 5)
    member = plan.added_states[0]
    fixed = remove_static_deadlock(run_checks_on_ast(injected, frozenset()), member, "IDLE")
    report = run_all_checks(emit_verilog(fixed))
    assert Rule.TRAP_LOOP_CWE835 not in report.violated_rules
    assert Rule.STATIC_DEADLOCK not in report.violated_rules


def test_remove_unreachable_listing6():
    ast = design_ast("fsm_review")
    fixed = remove_unreachable_state(run_checks_on_ast(ast, frozenset()), "s3")
    emitted = emit_verilog(fixed)
    report = run_all_checks(emitted)
    assert Rule.UNREACHABLE_STATE not in report.violated_rules
    assert parse_source(emitted).expect_ast() == fixed  # round trip survives


def test_remove_unreachable_refuses_reset():
    ast = design_ast("fsm_review")
    with pytest.raises(MitigationError):
        remove_unreachable_state(run_checks_on_ast(ast, frozenset()), "s0")


def test_remove_unreachable_refuses_reachable():
    ast = design_ast("fsm_review")
    with pytest.raises(MitigationError):
        remove_unreachable_state(run_checks_on_ast(ast, frozenset()), "s2")


def test_remove_unreachable_group_at_once():
    ast = parse_source(SourceText.from_file(FIXTURES / "mutual_unreachable.v")).expect_ast()
    fixed = remove_unreachable_state(run_checks_on_ast(ast, frozenset()), ["U1", "U2"])
    assert fixed.param_names == ["IDLE", "RUN"]
    assert run_all_checks(emit_verilog(fixed)).violations == []


@pytest.mark.parametrize("path", [DESIGNS / "vending_deadlock.v",
                                  FIXTURES / "mutual_unreachable.v"])
def test_fixes_read_the_rounds_report(path, monkeypatch):
    """The deadlock and unreachable fixes validate against the report of the
    round, so the repair costs one check and one extraction: the check of
    the repaired design."""
    src = SourceText.from_file(path)
    report = run_all_checks(src)
    checks = count_calls(monkeypatch, "fsmguard.rules", "run_checks_on_ast")
    extractions = count_calls(monkeypatch, "fsmguard.stg", "extract_stg")
    outcome = mitigate(src, report)
    assert outcome.fixed and outcome.residual == []
    assert (len(checks), len(extractions)) == (1, 1)


def test_uniquify_assigns_lowest_free_code():
    ast = design_ast("vending")
    injected, plan = plan_injection(VulnClass.DUPLICATE_ENCODING, ast, 3)
    fixed = uniquify_encodings(injected)
    report = run_all_checks(emit_verilog(fixed))
    assert Rule.DUPLICATE_ENCODING not in report.violated_rules
    seen = [p.code for p in fixed.parameters]
    assert len(seen) == len(set(seen))


def test_uniquify_without_duplicates_errors():
    with pytest.raises(MitigationError):
        uniquify_encodings(design_ast("vending"))


# -- mitigate driver -----------------------------------------------------------------

def test_mitigate_aes_full_repair(aes_ctrl):
    report = run_all_checks(aes_ctrl, {"WAIT_KEY"})
    outcome = mitigate(aes_ctrl, report)
    assert {r.value for r in outcome.fixed} == {"HD_NOT_ONE", "MISSING_DEFAULT"}
    assert outcome.residual == []
    assert outcome.stg_preserved
    recheck = run_all_checks(outcome.design, {"WAIT_KEY"})
    assert recheck.violations == []


def test_mitigate_clean_design_is_identity(vending):
    report = run_all_checks(vending)
    outcome = mitigate(vending, report)
    assert outcome.fixed == []
    assert outcome.residual == []
    original = emit_verilog(design_ast("vending")).content
    assert outcome.design.content == original


def test_mitigate_only_touches_relevant_rule(vending):
    ast = design_ast("vending")
    injected, _ = plan_injection(VulnClass.DUPLICATE_ENCODING, ast, 8)
    src = emit_verilog(injected)
    report = run_all_checks(src)
    outcome = mitigate(src, report)
    assert [r.value for r in outcome.fixed] == ["DUPLICATE_ENCODING"]
    assert outcome.residual == []


@pytest.mark.parametrize("vuln", [VulnClass.DUPLICATE_ENCODING,
                                  VulnClass.UNREACHABLE_STATE,
                                  VulnClass.STATIC_DEADLOCK,
                                  VulnClass.CWE835_TRAP,
                                  VulnClass.MISSING_DEFAULT])
@pytest.mark.parametrize("base", ["vending", "aes_ctrl_default", "rsa_ctrl"])
def test_mitigate_clears_every_injection(vuln, base, ):
    ast = design_ast(base)
    injected, _ = plan_injection(vuln, ast, seed=31)
    src = emit_verilog(injected)
    report = run_all_checks(src)
    outcome = mitigate(src, report)
    assert outcome.residual == []
    recheck = run_all_checks(outcome.design)
    assert recheck.violations == []


def test_mitigate_nonregression_no_new_rules(clean_bases):
    for base in clean_bases:
        ast = parse_source(base).expect_ast()
        for vuln in VulnClass:
            injected, _ = plan_injection(vuln, ast, seed=17)
            src = emit_verilog(injected)
            before = run_all_checks(src)
            outcome = mitigate(src, before)
            after = run_all_checks(outcome.design)
            assert after.violated_rules <= before.violated_rules


def test_mitigate_soundness_fixed_rules_stay_fixed(aes_ctrl):
    report = run_all_checks(aes_ctrl, {"WAIT_KEY"})
    outcome = mitigate(aes_ctrl, report)
    recheck = run_all_checks(outcome.design, {"WAIT_KEY"})
    for rule in outcome.fixed:
        assert rule not in recheck.violated_rules


def test_mitigate_deterministic(aes_ctrl):
    report = run_all_checks(aes_ctrl, {"WAIT_KEY"})
    a = mitigate(aes_ctrl, report).design.content
    b = mitigate(aes_ctrl, report).design.content
    assert a == b


def test_check_repair_verify_lexes_each_design_once(aes_ctrl, monkeypatch):
    """The report carries the AST and STG it judged, so mitigate parses
    nothing and verify_mitigation lexes only the original and the repair."""
    parser = importlib.import_module("fsmguard.parser")
    lexed = []

    def counting_tokenize(*args, **kwargs):
        lexed.append(args)
        return tokenize(*args, **kwargs)

    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    protected = frozenset({"WAIT_KEY"})
    cfg = RuleConfig(fif=True)
    outcome = mitigate(aes_ctrl, run_all_checks(aes_ctrl, protected, cfg), rule_config=cfg)
    verdict = verify_mitigation(aes_ctrl, outcome.design, outcome.fixed, protected, cfg)
    assert outcome.fixed and verdict.intended_present
    assert len(lexed) == 2


def _annotated(src: SourceText) -> SourceText:
    return SourceText(src.content.replace("input clk;", "// @protected WAIT_KEY\ninput clk;"),
                      src.origin)


_FIF = RuleConfig(fif=True)


@pytest.mark.parametrize("variant, lexes", [
    ("other_origin", 3),
    ("other_content", 3),
    ("other_protected", 3),
    ("other_config", 3),
    ("annotation_checked_with_name", 2),
    ("annotation_verified_with_name", 2),
])
def test_verify_mitigation_reuses_only_an_equal_check(aes_ctrl, monkeypatch, variant, lexes):
    """verify_mitigation takes the original's check from the design that
    mitigate returned only when a fresh check would equal it; otherwise it
    lexes the original again.  Counted over check, repair and verify."""
    src, verified = aes_ctrl, aes_ctrl
    check_protected = verify_protected = frozenset({"WAIT_KEY"})
    verify_config = _FIF
    if variant == "other_origin":
        verified = SourceText(aes_ctrl.content, "elsewhere.v")
    elif variant == "other_content":
        verified = SourceText(aes_ctrl.content + "\n", aes_ctrl.origin)
    elif variant == "other_protected":
        verify_protected = frozenset({"WAIT_KEY", "FINAL_ROUND"})
    elif variant == "other_config":
        verify_config = RuleConfig(fif=True, include_self_edges=True)
    elif variant == "annotation_checked_with_name":
        src = verified = _annotated(aes_ctrl)
        verify_protected = frozenset()
    elif variant == "annotation_verified_with_name":
        src = verified = _annotated(aes_ctrl)
        check_protected = frozenset()
    lexed = count_calls(monkeypatch, "fsmguard.tokens", "tokenize")
    outcome = mitigate(src, run_all_checks(src, check_protected, _FIF), rule_config=_FIF)
    verdict = verify_mitigation(verified, outcome.design, [Rule.MISSING_DEFAULT],
                                verify_protected, verify_config)
    assert verdict.intended_present
    assert len(lexed) == lexes


def test_a_derived_design_equals_and_hashes_like_its_text(aes_ctrl):
    report = run_all_checks(aes_ctrl, {"WAIT_KEY"}, _FIF)
    derived = mitigate(aes_ctrl, report, rule_config=_FIF).design
    assert derived.derived_from is report
    plain = SourceText(derived.content, derived.origin)
    assert plain.derived_from is None
    assert derived == plain and hash(derived) == hash(plain)
    assert repr(derived) == repr(plain)


def test_mitigate_rejects_a_report_of_another_source(aes_ctrl, aes_ctrl_default):
    with pytest.raises(MitigationError, match="not built from"):
        mitigate(aes_ctrl, run_all_checks(aes_ctrl_default, {"WAIT_KEY"}))
    ast = parse_source(aes_ctrl).expect_ast()
    with pytest.raises(MitigationError, match="not built from"):
        mitigate(aes_ctrl, run_checks_on_ast(ast, {"WAIT_KEY"}))


def test_mitigate_raises_the_reports_parse_or_stg_failure(aes_ctrl):
    broken = SourceText("module nope")
    with pytest.raises(ParseFailure) as caught:
        parse_source(broken).expect_ast()
    with pytest.raises(ParseFailure) as raised:
        mitigate(broken, run_all_checks(broken))
    assert str(raised.value) == str(caught.value)
    assert raised.value.diagnostics == caught.value.diagnostics
    with pytest.raises(StgError, match="^protected state NOPE is not declared$"):
        mitigate(aes_ctrl, run_all_checks(aes_ctrl, {"NOPE"}))


def test_uniquify_pigeonhole_error():
    text = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 1'b0;
parameter C = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = C; C: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    with pytest.raises(MitigationError, match="not enough unused codes"):
        uniquify_encodings(ast)


def test_mitigate_mutually_referencing_unreachable_states():
    """U1 and U2 point only at each other and at the reset state, so removing
    one alone would leave the other with a dangling label."""
    src = SourceText.from_file(FIXTURES / "mutual_unreachable.v")
    report = run_all_checks(src)
    assert [v.states for v in report.violations_of(Rule.UNREACHABLE_STATE)] == [("U1",), ("U2",)]
    outcome = mitigate(src, report)
    assert outcome.fixed == [Rule.UNREACHABLE_STATE]
    assert outcome.residual == []
    assert parse_source(outcome.design).expect_ast().param_names == ["IDLE", "RUN"]


def test_mitigate_never_removes_a_protected_state(fsm_review):
    report = run_all_checks(fsm_review, {"s1", "s3"})
    outcome = mitigate(fsm_review, report)
    assert outcome.fixed == [Rule.HD_NOT_ONE]
    assert [(v.rule, v.states) for v in outcome.residual] == [(Rule.UNREACHABLE_STATE, ("s3",))]
    assert "s3" in parse_source(outcome.design).expect_ast().param_names


def test_mitigate_keeps_the_states_a_protected_state_enters():
    """U1 is protected and enters U2, so removing U2 alone would leave U1's
    arm naming a deleted state."""
    src = SourceText.from_file(FIXTURES / "mutual_unreachable.v")
    outcome = mitigate(src, run_all_checks(src, {"U1"}))
    assert outcome.fixed == [Rule.HD_NOT_ONE]
    assert [v.states for v in outcome.residual] == [("U1",), ("U2",)]
    assert parse_source(outcome.design).expect_ast().param_names == ["IDLE", "RUN", "U1", "U2"]
