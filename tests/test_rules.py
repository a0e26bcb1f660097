"""Security rules: FIF metric, HD, deadlock, trap, unreachable, duplicates,
default handling, and the aggregate report."""
import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmguard import (
    FsmAst,
    Guard,
    Rule,
    RuleConfig,
    RuleError,
    SourceText,
    State,
    Stg,
    Transition,
    check_default_handling,
    check_fif_rule,
    check_hd_rule,
    detect_duplicate_encodings,
    detect_static_deadlock,
    detect_trap_loops,
    detect_unreachable_states,
    extract_stg,
    fif_metric,
    parse_source,
    run_all_checks,
    unprotected_transitions,
)

from conftest import DESIGNS, count_calls, design_ast, design_source, design_stg
from test_stg import make_stg


# -- FIF metric ------------------------------------------------------------------

def test_fif_worked_example_zero():
    res = fif_metric("010", "011", "000")
    assert [v for _, v in res.per_bit] == [0, 0, 1]
    assert res.overall == 0


def test_fif_idle_to_init():
    res = fif_metric("1000", "1100", "1110")
    assert [v for _, v in res.per_bit] == [1, 1, 0, 0]
    assert res.overall == 0


def test_fif_all_ones():
    res = fif_metric("1111", "1111", "1111")
    assert [v for _, v in res.per_bit] == [1, 1, 1, 1]
    assert res.overall == 1


def test_fif_width_mismatch():
    with pytest.raises(RuleError):
        fif_metric("01", "011", "010")


@pytest.mark.parametrize("bits", [("01x", "011", "010"), ("", "", "")])
def test_fif_rejects_what_is_not_a_bit_string(bits):
    with pytest.raises(RuleError):
        fif_metric(*bits)


def _oracle_fif(bx: str, by: str, bp: str) -> int:
    # independent truth-table evaluation, bit by bit
    product = 1
    for x, y, p in zip(bx, by, bp):
        x, y, p = int(x), int(y), int(p)
        xor = 1 if x != y else 0
        and_ = 1 if (x == 1 and p == 1) else 0
        or_ = 1 if (xor == 1 or and_ == 1) else 0
        product = product * or_
    return product


def test_fif_matches_oracle_on_all_3bit_triples():
    codes = [format(i, "03b") for i in range(8)]
    for bx, by, bp in itertools.product(codes, repeat=3):
        got = fif_metric(bx, by, bp).overall
        assert got == _oracle_fif(bx, by, bp), (bx, by, bp)


_enc3 = st.integers(min_value=0, max_value=7).map(lambda i: format(i, "03b"))


@given(_enc3, _enc3, _enc3, st.permutations([0, 1, 2]))
def test_fif_invariant_under_bit_permutation(bx, by, bp, perm):
    def permute(bits):
        return "".join(bits[i] for i in perm)
    base = fif_metric(bx, by, bp).overall
    swapped = fif_metric(permute(bx), permute(by), permute(bp)).overall
    assert base == swapped


@given(_enc3, _enc3)
def test_fif_self_transition_closed_form(bx, bp):
    # for bx == by the product collapses to AND over (bx_i AND bp_i)
    expected = 1
    for x, p in zip(bx, bp):
        expected &= int(x) & int(p)
    assert fif_metric(bx, bx, bp).overall == expected


# -- FIF rule over an STG -----------------------------------------------------------

def test_fif_rule_rsa_clean():
    stg = design_stg("rsa_ctrl", {"RESULT"})
    assert check_fif_rule(stg) == []


def test_fif_rule_flags_full_flip():
    stg = make_stg({"P": "111", "A": "111", "B": "000"},
                   [("A", "B")], "A", protected={"P"})
    # A(111) -> B(000) toward P(111): every per-bit term is 1
    (v,) = check_fif_rule(stg)
    assert v.rule is Rule.FIF_NONZERO
    assert v.transition == ("A", "B")
    assert v.evidence["fif"]["overall"] == 1


def test_fif_rule_requires_protected():
    with pytest.raises(RuleError):
        check_fif_rule(design_stg("vending"))


# -- HD rule -------------------------------------------------------------------------

def test_hd_rule_aes_golden():
    found = {(v.states[0], v.states[1]): v.evidence["hamming_distance"]
             for v in check_hd_rule(design_stg("aes_ctrl", {"WAIT_KEY"}))}
    assert found == {
        ("WAIT_DATA", "INITIAL_ROUND"): 2,
        ("DO_ROUND", "FINAL_ROUND"): 3,
        ("FINAL_ROUND", "WAIT_DATA"): 2,
    }


def test_hd_rule_listing8_residual():
    found = [(v.states[0], v.states[1], v.evidence["hamming_distance"])
             for v in check_hd_rule(design_stg("aes_ctrl_default", {"WAIT_KEY"}))]
    assert found == [("FINAL_ROUND", "WAIT_DATA", 3)]


def test_hd_rule_consistent_with_unprotected_transitions():
    for name, protected in (("aes_ctrl", {"WAIT_KEY"}), ("rsa_ctrl", {"RESULT"})):
        stg = design_stg(name, protected)
        flagged = {v.transition for v in check_hd_rule(stg, include_self_edges=True)}
        expected = {(t.source, t.target) for t in unprotected_transitions(stg)
                    if bin(stg.code_of(t.source) ^ stg.code_of(t.target)).count("1") != 1}
        assert flagged == expected


def test_hd_rule_self_edge_config():
    stg = make_stg({"P": "00", "A": "01", "B": "10"},
                   [("A", "A"), ("A", "B")], "A", protected={"P"})
    default = {v.transition for v in check_hd_rule(stg)}
    widened = {v.transition for v in check_hd_rule(stg, include_self_edges=True)}
    assert default == {("A", "B")}
    assert widened == {("A", "A"), ("A", "B")}


# -- FIF and HD against an independent oracle ------------------------------------------

@st.composite
def small_fsms(draw):
    """Width 2-5, random (possibly repeated) codes, random edges and one or
    two protected states, as (width, codes, edges, protected indices)."""
    width = draw(st.integers(2, 5))
    n = draw(st.integers(2, min(8, 2 ** width)))
    codes = draw(st.lists(st.integers(0, 2 ** width - 1), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    protected = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    return width, codes, edges, protected


def small_fsm_verilog(width, codes, edges) -> str:
    """State i takes its edges in order under guards g0, g1, ..., else holds."""
    out = {i: [d for s, d in edges if s == i] for i in range(len(codes))}
    guards = max(len(targets) for targets in out.values())
    lines = ["module m (", "    input clk,", "    input reset,"]
    lines += [f"    input g{k}," for k in range(guards)]
    lines += ["    output reg busy", ");"]
    lines += [f"parameter S{i} = {width}'b{c:0{width}b};" for i, c in enumerate(codes)]
    lines += [f"reg [{width - 1}:0] cs;", f"reg [{width - 1}:0] ns;",
              "always @(posedge clk or posedge reset) begin",
              "    if (reset) cs <= S0;", "    else cs <= ns;", "end",
              "always @(*) begin", "    busy = 0;", "    case (cs)"]
    for i, targets in out.items():
        lines.append(f"        S{i}: begin")
        keyword = "if"
        for k, d in enumerate(targets):
            lines.append(f"            {keyword} (g{k}) ns = S{d};")
            keyword = "else if"
        lines.append(f"            {'else ' if targets else ''}ns = S{i};")
        lines.append("        end")
    lines += ["        default: ns = S0;", "    endcase", "end", "endmodule"]
    return "\n".join(lines)


def encoding_oracle(width, codes, edges, protected) -> list:
    """HD by popcount, FIF by the per-bit product, over unprotected non-self
    edges, written apart from the package."""
    found = []
    for s, d in edges:
        if s == d or s in protected or d in protected:
            continue
        x, y = codes[s], codes[d]
        if bin(x ^ y).count("1") != 1:
            found.append(("HD_NOT_ONE", (f"S{s}", f"S{d}")))
        for p in protected:
            bit = [((x >> i) & 1, (y >> i) & 1, (codes[p] >> i) & 1) for i in range(width)]
            if all((bx ^ by) | (bx & bp) for bx, by, bp in bit):
                found.append(("FIF_NONZERO", (f"S{s}", f"S{d}", f"S{p}")))
    return sorted(found)


@settings(max_examples=150, deadline=None)
@given(small_fsms())
def test_fif_and_hd_findings_match_an_independent_oracle(fsm):
    width, codes, edges, protected = fsm
    names = frozenset(f"S{p}" for p in protected)
    report = run_all_checks(SourceText(small_fsm_verilog(width, codes, edges)), names,
                            RuleConfig(fif=True))
    assert report.parse_ok
    found = [v for v in report.violations if v.rule in (Rule.HD_NOT_ONE, Rule.FIF_NONZERO)]
    assert sorted((v.rule.value, v.states) for v in found) == \
        encoding_oracle(width, codes, edges, protected)
    enc = {f"S{i}": format(c, f"0{width}b") for i, c in enumerate(codes)}
    for v in found:
        if v.rule is Rule.FIF_NONZERO:
            s, d, p = v.states
            want = replace(fif_metric(enc[s], enc[d], enc[p]), source=s, target=d, protected_ref=p)
            assert v.evidence == {"fif": want.to_json()}
        else:
            s, d = v.states
            hd = sum(a != b for a, b in zip(enc[s], enc[d]))
            assert v.evidence == {"hamming_distance": hd, "encodings": [enc[s], enc[d]]}


# -- deadlock ---------------------------------------------------------------------

def test_deadlock_vending_injected():
    (v,) = detect_static_deadlock(design_stg("vending_deadlock"))
    assert v.states == ("DEADLOCK_STATE",)
    assert "IDLE" in v.evidence["entered_from"]


def test_deadlock_clean_base():
    assert detect_static_deadlock(design_stg("vending")) == []


def test_deadlock_needs_distinct_feeder():
    # a reset state that self-loops until an input is not a deadlock
    stg = make_stg({"A": "0", "B": "1"}, [("A", "A"), ("A", "B"), ("B", "A")], "A")
    assert detect_static_deadlock(stg) == []


# -- trap loops --------------------------------------------------------------------

def test_trap_two_state_cycle():
    stg = make_stg({"R": "00", "A": "01", "B": "10"},
                   [("R", "A"), ("A", "B"), ("B", "A")], "R")
    (v,) = detect_trap_loops(stg)
    assert set(v.states) == {"A", "B"}


def test_trap_whole_machine_is_not_a_trap():
    assert detect_trap_loops(design_stg("vending")) == []


def test_trap_subsumed_by_deadlock():
    stg = design_stg("vending_deadlock")
    assert detect_trap_loops(stg) == []
    assert len(detect_static_deadlock(stg)) == 1


# Guards of the random graphs: a constant-false one never fires, but HD, FIF
# and the re-encoder still score its edge.
_RANDOM_GUARDS = (Guard.always(), Guard.expr("go"), Guard.expr("1'b0"), Guard.expr(" 0 "))


def _random_stg(rng: random.Random):
    n = rng.randint(2, 8)
    names = [f"s{i}" for i in range(n)]
    protected = rng.choice(names) if rng.random() < 0.5 else None
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        guard = rng.choice(_RANDOM_GUARDS) if rng.random() < 0.3 else Guard.always()
        edges.append(Transition(rng.choice(names), rng.choice(names), guard))
    return Stg(states=tuple(State(name, i, name == protected) for i, name in enumerate(names)),
               transitions=tuple(edges), reset_state=names[0], width=4)


def _oracle_edges(stg) -> list:
    """(source, target) of the edges that can fire."""
    return [(t.source, t.target) for t in stg.transitions
            if t.guard.text.strip() not in ("0", "1'b0")]


def _oracle_reachable(stg) -> set:
    succ = {}
    for a, b in _oracle_edges(stg):
        succ.setdefault(a, set()).add(b)
    seen, work = {stg.reset_state}, [stg.reset_state]
    while work:
        cur = work.pop()
        for nxt in succ.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def _oracle_unreachable(stg) -> dict:
    """Unreachable state -> the states it exits to."""
    reach = _oracle_reachable(stg)
    exits = {s.name: set() for s in stg.states if s.name not in reach}
    for a, b in _oracle_edges(stg):
        if a in exits and a != b:
            exits[a].add(b)
    return exits


def _oracle_unprotected(stg) -> list:
    protected = {s.name for s in stg.states if s.protected}
    return [t for t in stg.transitions
            if t.source not in protected and t.target not in protected]


def _oracle_hd(stg, include_self: bool) -> list:
    """(source, target, HD) of each scored edge at HD != 1, in source order;
    constant-false edges are scored too."""
    code = {s.name: s.code for s in stg.states}
    found = []
    for t in _oracle_unprotected(stg):
        hd = bin(code[t.source] ^ code[t.target]).count("1")
        if hd != 1 and (include_self or t.source != t.target):
            found.append((t.source, t.target, hd))
    return found


def _oracle_deadlocks(stg) -> set:
    reach = _oracle_reachable(stg)
    out = {}
    inc = {}
    for a, b in _oracle_edges(stg):
        out.setdefault(a, set()).add(b)
        inc.setdefault(b, set()).add(a)
    result = set()
    for name in reach:
        successors = out.get(name, set())
        if successors - {name}:
            continue
        if (inc.get(name, set()) - {name}) & reach:
            result.add(name)
    return result


def _oracle_traps(stg) -> set:
    # independent SCC computation (Kosaraju) + sink-component test
    reach = _oracle_reachable(stg)
    succ = {n: set() for n in reach}
    pred = {n: set() for n in reach}
    for a, b in _oracle_edges(stg):
        if a in reach and b in reach:
            succ[a].add(b)
            pred[b].add(a)
    order = []
    seen = set()

    def dfs1(node):
        stack = [(node, iter(succ[node]))]
        seen.add(node)
        while stack:
            cur, it = stack[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                order.append(cur)
                stack.pop()

    for node in sorted(reach):
        if node not in seen:
            dfs1(node)
    comp = {}
    for root in reversed(order):
        if root in comp:
            continue
        members = []
        work = [root]
        comp[root] = root
        while work:
            cur = work.pop()
            members.append(cur)
            for nxt in pred[cur]:
                if nxt not in comp:
                    comp[nxt] = root
                    work.append(nxt)
    groups = {}
    for node, root in comp.items():
        groups.setdefault(root, set()).add(node)
    traps = set()
    for members in groups.values():
        if members == reach:
            continue
        if len(members) == 1:
            (m,) = members
            if m not in succ[m]:
                continue
        if any(t not in members for m in members for t in succ[m]):
            continue
        deadlockish = {m for m in members if not (succ[m] - {m})} & _oracle_deadlocks(stg)
        if members <= deadlockish:
            continue
        traps.add(frozenset(members))
    return traps


def test_graph_rules_match_oracles_on_200_random_stgs():
    rng = random.Random(2024)
    for _ in range(200):
        stg = _random_stg(rng)
        dead = detect_static_deadlock(stg)
        got_dead = {v.states[0] for v in dead}
        assert got_dead == _oracle_deadlocks(stg)
        reach = _oracle_reachable(stg)
        for v in dead:
            assert v.evidence["entered_from"] == sorted(
                {a for a, b in _oracle_edges(stg) if b == v.states[0] != a and a in reach})
        got_traps = {frozenset(v.states) for v in detect_trap_loops(stg)}
        assert got_traps == _oracle_traps(stg)
        # subsumption: never both reports for one state set
        for trap in got_traps:
            assert not (trap & got_dead and len(trap) == 1)
        got_unreachable = {v.states[0]: set(v.evidence["exits_to"])
                           for v in detect_unreachable_states(stg)}
        assert got_unreachable == _oracle_unreachable(stg)
        assert unprotected_transitions(stg) == _oracle_unprotected(stg)
        for include_self in (False, True):
            got_hd = [(*v.transition, v.evidence["hamming_distance"])
                      for v in check_hd_rule(stg, include_self)]
            assert got_hd == _oracle_hd(stg, include_self)


# -- unreachable --------------------------------------------------------------------

def test_unreachable_fsm_review():
    (v,) = detect_unreachable_states(design_stg("fsm_review"))
    assert v.states == ("s3",)
    assert v.evidence["variant"] == "with-outgoing"
    assert v.evidence["exits_to"] == ["s0"]


def test_unreachable_none_in_aes():
    assert detect_unreachable_states(design_stg("aes_ctrl")) == []


def test_unreachable_isolated_variant():
    text = """module m (input clk, input rst);
parameter A = 2'b00;
parameter B = 2'b01;
parameter GHOST = 2'b10;
reg [1:0] s;
reg [1:0] n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin
n = A;
case (s)
A: n = B;
B: n = A;
endcase
end
endmodule"""
    stg = extract_stg(parse_source(SourceText(text)).expect_ast())
    # GHOST has an arm-less fallthrough to the leading default, so it still
    # "exits"; the isolated variant needs no leading default either.
    (v,) = detect_unreachable_states(stg)
    assert v.states == ("GHOST",)


# -- duplicates ----------------------------------------------------------------------

def test_duplicates_direct_pair():
    stg = make_stg({"A": "010", "B": "010", "C": "001"}, [("A", "B"), ("B", "C"), ("C", "A")], "A")
    (v,) = detect_duplicate_encodings(stg)
    assert v.states == ("A", "B")
    assert v.evidence["encoding"] == "010"


def test_duplicates_none_in_aes():
    assert detect_duplicate_encodings(design_stg("aes_ctrl")) == []


# Two code groups interleaved over s0..s(2k-1), even states on one code and
# odd states on the other: pairs come by first state, then second state.
_INTERLEAVED_PAIRS = {
    2: [("s0", "s2"), ("s1", "s3")],
    3: [("s0", "s2"), ("s0", "s4"), ("s1", "s3"), ("s1", "s5"), ("s2", "s4"),
        ("s3", "s5")],
    4: [("s0", "s2"), ("s0", "s4"), ("s0", "s6"), ("s1", "s3"), ("s1", "s5"),
        ("s1", "s7"), ("s2", "s4"), ("s2", "s6"), ("s3", "s5"), ("s3", "s7"),
        ("s4", "s6"), ("s5", "s7")],
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_duplicates_pairwise_count(k):
    codes = {f"s{i}": "110" for i in range(k)}
    codes["extra"] = "001"
    stg = make_stg(codes, [(f"s{i}", "extra") for i in range(k)], "s0")
    assert len(detect_duplicate_encodings(stg)) == k * (k - 1) // 2

    codes = {f"s{i}": ("110", "011")[i % 2] for i in range(2 * k)}
    codes["extra"] = "001"
    stg = make_stg(codes, [(name, "extra") for name in codes], "s0")
    found = detect_duplicate_encodings(stg)
    assert [v.states for v in found] == _INTERLEAVED_PAIRS[k]
    assert [v.evidence["encoding"] for v in found] == [codes[a] for a, _ in _INTERLEAVED_PAIRS[k]]


# -- default handling ----------------------------------------------------------------

def test_default_missing_in_aes():
    ast = design_ast("aes_ctrl")
    (v,) = check_default_handling(ast)
    assert v.evidence["unused_encodings"] == ["101", "110", "111"]


def test_default_present_in_listing8():
    ast = design_ast("aes_ctrl_default")
    assert check_default_handling(ast) == []


def test_default_not_needed_with_full_coverage():
    text = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    assert check_default_handling(ast) == []


def test_leading_default_counts_as_handling():
    ast = design_ast("fsm_review")
    assert check_default_handling(ast) == []


@pytest.mark.parametrize("name", ["vending", "fsm_review"])
def test_handled_defaults_never_enumerate_unused_codes(name, monkeypatch):
    """A default arm (vending) or a leading default (fsm_review) handles
    every unused code, so the check must not list all 2^w of them first."""
    def refuse(self):
        raise AssertionError("unused_encodings enumerated")

    monkeypatch.setattr(FsmAst, "unused_encodings", refuse)
    report = run_all_checks(design_source(name))
    assert report.parse_ok
    assert Rule.MISSING_DEFAULT not in report.violated_rules


# -- aggregation -----------------------------------------------------------------------

def test_run_all_checks_aes_golden(aes_ctrl):
    report = run_all_checks(aes_ctrl, {"WAIT_KEY"})
    kinds = [v.rule for v in report.violations]
    assert kinds == [Rule.HD_NOT_ONE] * 3 + [Rule.MISSING_DEFAULT]


def test_run_all_checks_clean_design(vending):
    report = run_all_checks(vending)
    assert report.violations == []
    assert ("HD_NOT_ONE", "rule not evaluated: empty protected set") in report.skipped_rules


def test_run_all_checks_deadlock_only(vending_deadlock):
    report = run_all_checks(vending_deadlock)
    assert [v.rule for v in report.violations] == [Rule.STATIC_DEADLOCK]
    assert report.violations[0].states == ("DEADLOCK_STATE",)


def test_one_reachability_pass_per_check(monkeypatch):
    calls = count_calls(monkeypatch, "fsmguard.stg", "reachable_states")
    report = run_all_checks(design_source("fsm_review"))
    assert Rule.UNREACHABLE_STATE in report.violated_rules
    assert len(calls) == 1


def test_run_all_checks_parse_failure(moore_conflict):
    report = run_all_checks(moore_conflict)
    assert not report.parse_ok
    assert report.violations == []
    assert any(d.code == "E_PORT_KIND" for d in report.errors)


def test_reports_are_deterministic(aes_ctrl):
    a = run_all_checks(aes_ctrl, {"WAIT_KEY"}).to_json_text()
    b = run_all_checks(aes_ctrl, {"WAIT_KEY"}).to_json_text()
    assert a == b


def test_report_json_shape(aes_ctrl):
    data = run_all_checks(aes_ctrl, {"WAIT_KEY"}).to_json()
    assert data["schema_version"] == 1
    assert data["protected"] == ["WAIT_KEY"]
    assert len(data["violations"]) == 4


def test_unreachable_truly_isolated_variant():
    text = """module m (input clk, input rst);
parameter A = 2'b00;
parameter B = 2'b01;
parameter GHOST = 2'b10;
reg [1:0] s;
reg [1:0] n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin
case (s)
A: n = B;
B: n = A;
default: n = A;
endcase
end
endmodule"""
    stg = extract_stg(parse_source(SourceText(text)).expect_ast())
    (v,) = detect_unreachable_states(stg)
    assert v.states == ("GHOST",)
    assert v.evidence["variant"] == "with-outgoing"  # default arm gives it an exit

    no_default = text.replace("default: n = A;\n", "")
    stg2 = extract_stg(parse_source(SourceText(no_default)).expect_ast())
    (v2,) = [v for v in detect_unreachable_states(stg2) if v.states == ("GHOST",)]
    assert v2.evidence["variant"] == "isolated"


def test_run_all_checks_undeclared_protected(vending):
    report = run_all_checks(vending, {"NO_SUCH_STATE"})
    assert not report.parse_ok
    assert any(d.code == "E_STG" for d in report.errors)


# -- golden identity: every report -----------------------------------------------------

# sha256 over the JSON report of every shipped design, with no protected state
# and with each declared state protected in turn, FIF off and on; designs are
# named by file name so the digest does not depend on the checkout.
REPORTS_GOLDEN_SHA256 = "828ebb9d308c5cc46b989c375ace71dcf82718cfdf83f308c1e6feffa2226f23"


def test_reports_golden_identity():
    digest = hashlib.sha256()
    for path in sorted(DESIGNS.glob("*.v")):
        src = SourceText(path.read_text(encoding="utf-8"), origin=path.name)
        ast = parse_source(src).ast
        names = ast.param_names if ast is not None else []
        for protected in [frozenset()] + [frozenset({n}) for n in names]:
            for fif in (False, True):
                report = run_all_checks(src, protected, RuleConfig(fif=fif))
                digest.update(report.to_json_text().encode())
    assert digest.hexdigest() == REPORTS_GOLDEN_SHA256
