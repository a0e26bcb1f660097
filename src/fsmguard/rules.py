"""Security rule checks over the STG, including the fault-injection
feasibility (FIF) metric, aggregated into a CheckReport.

FIF for one transition against one protected state is the bitwise product

    FIF = prod_i ((bx_i XOR by_i) OR (bx_i AND bp_i))        i = 0 .. n-1

where bx/by/bp are the present, next, and protected state encodings and
index 0 is the MSB.  FIF = 1 marks a transition from which a fault can
steer the machine toward the protected state.

No ``RuleViolation`` is mutated once a rule has built it.  A finding shares
its ``Span`` with the STG, and a mitigation outcome shares the findings of
its last check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Optional

from .ast_nodes import FsmAst
from .lint import lint
from .parser import ParseResult, parse_source
from .source import Diagnostic, SourceText, Span, error
from .stg import (
    State,
    Stg,
    StgError,
    Transition,
    extract_stg,
    unprotected_transitions,
)

SCHEMA_VERSION = 1


class Rule(Enum):
    FIF_NONZERO = "FIF_NONZERO"
    HD_NOT_ONE = "HD_NOT_ONE"
    STATIC_DEADLOCK = "STATIC_DEADLOCK"
    TRAP_LOOP_CWE835 = "TRAP_LOOP_CWE835"
    UNREACHABLE_STATE = "UNREACHABLE_STATE"
    DUPLICATE_ENCODING = "DUPLICATE_ENCODING"
    MISSING_DEFAULT = "MISSING_DEFAULT"


_RULE_ORDER = {rule: i for i, rule in enumerate(Rule)}


class RuleError(ValueError):
    pass


@dataclass(frozen=True)
class RuleConfig:
    """Which rules run, and how edge cases are scored.

    The FIF rule is opt-in: in the default audit profile (default handling
    plus Hamming distance) FIF findings would double-report the same
    encoding weaknesses.  ``include_self_edges`` widens HD/FIF scoring to
    unprotected self transitions (HD = 0 trivially violates HD = 1), which
    stays off by default and is surfaced in every report.
    """

    fif: bool = False
    hd: bool = True
    static_deadlock: bool = True
    trap_loop: bool = True
    unreachable: bool = True
    duplicate_encoding: bool = True
    missing_default: bool = True
    include_self_edges: bool = False

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BitTriple:
    """Present / next / protected state bits at one position."""

    bx: int
    by: int
    bp: int
    index: int


@dataclass(frozen=True)
class FifResult:
    per_bit: tuple[tuple[BitTriple, int], ...]
    overall: int
    source: str = ""
    target: str = ""
    protected_ref: str = ""

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "protected": self.protected_ref,
            "per_bit": [
                {"i": t.index, "bx": t.bx, "by": t.by, "bp": t.bp, "fif": v}
                for t, v in self.per_bit
            ],
            "overall": self.overall,
        }


def fif_metric(bx: str, by: str, bp: str) -> FifResult:
    """Evaluate the FIF product for one (present, next, protected) triple of
    equal-width bit strings such as "010", index 0 the MSB."""
    if not bx or not len(bx) == len(by) == len(bp) or not set(bx + by + bp) <= {"0", "1"}:
        raise RuleError(f"not three equal-width bit strings: {bx!r}, {by!r}, {bp!r}")
    per_bit = []
    overall = 1
    for i, (x, y, p) in enumerate(zip(bx, by, bp)):
        triple = BitTriple(int(x), int(y), int(p), i)
        fif_i = (triple.bx ^ triple.by) | (triple.bx & triple.bp)
        per_bit.append((triple, fif_i))
        overall &= fif_i
    return FifResult(per_bit=tuple(per_bit), overall=overall)


@dataclass(slots=True, unsafe_hash=True)
class RuleViolation:
    rule: Rule
    states: tuple[str, ...]
    transition: Optional[tuple[str, str]] = None
    span: Optional[Span] = None
    evidence: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {
            "rule": self.rule.value,
            "states": list(self.states),
            "transition": list(self.transition) if self.transition else None,
            "span": self.span.to_json() if self.span else None,
            "evidence": self.evidence,
        }


@dataclass
class CheckReport:
    design_id: str
    protected: tuple[str, ...]
    violations: list[RuleViolation]
    lint: list[Diagnostic]
    config: RuleConfig
    skipped_rules: list[tuple[str, str]] = field(default_factory=list)
    parse_ok: bool = True
    # What was judged, kept in memory so later steps need not parse or
    # extract again; never serialized or compared.  ``ast`` is set once the
    # design parses, ``stg`` once its STG is extracted, and ``source`` by
    # ``run_all_checks``.
    ast: Optional[FsmAst] = field(default=None, compare=False, repr=False)
    stg: Optional[Stg] = field(default=None, compare=False, repr=False)
    source: Optional[SourceText] = field(default=None, compare=False, repr=False)

    @property
    def violated_rules(self) -> set[Rule]:
        return {v.rule for v in self.violations}

    def violations_of(self, rule: Rule) -> list[RuleViolation]:
        return [v for v in self.violations if v.rule == rule]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.lint if d.is_error]

    def expect_ast(self) -> FsmAst:
        """The AST judged; raises ParseFailure when the design did not parse."""
        return ParseResult(self.ast, self.lint).expect_ast()

    def expect_stg(self) -> Stg:
        """The STG judged; raises the ParseFailure or StgError that stopped
        the check when there is none."""
        if self.stg is None:
            self.expect_ast()
            raise StgError(next(d.message for d in self.errors if d.code == "E_STG"))
        return self.stg

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "design_id": self.design_id,
            "parse_ok": self.parse_ok,
            "protected": sorted(self.protected),
            "config": self.config.to_json(),
            "violations": [v.to_json() for v in self.violations],
            "lint": [d.to_json() for d in self.lint],
            "skipped_rules": [list(s) for s in self.skipped_rules],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False) + "\n"


# -- per-rule checks --------------------------------------------------------

def _scored_edges(stg: Stg, include_self: bool) -> list[Transition]:
    edges = unprotected_transitions(stg)
    if not include_self:
        edges = [t for t in edges if not t.is_self]
    return edges


def _fif_pair(stg: Stg, source: str, target: str, protected: str) -> FifResult:
    base = fif_metric(*(f"{stg.code_of(n):0{stg.width}b}" for n in (source, target, protected)))
    return FifResult(base.per_bit, base.overall, source, target, protected)


def check_fif_rule(stg: Stg, include_self_edges: bool = False) -> list[RuleViolation]:
    """FIF_NONZERO for each pair whose product is 1.  On integer codes the
    product is 1 exactly when (x XOR y) OR (x AND p) sets every bit, so
    fif_metric runs only for those pairs, to give their per-bit evidence."""
    protected = [(p, stg.code_of(p)) for p in sorted(stg.protected_names)]
    if not protected:
        raise RuleError("FIF rule requires a protected state")
    mask = (1 << stg.width) - 1
    code = stg.code_of
    violations = []
    for t in _scored_edges(stg, include_self_edges):
        x = code(t.source)
        flips = x ^ code(t.target)
        for p, bp in protected:
            if flips | (x & bp) == mask:
                violations.append(RuleViolation(
                    rule=Rule.FIF_NONZERO,
                    states=(t.source, t.target, p),
                    transition=(t.source, t.target),
                    evidence={"fif": _fif_pair(stg, t.source, t.target, p).to_json()},
                ))
    return violations


def check_hd_rule(stg: Stg, include_self_edges: bool = False) -> list[RuleViolation]:
    code = stg.code_of
    bits = {name: f"{code(name):0{stg.width}b}" for name in stg.state_names}
    violations = []
    for t in _scored_edges(stg, include_self_edges):
        hd = (code(t.source) ^ code(t.target)).bit_count()
        if hd != 1:
            violations.append(RuleViolation(
                rule=Rule.HD_NOT_ONE,
                states=(t.source, t.target),
                transition=(t.source, t.target),
                span=t.span,
                evidence={"hamming_distance": hd,
                          "encodings": [bits[t.source], bits[t.target]]},
            ))
    return violations


def detect_static_deadlock(stg: Stg) -> list[RuleViolation]:
    """A reachable state every outgoing edge of which is a self loop, entered
    from some distinct reachable state."""
    reach = stg.reachable
    violations = []
    for s in stg.states:
        if s.name not in reach:
            continue
        out = stg.out_edges(s.name)
        if any(t.target != s.name for t in out):
            continue
        feeders = [t.source for t in stg.in_edges(s.name)
                   if t.source != s.name and t.source in reach]
        if feeders:
            violations.append(RuleViolation(
                rule=Rule.STATIC_DEADLOCK,
                states=(s.name,),
                span=s.span,
                evidence={"entered_from": sorted(set(feeders))},
            ))
    return violations


def _tarjan_sccs(nodes: list[str], succ: dict[str, list[str]]) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    out: list[list[str]] = []

    def strongconnect(v: str) -> None:
        # iterative Tarjan: explicit stack of (node, successor iterator)
        work = [(v, iter(succ.get(v, ())))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return out


def detect_trap_loops(stg: Stg) -> list[RuleViolation]:
    """Strongly connected sets of reachable states with no exit edge, forming
    a proper subset of the reachable set.  Single-state traps are reported as
    static deadlocks, never twice."""
    reach = stg.reachable
    succ = {n: [t.target for t in stg.out_edges(n)] for n in reach}
    traps: list[set[str]] = []
    for comp in _tarjan_sccs([n for n in stg.state_names if n in reach], succ):
        # One state with no exit is entered from a distinct reachable state
        # (else it would be the whole reachable set): a STATIC_DEADLOCK.
        comp_set = set(comp)
        if len(comp) == 1 or comp_set == reach:
            continue
        if all(target in comp_set for n in comp for target in succ[n]):
            traps.append(comp_set)
    trap_of = {n: i for i, comp_set in enumerate(traps) for n in comp_set}
    members: list[list[str]] = [[] for _ in traps]
    for n in stg.state_names:
        if n in trap_of:
            members[trap_of[n]].append(n)
    return [RuleViolation(
        rule=Rule.TRAP_LOOP_CWE835,
        states=tuple(names),
        span=stg.state(names[0]).span,
        evidence={"members": names},
    ) for names in members]


def detect_unreachable_states(stg: Stg) -> list[RuleViolation]:
    reach = stg.reachable
    violations = []
    for s in stg.states:
        if s.name in reach or s.name == stg.reset_state:
            continue
        out = [t for t in stg.out_edges(s.name) if t.target != s.name]
        violations.append(RuleViolation(
            rule=Rule.UNREACHABLE_STATE,
            states=(s.name,),
            span=s.span,
            evidence={"variant": "with-outgoing" if out else "isolated",
                      "exits_to": sorted({t.target for t in out})},
        ))
    return violations


def detect_duplicate_encodings(stg: Stg) -> list[RuleViolation]:
    """Every pair (a, b) sharing a code, a declared before b, ordered by a
    then b."""
    groups: dict[int, list[State]] = {}
    for s in stg.states:
        groups.setdefault(s.code, []).append(s)
    taken: dict[int, int] = {}
    violations = []
    for a in stg.states:
        taken[a.code] = taken.get(a.code, 0) + 1
        for b in groups[a.code][taken[a.code]:]:
            violations.append(RuleViolation(
                rule=Rule.DUPLICATE_ENCODING,
                states=(a.name, b.name),
                span=b.span,
                evidence={"encoding": f"{a.code:0{stg.width}b}"},
            ))
    return violations


def check_default_handling(ast: FsmAst) -> list[RuleViolation]:
    """Unused encodings must be handled: by a default arm, or by a leading
    next-state default that every unmatched encoding falls through to."""
    if (ast.comb.default_arm is not None
            or ast.comb.leading_target_for(ast.state_next) is not None):
        return []
    unused = ast.unused_encodings()
    if not unused:
        return []
    return [RuleViolation(
        rule=Rule.MISSING_DEFAULT,
        states=(),
        span=ast.comb.span,
        evidence={"unused_encodings": unused},
    )]


# -- aggregation ------------------------------------------------------------

def _sort_violations(violations: list[RuleViolation]) -> list[RuleViolation]:
    def key(v: RuleViolation) -> tuple:
        line = v.span.start if v.span else 0
        return (_RULE_ORDER[v.rule], line, v.states)
    return sorted(violations, key=key)


def run_checks_on_ast(ast: FsmAst, protected: frozenset[str] | set[str],
                      config: RuleConfig = RuleConfig(),
                      design_id: str = "<ast>") -> CheckReport:
    stg = extract_stg(ast, protected)
    merged = stg.protected_names
    violations: list[RuleViolation] = []
    skipped: list[tuple[str, str]] = []

    if config.fif:
        if merged:
            violations += check_fif_rule(stg, config.include_self_edges)
        else:
            skipped.append((Rule.FIF_NONZERO.value, "rule not evaluated: empty protected set"))
    if config.hd:
        if merged:
            violations += check_hd_rule(stg, config.include_self_edges)
        else:
            skipped.append((Rule.HD_NOT_ONE.value, "rule not evaluated: empty protected set"))
    if config.static_deadlock:
        violations += detect_static_deadlock(stg)
    if config.trap_loop:
        violations += detect_trap_loops(stg)
    if config.unreachable:
        violations += detect_unreachable_states(stg)
    if config.duplicate_encoding:
        violations += detect_duplicate_encodings(stg)
    if config.missing_default:
        violations += check_default_handling(ast)

    return CheckReport(
        design_id=design_id,
        protected=tuple(sorted(merged)),
        violations=_sort_violations(violations),
        lint=lint(ast),
        config=config,
        skipped_rules=skipped,
        ast=ast,
        stg=stg,
    )


def run_all_checks(src: SourceText, protected: frozenset[str] | set[str] = frozenset(),
                   config: RuleConfig = RuleConfig()) -> CheckReport:
    """Parse the design once, lint it, extract its STG, and run every rule
    enabled in config.

    A parse failure yields a report holding only the error diagnostics; an
    STG that cannot be extracted yields one holding an E_STG error.  Every
    report carries src.
    """
    result = parse_source(src)
    if result.ast is not None:
        try:
            report = run_checks_on_ast(result.ast, protected, config, src.origin)
        except StgError as exc:
            result.diagnostics.append(error("E_STG", str(exc), Span(1, 1)))
        else:
            report.lint = result.diagnostics + report.lint
            report.source = src
            return report
    return CheckReport(
        design_id=src.origin,
        protected=tuple(sorted(protected)),
        violations=[],
        lint=result.diagnostics,
        config=config,
        parse_ok=False,
        ast=result.ast,
        source=src,
    )
