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

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import Optional

from .ast_nodes import FsmAst
from .jsontext import dumps_indented
from .lint import lint
from .parser import ParseResult, parse_source
from .source import Diagnostic, SourceText, Span, error
from .stg import State, Stg, StgError, extract_stg

SCHEMA_VERSION = 1


class Rule(Enum):
    FIF_NONZERO = "FIF_NONZERO"
    HD_NOT_ONE = "HD_NOT_ONE"
    STATIC_DEADLOCK = "STATIC_DEADLOCK"
    TRAP_LOOP_CWE835 = "TRAP_LOOP_CWE835"
    UNREACHABLE_STATE = "UNREACHABLE_STATE"
    DUPLICATE_ENCODING = "DUPLICATE_ENCODING"
    MISSING_DEFAULT = "MISSING_DEFAULT"



class RuleError(ValueError):
    pass


@dataclass(frozen=True)
class RuleConfig:
    """How a check scores edge cases; every rule always runs.

    The FIF rule is opt-in: in the default audit profile (default handling
    plus Hamming distance) FIF findings would double-report the same
    encoding weaknesses.  HD, and FIF when on, need a protected state and
    are listed in ``skipped_rules`` without one.  ``include_self_edges``
    widens HD/FIF scoring to unprotected self transitions (HD = 0 trivially
    violates HD = 1), which stays off by default and is surfaced in every
    report.
    """

    fif: bool = False
    include_self_edges: bool = False

    def to_json(self) -> dict:
        # The six rules that always run keep their schema-1 keys, as true.
        return {"fif": self.fif, "hd": True, "static_deadlock": True, "trap_loop": True,
                "unreachable": True, "duplicate_encoding": True, "missing_default": True,
                "include_self_edges": self.include_self_edges}


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
        return dumps_indented(self.to_json()) + "\n"


# -- per-rule checks --------------------------------------------------------

def check_fif_rule(stg: Stg, include_self_edges: bool = False) -> list[RuleViolation]:
    """FIF_NONZERO for each pair whose product is 1.  On integer codes the
    product is 1 exactly when (x XOR y) OR (x AND p) sets every bit, so
    fif_metric runs only for those pairs, to give their per-bit evidence."""
    protected = sorted((s.name, s.code) for s in stg.states if s.protected)
    if not protected:
        raise RuleError("FIF rule requires a protected state")
    mask = (1 << stg.width) - 1
    codes = stg.codes
    violations = []
    for a, b, t in stg.scored_edges(include_self_edges):
        x = codes[a]
        flips = x ^ codes[b]
        for p, bp in protected:
            if flips | (x & bp) == mask:
                base = fif_metric(*(f"{c:0{stg.width}b}" for c in (x, codes[b], bp)))
                fif = FifResult(base.per_bit, base.overall, t.source, t.target, p)
                violations.append(RuleViolation(
                    rule=Rule.FIF_NONZERO,
                    states=(t.source, t.target, p),
                    transition=(t.source, t.target),
                    evidence={"fif": fif.to_json()},
                ))
    return violations


def check_hd_rule(stg: Stg, include_self_edges: bool = False) -> list[RuleViolation]:
    codes = stg.codes
    bits = [f"{c:0{stg.width}b}" for c in codes]
    violations = []
    for a, b, t in stg.scored_edges(include_self_edges):
        hd = (codes[a] ^ codes[b]).bit_count()
        if hd != 1:
            pair = (t.source, t.target)   # the states and the transition
            violations.append(RuleViolation(   # positional: one per edge, at most
                Rule.HD_NOT_ONE, pair, pair, t.span,
                {"hamming_distance": hd, "encodings": [bits[a], bits[b]]}))
    return violations


def detect_static_deadlock(stg: Stg) -> list[RuleViolation]:
    """A reachable state every outgoing edge of which is a self loop, entered
    from some distinct reachable state."""
    reach = stg.reach_mask
    names = stg.state_names
    violations = []
    for i, (s, out) in enumerate(zip(stg.states, stg.succ)):
        if not reach[i] or out.count(i) != len(out):
            continue
        feeders = {names[j] for j in stg.pred[i] if j != i and reach[j]}
        if feeders:
            violations.append(RuleViolation(
                rule=Rule.STATIC_DEADLOCK,
                states=(s.name,),
                span=s.span,
                evidence={"entered_from": sorted(feeders)},
            ))
    return violations


def _tarjan_sccs(nodes: list[int], succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the states reached from nodes, in
    the order Tarjan's algorithm completes them; iterative, with an explicit
    stack of (state, successor iterator)."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    counter = 0
    out: list[list[int]] = []
    for v in nodes:
        if index[v] >= 0:
            continue
        index[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        work = [(v, iter(succ[v]))]
        while work:
            node, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[node]:
                    low[node] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == node:
                            break
                    out.append(comp)
    return out


def detect_trap_loops(stg: Stg) -> list[RuleViolation]:
    """Strongly connected sets of reachable states with no exit edge, forming
    a proper subset of the reachable set.  Single-state traps are reported as
    static deadlocks, never twice."""
    reach = list(compress(range(len(stg.states)), stg.reach_mask))
    names = stg.state_names
    violations = []
    for comp in _tarjan_sccs(reach, stg.succ):
        # One state with no exit is entered from a distinct reachable state
        # (else it would be the whole reachable set): a STATIC_DEADLOCK.
        # Every component lies inside the reachable set.
        if len(comp) == 1 or len(comp) == len(reach):
            continue
        members = set(comp)
        if all(w in members for v in comp for w in stg.succ[v]):
            comp.sort()
            violations.append(RuleViolation(
                rule=Rule.TRAP_LOOP_CWE835,
                states=tuple(names[i] for i in comp),
                span=stg.states[comp[0]].span,
                evidence={"members": [names[i] for i in comp]},
            ))
    return violations


def detect_unreachable_states(stg: Stg) -> list[RuleViolation]:
    reach = stg.reach_mask
    names = stg.state_names
    violations = []
    for i, s in enumerate(stg.states):
        if reach[i]:
            continue
        exits = {names[j] for j in stg.succ[i] if j != i}
        violations.append(RuleViolation(
            rule=Rule.UNREACHABLE_STATE,
            states=(s.name,),
            span=s.span,
            evidence={"variant": "with-outgoing" if exits else "isolated",
                      "exits_to": sorted(exits)},
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
    listed, unused = ast.unused_encodings()
    if not unused:
        return []
    evidence: dict = {"unused_encodings": listed}
    if unused > len(listed):
        evidence["unused_count"] = unused
    return [RuleViolation(
        rule=Rule.MISSING_DEFAULT,
        states=(),
        span=ast.comb.span,
        evidence=evidence,
    )]


# -- aggregation ------------------------------------------------------------

def _sort_violations(found: list[list[RuleViolation]]) -> list[RuleViolation]:
    """found's lists (one per rule, in Rule order), each by first line, then states."""
    out: list[RuleViolation] = []
    for vs in found:
        keys = [(v.span.start if v.span else 0, v.states) for v in vs]
        out += map(vs.__getitem__, sorted(range(len(vs)), key=keys.__getitem__))
    return out


def run_checks_on_ast(ast: FsmAst, protected: frozenset[str] | set[str],
                      config: RuleConfig = RuleConfig(),
                      design_id: str = "<ast>") -> CheckReport:
    stg = extract_stg(ast, protected)
    merged = stg.protected_names
    found: list[list[RuleViolation]] = []   # the rules run in Rule order
    skipped: list[tuple[str, str]] = []

    scorers = [(Rule.FIF_NONZERO, check_fif_rule)] if config.fif else []
    for rule, scorer in scorers + [(Rule.HD_NOT_ONE, check_hd_rule)]:
        if merged:
            found.append(scorer(stg, config.include_self_edges))
        else:
            skipped.append((rule.value, "rule not evaluated: empty protected set"))
    found += (detect_static_deadlock(stg), detect_trap_loops(stg),
              detect_unreachable_states(stg), detect_duplicate_encodings(stg),
              check_default_handling(ast))

    return CheckReport(
        design_id=design_id,
        protected=tuple(sorted(merged)),
        violations=_sort_violations(found),
        lint=lint(ast),
        config=config,
        skipped_rules=skipped,
        ast=ast,
        stg=stg,
    )


def run_all_checks(src: SourceText, protected: frozenset[str] | set[str] = frozenset(),
                   config: RuleConfig = RuleConfig()) -> CheckReport:
    """Parse the design once, lint it, extract its STG, and run every rule
    (FIF only when config turns it on).

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
