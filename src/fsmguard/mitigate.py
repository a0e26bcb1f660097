"""Deterministic removal of detected violations, verified against the rule
checker after every fix.

Fix order inside one round: duplicate encodings, unreachable states,
deadlocks and trap loops, default handling, and re-encoding last (the
encoding search depends on the final state set).  Rounds repeat to a
fixpoint, capped at five.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .ast_nodes import Assign, Branch, CaseArm, FsmAst, IfChain
from .emitter import emit_verilog
from .parser import parse_source
from .rules import CheckReport, Rule, RuleConfig, RuleViolation, run_checks_on_ast
from .source import SourceText
from .stg import (
    Encoding,
    Stg,
    Transition,
    extract_stg,
    hamming_distance,
    reachable_states,
    stg_isomorphic_modulo_encoding,
    unprotected_transitions,
)

MAX_ROUNDS = 5


class MitigationError(ValueError):
    pass


@dataclass
class MitigationConfig:
    default_arm_target: Optional[str] = None     # None: reset state
    deadlock_exit_input: Optional[str] = None    # None: first data input
    include_self_edges: bool = False


@dataclass(frozen=True)
class EncodingAssignment:
    """Injective state-to-encoding map plus the edges no assignment fixed."""

    mapping: dict[str, Encoding]
    residual_violations: tuple[tuple[str, str], ...]

    @property
    def residual_count(self) -> int:
        return len(self.residual_violations)


@dataclass
class MitigationOutcome:
    design: SourceText
    fixed: list[Rule]
    residual: list[RuleViolation]
    stg_preserved: bool
    rounds: int = 0

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "design": self.design.content,
            "fixed": [r.value for r in self.fixed],
            "residual": [v.to_json() for v in self.residual],
            "stg_preserved": self.stg_preserved,
            "rounds": self.rounds,
        }


# -- single-rule fixes --------------------------------------------------------

def add_default_arm(ast: FsmAst, target: str) -> FsmAst:
    """Append a default arm assigning next-state to target."""
    if ast.comb.default_arm is not None:
        raise MitigationError("default arm already present")
    if target not in ast.param_names:
        raise MitigationError(f"default target {target} is not a declared state")
    fixed = copy.deepcopy(ast)
    fixed.comb.default_arm = CaseArm(None, [Assign(fixed.state_next, target)])
    return fixed


def remove_unreachable_state(ast: FsmAst, state: str | Iterable[str]) -> FsmAst:
    """Delete the parameters and case arms of unreachable, non-reset states.

    Several states go in one step, so states that only reference each other
    never leave a dangling label behind.
    """
    states = {state} if isinstance(state, str) else set(state)
    stg = extract_stg(ast)
    reach = reachable_states(stg)
    for name in sorted(states):
        if name == stg.reset_state:
            raise MitigationError("refusing to remove the reset state")
        if name in reach:
            raise MitigationError(f"{name} is reachable; not removing it")
    fixed = copy.deepcopy(ast)
    fixed.parameters = [p for p in fixed.parameters if p.name not in states]
    fixed.comb.arms = [a for a in fixed.comb.arms if a.label not in states]
    return fixed


def remove_static_deadlock(ast: FsmAst, state: str, exit_target: str,
                           exit_input: Optional[str] = None) -> FsmAst:
    """Give a deadlocked state a way out: guarded by an input when one
    exists, otherwise an unconditional exit."""
    if exit_target == state:
        raise MitigationError("exit target must differ from the deadlocked state")
    if exit_target not in ast.param_names:
        raise MitigationError(f"exit target {exit_target} is not a declared state")
    report = run_checks_on_ast(ast, frozenset(), RuleConfig(hd=False))
    flagged = {v.states[0] for v in report.violations_of(Rule.STATIC_DEADLOCK)}
    flagged |= {name for v in report.violations_of(Rule.TRAP_LOOP_CWE835)
                for name in v.states}
    if state not in flagged:
        raise MitigationError(f"{state} is not currently deadlocked or trapped")
    fixed = copy.deepcopy(ast)
    arm = fixed.arm_for(state)
    guard = exit_input if exit_input is not None else next(iter(fixed.data_inputs), None)
    if arm is None:
        arm = CaseArm(state, [])
        fixed.comb.arms.append(arm)
    if guard:
        hold = [s for s in arm.body if isinstance(s, Assign) and s.lhs == fixed.state_next]
        keep = [s for s in arm.body if not (isinstance(s, Assign) and s.lhs == fixed.state_next)]
        hold_target = hold[-1].rhs if hold else state
        arm.body = keep + [IfChain([
            Branch(guard, [Assign(fixed.state_next, exit_target)], (guard,)),
            Branch(None, [Assign(fixed.state_next, hold_target)]),
        ])]
    else:
        arm.body = [s for s in arm.body
                    if not (isinstance(s, Assign) and s.lhs == fixed.state_next)]
        arm.body.append(Assign(fixed.state_next, exit_target))
    return fixed


def uniquify_encodings(ast: FsmAst) -> FsmAst:
    """Reassign later-declared colliders to the lowest unused codes."""
    seen: set[str] = set()
    colliders: list[str] = []
    for p in ast.parameters:
        if p.bits in seen:
            colliders.append(p.name)
        else:
            seen.add(p.bits)
    if not colliders:
        raise MitigationError("no duplicate encodings to fix")
    width = ast.state_width
    free = [format(i, f"0{width}b") for i in range(2 ** width)
            if format(i, f"0{width}b") not in seen]
    if len(free) < len(colliders):
        raise MitigationError("not enough unused codes to uniquify")
    fixed = copy.deepcopy(ast)
    for name, code in zip(colliders, free):
        fixed.param(name).bits = code
    return fixed


# -- re-encoding search -------------------------------------------------------

def score_assignment(stg: Stg, mapping: dict[str, Encoding],
                     include_self_edges: bool = False) -> list[tuple[str, str]]:
    """Unprotected transitions whose assigned encodings sit at HD != 1."""
    bad = []
    for t in unprotected_transitions(stg):
        if t.is_self and not include_self_edges:
            continue
        if hamming_distance(mapping[t.source], mapping[t.target]) != 1:
            bad.append((t.source, t.target))
    return bad


def reencode_states(stg: Stg, protected: frozenset[str] | set[str] = frozenset(),
                    include_self_edges: bool = False) -> EncodingAssignment:
    """Exhaustive backtracking search for an injective assignment minimizing
    unprotected edges with HD != 1; ties break to the lexicographically
    smallest assignment over states in declaration order."""
    names = stg.state_names
    width = stg.width
    if len(names) > 2 ** width:
        raise MitigationError(
            f"{len(names)} states exceed the {2 ** width} codes of width {width}")
    protected_set = set(protected) | set(stg.protected_names)
    edges = [(t.source, t.target) for t in unprotected_transitions(stg)
             if (include_self_edges or t.source != t.target)
             if t.source not in protected_set and t.target not in protected_set]
    # Edges among the first k states, used to bound partial assignments.
    codes = list(range(2 ** width))
    best_count = len(edges) + 1
    best: Optional[list[int]] = None

    index = {n: i for i, n in enumerate(names)}
    edge_pairs = [(index[a], index[b]) for a, b in edges]

    def partial_cost(assign: list[int]) -> int:
        k = len(assign)
        cost = 0
        for a, b in edge_pairs:
            if a < k and b < k:
                if bin(assign[a] ^ assign[b]).count("1") != 1:
                    cost += 1
        return cost

    def search(assign: list[int], used: set[int]) -> None:
        nonlocal best_count, best
        cost = partial_cost(assign)
        if cost >= best_count:
            return
        if len(assign) == len(names):
            best_count = cost
            best = list(assign)
            return
        for code in codes:
            if code in used:
                continue
            assign.append(code)
            used.add(code)
            search(assign, used)
            used.discard(code)
            assign.pop()

    search([], set())
    assert best is not None
    mapping = {name: Encoding.from_int(code, width) for name, code in zip(names, best)}
    residual = tuple(score_assignment(stg, mapping, include_self_edges))
    return EncodingAssignment(mapping=mapping, residual_violations=residual)


def apply_encoding_assignment(ast: FsmAst, assignment: EncodingAssignment) -> FsmAst:
    fixed = copy.deepcopy(ast)
    for name, enc in assignment.mapping.items():
        fixed.param(name).bits = enc.bits
    return fixed


# -- the driver ---------------------------------------------------------------

def mitigate(src: SourceText, report: CheckReport,
             config: MitigationConfig = MitigationConfig(),
             rule_config: RuleConfig = RuleConfig()) -> MitigationOutcome:
    """Fix every fixable violation in the report, re-checking between fixes.

    Residual violations are reported, never dropped.  ``stg_preserved`` is
    computed against the original design, so encoding-only repairs (default
    arm plus re-encoding) keep it true.
    """
    result = parse_source(src)
    ast = result.expect_ast()
    protected = frozenset(report.protected) | ast.protected_annotations
    initial_rules = {v.rule for v in report.violations}
    current = ast
    rounds = 0

    for rounds in range(1, MAX_ROUNDS + 1):
        rep = run_checks_on_ast(current, protected, rule_config)
        rules = rep.violated_rules
        if not rules:
            break
        progressed = False

        if Rule.DUPLICATE_ENCODING in rules:
            current = uniquify_encodings(current)
            progressed = True
        elif Rule.UNREACHABLE_STATE in rules:
            # Removed as a group: mutually-referencing unreachable states
            # would otherwise leave dangling labels mid-sequence.
            current = remove_unreachable_state(
                current, [v.states[0] for v in rep.violations_of(Rule.UNREACHABLE_STATE)])
            progressed = True
        elif Rule.STATIC_DEADLOCK in rules or Rule.TRAP_LOOP_CWE835 in rules:
            stuck = rep.violations_of(Rule.STATIC_DEADLOCK) + rep.violations_of(Rule.TRAP_LOOP_CWE835)
            v = stuck[0]
            state = v.states[0]
            reset = current.seq.reset_target
            exit_target = reset if reset != state else next(
                n for n in current.param_names if n != state)
            current = remove_static_deadlock(current, state, exit_target,
                                             config.deadlock_exit_input)
            progressed = True
        elif Rule.MISSING_DEFAULT in rules:
            target = config.default_arm_target or current.seq.reset_target
            current = add_default_arm(current, target)
            progressed = True
        elif Rule.HD_NOT_ONE in rules:
            assignment = reencode_states(extract_stg(current, protected), protected,
                                         config.include_self_edges)
            current = apply_encoding_assignment(current, assignment)
            final = run_checks_on_ast(current, protected, rule_config)
            if Rule.HD_NOT_ONE in final.violated_rules:
                break  # residual encodings are genuinely unfixable at this width
            progressed = True
        if not progressed:
            break

    final_report = run_checks_on_ast(current, protected, rule_config)
    fixed = sorted(initial_rules - final_report.violated_rules, key=lambda r: r.value)
    residual = list(final_report.violations)
    stg_preserved = stg_isomorphic_modulo_encoding(
        extract_stg(ast, protected), extract_stg(current, protected))
    return MitigationOutcome(
        design=emit_verilog(current),
        fixed=fixed,
        residual=residual,
        stg_preserved=stg_preserved,
        rounds=rounds,
    )
