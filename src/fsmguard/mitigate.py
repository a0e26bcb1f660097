"""Deterministic removal of detected violations, verified against the rule
checker after every fix.

Fix order inside one round: duplicate encodings, unreachable states,
deadlocks and trap loops, default handling, and re-encoding last (the
encoding search depends on the final state set).  Rounds repeat to a
fixpoint, capped at five.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import compress
from typing import Iterable, Optional

from .ast_nodes import Assign, Branch, CaseArm, FsmAst, IfChain, Stmt
from .emitter import emit_verilog
from .rules import CheckReport, Rule, RuleConfig, RuleViolation, run_checks_on_ast
from .source import SourceText
from .stg import Stg, closure, stg_isomorphic_modulo_encoding

MAX_ROUNDS = 5
# State placements the re-encoding search may make before it settles for its
# best assignment so far (about 10 us each at width 4).  Random 10-state
# width-4 graphs of 10 to 40 edges need at most ~90 000.
SEARCH_NODE_BUDGET = 500_000


class MitigationError(ValueError):
    pass


@dataclass
class MitigationConfig:
    default_arm_target: Optional[str] = None     # None: reset state
    deadlock_exit_input: Optional[str] = None    # None: first data input


@dataclass(frozen=True)
class EncodingAssignment:
    """Injective state-to-encoding map plus the edges no assignment fixed."""

    mapping: dict[str, int]
    residual_violations: tuple[tuple[str, str], ...]
    optimal: bool  # False when the search stopped at SEARCH_NODE_BUDGET


@dataclass
class MitigationOutcome:
    design: SourceText
    fixed: list[Rule]
    residual: list[RuleViolation]
    stg_preserved: bool
    rounds: int = 0
    encoding_optimal: bool = True  # every re-encoding search that ran was exact

    def to_json(self) -> dict:
        return {
            "schema_version": 2,
            "design": self.design.content,
            "fixed": [r.value for r in self.fixed],
            "residual": [v.to_json() for v in self.residual],
            "stg_preserved": self.stg_preserved,
            "rounds": self.rounds,
            "encoding_optimal": self.encoding_optimal,
        }


# -- single-rule fixes --------------------------------------------------------

def add_default_arm(ast: FsmAst, target: str) -> FsmAst:
    """Append a default arm assigning next-state to target."""
    if ast.comb.default_arm is not None:
        raise MitigationError("default arm already present")
    if target not in ast.param_names:
        raise MitigationError(f"default target {target} is not a declared state")
    return replace(ast, comb=replace(ast.comb,
                                     default_arm=CaseArm(None, [Assign(ast.state_next, target)])))


def remove_unreachable_state(report: CheckReport, states: str | Iterable[str]) -> FsmAst:
    """Delete the parameters and case arms of unreachable, non-reset states
    from the design the report judged.

    Several states go in one step, so states that only reference each other
    never leave a dangling label behind.
    """
    states = {states} if isinstance(states, str) else set(states)
    stg = report.expect_stg()
    for name in sorted(states):
        if name == stg.reset_state:
            raise MitigationError("refusing to remove the reset state")
        if name in stg.reachable:
            raise MitigationError(f"{name} is reachable; not removing it")
    ast = report.ast
    return replace(ast, parameters=[p for p in ast.parameters if p.name not in states],
                   comb=replace(ast.comb, arms=[a for a in ast.comb.arms if a.label not in states]))


def remove_static_deadlock(report: CheckReport, state: str, exit_target: str,
                           exit_input: Optional[str] = None) -> FsmAst:
    """Give a state the report flags as deadlocked or trapped a way out of
    the design the report judged: guarded by an input when one exists,
    otherwise an unconditional exit."""
    ast = report.expect_ast()
    if exit_target == state:
        raise MitigationError("exit target must differ from the deadlocked state")
    if exit_target not in ast.param_names:
        raise MitigationError(f"exit target {exit_target} is not a declared state")
    stuck = report.violations_of(Rule.STATIC_DEADLOCK) + report.violations_of(Rule.TRAP_LOOP_CWE835)
    if not any(state in v.states for v in stuck):
        raise MitigationError(f"{state} is not currently deadlocked or trapped")
    arm = ast.arm_for(state) or CaseArm(state, [])
    guard = exit_input if exit_input is not None else next(iter(ast.data_inputs), None)
    nxt = ast.state_next
    hold = [s for s in arm.body if isinstance(s, Assign) and s.lhs == nxt]
    keep = [s for s in arm.body if not (isinstance(s, Assign) and s.lhs == nxt)]
    if guard:
        exit_stmt: Stmt = IfChain([
            Branch(guard, [Assign(nxt, exit_target)]),
            Branch(None, [Assign(nxt, hold[-1].rhs if hold else state)]),
        ])
    else:
        exit_stmt = Assign(nxt, exit_target)
    return ast.with_arm(replace(arm, body=keep + [exit_stmt]))


def uniquify_encodings(ast: FsmAst) -> FsmAst:
    """Reassign later-declared colliders to the lowest unused codes."""
    first = {p.code: p.name for p in reversed(ast.parameters)}
    colliders = [p.name for p in ast.parameters if first[p.code] != p.name]
    if not colliders:
        raise MitigationError("no duplicate encodings to fix")
    free = ast.lowest_unused_encodings(len(colliders))
    if len(free) < len(colliders):
        raise MitigationError("not enough unused codes to uniquify")
    return ast.with_encodings(dict(zip(colliders, free)))


# -- re-encoding search -------------------------------------------------------

def score_assignment(stg: Stg, mapping: dict[str, int],
                     include_self_edges: bool = False) -> list[tuple[str, str]]:
    """Unprotected transitions whose assigned encodings sit at HD != 1."""
    return [(t.source, t.target) for _, _, t in stg.scored_edges(include_self_edges)
            if (mapping[t.source] ^ mapping[t.target]).bit_count() != 1]


def reencode_states(stg: Stg, protected: frozenset[str] | set[str] = frozenset(),
                    include_self_edges: bool = False) -> EncodingAssignment:
    """Exact branch-and-bound search for an injective assignment minimizing
    unprotected edges with HD != 1; ties break to the lexicographically
    smallest assignment over states in declaration order.  ``protected``
    names states to treat as protected besides the STG's own.  After
    ``SEARCH_NODE_BUDGET`` placements it returns the best assignment found so
    far with ``optimal=False``."""
    names = stg.state_names
    width = stg.width
    size = 2 ** width
    if len(names) > size:
        raise MitigationError(
            f"{len(names)} states exceed the {size} codes of width {width}")
    mask = list(stg.protected_mask)
    for name in protected:
        if name not in stg.index:
            raise MitigationError(f"protected state {name} is not declared")
        mask[stg.index[name]] = True
    # The search and the residual score the same edges.
    edges = [(a, b) for a, b, _ in stg.scored_edges(include_self_edges)
             if not (mask[a] or mask[b])]
    n = len(names)
    # later[j]: {k: multiplicity} of edges between j and a later-declared k.
    # Self edges (HD 0) violate under every assignment, so they are a
    # constant and drop out of the search.
    later: list[dict[int, int]] = [{} for _ in names]
    for a, b in edges:
        a, b = sorted((a, b))
        if a != b:
            later[a][b] = later[a].get(b, 0) + 1
    # viol(c)[d] is 1 unless codes c and d sit at HD 1.  Rows are built for
    # placed codes only: a full 2^w x 2^w table would dwarf a small search.
    @cache
    def viol(c: int) -> list[int]:
        return [0 if (x := c ^ d) and not x & (x - 1) else 1 for d in range(size)]

    # rows[u][c]: cost of placing state u at code c against the placed states;
    # rows[k] is the incremental cost when state k is placed next.
    rows = [[0] * size for _ in names]
    free = [1] * size
    codes = [0] * n
    best: Optional[list[int]] = None
    best_cost = sum(sum(d.values()) for d in later) + 1
    nodes = 0
    exhausted = False

    # Symmetry breaking.  Cost is invariant under XOR translation and bit
    # permutation.  Translating by the first code gives an optimum starting
    # at 0, so the lexicographically smallest optimum starts at 0.  A bit
    # permutation that fixes every placed code keeps an optimum optimal and
    # its prefix intact, so the smallest optimum places each next state at
    # the smallest code of its orbit: within each cell of bit positions that
    # no placed code tells apart, its set bits are the cell's lowest.  (The
    # second state thus gets some 2^k-1.)  ``cells`` holds those cells as
    # bit masks; one-bit cells are dropped, as they restrict nothing.
    def search(k: int, cost: int, cells: list[int]) -> None:
        nonlocal best, best_cost, nodes, exhausted
        if k == n:
            best, best_cost = codes[:], cost  # only a strict improvement gets here
            return
        for c in range(1 if k == 0 else size):
            here = cost + rows[k][c]
            if not free[c] or here >= best_cost or not all(
                    not (rest := m & ~c) or c & m < rest & -rest for m in cells):
                continue
            if best is not None and nodes >= SEARCH_NODE_BUDGET:
                exhausted = True
                return
            nodes += 1
            codes[k] = c
            free[c] = 0
            saved = [(u, rows[u]) for u in later[k]]
            for u, m in later[k].items():
                rows[u] = [r + m * v for r, v in zip(rows[u], viol(c))]
            # Admissible look-ahead: each unplaced state pays at least its
            # cheapest cost against the placed states over the free codes.
            bound = sum(min(compress(rows[u], free)) for u in range(k + 1, n))
            if here + bound < best_cost:
                search(k + 1, here, [part for m in cells for part in (m & c, m & ~c)
                                     if part & (part - 1)])
            for u, row in saved:
                rows[u] = row
            free[c] = 1
            if exhausted:
                return

    search(0, 0, [size - 1])
    assert best is not None
    residual = tuple((names[a], names[b]) for a, b in edges
                     if (best[a] ^ best[b]).bit_count() != 1)
    return EncodingAssignment(mapping=dict(zip(names, best)), residual_violations=residual,
                              optimal=not exhausted)


def apply_encoding_assignment(ast: FsmAst, assignment: EncodingAssignment) -> FsmAst:
    return ast.with_encodings(assignment.mapping)


# -- the driver ---------------------------------------------------------------

def _removable_unreachable(report: CheckReport) -> list[str]:
    """The flagged unreachable states that can go.  A protected state stays,
    and so does every state it leads to by any edge, or its arm would name a
    deleted label; their findings remain in the residual."""
    stg = report.stg
    flagged = [stg.index[v.states[0]] for v in report.violations_of(Rule.UNREACHABLE_STATE)]
    stay = closure(stg.all_succ, [i for i in flagged if stg.protected_mask[i]])
    return [stg.states[i].name for i in flagged if not stay[i]]


def mitigate(src: SourceText, report: CheckReport,
             config: MitigationConfig = MitigationConfig(),
             rule_config: RuleConfig = RuleConfig()) -> MitigationOutcome:
    """Fix every fixable violation in the report, re-checking between fixes.

    The report is ``run_all_checks`` of src: its AST is the design repaired,
    and it is the first round's check when it was made under rule_config.
    Residual violations are reported, never dropped.  ``stg_preserved`` is
    computed against the original design, so encoding-only repairs (default
    arm plus re-encoding) keep it true.  The design carries the report as
    ``derived_from``.
    """
    if report.source != src:
        raise MitigationError(f"the report was not built from {src.origin}")
    original_stg = report.expect_stg()
    current = report.ast
    protected = frozenset(report.protected)
    initial_rules = {v.rule for v in report.violations}
    rounds = 0
    encoding_optimal = True
    # The report of `current`; None once a fix changes it.
    rep: Optional[CheckReport] = (report if report.config == rule_config
                                  else run_checks_on_ast(current, protected, rule_config))

    for rounds in range(1, MAX_ROUNDS + 1):
        if rep is None:
            rep = run_checks_on_ast(current, protected, rule_config)
        rules = rep.violated_rules
        if not rules:
            break

        if Rule.DUPLICATE_ENCODING in rules:
            current = uniquify_encodings(current)
        elif unreachable := _removable_unreachable(rep):
            # Removed as a group: mutually-referencing unreachable states
            # would otherwise leave dangling labels mid-sequence.
            current = remove_unreachable_state(rep, unreachable)
        elif Rule.STATIC_DEADLOCK in rules or Rule.TRAP_LOOP_CWE835 in rules:
            stuck = rep.violations_of(Rule.STATIC_DEADLOCK) + rep.violations_of(Rule.TRAP_LOOP_CWE835)
            v = stuck[0]
            state = v.states[0]
            reset = current.seq.reset_target
            exit_target = reset if reset != state else next(
                n for n in current.param_names if n != state)
            current = remove_static_deadlock(rep, state, exit_target,
                                             config.deadlock_exit_input)
        elif Rule.MISSING_DEFAULT in rules:
            target = config.default_arm_target or current.seq.reset_target
            current = add_default_arm(current, target)
        elif Rule.HD_NOT_ONE in rules:
            assignment = reencode_states(rep.stg)
            encoding_optimal = encoding_optimal and assignment.optimal
            current = apply_encoding_assignment(current, assignment)
            rep = run_checks_on_ast(current, protected, rule_config)
            if Rule.HD_NOT_ONE in rep.violated_rules:
                break  # residual encodings are genuinely unfixable at this width
            continue
        else:
            break
        rep = None

    final_report = rep if rep is not None else run_checks_on_ast(current, protected, rule_config)
    fixed = sorted(initial_rules - final_report.violated_rules, key=lambda r: r.value)
    residual = list(final_report.violations)
    stg_preserved = stg_isomorphic_modulo_encoding(original_stg, final_report.stg)
    return MitigationOutcome(
        design=replace(emit_verilog(current), derived_from=report),
        fixed=fixed,
        residual=residual,
        stg_preserved=stg_preserved,
        rounds=rounds,
        encoding_optimal=encoding_optimal,
    )
