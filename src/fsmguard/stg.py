"""State-transition graph extraction and the graph primitives every
security rule shares.

No ``Guard``, ``State`` or ``Transition`` is mutated once extraction has
built it.  The edges that share a guard text share its ``Guard``, and the
edges of one arm share its ``Span``; a change builds a new value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from itertools import compress
from typing import Callable, Iterable, Optional

from .ast_nodes import Assign, CaseArm, FsmAst, IfChain, Stmt
from .source import Span

_NOSPAN = Span(1, 1)

_CONST_FALSE = {"0", "1'b0"}


class StgError(ValueError):
    pass


class GuardKind(Enum):
    EXPR = "expr"       # opaque condition text
    ALWAYS = "always"   # unconditional transition
    HOLD = "hold"       # implicit hold (arm did not fully assign next-state)


@dataclass(slots=True, unsafe_hash=True)
class Guard:
    kind: GuardKind
    text: str = ""

    @property
    def is_constant_false(self) -> bool:
        return self.kind is GuardKind.EXPR and self.text.strip() in _CONST_FALSE

    def display(self) -> str:
        if self.kind is GuardKind.ALWAYS:
            return "1"
        if self.kind is GuardKind.HOLD:
            return "hold"
        return self.text

    @classmethod
    def always(cls) -> "Guard":
        return cls(GuardKind.ALWAYS)

    @classmethod
    def hold(cls, text: str = "") -> "Guard":
        return cls(GuardKind.HOLD, text)

    @classmethod
    def expr(cls, text: str) -> "Guard":
        return cls(GuardKind.EXPR, text)


@dataclass(slots=True, unsafe_hash=True)
class State:
    name: str
    code: int
    protected: bool = False
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Transition:
    source: str
    target: str
    guard: Guard
    span: Span = field(default=_NOSPAN, compare=False)

    @property
    def is_self(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class Stg:
    """The graph, indexed once by ``__post_init__``; the graph rules, the
    re-encoder and the mitigator read the index rather than walk names.

    States are numbered in declaration order.  The index is not a field, so
    ==, hash and repr ignore it:

    - ``index``: state name to number;
    - ``codes``, ``protected_mask``: each state's code and protected flag;
    - ``succ``, ``pred``: successor and predecessor numbers over the
      traversable edges (a constant-false guard never fires);
    - ``all_succ``: successor numbers over every edge;
    - ``scored``: ``(source, target, transition)`` of every edge whose ends
      are both unprotected, in source order; a self edge has source ==
      target.
    """

    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    reset_state: str
    width: int
    default_arm_target: Optional[str] = None

    def __post_init__(self) -> None:
        index = {s.name: i for i, s in enumerate(self.states)}
        if len(index) < len(self.states):
            twice = next(s.name for i, s in enumerate(self.states) if index[s.name] != i)
            raise StgError(f"state {twice} is declared twice")
        if self.reset_state not in index:
            raise StgError(f"reset state {self.reset_state} is not declared")
        for s in self.states:
            if not 0 <= s.code < 1 << self.width:
                raise StgError(f"state {s.name} code does not fit the STG width")
        mask = [s.protected for s in self.states]
        succ: list[list[int]] = [[] for _ in mask]
        pred: list[list[int]] = [[] for _ in mask]
        all_succ: list[list[int]] = [[] for _ in mask]
        scored: list[tuple[int, int, Transition]] = []
        for t in self.transitions:
            a = index.get(t.source)
            b = index.get(t.target)
            if a is None or b is None:
                raise StgError(f"transition {t.source}->{t.target} references unknown state")
            all_succ[a].append(b)
            if not t.guard.is_constant_false:
                succ[a].append(b)
                pred[b].append(a)
            if not (mask[a] or mask[b]):
                scored.append((a, b, t))
        for name, value in (("index", index), ("codes", [s.code for s in self.states]),
                            ("protected_mask", mask), ("succ", succ), ("pred", pred),
                            ("all_succ", all_succ), ("scored", scored)):
            object.__setattr__(self, name, value)

    @property
    def state_names(self) -> list[str]:
        return [s.name for s in self.states]

    @property
    def protected_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.states if s.protected)

    def code_of(self, name: str) -> int:
        """The state's encoding as an integer; bit 0 of the encoding is its
        most significant bit."""
        return self.codes[self.index[name]]

    @cached_property
    def reachable(self) -> frozenset[str]:
        """reachable_states of this graph, computed on first use."""
        return reachable_states(self)

    def scored_edges(self, include_self: bool = False) -> list[tuple[int, int, Transition]]:
        """The edges HD, FIF and the re-encoder score: ``scored``, less its
        self edges unless include_self."""
        return list(self.scored) if include_self else [e for e in self.scored if e[0] != e[1]]


# -- extraction -----------------------------------------------------------

def _negate(guards: list[str]) -> str:
    return " && ".join(f"!({g})" for g in guards)


def _eval_block(stmts: list[Stmt], next_reg: str):
    """Walk one statement list.

    Returns (guarded, base, covered) where guarded is a list of
    (guard_texts, target) for conditional next-state outcomes, base is
    the unconditional target in effect after the block (None if none), and
    covered says whether every path through the block assigns next-state.
    """
    guarded: list[tuple[list[str], str]] = []
    base: Optional[str] = None
    covered = False
    for stmt in stmts:
        if isinstance(stmt, Assign):
            if stmt.lhs != next_reg:
                continue
            base = stmt.rhs
            covered = True
            guarded = []  # a later unconditional assignment wins on every path
        else:
            chain_guards: list[str] = []
            chain_edges: list[tuple[list[str], str]] = []
            all_branches_cover = True
            assigns_next = False
            for br in stmt.branches:
                sub_guarded, sub_base, sub_cov = _eval_block(br.body, next_reg)
                if br.guard is not None:
                    this_guard = [br.guard]
                    chain_guards.append(br.guard)
                else:
                    neg = _negate(chain_guards)
                    this_guard = [neg] if neg else []
                for sub_texts, target in sub_guarded:
                    chain_edges.append((this_guard + sub_texts, target))
                    assigns_next = True
                if sub_base is not None:
                    chain_edges.append((list(this_guard), sub_base))
                    assigns_next = True
                if not sub_cov:
                    all_branches_cover = False
            if assigns_next:
                guarded.extend(chain_edges)
                if stmt.has_else and all_branches_cover:
                    covered = True
                    base = None  # every path reassigned inside the chain
    return guarded, base, covered


def _chain_guard_texts(stmts: list[Stmt]) -> list[str]:
    texts: list[str] = []
    for stmt in stmts:
        if isinstance(stmt, IfChain):
            texts.extend(br.guard for br in stmt.branches if br.guard is not None)
    return texts


def _guard(text: str, hold: bool) -> Guard:
    if hold:
        return Guard.hold(text)
    return Guard.expr(text) if text else Guard.always()


def _arm_transitions(arm_label: str, arm: CaseArm, ast: FsmAst,
                     leading_target: Optional[str],
                     guard: Callable[[str, bool], Guard]) -> list[Transition]:
    guarded, base, covered = _eval_block(arm.body, ast.state_next)
    edges = [Transition(arm_label, target, guard(" && ".join(texts), False), arm.span)
             for texts, target in guarded]
    fall_text = _negate(_chain_guard_texts(arm.body))
    if covered and base is not None:
        edges.append(Transition(arm_label, base, guard(fall_text, False), arm.span))
    elif not covered:
        if leading_target is not None:
            edges.append(Transition(arm_label, leading_target, guard(fall_text, False), arm.span))
        else:
            edges.append(Transition(arm_label, arm_label, guard(fall_text, True), arm.span))
    return edges


def extract_stg(ast: FsmAst, protected: Iterable[str] = ()) -> Stg:
    """Build the STG: one transition per reachable assignment path per arm.

    Arms that never fully assign next-state fall back to the comb block's
    leading default when one exists, otherwise they hold (self edge).
    Declared states without an arm take the default arm's target, then the
    leading default, then hold.
    """
    protected_set = set(protected) | set(ast.protected_annotations)
    declared = set(ast.param_names)
    for name in protected_set:
        if name not in declared:
            raise StgError(f"protected state {name} is not declared")

    states = tuple(
        State(p.name, p.code, p.name in protected_set, p.span)
        for p in ast.parameters
    )
    leading_target = ast.comb.leading_target_for(ast.state_next)
    default_target: Optional[str] = None
    if ast.comb.default_arm is not None:
        _, dbase, dcov = _eval_block(ast.comb.default_arm.body, ast.state_next)
        default_target = dbase if dbase is not None else leading_target

    # one Guard per (text, hold) in this extraction: Guards are never mutated, so
    # the edges that share a guard text share its Guard
    guard = cache(_guard)
    transitions: list[Transition] = []
    arm_labels = set()
    for arm in ast.comb.arms:
        assert arm.label is not None
        arm_labels.add(arm.label)
        transitions.extend(_arm_transitions(arm.label, arm, ast, leading_target, guard))
    for p in ast.parameters:
        if p.name in arm_labels:
            continue
        target = default_target if default_target is not None else leading_target
        if target is not None:
            transitions.append(Transition(p.name, target, guard("", False), p.span))
        else:
            transitions.append(Transition(p.name, p.name, guard("", True), p.span))

    return Stg(
        states=states,
        transitions=tuple(transitions),
        reset_state=ast.seq.reset_target,
        width=ast.state_width,
        default_arm_target=default_target,
    )


# -- graph queries ---------------------------------------------------------

def closure(succ: list[list[int]], starts: Iterable[int]) -> list[bool]:
    """Which states a walk along succ reaches from starts, as a mask."""
    seen = [False] * len(succ)
    frontier = list(starts)
    for i in frontier:
        seen[i] = True
    while frontier:
        for j in succ[frontier.pop()]:
            if not seen[j]:
                seen[j] = True
                frontier.append(j)
    return seen


def reachable_states(stg: Stg) -> frozenset[str]:
    """Fixed point of may-traversal from reset; constant-false guards are
    never traversable."""
    return frozenset(compress(stg.state_names, closure(stg.succ, [stg.index[stg.reset_state]])))


def unprotected_transitions(stg: Stg) -> list[Transition]:
    """Transitions whose endpoints are both unprotected, in source order.

    Self edges stay in the list; rule checks decide separately whether to
    score them.
    """
    return [t for _, _, t in stg.scored]


def stg_isomorphic_modulo_encoding(a: Stg, b: Stg) -> bool:
    """True iff the name-preserving mapping carries states and guarded edges
    of one graph onto the other, ignoring encodings and the default arm."""
    if set(a.state_names) != set(b.state_names):
        return False
    if a.reset_state != b.reset_state:
        return False

    def edge_key(t: Transition) -> tuple:
        return (t.source, t.target, t.guard.kind.value, t.guard.text)

    return sorted(map(edge_key, a.transitions)) == sorted(map(edge_key, b.transitions))


def dump_stg(stg: Stg) -> str:
    """Plain-text edge list for debugging; stable source order."""
    lines = [f"{t.source} -> {t.target} [{t.guard.display()}]" for t in stg.transitions]
    return "\n".join(lines) + "\n"
