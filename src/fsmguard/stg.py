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
    states: tuple[State, ...]
    transitions: tuple[Transition, ...]
    reset_state: str
    width: int
    default_arm_target: Optional[str] = None

    def __post_init__(self) -> None:
        # The index is not a field, so ==, hash and repr ignore it.  The first
        # declaration of a name wins; adjacency skips constant-false guards.
        by_name = {s.name: s for s in reversed(self.states)}
        if self.reset_state not in by_name:
            raise StgError(f"reset state {self.reset_state} is not declared")
        for s in self.states:
            if not 0 <= s.code < 1 << self.width:
                raise StgError(f"state {s.name} code does not fit the STG width")
        out: dict[str, list[Transition]] = {}
        into: dict[str, list[Transition]] = {}
        for t in self.transitions:
            if t.source not in by_name or t.target not in by_name:
                raise StgError(f"transition {t.source}->{t.target} references unknown state")
            if not t.guard.is_constant_false:
                out.setdefault(t.source, []).append(t)
                into.setdefault(t.target, []).append(t)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", into)

    def state(self, name: str) -> State:
        return self._by_name[name]

    @property
    def state_names(self) -> list[str]:
        return [s.name for s in self.states]

    @property
    def protected_names(self) -> frozenset[str]:
        return frozenset(s.name for s in self.states if s.protected)

    def code_of(self, name: str) -> int:
        """The state's encoding as an integer; bit 0 of the encoding is its
        most significant bit."""
        return self._by_name[name].code

    @cached_property
    def reachable(self) -> frozenset[str]:
        """reachable_states of this graph, computed on first use."""
        return reachable_states(self)

    def out_edges(self, name: str) -> list[Transition]:
        return list(self._out.get(name, ()))

    def in_edges(self, name: str) -> list[Transition]:
        return list(self._in.get(name, ()))


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

def reachable_states(stg: Stg) -> frozenset[str]:
    """Fixed point of may-traversal from reset; constant-false guards are
    never traversable."""
    seen = {stg.reset_state}
    frontier = [stg.reset_state]
    while frontier:
        for t in stg._out.get(frontier.pop(), ()):
            if t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return frozenset(seen)


def unprotected_transitions(stg: Stg) -> list[Transition]:
    """Transitions whose endpoints are both unprotected, in source order.

    Self edges stay in the list; rule checks decide separately whether to
    score them.
    """
    protected = stg.protected_names
    return [t for t in stg.transitions
            if t.source not in protected and t.target not in protected]


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
