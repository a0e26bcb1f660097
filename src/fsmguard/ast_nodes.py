"""AST for one parsed FSM module.

Equality between nodes is structural: spans and other layout trivia do not
participate, so a parse -> emit -> parse round trip compares equal.

No node is mutated once the parser has built it.  An edit returns a new tree
that rebuilds the nodes on the path it changes and shares all the others; a
rename (``FsmAst.renamed``) rebuilds every node that holds a name.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Mapping, Optional, Union

from .source import Span
from .tokens import rename_identifiers

_NOSPAN = Span(1, 1)
UNUSED_LISTED = 256   # unused codes a finding or plan note lists; past it, a count too


@dataclass(slots=True)
class Port:
    name: str
    direction: str                      # input / output / inout
    kind: str = "wire"                  # wire / reg
    width: int = 1
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True)
class ParamDecl:
    """One state parameter with its sized binary encoding."""

    name: str
    width: int
    code: int                           # the encoding's value; 0 <= code < 2 ** width
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True)
class Assign:
    lhs: str
    rhs: str                            # normalized expression text
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True)
class Branch:
    guard: Optional[str]                # None for a bare else branch
    body: list["Stmt"]
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True)
class IfChain:
    branches: list[Branch]
    span: Span = field(default=_NOSPAN, compare=False)

    @property
    def has_else(self) -> bool:
        return bool(self.branches) and self.branches[-1].guard is None


Stmt = Union[Assign, IfChain]


@dataclass(slots=True)
class CaseArm:
    label: Optional[str]                # None for the default arm
    body: list[Stmt]
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True)
class SeqBlock:
    """The single sequential always block: clocked state register update."""

    clock: str
    reset: str
    reset_async: bool
    reset_cond: str                     # normalized condition text
    reset_target: str                   # declared state parameter
    span: Span = field(default=_NOSPAN, compare=False)


@dataclass(slots=True)
class CombBlock:
    """The single combinational always block holding the case statement."""

    sens_star: bool
    sens_list: tuple[str, ...]
    leading: list[Assign]               # defaults assigned before the case
    subject: str                        # case subject (current-state register)
    arms: list[CaseArm]
    default_arm: Optional[CaseArm]
    span: Span = field(default=_NOSPAN, compare=False)

    def leading_target_for(self, lhs: str) -> Optional[str]:
        for a in self.leading:
            if a.lhs == lhs:
                return a.rhs
        return None


@dataclass(slots=True)
class FsmAst:
    module_name: str
    ports: list[Port]
    parameters: list[ParamDecl]
    state_cur: str
    state_next: str
    state_width: int
    seq: SeqBlock
    comb: CombBlock
    protected_annotations: frozenset[str] = frozenset()
    # Layout trivia carried for the linter, never compared.
    stray_semis: tuple[Span, ...] = field(default=(), compare=False)
    localparam_spans: tuple[Span, ...] = field(default=(), compare=False)
    comments: tuple[str, ...] = field(default=(), compare=False)
    span: Span = field(default=_NOSPAN, compare=False)

    # -- convenience ----------------------------------------------------
    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def param(self, name: str) -> ParamDecl:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def names(self) -> set[str]:
        """The declared identifiers: module, ports, state registers, states."""
        return ({self.module_name, self.state_cur, self.state_next}
                | {p.name for p in self.ports} | set(self.param_names))

    @property
    def encodings(self) -> dict[str, int]:
        return {p.name: p.code for p in self.parameters}

    @property
    def data_inputs(self) -> list[str]:
        """Input ports other than the clock and reset, in port order."""
        skip = {self.seq.clock, self.seq.reset}
        return [p.name for p in self.ports if p.direction == "input" and p.name not in skip]

    def arm_for(self, label: str) -> Optional[CaseArm]:
        for arm in self.comb.arms:
            if arm.label == label:
                return arm
        return None

    def with_arm(self, arm: CaseArm) -> FsmAst:
        """A copy with arm in place of the arm of its label, or appended."""
        arms = [arm if a.label == arm.label else a for a in self.comb.arms]
        if self.arm_for(arm.label) is None:
            arms.append(arm)
        return replace(self, comb=replace(self.comb, arms=arms))

    def with_encodings(self, codes: dict[str, int]) -> FsmAst:
        """A copy whose parameters named in codes carry the given codes."""
        return replace(self, parameters=[replace(p, code=codes[p.name]) if p.name in codes else p
                                         for p in self.parameters])

    def renamed(self, rename: Mapping[str, str]) -> FsmAst:
        """A copy with every name it holds, declared or read, mapped through
        rename; names rename lacks stay."""
        def name(n):    # an arm label may be None
            return rename.get(n, n)

        def expr(text: str) -> str:
            return rename_identifiers(text, rename)

        def stmts(body: list[Stmt]) -> list[Stmt]:
            return [Assign(name(s.lhs), expr(s.rhs), s.span) if isinstance(s, Assign)
                    else IfChain(list(map(branch, s.branches)), s.span) for s in body]

        def branch(br: Branch) -> Branch:
            return Branch(None if br.guard is None else expr(br.guard), stmts(br.body), br.span)

        def arm(a: CaseArm) -> CaseArm:
            return CaseArm(name(a.label), stmts(a.body), a.span)

        seq, comb = self.seq, self.comb
        return replace(
            self,
            module_name=name(self.module_name),
            ports=[replace(p, name=name(p.name)) for p in self.ports],
            parameters=[replace(p, name=name(p.name)) for p in self.parameters],
            state_cur=name(self.state_cur),
            state_next=name(self.state_next),
            seq=replace(seq, clock=name(seq.clock), reset=name(seq.reset),
                        reset_cond=expr(seq.reset_cond),
                        reset_target=name(seq.reset_target)),
            comb=replace(comb, sens_list=tuple(map(name, comb.sens_list)),
                         leading=stmts(comb.leading), subject=name(comb.subject),
                         arms=list(map(arm, comb.arms)),
                         default_arm=comb.default_arm and arm(comb.default_arm)),
            protected_annotations=frozenset(map(name, self.protected_annotations)),
        )

    def unused_encodings(self) -> tuple[list[str], int]:
        """The lowest UNUSED_LISTED unused codes as bit strings, and how many are unused."""
        listed = [f"{c:0{self.state_width}b}" for c in self.lowest_unused_encodings(UNUSED_LISTED)]
        return listed, (1 << self.state_width) - len({p.code for p in self.parameters})

    def lowest_unused_encodings(self, count: int) -> list[int]:
        """The count lowest codes no state uses, or all of them if fewer; the
        scan stops there, so a wide register costs count + #states codes."""
        used = {p.code for p in self.parameters}
        return list(islice((c for c in range(1 << self.state_width) if c not in used), count))

    def interface_key(self) -> tuple:
        """Everything an edit must leave untouched: name, ports, clock/reset."""
        return (
            self.module_name,
            tuple((p.name, p.direction, p.kind, p.width) for p in self.ports),
            self.seq.clock,
            self.seq.reset,
        )
