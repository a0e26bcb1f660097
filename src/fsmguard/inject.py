"""Deterministic, seeded application of the five vulnerability classes.

One engine serves every gated class: a per-class generator enumerates
candidate edits, the engine keeps only those whose result the rule checker
flags for the intended class and nothing new (on a clean base: exactly the
intended class, so corpus labels are trustworthy by construction), then
draws uniformly with the caller's seed.  The gated set is computed once
per (emitted base, class, protected) and memoized; each call runs only the
seeded draw, and applies and emits only the edit drawn.  The sequential
block is never touched and the module interface is preserved.
"""
from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, Optional

from .ast_nodes import Assign, Branch, CaseArm, FsmAst, IfChain, ParamDecl
from .emitter import emit_verilog, emit_with_markers
from .rules import CheckReport, Rule, RuleConfig, run_checks_on_ast
from .source import SourceText, Span
from .stg import StgError


class VulnClass(Enum):
    CWE835_TRAP = "CWE835_TRAP"
    MISSING_DEFAULT = "MISSING_DEFAULT"
    DUPLICATE_ENCODING = "DUPLICATE_ENCODING"
    UNREACHABLE_STATE = "UNREACHABLE_STATE"
    STATIC_DEADLOCK = "STATIC_DEADLOCK"


RULE_FOR_CLASS = {
    VulnClass.CWE835_TRAP: Rule.TRAP_LOOP_CWE835,
    VulnClass.MISSING_DEFAULT: Rule.MISSING_DEFAULT,
    VulnClass.DUPLICATE_ENCODING: Rule.DUPLICATE_ENCODING,
    VulnClass.UNREACHABLE_STATE: Rule.UNREACHABLE_STATE,
    VulnClass.STATIC_DEADLOCK: Rule.STATIC_DEADLOCK,
}


class InjectError(ValueError):
    pass


@dataclass(frozen=True)
class InjectionPlan:
    """Ground-truth record of one seeded transformation."""

    vuln: VulnClass
    seed: int
    target_state: Optional[str]
    added_states: tuple[str, ...]
    modified_spans: tuple[Span, ...]
    notes: str = ""
    # The injected design as emitted for the spans; in memory only.
    text: Optional[SourceText] = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "vuln": self.vuln.value,
            "seed": self.seed,
            "target_state": self.target_state,
            "added_states": list(self.added_states),
            "modified_spans": [s.to_json() for s in self.modified_spans],
            "notes": self.notes,
        }


# -- shared helpers ----------------------------------------------------------

def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    k = 1
    while name in taken:
        name = f"{base}_{k}"
        k += 1
    return name


def _lowest_unused_encodings(ast: FsmAst, count: int) -> list[int]:
    unused = ast.lowest_unused_encodings(count)
    if len(unused) < count:
        raise InjectError(
            f"need {count} unused encoding(s), only {len(unused)} available")
    return unused


@dataclass(frozen=True)
class _EdgeRef:
    """Addressable next-state outcome inside one case arm."""

    arm_label: str
    kind: str            # "branch" | "base" | "fallthrough"
    chain_index: int = -1
    branch_index: int = -1


def _branch_assigns_next(branch: Branch, next_reg: str) -> bool:
    return any(isinstance(s, Assign) and s.lhs == next_reg for s in branch.body)


def _enumerate_refs(ast: FsmAst, arm: CaseArm) -> list[_EdgeRef]:
    label = arm.label
    assert label is not None
    refs: list[_EdgeRef] = []
    has_uncond = any(isinstance(s, Assign) and s.lhs == ast.state_next for s in arm.body)
    covered_by_chain = False
    for ci, chain in enumerate(arm.body):
        if not isinstance(chain, IfChain):
            continue
        branch_cover = all(_branch_assigns_next(br, ast.state_next) for br in chain.branches)
        if chain.has_else and branch_cover:
            covered_by_chain = True
        for bi, br in enumerate(chain.branches):
            if _branch_assigns_next(br, ast.state_next):
                refs.append(_EdgeRef(label, "branch", ci, bi))
    if has_uncond:
        refs.append(_EdgeRef(label, "base"))
    elif not covered_by_chain:
        refs.append(_EdgeRef(label, "fallthrough"))
    return refs


def _put(items: list, index: int, item) -> list:
    """A copy of items with item at index."""
    return items[:index] + [item] + items[index + 1:]


def _apply_redirect(ast: FsmAst, ref: _EdgeRef, new_target: str) -> FsmAst:
    """Rewrite one next-state outcome of an arm to new_target."""
    arm = ast.arm_for(ref.arm_label)
    assert arm is not None
    next_reg = ast.state_next
    if ref.kind == "branch":
        chain = arm.body[ref.chain_index]
        branch = chain.branches[ref.branch_index]
        last = max(i for i, s in enumerate(branch.body)
                   if isinstance(s, Assign) and s.lhs == next_reg)
        branch = replace(branch, body=_put(branch.body, last,
                                           replace(branch.body[last], rhs=new_target)))
        chain = replace(chain, branches=_put(chain.branches, ref.branch_index, branch))
        body = _put(arm.body, ref.chain_index, chain)
    else:
        # The base and fallthrough paths: drop any unconditional assignment,
        # then route the path through an else branch of the last assigning
        # chain, or through a plain assignment when no chain assigns.
        body = [s for s in arm.body if not (isinstance(s, Assign) and s.lhs == next_reg)]
        assigning = [i for i, s in enumerate(body) if isinstance(s, IfChain)
                     and any(_branch_assigns_next(br, next_reg) for br in s.branches)]
        retarget = Assign(next_reg, new_target)
        if not assigning:
            body.append(retarget)
        else:
            chain = body[assigning[-1]]
            if chain.has_else:
                raise InjectError(f"the {ref.kind} path is unreachable under a full if/else")
            body = _put(body, assigning[-1],
                        replace(chain, branches=chain.branches + [Branch(None, [retarget])]))
    return ast.with_arm(replace(arm, body=body))


_GATE_CONFIG = RuleConfig()


def _flags_exactly(ast: FsmAst, protected: frozenset[str], rule: Rule,
                   states: frozenset[str], pre_existing: frozenset[Rule]) -> bool:
    """Gate: the intended rule fires on the given states, and nothing fires
    that the base design did not already trip (clean bases therefore flag
    exactly the intent)."""
    try:
        report = run_checks_on_ast(ast, protected, _GATE_CONFIG)
    except StgError:
        return False
    violated = report.violated_rules
    if rule not in violated or violated - pre_existing - {rule}:
        return False
    flagged = {s for v in report.violations_of(rule) for s in v.states}
    return states <= flagged


# -- the engine ---------------------------------------------------------------

@dataclass(frozen=True)
class _Edit:
    """One candidate injection: an AST edit plus its plan fields."""

    apply: Callable[[FsmAst], FsmAst]
    flagged: frozenset[str]      # states the intended finding must name
    target_state: str
    added_states: tuple[str, ...]
    markers: tuple[str, ...]     # emitter markers of the regions it changes
    notes: str
    arm: Optional[str] = None    # redirected arm: draw the arm first, then the edit


_GATED_MAX = 64
_GATED: dict[tuple, dict[Optional[str], list[_Edit]] | str] = {}
_GATED_LOCK = threading.Lock()


def _gate(vuln: VulnClass, ast: FsmAst,
          protected: frozenset[str]) -> dict[Optional[str], list[_Edit]] | str:
    """The class's edits whose result the gate passes, grouped by redirected
    arm in enumeration order, or the message of the refusal."""
    edits, exhausted = _EDITS[vuln]
    base = run_checks_on_ast(ast, protected, _GATE_CONFIG)
    base_rules = frozenset(base.violated_rules)
    kept: dict[Optional[str], list[_Edit]] = {}
    try:
        for edit in edits(base):
            try:
                trial = edit.apply(ast)
            except InjectError:
                continue
            if _flags_exactly(trial, protected, RULE_FOR_CLASS[vuln], edit.flagged, base_rules):
                kept.setdefault(edit.arm, []).append(edit)
    except InjectError as exc:
        return str(exc)
    return kept or exhausted


def _add_state(ast: FsmAst, name: str, code: int, body: list) -> FsmAst:
    grown = replace(ast, parameters=ast.parameters + [ParamDecl(name, ast.state_width, code)])
    return grown.with_arm(CaseArm(name, body))


# -- per-class edit generators ----------------------------------------------------

def _redirect_edits(base: CheckReport, added: tuple[str, ...],
                    codes: list[int], note: str) -> Iterator[_Edit]:
    """Add states that hand over to each other in a ring (one state: a
    self-loop), then redirect one outcome of a reachable, unprotected arm
    into the first of them."""
    ast = base.ast
    reach = base.stg.reachable
    markers = tuple(f"param:{n}" for n in added)
    for arm in ast.comb.arms:
        label = arm.label
        if label is None or label in base.protected or label not in reach:
            continue
        for ref in _enumerate_refs(ast, arm):
            def apply(trial: FsmAst, ref: _EdgeRef = ref) -> FsmAst:
                for name, code, exit_to in zip(added, codes, added[1:] + added[:1]):
                    trial = _add_state(trial, name, code, [Assign(trial.state_next, exit_to)])
                return _apply_redirect(trial, ref, added[0])
            yield _Edit(apply, frozenset(added), label, added,
                        markers + (f"arm:{label}",) + tuple(f"arm:{n}" for n in added),
                        f"redirected a {ref.kind} path of {label} into {note}", arm=label)


def _static_deadlock_edits(base: CheckReport) -> Iterator[_Edit]:
    if Rule.STATIC_DEADLOCK in base.violated_rules:
        raise InjectError("design already contains a static deadlock")
    codes = _lowest_unused_encodings(base.ast, 1)
    name = _fresh_name("deadlock_state", base.ast.names)
    return _redirect_edits(base, (name,), codes, f"self-looping {name}")


def _trap_loop_edits(base: CheckReport) -> Iterator[_Edit]:
    codes = _lowest_unused_encodings(base.ast, 2)
    taken = base.ast.names
    name_a = _fresh_name("trap_state_1", taken)
    name_b = _fresh_name("trap_state_2", taken | {name_a})
    return _redirect_edits(base, (name_a, name_b), codes,
                           f"the {name_a}/{name_b} cycle")


def _duplicate_encoding_edits(base: CheckReport) -> Iterator[_Edit]:
    ast = base.ast
    if len(ast.parameters) < 2:
        raise InjectError("need at least two states to duplicate an encoding")
    names = ast.param_names
    for first in names:
        for second in names:
            if first == second:
                continue
            def apply(trial: FsmAst, first: str = first, second: str = second) -> FsmAst:
                return trial.with_encodings({second: trial.param(first).code})
            yield _Edit(apply, frozenset({first, second}), second, (),
                        (f"param:{second}",), f"{second} now shares {first}'s encoding")


def _unreachable_state_edits(base: CheckReport) -> Iterator[_Edit]:
    ast = base.ast
    code = _lowest_unused_encodings(ast, 1)[0]
    name = _fresh_name("unreachable_state", ast.names)
    markers = (f"param:{name}", f"arm:{name}")
    for target in ast.param_names:
        for sig in ast.data_inputs or [None]:
            def apply(trial: FsmAst, target: str = target, sig: Optional[str] = sig) -> FsmAst:
                nxt = trial.state_next
                body = [Assign(nxt, target)] if sig is None else [IfChain([
                    Branch(sig, [Assign(nxt, target)]),
                    Branch(None, [Assign(nxt, name)]),
                ])]
                return _add_state(trial, name, code, body)
            guard_note = f"guarded by {sig}" if sig else "unconditional"
            yield _Edit(apply, frozenset({name}), target, (name,), markers,
                        f"{name} exits to {target} ({guard_note}) and is never entered")


_EDITS = {
    VulnClass.STATIC_DEADLOCK: (_static_deadlock_edits,
                                "no eligible state/branch yields a clean static deadlock"),
    VulnClass.CWE835_TRAP: (_trap_loop_edits,
                            "no eligible state/branch yields a clean trap loop"),
    VulnClass.DUPLICATE_ENCODING: (_duplicate_encoding_edits,
                                   "no state pair yields a clean duplicate encoding"),
    VulnClass.UNREACHABLE_STATE: (_unreachable_state_edits,
                                  "no exit target yields a clean unreachable state"),
}


# -- public entries -----------------------------------------------------------------

def remove_default_arm(ast: FsmAst) -> tuple[FsmAst, InjectionPlan]:
    """Delete the default arm, leaving unused encodings unhandled."""
    if ast.comb.default_arm is None:
        raise InjectError("design has no default arm to remove")
    if not ast.lowest_unused_encodings(1):
        raise InjectError("all encodings are used; removal creates no weakness")
    if ast.comb.leading_target_for(ast.state_next) is not None:
        raise InjectError("a leading next-state default still handles unused encodings")
    injected = replace(ast, comb=replace(ast.comb, default_arm=None))
    text, markers = emit_with_markers(injected)
    listed, unused = ast.unused_encodings()
    plan = InjectionPlan(
        vuln=VulnClass.MISSING_DEFAULT,
        seed=0,
        target_state=None,
        added_states=(),
        modified_spans=(markers["endcase"],),
        # the codes left unhandled, as the finding lists them; the refusals take one at most
        notes="default arm removed; unhandled encodings: " + ", ".join(listed)
        + (f" ({unused} in all)" if unused > len(listed) else ""),
        text=text,
    )
    return injected, plan


def plan_injection(vuln: VulnClass, ast: FsmAst, seed: int,
                   protected: frozenset[str] = frozenset()
                   ) -> tuple[FsmAst, InjectionPlan]:
    """Apply one seeded injection of the class.  STATIC_DEADLOCK and
    CWE835_TRAP redirect a branch of a reachable state into a fresh
    self-looping state or exit-less two-state cycle; DUPLICATE_ENCODING
    gives a second state a first state's code; UNREACHABLE_STATE adds a
    state with exits and no entry; MISSING_DEFAULT drops the default arm.

    The gated edits are memoized on the emitted base, which fixes all an edit
    reads (parse(emit(x)) equals x); the seed draws one, for a redirect class
    an arm first, and only that edit is applied to the caller's AST."""
    if vuln is VulnClass.MISSING_DEFAULT:
        injected, plan = remove_default_arm(ast)
        return injected, replace(plan, seed=seed)
    if vuln not in _EDITS:
        raise InjectError(f"unknown vulnerability class {vuln!r}")
    protected = frozenset(protected) | ast.protected_annotations
    key = (emit_verilog(ast).content, vuln, protected)
    with _GATED_LOCK:
        if key not in _GATED:
            _GATED[key] = _gate(vuln, ast, protected)
            if len(_GATED) > _GATED_MAX:
                del _GATED[next(iter(_GATED))]
        kept = _GATED[key]
    if isinstance(kept, str):
        raise InjectError(kept)
    rng = random.Random(seed)
    if None in kept:
        edit = rng.choice(kept[None])
    else:
        state = rng.choice([a.label for a in ast.comb.arms if a.label in kept])
        edit = rng.choice(kept[state])
    injected = edit.apply(ast)
    text, markers = emit_with_markers(injected)
    return injected, InjectionPlan(
        vuln=vuln,
        seed=seed,
        target_state=edit.target_state,
        added_states=edit.added_states,
        modified_spans=tuple(markers[k] for k in edit.markers if k in markers),
        notes=edit.notes,
        text=text,
    )
