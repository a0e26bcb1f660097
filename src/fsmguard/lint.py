"""Style and synthesis lint over a parsed FSM.

Warnings never block downstream analysis; they ride along in reports.
"""
from __future__ import annotations

from .ast_nodes import Assign, CaseArm, FsmAst, Stmt
from .source import Diagnostic, warning
from .tokens import expr_identifiers

LATCH_INFERENCE = "W_LATCH"
INCOMPLETE_SENSITIVITY = "W_SENS"
SEMICOLON_AFTER_END = "W_SEMI"
LOCALPARAM_NORMALIZED = "W_LOCALPARAM"


def _assigned(stmts: list[Stmt]) -> set[str]:
    """Every name an assignment under stmts assigns."""
    names = set()
    todo = list(stmts)
    for stmt in todo:   # todo grows by the body of each branch met
        if isinstance(stmt, Assign):
            names.add(stmt.lhs)
        else:
            for br in stmt.branches:
                todo += br.body
    return names


def lint(ast: FsmAst) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    comb = ast.comb
    params = set(ast.param_names)
    arms: list[CaseArm] = list(comb.arms)
    if comb.default_arm is not None:
        arms.append(comb.default_arm)

    # Latch inference: a comb-driven signal assigned in some arms but not all,
    # with no leading default to fall back on.
    defaulted = {a.lhs for a in comb.leading}
    per_arm = [(_assigned(arm.body), arm) for arm in arms]
    all_assigned = set().union(*(s for s, _ in per_arm)) if per_arm else set()
    for sig in sorted(all_assigned):
        if sig in defaulted:
            continue
        missing = [arm for assigned, arm in per_arm if sig not in assigned]
        if missing:
            arm_names = ", ".join(a.label or "default" for a in missing)
            out.append(warning(
                LATCH_INFERENCE,
                f"{sig} is not assigned in arm(s) {arm_names}; this might cause latch inference",
                missing[0].span,
            ))

    # Sensitivity list: @(*) is always fine; a named list must cover every
    # signal the block reads.
    if not comb.sens_star:
        reads: set[str] = set()
        todo = [*comb.leading, *(stmt for arm in arms for stmt in arm.body)]
        for stmt in todo:   # todo grows by the body of each branch met
            if isinstance(stmt, Assign):
                reads.update(expr_identifiers(stmt.rhs))
            else:
                for br in stmt.branches:
                    reads.update(expr_identifiers(br.guard or ""))
                    todo += br.body
        missing_sens = sorted(((reads - params) | {comb.subject}) - set(comb.sens_list))
        if missing_sens:
            out.append(warning(
                INCOMPLETE_SENSITIVITY,
                "sensitivity list misses read signal(s): " + ", ".join(missing_sens),
                comb.span,
            ))

    for span in ast.localparam_spans:
        out.append(warning(
            LOCALPARAM_NORMALIZED,
            "localparam is normalized to parameter for state encodings",
            span,
        ))

    for span in ast.stray_semis:
        out.append(warning(SEMICOLON_AFTER_END, "semicolon after end", span))

    out.sort(key=lambda d: (d.span.start, d.code))
    return out
