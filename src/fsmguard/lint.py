"""Style and synthesis lint over a parsed FSM.

Warnings never block downstream analysis; they ride along in reports.
"""
from __future__ import annotations

from .ast_nodes import Assign, CaseArm, FsmAst, walk
from .source import Diagnostic, warning
from .tokens import expr_identifiers

LATCH_INFERENCE = "W_LATCH"
INCOMPLETE_SENSITIVITY = "W_SENS"
SEMICOLON_AFTER_END = "W_SEMI"
LOCALPARAM_NORMALIZED = "W_LOCALPARAM"


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
    per_arm = [({n.lhs for n in walk(arm.body) if isinstance(n, Assign)}, arm) for arm in arms]
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
        for body in [comb.leading, *(arm.body for arm in arms)]:
            for node in walk(body):
                expr = node.rhs if isinstance(node, Assign) else node.guard
                if expr:
                    reads.update(expr_identifiers(expr))
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
