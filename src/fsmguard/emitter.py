"""Canonical Verilog emission.

Output is deterministic: one statement per line, four-space indents, ANSI
port headers.  ``parse(emit(parse(x)))`` equals ``parse(x)`` structurally for
every design the parser accepts.
"""
from __future__ import annotations

from .ast_nodes import Assign, CaseArm, FsmAst, IfChain, Stmt
from .source import SourceText, Span

_IND = "    "


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.markers: dict[str, Span] = {}

    def put(self, text: str = "") -> int:
        self.lines.append(text)
        return len(self.lines)

    def mark(self, key: str, start: int, end: int | None = None) -> None:
        self.markers[key] = Span(start, end or start)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_stmts(w: _Writer, stmts: list[Stmt], depth: int) -> None:
    pad = _IND * depth
    for stmt in stmts:
        if isinstance(stmt, Assign):
            w.put(f"{pad}{stmt.lhs} = {stmt.rhs};")
        else:
            _emit_chain(w, stmt, depth)


def _emit_chain(w: _Writer, chain: IfChain, depth: int) -> None:
    pad = _IND * depth
    for i, br in enumerate(chain.branches):
        if i == 0:
            w.put(f"{pad}if ({br.guard}) begin")
        elif br.guard is not None:
            w.put(f"{pad}end else if ({br.guard}) begin")
        else:
            w.put(f"{pad}end else begin")
        _emit_stmts(w, br.body, depth + 1)
    w.put(f"{pad}end")


def _emit_arm(w: _Writer, arm: CaseArm, depth: int) -> None:
    pad = _IND * depth
    label = arm.label if arm.label is not None else "default"
    start = w.put(f"{pad}{label}: begin")
    _emit_stmts(w, arm.body, depth + 1)
    end = w.put(f"{pad}end")
    w.mark(f"arm:{label}", start, end)


def emit_with_markers(ast: FsmAst) -> tuple[SourceText, dict[str, Span]]:
    """Emit canonical text plus a map from node keys to emitted line spans.

    Keys: ``header``, ``param:<name>``, ``seq``, ``comb``, ``arm:<label>``,
    ``arm:default``.
    """
    w = _Writer()
    start = w.put(f"module {ast.module_name} (")
    for i, port in enumerate(ast.ports):
        kind = " reg" if port.kind == "reg" else ""
        rng = f" [{port.width - 1}:0]" if port.width > 1 else ""
        comma = "," if i < len(ast.ports) - 1 else ""
        w.put(f"{_IND}{port.direction}{kind}{rng} {port.name}{comma}")
    end = w.put(");")
    w.mark("header", start, end)
    w.put()

    for name in sorted(ast.protected_annotations):
        w.put(f"// @protected {name}")
    if ast.protected_annotations:
        w.put()

    plain_comments = [c for c in ast.comments if "@protected" not in c]
    for comment in plain_comments:
        for line in comment.splitlines():
            w.put(line)
    if plain_comments:
        w.put()

    for p in ast.parameters:
        line = w.put(f"parameter {p.name} = {p.width}'b{p.code:0{p.width}b};")
        w.mark(f"param:{p.name}", line)
    w.put()

    # A state register that is a port is already an output reg in the header.
    rng = f"[{ast.state_width - 1}:0] " if ast.state_width > 1 else ""
    ports = {p.name for p in ast.ports}
    for reg in (ast.state_cur, ast.state_next):
        if reg not in ports:
            w.put(f"reg {rng}{reg};")
    w.put()

    seq = ast.seq
    sens = (f"posedge {seq.clock} or posedge {seq.reset}" if seq.reset_async
            else f"posedge {seq.clock}")
    start = w.put(f"always @({sens}) begin")
    w.put(f"{_IND}if ({seq.reset_cond}) begin")
    w.put(f"{_IND * 2}{ast.state_cur} <= {seq.reset_target};")
    w.put(f"{_IND}end else begin")
    w.put(f"{_IND * 2}{ast.state_cur} <= {ast.state_next};")
    w.put(f"{_IND}end")
    end = w.put("end")
    w.mark("seq", start, end)
    w.put()

    comb = ast.comb
    sens_text = "*" if comb.sens_star else ", ".join(comb.sens_list)
    start = w.put(f"always @({sens_text}) begin")
    for a in comb.leading:
        w.put(f"{_IND}{a.lhs} = {a.rhs};")
    w.put(f"{_IND}case ({comb.subject})")
    for arm in comb.arms:
        _emit_arm(w, arm, 2)
    if comb.default_arm is not None:
        _emit_arm(w, comb.default_arm, 2)
    w.mark("endcase", w.put(f"{_IND}endcase"))
    end = w.put("end")
    w.mark("comb", start, end)
    w.put()
    w.put("endmodule")

    return SourceText(w.text(), origin=f"<emitted:{ast.module_name}>"), w.markers


def emit_verilog(ast: FsmAst) -> SourceText:
    """Emit canonical Verilog that re-parses to an equal AST."""
    text, _ = emit_with_markers(ast)
    return text
