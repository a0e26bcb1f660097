"""Recursive-descent parser for the FSM Verilog subset.

The accepted grammar is deliberately narrow: one module, scalar or vectored
ports, `parameter` state encodings as sized binary literals, one clocked
always block updating the state register, and one combinational always block
holding a single case statement over the current state.  `localparam` is
accepted and normalized to `parameter`.  SystemVerilog constructs are parse
errors, never silently accepted.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ast_nodes import (
    Assign,
    Branch,
    CaseArm,
    CombBlock,
    FsmAst,
    IfChain,
    ParamDecl,
    Port,
    SeqBlock,
    Stmt,
)
from .source import Diagnostic, SourceText, Span, error
from .tokens import (
    IDENT_RE,
    MAX_LITERAL_WIDTH,
    Lexed,
    TokKind,
    UNSUPPORTED_KEYWORDS,
    expr_identifiers,
    parse_sized_literal,
    tokenize,
)

_PROTECTED_RE = re.compile(rf"@protected\s+({IDENT_RE.pattern})")

_IDENT = TokKind.IDENT
# Verilog lets "_" separate the digits of a literal but not lead them.
_BINARY_DIGITS = re.compile("[01][01_]*").fullmatch
_OPERANDS = (TokKind.IDENT, TokKind.NUMBER, TokKind.SIZED)
_ENDS_ASSIGN = frozenset({"", "=", "end", "endcase", "endmodule", "begin", "if", "else"})
_NO_SPACE_BEFORE = {")", "]", ";", ",", ":"}
_NO_SPACE_AFTER = {"(", "[", "!", "~"}


def render_expr(texts: list[str]) -> str:
    """Join expression token texts into a normalized, re-parseable text form."""
    out: list[str] = []
    for text in texts:
        if out and text not in _NO_SPACE_BEFORE and out[-1] not in _NO_SPACE_AFTER:
            out.append(" ")
        out.append(text)
    return "".join(out)


@dataclass
class ParseResult:
    ast: FsmAst | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.ast is not None and not self.errors

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def expect_ast(self) -> FsmAst:
        if self.ast is None:
            msgs = "; ".join(str(d) for d in self.errors) or "parse failed"
            raise ParseFailure(msgs, self.diagnostics)
        return self.ast


class ParseFailure(Exception):
    def __init__(self, message: str, diagnostics: list[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics


class _Abort(Exception):
    """Internal signal: parsing cannot continue meaningfully."""


class _Parser:
    def __init__(self, lexed: Lexed):
        self.texts = lexed.texts
        self.kinds = lexed.kinds
        self.lines = lexed.lines
        self.trivia = lexed.trivia
        self.pos = 0
        self.diags: list[Diagnostic] = list(lexed.diagnostics)
        self.stray_semis: list[Span] = []
        self.localparam_spans: list[Span] = []
        self.ports: list[Port] = []
        self.port_order: list[str] = []          # names from a non-ANSI header
        self.params: list[ParamDecl] = []
        self.param_decl_read = False             # even if each value was rejected
        self.regs: dict[str, int] = {}           # name -> width
        self.seq_blocks: list[SeqBlock] = []
        self.comb_blocks: list[CombBlock] = []
        self.module_name = ""
        self.module_line = 1
        self._state_cur = ""
        self._state_next = ""
        self.aborted = False

    # -- token plumbing --------------------------------------------------
    # A token is its index into the parallel lists.  Its text determines its
    # kind: the lexer gives keywords, operators and EOF ("") texts that no
    # other token can have.  So a test for a keyword or an operator compares
    # the text alone.
    def peek(self) -> str:
        return self.texts[self.pos]   # next() never moves past the EOF token

    def next(self) -> int:
        i = self.pos
        if self.texts[i]:
            self.pos += 1
        return i

    def accept(self, text: str) -> bool:
        """Step past the next token if it is text."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def at_eof(self) -> bool:
        return not self.texts[self.pos]

    def span(self, i: int) -> Span:
        line = self.lines[i]
        return Span(line, line)

    def err(self, code: str, message: str, span: Span | None = None) -> None:
        self.diags.append(error(code, message, span or self.span(self.pos)))

    def expect(self, text: str) -> int:
        i = self.pos
        if self.texts[i] == text:
            self.pos += 1
            return i
        self.err("E_SYNTAX", f"expected {text!r}, found {self.texts[i]!r}")
        raise _Abort()

    def expect_ident(self, what: str) -> int:
        i = self.pos
        if self.kinds[i] is _IDENT:
            self.pos += 1
            return i
        self.err("E_SYNTAX", f"expected {what}, found {self.texts[i]!r}")
        raise _Abort()

    def skip_past_semi(self) -> None:
        while not self.at_eof():
            if self.texts[self.next()] == ";":
                return

    def eat_stray_semis(self) -> None:
        while self.texts[self.pos] == ";":
            self.stray_semis.append(self.span(self.next()))

    # -- module structure --------------------------------------------------
    def parse(self) -> FsmAst | None:
        try:
            self._reject_unsupported_keywords()
            self._parse_header()
            while not self.at_eof() and self.peek() != "endmodule":
                self._parse_item()
            self.accept("endmodule")
        except _Abort:
            self.aborted = True
        return self._finalize()

    def _reject_unsupported_keywords(self) -> None:
        if UNSUPPORTED_KEYWORDS.isdisjoint(self.texts):
            return
        seen: set[str] = set()
        for i, text in enumerate(self.texts):
            if text in UNSUPPORTED_KEYWORDS and text not in seen:
                seen.add(text)
                self.err("E_SV", f"construct {text!r} is outside the supported subset", self.span(i))
        raise _Abort()

    def _parse_header(self) -> None:
        self.expect("module")
        name = self.expect_ident("module name")
        self.module_name = self.texts[name]
        self.module_line = self.lines[name]
        if self.accept("("):
            if self.peek() != ")":
                if self.peek() in ("input", "output", "inout"):
                    self._parse_ansi_ports()
                else:
                    self._parse_port_name_list()
            self.expect(")")
        self.expect(";")

    def _parse_kinds(self) -> tuple[str, list[int]]:
        """The net kind and the indices of the wire/reg keywords that gave it."""
        kinds: list[int] = []
        while self.peek() in ("wire", "reg"):
            kinds.append(self.next())
        kind = self.texts[kinds[0]] if kinds else "wire"
        return kind, kinds

    def _conflicting_kinds(self, kind_toks: list[int], name: str) -> None:
        if len({self.texts[i] for i in kind_toks}) > 1:
            self.err("E_PORT_KIND", f"conflicting net kinds for {name}", self.span(kind_toks[0]))

    def _parse_range(self) -> int:
        if not self.accept("["):
            return 1
        hi = self.next()
        self.expect(":")
        lo = self.next()
        self.expect("]")
        bounds = (self.texts[hi], self.texts[lo])
        if not all(map(str.isdecimal, bounds)):
            self.err("E_SYNTAX", "non-numeric port range", self.span(hi))
            return 1
        # A bound is judged from its digits before int(), so none is too long to report.
        cap = MAX_LITERAL_WIDTH
        a, b = (int(t) if len(t.lstrip("0")) <= len(str(cap)) else cap + 1 for t in bounds)
        width = abs(a - b) + 1
        if max(a, b, width) > cap:
            self.err("E_RANGE", f"range bound or width over {cap}", self.span(hi))
            return 1
        return width

    def _parse_ansi_ports(self) -> None:
        direction = None
        kind = "wire"
        width = 1
        while True:
            if self.peek() in ("input", "output", "inout"):
                direction = self.texts[self.next()]
                kind, kind_toks = self._parse_kinds()
                width = self._parse_range()
                self._conflicting_kinds(kind_toks, self.peek())
            if direction is None:
                self.err("E_SYNTAX", "port without a direction")
                raise _Abort()
            name = self.expect_ident("port name")
            if any(p.name == self.texts[name] for p in self.ports):
                self.err("E_DUP_PORT", f"port {self.texts[name]} declared twice", self.span(name))
            self.ports.append(Port(self.texts[name], direction, kind, width, self.span(name)))
            if not self.accept(","):
                return

    def _parse_port_name_list(self) -> None:
        while True:
            i = self.expect_ident("port name")
            if self.texts[i] in self.port_order:
                self.err("E_DUP_PORT", f"port {self.texts[i]} listed twice", self.span(i))
            self.port_order.append(self.texts[i])
            if not self.accept(","):
                return

    def _parse_item(self) -> None:
        text = self.peek()
        if text in ("input", "output", "inout"):
            self._parse_port_decl()
        elif text in ("parameter", "localparam"):
            self._parse_param_decl()
        elif text == "reg":
            self._parse_reg_decl()
        elif text == "wire":
            self.err("E_SYNTAX", "wire declarations are not part of the FSM subset")
            self.skip_past_semi()
        elif text == "always":
            self._parse_always()
        elif text == ";":
            self.eat_stray_semis()
        else:
            self.err("E_SYNTAX", f"unexpected {text!r} at module level")
            self.next()

    def _parse_port_decl(self) -> None:
        direction = self.texts[self.next()]
        kind, kind_toks = self._parse_kinds()
        width = self._parse_range()
        first = self.expect_ident("port name")
        self._conflicting_kinds(kind_toks, self.texts[first])
        names = [first]
        while self.accept(","):
            names.append(self.expect_ident("port name"))
        self.expect(";")
        for i in names:
            name = self.texts[i]
            existing = next((p for p in self.ports if p.name == name), None)
            if existing is not None:
                existing.direction = direction
                existing.kind = kind
                existing.width = width
            else:
                self.ports.append(Port(name, direction, kind, width, self.span(i)))

    def _parse_param_decl(self) -> None:
        texts, kinds, lines = self.texts, self.kinds, self.lines
        self.param_decl_read = True
        head = self.next()
        if texts[head] == "localparam":
            self.localparam_spans.append(self.span(head))
        while True:
            i = self.pos
            if kinds[i] is not _IDENT:
                self.expect_ident("parameter name")
            name = texts[i]
            if texts[i + 1] != "=":
                self.pos = i + 1
                self.expect("=")
            value = i + 2
            self.pos = value + 1 if texts[value] else value
            if kinds[value] is not TokKind.SIZED:
                self.err("E_ENCODING", f"unsized state literal for {name}", self.span(value))
            else:
                try:
                    width, base, digits = parse_sized_literal(texts[value])
                except ValueError:
                    self.err("E_ENCODING", f"state encoding for {name} is wider than "
                             f"{MAX_LITERAL_WIDTH} bits", self.span(value))
                else:
                    if not width or base != "b" or not _BINARY_DIGITS(digits):
                        self.err("E_ENCODING",
                                 f"state encoding for {name} must be a sized binary literal",
                                 self.span(value))
                        digits = "0"
                    code = int(digits.replace("_", ""), 2) & ((1 << width) - 1)
                    self.params.append(ParamDecl(name, width, code, Span(lines[i], lines[i])))
            if not self.accept(","):
                break
        self.expect(";")

    def _parse_reg_decl(self) -> None:
        self.next()
        width = self._parse_range()
        names = [self.expect_ident("register name")]
        while self.accept(","):
            names.append(self.expect_ident("register name"))
        self.expect(";")
        for i in names:
            name = self.texts[i]
            port = next((p for p in self.ports if p.name == name), None)
            if port is not None:
                port.kind = "reg"
            else:
                self.regs[name] = width

    # -- always blocks ---------------------------------------------------
    def _parse_always(self) -> None:
        start_line = self.lines[self.next()]
        self.expect("@")
        star, edges, names = self._parse_sensitivity()
        if edges:
            self._parse_seq_body(start_line, edges)
        else:
            self._parse_comb_body(start_line, star, names)

    def _parse_sensitivity(self) -> tuple[bool, list[tuple[str, str]], list[str]]:
        """Returns (is_star, [(edge, signal)], [plain signals])."""
        if self.accept("*"):
            return True, [], []
        self.expect("(")
        if self.accept("*"):
            self.expect(")")
            return True, [], []
        edges: list[tuple[str, str]] = []
        names: list[str] = []
        while True:
            if self.peek() in ("posedge", "negedge"):
                edge = self.texts[self.next()]
                edges.append((edge, self.texts[self.expect_ident("edge signal")]))
            else:
                names.append(self.texts[self.expect_ident("sensitivity signal")])
            if not (self.accept(",") or self.accept("or")):
                break
        self.expect(")")
        return False, edges, names

    def _parse_seq_body(self, start_line: int, edges: list[tuple[str, str]]) -> None:
        body = self._parse_stmt_block()
        end_line = self.lines[self.pos - 1]
        block = self._shape_seq(Span.point(start_line), edges, body)
        if block is not None:
            block.span = Span(start_line, max(start_line, end_line))
            self.seq_blocks.append(block)

    def _shape_seq(self, span: Span, edges, body: list[Stmt]) -> SeqBlock | None:
        if len(body) != 1 or not isinstance(body[0], IfChain):
            self.err("E_SEQ_SHAPE", "sequential block must be a single if/else on reset", span)
            return None
        chain = body[0]
        if len(chain.branches) != 2 or chain.branches[-1].guard is not None:
            self.err("E_SEQ_SHAPE", "sequential block needs a reset branch and an else branch", span)
            return None
        reset_cond = chain.branches[0].guard or ""
        reset_assigns = [s for s in chain.branches[0].body if isinstance(s, Assign)]
        hold_assigns = [s for s in chain.branches[1].body if isinstance(s, Assign)]
        if len(reset_assigns) != 1 or len(hold_assigns) != 1:
            self.err("E_SEQ_SHAPE", "sequential branches must each hold one state assignment", span)
            return None
        cur = reset_assigns[0].lhs
        if hold_assigns[0].lhs != cur:
            self.err("E_SEQ_SHAPE", "reset and hold branches update different registers", span)
            return None
        if any(edge != "posedge" for edge, _ in edges):
            self.err("E_SEQ_SHAPE", "only posedge clocking is in the supported subset", span)
            return None
        cond_idents = set(expr_identifiers(reset_cond))
        if len(edges) > 1:
            reset_sigs = [sig for _, sig in edges if sig in cond_idents]
            clock_sigs = [sig for _, sig in edges if sig not in cond_idents]
            if len(edges) != 2 or not reset_sigs or not clock_sigs:
                self.err("E_SEQ_SHAPE", "cannot tell clock from reset in the sensitivity list", span)
                return None
            clock, reset, is_async = clock_sigs[0], reset_sigs[0], True
        else:
            clock = edges[0][1]
            idents = sorted(cond_idents)
            if not idents:
                self.err("E_SEQ_SHAPE", "reset condition references no signal", span)
                return None
            reset, is_async = idents[0], False
        self._state_cur = cur
        self._state_next = hold_assigns[0].rhs
        return SeqBlock(clock, reset, is_async, reset_cond, reset_assigns[0].rhs)

    def _parse_comb_body(self, start_line: int, star: bool, names: list[str]) -> None:
        body, case = self._parse_comb_stmts()
        end_line = self.lines[self.pos - 1]
        if case is None:
            self.err("E_NO_CASE", "missing case statement in combinational block",
                     Span.point(start_line))
            return
        subject, arms, default_arm = case
        leading: list[Assign] = []
        for stmt in body:
            if isinstance(stmt, Assign):
                leading.append(stmt)
            else:
                self.err("E_COMB_SHAPE", "only plain default assignments may precede the case",
                         stmt.span)
        self.comb_blocks.append(CombBlock(
            sens_star=star,
            sens_list=tuple(names),
            leading=leading,
            subject=subject,
            arms=arms,
            default_arm=default_arm,
            span=Span(start_line, max(start_line, end_line)),
        ))

    def _parse_comb_stmts(self):
        """Parse the comb always body: leading statements and one case."""
        case = None
        stmts: list[Stmt] = []
        has_begin = self.accept("begin")
        while True:
            text = self.peek()
            if not text:
                break
            if has_begin and self.accept("end"):
                self.eat_stray_semis()
                break
            if text == "case":
                if case is not None:
                    self.err("E_COMB_SHAPE", "more than one case statement")
                    raise _Abort()
                case = self._parse_case()
                if not has_begin:
                    break
                continue
            if case is not None:
                self.err("E_COMB_SHAPE", "statements after the case statement are not supported")
                raise _Abort()
            stmts.append(self._parse_if() if text == "if" else self._parse_assign())
            if not has_begin:
                break
        return stmts, case

    def _parse_case(self):
        self.expect("case")
        self.expect("(")
        subject = self.texts[self.expect_ident("case subject")]
        self.expect(")")
        arms: list[CaseArm] = []
        default_arm: CaseArm | None = None
        while self.peek() != "endcase":
            if self.at_eof():
                self.err("E_SYNTAX", "unterminated case statement")
                raise _Abort()
            start = self.pos
            if self.accept("default"):
                label = None
            else:
                label = self.texts[self.expect_ident("case label")]
            self.expect(":")
            start_line = self.lines[start]
            body = self._parse_stmt_block()
            end_line = self.lines[self.pos - 1]
            arm = CaseArm(label, body, Span(start_line, max(start_line, end_line)))
            if label is None:
                if default_arm is not None:
                    self.err("E_DUP_DEFAULT", "more than one default arm", self.span(start))
                default_arm = arm
            else:
                arms.append(arm)
        self.expect("endcase")
        self.eat_stray_semis()
        return subject, arms, default_arm

    # Statements are most of a design: the methods below read the token lists
    # through locals and call expect(), expect_ident() or err() only on a fault.
    def _parse_stmt_block(self) -> list[Stmt]:
        texts = self.texts
        text = texts[self.pos]
        if text != "begin":
            return [self._parse_if() if text == "if" else self._parse_assign()]
        self.pos += 1
        stmts: list[Stmt] = []
        while (text := texts[self.pos]) != "end":
            if not text:
                self.err("E_SYNTAX", "unterminated begin/end block")
                raise _Abort()
            stmts.append(self._parse_if() if text == "if" else self._parse_assign())
        self.pos += 1
        if texts[self.pos] == ";":
            self.eat_stray_semis()
        return stmts

    def _parse_if(self) -> IfChain:   # the next token is "if"
        texts, lines = self.texts, self.lines
        pos = self.pos
        start_line = lines[pos]
        branches: list[Branch] = []
        while True:
            if_span = Span(lines[pos], lines[pos])
            pos += 1
            if texts[pos] != "(":
                self.pos = pos
                self.expect("(")
            pos = begin = pos + 1
            depth = 1
            while True:
                text = texts[pos]
                if text == ")":
                    depth -= 1
                    if not depth:
                        break
                elif text == "(":
                    depth += 1
                elif not text:
                    self.err("E_SYNTAX", "unterminated guard expression", if_span)
                    raise _Abort()
                pos += 1
            self.pos = pos + 1
            guard = texts[begin] if pos == begin + 1 else render_expr(texts[begin:pos])
            branches.append(Branch(guard, self._parse_stmt_block(), if_span))
            pos = self.pos
            if texts[pos] != "else":
                break
            pos += 1
            if texts[pos] == "if":
                continue
            self.pos = pos
            branches.append(Branch(None, self._parse_stmt_block(), if_span))
            break
        end_line = lines[self.pos - 1]
        return IfChain(branches, Span(start_line, max(start_line, end_line)))

    def _parse_assign(self) -> Assign:
        texts, kinds, lines = self.texts, self.kinds, self.lines
        lhs = self.pos
        if kinds[lhs] is not _IDENT:
            self.expect_ident("assignment target")
        op = texts[lhs + 1]
        if op != "=" and op != "<=":
            self.pos = lhs + 1
            self.err("E_SYNTAX", f"expected assignment after {texts[lhs]!r}")
            raise _Abort()
        pos = begin = lhs + 2
        prev_operand = False
        while (text := texts[pos]) != ";":
            # EOF, a statement keyword, a bare "=" or two operands in a row
            # start the next statement
            operand = kinds[pos] in _OPERANDS
            if text in _ENDS_ASSIGN or (operand and prev_operand):
                self.err("E_SYNTAX", "missing semicolon after assignment", self.span(lhs))
                raise _Abort()
            prev_operand = operand
            pos += 1
        self.pos = pos + 1
        if pos == begin:
            self.err("E_SYNTAX", "empty assignment right-hand side", self.span(lhs))
            raise _Abort()
        rhs = texts[begin] if pos == begin + 1 else render_expr(texts[begin:pos])
        return Assign(texts[lhs], rhs, Span(lines[lhs], lines[pos]))

    # -- finalize ----------------------------------------------------------
    def _finalize(self) -> FsmAst | None:
        comments = tuple(t.text for t in self.trivia)
        # in source order, which the E_PROTECTED diagnostics follow
        annotations = dict.fromkeys(
            m.group(1) for text in comments for m in _PROTECTED_RE.finditer(text))

        # After an abort the module is only half read: what it lacks may lie
        # past the error, so the "missing X" diagnostics would only cascade.
        report_missing = not self.aborted
        if self.port_order:
            declared = {p.name: p for p in self.ports}
            missing = [n for n in self.port_order if n not in declared] if report_missing else []
            for name in missing:
                self.err("E_PORT_DECL", f"port {name} has no direction declaration",
                         Span.point(self.module_line))
            self.ports = [declared[n] for n in self.port_order if n in declared]

        if not self.params and not self.seq_blocks and not self.comb_blocks:
            if report_missing:
                self.err("E_NO_FSM", "no state machine found", Span.point(self.module_line))
            return None
        if len(self.seq_blocks) > 1:
            self.err("E_MULTI_SEQ", "two sequential blocks describe the state register",
                     self.seq_blocks[1].span)
        if not self.seq_blocks and report_missing:
            self.err("E_NO_SEQ", "no sequential state-update block found",
                     Span.point(self.module_line))
        if len(self.comb_blocks) > 1:
            self.err("E_MULTI_COMB", "more than one combinational block",
                     self.comb_blocks[1].span)
        if not self.comb_blocks and report_missing:
            self.err("E_NO_CASE", "missing case statement", Span.point(self.module_line))
        if not self.param_decl_read and report_missing:
            self.err("E_NO_PARAMS", "no state parameters declared", Span.point(self.module_line))

        widths = {p.width for p in self.params}
        if len(widths) > 1:
            self.err("E_WIDTH_MIX", "state encodings use mixed widths", self.params[0].span)
        seen: set[str] = set()
        for p in self.params:
            if p.name in seen:
                self.err("E_DUP_PARAM", f"state {p.name} declared twice", p.span)
            seen.add(p.name)

        if any(d.is_error for d in self.diags):
            return None

        seq = self.seq_blocks[0]
        comb = self.comb_blocks[0]
        param_names = {p.name for p in self.params}
        width = self.params[0].width

        cur = comb.subject
        # _shape_seq recorded the register pair: reset-branch lhs is the
        # current-state register, the else-branch rhs is the next-state one.
        seq_cur, seq_next = self._state_cur, self._state_next
        if cur != seq_cur:
            self.err("E_SUBJECT", f"case subject {cur} is not the state register {seq_cur}",
                     comb.span)
        if seq.reset_target not in param_names:
            self.err("E_RESET_TARGET", f"reset target {seq.reset_target} is not a declared state",
                     seq.span)
        ports = {p.name: p for p in self.ports}
        for name in (seq_cur, seq_next):
            port = ports.get(name)
            reg_width = port.width if port is not None else self.regs.get(name, width)
            if reg_width != width:
                self.err("E_REG_WIDTH",
                         f"register {name} width {reg_width} does not match encoding width {width}",
                         seq.span)
            if port is not None and (port.direction != "output" or port.kind != "reg"):
                self.err("E_STATE_PORT", f"state register {name} is a port but not an output reg",
                         seq.span)

        arm_labels: set[str] = set()
        for arm in comb.arms:
            if arm.label in arm_labels:
                self.err("E_DUP_ARM", f"duplicate case arm for {arm.label}", arm.span)
            arm_labels.add(arm.label)
            if arm.label not in param_names:
                self.err("E_ARM_LABEL", f"case arm on undeclared label {arm.label}", arm.span)
        all_arms = comb.arms + ([comb.default_arm] if comb.default_arm else [])
        assignable = {seq_next} | {p.name for p in self.ports if p.direction == "output"}
        # Nothing in the subset drives a register other than the state pair,
        # and the emitter declares only those two.
        declared = param_names | {seq_cur, seq_next} | set(ports)
        def check(stmts: list[Stmt]) -> None:   # in source order, a branch before its body
            for stmt in stmts:
                if isinstance(stmt, IfChain):
                    for br in stmt.branches:
                        if br.guard is not None and br.guard not in declared:
                            self._check_declared(br.guard, declared, br.span)
                        check(br.body)
                    continue
                if stmt.rhs not in declared:
                    self._check_declared(stmt.rhs, declared, stmt.span)
                if stmt.lhs == seq_next:
                    if stmt.rhs not in param_names:
                        self.err("E_NEXT_TARGET",
                                 f"next-state assigned to undeclared state {stmt.rhs}", stmt.span)
                elif stmt.lhs not in assignable:
                    self.err("E_LHS", f"assignment to {stmt.lhs}, which is not next-state or an "
                             "output", stmt.span)

        # diagnostics follow the arms in source order, then the leading defaults
        check([stmt for arm in all_arms for stmt in arm.body] + comb.leading)

        for name in annotations:
            if name not in param_names:
                self.err("E_PROTECTED", f"@protected names undeclared state {name}",
                         Span.point(self.module_line))

        if any(d.is_error for d in self.diags):
            return None

        last_line = self.lines[-1]   # EOF's line is the last
        return FsmAst(
            module_name=self.module_name,
            ports=self.ports,
            parameters=self.params,
            state_cur=seq_cur,
            state_next=seq_next,
            state_width=width,
            seq=seq,
            comb=comb,
            protected_annotations=frozenset(annotations),
            stray_semis=tuple(self.stray_semis),
            localparam_spans=tuple(self.localparam_spans),
            comments=comments,
            span=Span(1, last_line),
        )

    def _check_declared(self, expr: str, declared: set[str], span: Span) -> None:
        """Each undeclared name expr reads is an error, once; expr is not a bare declared name."""
        if expr.isdecimal():   # a number reads no name
            return
        for name in dict.fromkeys(expr_identifiers(expr)):
            if name not in declared:
                self.err("E_UNDECLARED", f"{name} is not a port, state register or state",
                         span)


def parse_module(lexed: Lexed) -> ParseResult:
    parser = _Parser(lexed)
    ast = parser.parse()
    return ParseResult(ast=ast, diagnostics=parser.diags)


def parse_source(src: SourceText) -> ParseResult:
    lexed = tokenize(src)
    if not lexed.ok:
        return ParseResult(ast=None, diagnostics=lexed.diagnostics)
    return parse_module(lexed)
