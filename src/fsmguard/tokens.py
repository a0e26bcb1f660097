"""Tokenizer for the restricted synthesizable Verilog FSM subset."""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from .source import Diagnostic, SourceText, Span, error


class TokKind(Enum):
    KW = auto()
    IDENT = auto()
    NUMBER = auto()       # bare decimal: 0, 1, 193
    SIZED = auto()        # sized literal: 3'b000, 4'b1010
    OP = auto()
    COMMENT = auto()      # trivia, kept out of the main stream
    EOF = auto()


KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "parameter", "localparam", "always", "begin", "end", "if", "else",
    "case", "endcase", "default", "posedge", "negedge", "or", "assign",
})

# SystemVerilog (and out-of-subset Verilog) constructs are rejected at parse
# time rather than silently accepted.
UNSUPPORTED_KEYWORDS = frozenset({
    "always_ff", "always_comb", "always_latch", "logic", "bit", "typedef",
    "enum", "struct", "union", "interface", "endinterface", "unique",
    "priority", "casex", "casez", "function", "endfunction", "task",
    "endtask", "generate", "endgenerate", "initial", "forever", "while",
    "for", "repeat",
})

_SIZED = r"(\d+)\s*'\s*([bBdDhHoO])([0-9a-fA-FxzXZ_]+)"
SIZED_RE = re.compile(_SIZED)

# One alternative per token class, tried in this order at each position.  A
# "/*" closes at the first "*/" after its "/", so "/*/" is a whole comment; a
# "/*" that never closes matches only the "open" group.
_MASTER_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*(?:/|.*?\*/))
  | (?P<open>/\*)
  | (?P<sized>""" + _SIZED + r""")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<number>\d+)
  | (?P<op><=|>=|==|!=|&&|\|\||<<|>>|[@()\[\]{},;:=*!~&|^<>+\-?/\#.%$])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)
_ALL_KEYWORDS = KEYWORDS | UNSUPPORTED_KEYWORDS


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span.point(self.line)

    def is_kw(self, *words: str) -> bool:
        return self.kind is TokKind.KW and self.text in words

    def is_op(self, text: str) -> bool:
        return self.kind is TokKind.OP and self.text == text


@dataclass
class Lexed:
    tokens: list[Token]
    trivia: list[Token]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)


def tokenize(src: SourceText) -> Lexed:
    """Split source into tokens; comments are preserved as trivia."""
    tokens: list[Token] = []
    trivia: list[Token] = []
    diagnostics: list[Diagnostic] = []
    text = src.content
    end = len(text)
    line, line_start = 1, 0   # current line and the offset it starts at
    for m in _MASTER_RE.finditer(text):
        kind, start, word = m.lastgroup, m.start(), m.group()
        col = start - line_start + 1
        if kind == "ws" or kind == "block_comment" or kind == "sized":
            if kind == "block_comment":
                trivia.append(Token(TokKind.COMMENT, word, line, col))
            elif kind == "sized":
                tokens.append(Token(TokKind.SIZED, word, line, col))
            newlines = word.count("\n")   # only these three may span lines
            if newlines:
                line += newlines
                line_start = start + word.rindex("\n") + 1
        elif kind == "ident":
            tok_kind = TokKind.KW if word in _ALL_KEYWORDS else TokKind.IDENT
            tokens.append(Token(tok_kind, word, line, col))
        elif kind == "op":
            tokens.append(Token(TokKind.OP, word, line, col))
        elif kind == "number":
            tokens.append(Token(TokKind.NUMBER, word, line, col))
        elif kind == "line_comment":
            trivia.append(Token(TokKind.COMMENT, word, line, col))
        elif kind == "bad":
            diagnostics.append(error("E_CHAR", f"illegal character {word!r}", Span.point(line)))
        else:  # "open": the scan stops, and EOF sits on the "/*"
            diagnostics.append(error("E_COMMENT", "unterminated block comment", Span.point(line)))
            end = start
            break
    tokens.append(Token(TokKind.EOF, "", line, end - line_start + 1))
    return Lexed(tokens=tokens, trivia=trivia, diagnostics=diagnostics)


def parse_sized_literal(text: str) -> tuple[int, str, str]:
    """Break a sized literal into (width, base, digits)."""
    m = SIZED_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a sized literal: {text!r}")
    return int(m.group(1)), m.group(2).lower(), m.group(3).replace("_", "")
