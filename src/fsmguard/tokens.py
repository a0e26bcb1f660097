"""Tokenizer for the restricted synthesizable Verilog FSM subset."""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import Mapping, NamedTuple

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
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SIZED_OR_IDENT_RE = re.compile(f"{_SIZED}|{IDENT_RE.pattern}")

# One alternative per token class, tried in this order after the spaces and
# tabs before a token are skipped.  A run of blank space holding a newline is
# its own match, so line numbers advance once per line, not once per token.
# A "/*" closes at the first "*/" after its "/", so "/*/" is a whole comment;
# a "/*" that never closes matches only the "open" group.  "bad" excludes the
# skipped characters, so the skip never gives one back to it.
_MASTER_RE = re.compile(r"""[ \t\r]*(?:
    (?P<newline>\n[ \t\r\n]*)
  | (?P<ident>""" + IDENT_RE.pattern + r""")
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*(?:/|.*?\*/))
  | (?P<open>/\*)
  | (?P<op><=|>=|==|!=|&&|\|\||<<|>>|[@()\[\]{},;:=*!~&|^<>+\-?/\#.%$])
  | (?P<sized>""" + _SIZED + r""")
  | (?P<number>\d+)
  | (?P<bad>[^ \t\r])
)""", re.VERBOSE | re.DOTALL)
_ALL_KEYWORDS = KEYWORDS | UNSUPPORTED_KEYWORDS
_G = _MASTER_RE.groupindex
_NEWLINE, _IDENT, _OP, _NUMBER, _SIZED_G, _BAD = (
    _G["newline"], _G["ident"], _G["op"], _G["number"], _G["sized"], _G["bad"])
_LINE_COMMENT, _BLOCK_COMMENT = _G["line_comment"], _G["block_comment"]


class Token(NamedTuple):
    kind: TokKind
    text: str
    line: int
    col: int


@dataclass
class Lexed:
    """The token stream as parallel lists, EOF last; comments are trivia."""
    texts: list[str]
    kinds: list[TokKind]
    lines: list[int]
    cols: list[int]
    trivia: list[Token]
    diagnostics: list[Diagnostic]

    @property
    def tokens(self) -> list[Token]:
        return list(map(Token, self.kinds, self.texts, self.lines, self.cols))

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)


def tokenize(src: SourceText) -> Lexed:
    """Split source into tokens; comments are preserved as trivia."""
    texts: list[str] = []
    kinds: list[TokKind] = []
    lines: list[int] = []
    cols: list[int] = []
    trivia: list[Token] = []
    diagnostics: list[Diagnostic] = []
    text = src.content
    end = len(text)
    line, line_start = 1, 0   # current line and the offset it starts at
    add_text, add_kind, add_line, add_col = texts.append, kinds.append, lines.append, cols.append
    kw, ident, op, number = TokKind.KW, TokKind.IDENT, TokKind.OP, TokKind.NUMBER
    for m in _MASTER_RE.finditer(text):
        # lastindex is the token's group: a group closes after those inside it
        g = m.lastindex
        if g == _IDENT:
            word = m[g]
            kind = kw if word in _ALL_KEYWORDS else ident
        elif g == _OP:
            word, kind = m[g], op
        elif g == _NEWLINE:
            word = m[g]
            line += word.count("\n")
            line_start = m.start(g) + word.rindex("\n") + 1
            continue
        elif g == _NUMBER:
            word, kind = m[g], number
        elif g == _LINE_COMMENT:
            trivia.append(Token(TokKind.COMMENT, m[g], line, m.start(g) - line_start + 1))
            continue
        elif g == _SIZED_G or g == _BLOCK_COMMENT:
            word, start = m[g], m.start(g)
            if g == _SIZED_G:
                add_text(word)
                add_kind(TokKind.SIZED)
                add_line(line)
                add_col(start - line_start + 1)
            else:
                trivia.append(Token(TokKind.COMMENT, word, line, start - line_start + 1))
            newlines = word.count("\n")   # the only tokens that may span lines
            if newlines:
                line += newlines
                line_start = start + word.rindex("\n") + 1
            continue
        elif g == _BAD:
            diagnostics.append(error("E_CHAR", f"illegal character {m[g]!r}", Span.point(line)))
            continue
        else:  # "open": the scan stops, and EOF sits on the "/*"
            diagnostics.append(error("E_COMMENT", "unterminated block comment", Span.point(line)))
            end = m.start(g)
            break
        # a token on one line; every branch that adds no such token continued
        add_text(word)
        add_kind(kind)
        add_line(line)
        add_col(m.start(g) - line_start + 1)
    texts.append("")
    kinds.append(TokKind.EOF)
    lines.append(line)
    cols.append(end - line_start + 1)
    return Lexed(texts, kinds, lines, cols, trivia, diagnostics)


def parse_sized_literal(text: str) -> tuple[int, str, str]:
    """Break a sized literal into (width, base, digits), the digits as
    written, underscores included."""
    m = SIZED_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a sized literal: {text!r}")
    return int(m.group(1)), m.group(2).lower(), m.group(3)


def expr_identifiers(text: str) -> list[str]:
    """Names an expression reads; the digits of a sized literal are none."""
    return IDENT_RE.findall(SIZED_RE.sub(" ", text))


def rename_identifiers(text: str, rename: Mapping[str, str]) -> str:
    """An expression with each name it reads mapped through rename; a sized
    literal matches whole, so its digits and base are never renamed."""
    return _SIZED_OR_IDENT_RE.sub(lambda m: rename.get(m[0], m[0]), text)
