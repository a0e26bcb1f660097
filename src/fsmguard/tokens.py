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

# IEEE 1364-2005 3.5.1 lets a tool cap a literal's width at no less than this.
MAX_LITERAL_WIDTH = 65536
_SIZED = r"(\d+)\s*'\s*([bBdDhHoO])([0-9a-fA-FxzXZ_]+)"
SIZED_RE = re.compile(_SIZED)
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SIZED_OR_IDENT_RE = re.compile(f"{_SIZED}|{IDENT_RE.pattern}")

_OP_PAIRS = ("<=", ">=", "==", "!=", "&&", "||", "<<", ">>")
_OP_CHARS = "@()[]{},;:=*!~&|^<>+-?/#.%$"

# One alternative per token class, tried in this order after the spaces and
# tabs before a token are skipped.  The one group is the token's text, so
# findall gives the texts alone; a newline is a token of its own.  A "/*"
# closes at the first "*/" after its "/", so "/*/" is a whole comment; the
# scan ends before a "/*" that never closes.  The last alternative is one
# character that no other alternative takes, an illegal one.
_LEX_RE = re.compile(r"""[ \t\r]*(
    \n
  | """ + IDENT_RE.pattern + r"""
  | //[^\n]*
  | /\*(?:/|.*?\*/)
  | """ + "|".join(map(re.escape, _OP_PAIRS)) + "|[" + re.escape(_OP_CHARS) + r"""]
  | """ + _SIZED.replace("(", "(?:") + r"""
  | \d+
  | [^ \t\r]
)""", re.VERBOSE | re.DOTALL)
# No token but a comment holds "//" or "/*", so this finds the comments the
# scan above finds, and the "/*" that never closes, as a bare "/*".  It is
# compiled on first use through re's cache: most designs have no "/".
_COMMENT = r"//[^\n]*|/\*(?:/|.*?\*/)|/\*"
_ALL_KEYWORDS = KEYWORDS | UNSUPPORTED_KEYWORDS
# Texts whose kind the text alone gives.
_KNOWN_KINDS: dict[str, TokKind] = {
    **dict.fromkeys(_ALL_KEYWORDS, TokKind.KW),
    **dict.fromkeys((*_OP_PAIRS, *_OP_CHARS), TokKind.OP),
}
_KNOWN_TEXTS = {text: text for text in _KNOWN_KINDS}
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class Token(NamedTuple):
    kind: TokKind
    text: str
    line: int
    col: int


@dataclass
class Lexed:
    """The token stream as parallel lists, EOF last; comments are trivia.
    ``scanned`` is the source text the scan covered: all of it, or up to a
    block comment that never closes.  ``cols`` is computed from it on
    demand, with a second scan, so nothing pays for columns unless it reads
    them."""
    texts: list[str]
    kinds: list[TokKind]
    lines: list[int]
    trivia: list[Token]
    diagnostics: list[Diagnostic]
    scanned: str

    @property
    def cols(self) -> list[int]:
        # A dropped text (newline, comment, illegal character) never equals
        # a token's text, so the texts pick the tokens out of the scan.
        text = self.scanned
        rfind, tokens = text.rfind, set(self.texts)
        starts = [m.start(1) for m in _LEX_RE.finditer(text) if m[1] in tokens]
        starts.append(len(text))
        return [at - rfind("\n", 0, at) for at in starts]

    @property
    def tokens(self) -> list[Token]:
        return list(map(Token, self.kinds, self.texts, self.lines, self.cols))

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)


def tokenize(src: SourceText) -> Lexed:
    """Split source into tokens; comments are preserved as trivia.

    One findall gives every text, and each distinct text is classified
    once, into a per-call table: its kind (None drops it: a newline, a
    comment or an illegal character), the str its tokens share, and the
    newlines it holds.  One loop over the texts then keeps the tokens,
    numbers their lines and places the illegal characters; a token on one
    line takes the loop's short path.  The tokens of a text share one str,
    and those of a line one int.  Columns are on demand."""
    text = src.content
    trivia: list[Token] = []
    diagnostics: list[Diagnostic] = []
    if "/" in text:
        line, at = 1, 0
        for m in re.finditer(_COMMENT, text, re.DOTALL):
            start = m.start()
            line += text.count("\n", at, start)
            at = start
            if m[0] == "/*":   # the scan stops, and EOF sits on the "/*"
                diagnostics.append(error("E_COMMENT", "unterminated block comment",
                                         Span.point(line)))
                text = text[:start]
                break
            trivia.append(Token(TokKind.COMMENT, m[0], line, start - text.rfind("\n", 0, start)))
    found = _LEX_RE.findall(text)
    kind_of: dict[str, TokKind | None] = {**_KNOWN_KINDS, "\n": None}
    one_line = dict(_KNOWN_TEXTS)   # a token on one line: its shared str
    other = {"\n": (None, 1)}   # any other text: (its shared str or None, newlines)
    bad: set[str] = set()
    for word in set(found).difference(kind_of):
        first = word[0]
        if first in _IDENT_START:
            kind = TokKind.IDENT
        elif first.isdecimal():   # the characters \d matches
            kind = TokKind.SIZED if "'" in word else TokKind.NUMBER
        else:
            kind = None
            if first != "/":
                bad.add(word)
        kind_of[word] = kind
        newlines = word.count("\n")
        if kind and not newlines:
            one_line[word] = word
        else:
            other[word] = (word if kind else None, newlines)
    texts: list[str] = []
    lines: list[int] = []
    illegal: list[Diagnostic] = []
    add_text, add_line, one_line_token = texts.append, lines.append, one_line.get
    line = 1
    for word in found:
        shared = one_line_token(word)
        if shared is not None:
            add_text(shared)
            add_line(line)
        else:
            shared, newlines = other[word]
            if shared is not None:
                add_text(shared)
                add_line(line)
            elif word in bad:
                illegal.append(error("E_CHAR", f"illegal character {word!r}", Span.point(line)))
            line += newlines
    diagnostics[:0] = illegal
    del found   # before the kinds are built: the lexer's peak memory
    lines.append(line)
    kinds = list(map(kind_of.__getitem__, texts))
    texts.append("")
    kinds.append(TokKind.EOF)
    return Lexed(texts, kinds, lines, trivia, diagnostics, text)


def parse_sized_literal(text: str) -> tuple[int, str, str]:
    """Break a sized literal into (width, base, digits), the digits as
    written, underscores included.  A width over MAX_LITERAL_WIDTH is a
    ValueError, decided from its digits before any arithmetic on them."""
    m = SIZED_RE.fullmatch(text)
    if not m:
        raise ValueError(f"not a sized literal: {text!r}")
    width = m.group(1).lstrip("0")
    if len(width) > len(str(MAX_LITERAL_WIDTH)) or int(width or 0) > MAX_LITERAL_WIDTH:
        raise ValueError(f"sized literal wider than {MAX_LITERAL_WIDTH} bits: {text[:40]!r}")
    return int(width or 0), m.group(2).lower(), m.group(3)


def expr_identifiers(text: str) -> list[str]:
    """Names an expression reads; the digits of a sized literal are none."""
    return IDENT_RE.findall(SIZED_RE.sub(" ", text))


def rename_identifiers(text: str, rename: Mapping[str, str]) -> str:
    """An expression with each name it reads mapped through rename; a sized
    literal matches whole, so its digits and base are never renamed."""
    return _SIZED_OR_IDENT_RE.sub(lambda m: rename.get(m[0], m[0]), text)
