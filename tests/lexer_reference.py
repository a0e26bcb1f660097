"""The lexer as it was before ``tokenize`` lost its per-token loop: a
``finditer`` over one master pattern, one Python step per match.  Tests
compare ``tokenize`` with it token by token; nothing in ``src/`` uses it."""
from __future__ import annotations

import re
from typing import NamedTuple

from fsmguard.source import Diagnostic, Span, error
from fsmguard.tokens import KEYWORDS, UNSUPPORTED_KEYWORDS, TokKind, Token

_SIZED = r"(\d+)\s*'\s*([bBdDhHoO])([0-9a-fA-FxzXZ_]+)"
_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"

# One alternative per token class, tried in this order after the spaces and
# tabs before a token are skipped.  A run of blank space holding a newline is
# its own match, so line numbers advance once per line, not once per token.
# A "/*" closes at the first "*/" after its "/", so "/*/" is a whole comment;
# a "/*" that never closes matches only the "open" group.  "bad" excludes the
# skipped characters, so the skip never gives one back to it.
_MASTER_RE = re.compile(r"""[ \t\r]*(?:
    (?P<newline>\n[ \t\r\n]*)
  | (?P<ident>""" + _IDENT + r""")
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
_NEWLINE, _IDENT_G, _OP, _NUMBER, _SIZED_G, _BAD = (
    _G["newline"], _G["ident"], _G["op"], _G["number"], _G["sized"], _G["bad"])
_LINE_COMMENT, _BLOCK_COMMENT = _G["line_comment"], _G["block_comment"]


class ReferenceLexed(NamedTuple):
    texts: list[str]
    kinds: list[TokKind]
    lines: list[int]
    cols: list[int]
    trivia: list[Token]
    diagnostics: list[Diagnostic]


def reference_tokenize(text: str) -> ReferenceLexed:
    texts: list[str] = []
    kinds: list[TokKind] = []
    lines: list[int] = []
    cols: list[int] = []
    trivia: list[Token] = []
    diagnostics: list[Diagnostic] = []
    end = len(text)
    line, line_start = 1, 0   # current line and the offset it starts at
    add_text, add_kind, add_line, add_col = texts.append, kinds.append, lines.append, cols.append
    kw, ident, op, number = TokKind.KW, TokKind.IDENT, TokKind.OP, TokKind.NUMBER
    for m in _MASTER_RE.finditer(text):
        # lastindex is the token's group: a group closes after those inside it
        g = m.lastindex
        if g == _IDENT_G:
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
    return ReferenceLexed(texts, kinds, lines, cols, trivia, diagnostics)
