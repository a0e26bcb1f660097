"""Tokenizer, parser, linter, and emitter behavior."""
import gc
import hashlib
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmguard import (
    Lexed,
    RuleConfig,
    SourceText,
    TokKind,
    emit_verilog,
    lint,
    parse_source,
    run_all_checks,
    tokenize,
)
from fsmguard.lint import (
    INCOMPLETE_SENSITIVITY,
    LATCH_INFERENCE,
    LOCALPARAM_NORMALIZED,
    SEMICOLON_AFTER_END,
)
from fsmguard.tokens import IDENT_RE, Token, expr_identifiers

from conftest import DESIGNS, FIXTURES, design_ast, design_source
from lexer_reference import reference_tokenize


# -- tokenize ------------------------------------------------------------------

def test_tokenize_parameter_line():
    lexed = tokenize(SourceText("parameter S0 = 3'b000;"))
    kinds = [(t.kind, t.text) for t in lexed.tokens[:-1]]
    assert kinds == [
        (TokKind.KW, "parameter"),
        (TokKind.IDENT, "S0"),
        (TokKind.OP, "="),
        (TokKind.SIZED, "3'b000"),
        (TokKind.OP, ";"),
    ]


def test_tokenize_dual_kind_port_keeps_both_keywords():
    lexed = tokenize(SourceText("output wire reg state_out"))
    texts = [t.text for t in lexed.tokens[:-1]]
    assert texts == ["output", "wire", "reg", "state_out"]
    kinds = {t.text: t.kind for t in lexed.tokens[:-1]}
    assert kinds["wire"] is TokKind.KW and kinds["reg"] is TokKind.KW


@pytest.mark.parametrize("name", ["vending", "aes_ctrl", "rsa_ctrl"])
def test_tokenize_shares_one_str_per_distinct_text(name):
    """Equal token texts, and the AST names parsed from them, are one object."""
    src = design_source(name)
    texts = tokenize(src).texts
    assert len(set(map(id, texts))) == len(set(texts)) < len(texts)
    ast = parse_source(src).expect_ast()
    names = [ast.state_cur, ast.state_next, ast.comb.subject, ast.seq.reset_target,
             *(p.name for p in ast.parameters), *(arm.label for arm in ast.comb.arms)]
    assert len(set(map(id, names))) == len(set(names)) < len(names)


def test_tokenize_comment_is_trivia():
    lexed = tokenize(SourceText("// @protected WAIT_KEY\nmodule m;"))
    assert [t.text for t in lexed.trivia] == ["// @protected WAIT_KEY"]
    assert lexed.tokens[0].text == "module"


def test_tokenize_illegal_character_is_error_with_span():
    lexed = tokenize(SourceText("module m;\n`bad\nendmodule"))
    assert not lexed.ok
    (diag,) = [d for d in lexed.diagnostics if d.code == "E_CHAR"]
    assert diag.span.start == 2


def test_every_byte_attributed():
    src = SourceText("module m; // note here\nparameter A = 1'b0;\nendmodule\n")
    lexed = tokenize(src)
    remainder = src.content
    for t in lexed.trivia:
        remainder = remainder.replace(t.text, "", 1)
    assert "".join(t.text for t in lexed.tokens) == "".join(remainder.split())



# -- golden identity: the lexer ------------------------------------------------

# Inserted at random positions by the mutants below: comment edge cases
# ("/*/" closes itself, a lone "/*" is unterminated), whitespace the lexer
# does not skip ("\f", "\v", non-ASCII), sized literals split across
# lines, and characters outside the subset.
_LEX_SNIPPETS = (
    "/*/", "/*", "*/", "//", "/* x */", "/**/", "\f", "\r", "\r\n", "\t", "\v",
    "\n", " ", "3'\nb101", "4\n'b1010", "2 ' b01", "8'hFF", "3'b0x_z", "1'", "'",
    "`", "\"", "\\", "\xa0", "\u0663", "\u2028", "a$b", "$", "_9", "<=", "==",
    "!=", "&&", "||", "<<", ">>", "#", "@", "0", "42", "begin", "end", "logic",
)
_LEX_EXTRA = (
    "/*/ module m;", "module m; /* never closed\nendmodule\n", "a\fb\rc\vd",
    "parameter A = 3\n'\nb001;", "x = 12 'd 7 ;", "/*/*/", "a /*/ b */ c",
    "// only a comment", "\u0663\u0664 x", "4'b10\n10",
)
LEXER_GOLDEN_SHA256 = "0ec8a41c5e52fa7726386b4be4a0213748cecd8de0b580967c6eb367df4718f9"


def _lexer_corpus() -> list[str]:
    designs = [p.read_text(encoding="utf-8") for p in sorted(DESIGNS.glob("*.v"))]
    rng = random.Random(20231)
    texts = list(designs) + list(_LEX_EXTRA)
    for _ in range(2000):
        text = rng.choice(designs)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(text))
            op = rng.random()
            if op < 0.5:
                text = text[:pos] + rng.choice(_LEX_SNIPPETS) + text[pos:]
            elif op < 0.8:
                text = text[:pos] + text[pos + rng.randint(1, 8):]
            else:
                text = text[:pos] + chr(rng.randrange(1, 128)) + text[pos + 1:]
        texts.append(text or " ")
    return texts


def test_lexer_golden_identity():
    digest = hashlib.sha256()
    for text in _lexer_corpus():
        lexed = tokenize(SourceText(text))
        for tok in lexed.tokens + lexed.trivia:
            digest.update(repr((tok.kind.name, tok.text, tok.line, tok.col)).encode())
        for d in lexed.diagnostics:
            digest.update(repr((d.code, d.message, d.span.start, d.span.end)).encode())
        digest.update(b"|")
    assert digest.hexdigest() == LEXER_GOLDEN_SHA256


# -- the lexer against its per-token reference --------------------------------

def _lex_difference(text: str) -> str:
    """Where tokenize and the reference lexer part on text, or ""."""
    got, want = tokenize(SourceText(text)), reference_tokenize(text)
    want_tokens = list(map(Token, want.kinds, want.texts, want.lines, want.cols))
    for i, (g, w) in enumerate(zip(got.tokens, want_tokens)):
        if g != w:
            return f"token {i}: {g} where the reference has {w}"
    for name, g, w in (("token count", len(got.tokens), len(want_tokens)),
                       ("trivia", got.trivia, want.trivia),
                       ("diagnostics", got.diagnostics, want.diagnostics)):
        if g != w:
            return f"{name}: {g!r} where the reference has {w!r}"
    return ""


def test_tokenize_matches_the_reference_lexer_on_the_corpus():
    for n, text in enumerate(_lexer_corpus()):
        assert not _lex_difference(text), (n, _lex_difference(text))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LEX_SNIPPETS + _LEX_EXTRA + ("a", "x_1", "7", "'b", ";", "\u00b2")),
                min_size=1, max_size=24).map("".join))
def test_tokenize_matches_the_reference_lexer_on_snippets(text):
    # "\u00b2" is a digit to str.isdigit but not to \d or str.isdecimal
    assert not _lex_difference(text)


def _traced_bytes(lex):
    """Traced bytes one lex() call keeps in its result, and at its peak,
    above what was allocated before it."""
    lex()   # anything cached on first use is allocated outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = lex()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return kept - base, peak - base


@pytest.mark.parametrize("name", ["aes_ctrl", "vending"])
def test_tokenize_holds_no_more_memory_than_the_reference(name):
    # about 30 000 tokens; the lines share one int object per line
    one = design_source(name).content
    text = one * (30_000 // len(tokenize(SourceText(one)).texts) + 1)
    src = SourceText(text)
    kept, peak = _traced_bytes(lambda: tokenize(src))
    ref_kept, ref_peak = _traced_bytes(lambda: reference_tokenize(text))
    assert kept <= ref_kept and peak <= ref_peak, (kept, ref_kept, peak, ref_peak)


# -- golden identity: the parser -----------------------------------------------

# Every diagnostic parse_source gives on the lexer corpus, and the emitted
# text of each design that parses; the error paths are most of it.
PARSER_GOLDEN_SHA256 = "d523f75c9d5fdbaf748f6969d2527ffdf6c3697d88c014431fd07478e97ef453"


def test_parser_golden_identity():
    digest = hashlib.sha256()
    for text in _lexer_corpus():
        result = parse_source(SourceText(text))
        for d in result.diagnostics:
            digest.update(repr((d.code, d.message, d.span.start, d.span.end)).encode())
        if result.ok:
            digest.update(emit_verilog(result.ast).content.encode())
        digest.update(b"|")
    assert digest.hexdigest() == PARSER_GOLDEN_SHA256


@pytest.mark.parametrize("path", sorted(DESIGNS.glob("*.v")) + sorted(FIXTURES.glob("*.v")),
                         ids=lambda p: p.name)
def test_parsing_builds_no_tokens(path, monkeypatch):
    # the parser walks the lexer's parallel lists; Lexed.tokens and the
    # columns it reads are for callers
    src = SourceText.from_file(path)
    parsed = parse_source(src)
    report = run_all_checks(src, config=RuleConfig(fif=True)).to_json()

    def refuse(self):
        raise AssertionError("Lexed.tokens or Lexed.cols built")

    monkeypatch.setattr(Lexed, "tokens", property(refuse))
    monkeypatch.setattr(Lexed, "cols", property(refuse))
    again = parse_source(src)
    assert (again.ast, again.diagnostics) == (parsed.ast, parsed.diagnostics)
    assert run_all_checks(src, config=RuleConfig(fif=True)).to_json() == report


# -- parse ---------------------------------------------------------------------

def test_parse_vending_machine():
    ast = design_ast("vending")
    assert ast.module_name == "fsm_module"
    assert ast.param_names == ["IDLE", "ACCEPTING_COINS", "PRODUCT_SELECTED",
                               "DISPENSING_ITEM"]
    assert ast.seq.reset_target == "IDLE"
    assert ast.state_width == 3
    assert ast.comb.default_arm is not None


def test_parse_conflicting_net_kinds(moore_conflict):
    result = parse_source(moore_conflict)
    assert result.ast is None
    assert any(d.code == "E_PORT_KIND" and "state_out" in d.message
               for d in result.errors)


@pytest.mark.parametrize("header", [
    "module m (input clk, output wire reg [1:0] x);",
    "module m (clk, x);\ninput clk;\noutput wire reg [1:0] x;",
])
def test_port_kind_conflict_names_the_port(header):
    result = parse_source(SourceText(header + "\nendmodule\n"))
    assert [d.message for d in result.errors if d.code == "E_PORT_KIND"] == [
        "conflicting net kinds for x"]


def test_repeated_ansi_port_is_an_error_at_the_repeat():
    text = design_source("vending").content.replace(
        "    input coin,\n", "    input coin,\n    output reg coin,\n", 1)
    result = parse_source(SourceText(text))
    assert result.ast is None
    assert [(d.code, d.message, d.span.start) for d in result.errors] == [
        ("E_DUP_PORT", "port coin declared twice", 5)]


def test_repeated_port_name_in_a_name_list_header_is_an_error():
    body = design_source("vending").content.split(");\n", 1)[1]
    text = ("module fsm_module (clk, reset, coin, coin, productSelected, dispenseItem);\n"
            "input clk, reset, coin, productSelected;\noutput reg dispenseItem;\n" + body)
    result = parse_source(SourceText(text))
    assert result.ast is None
    assert [(d.code, d.message, d.span.start) for d in result.errors] == [
        ("E_DUP_PORT", "port coin listed twice", 1)]
    assert parse_source(SourceText(text.replace("coin, coin,", "coin,", 1))).ast is not None


def test_parse_empty_module_body():
    result = parse_source(SourceText("module m;\nendmodule\n"))
    assert result.ast is None
    assert any("no state machine found" in d.message for d in result.errors)


def test_parse_unsized_state_literal():
    text = """module m (input clk, input rst);
parameter A = 0;
reg s; reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert any(d.code == "E_ENCODING" for d in result.errors)


@pytest.mark.parametrize("literals, codes", [
    ("A = 2'b_, B = 2'b1_", ["E_ENCODING"]),
    ("A = 2'b_1, B = 2'b1_", ["E_ENCODING"]),
    ("A = 2'b0_0, B = 2'b1_", []),
])
def test_parse_state_literal_leading_underscore(literals, codes):
    """Verilog allows "_" between the digits of a literal but not as the first."""
    text = f"""module m (input clk, input rst);
parameter {literals};
reg [1:0] s; reg [1:0] n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert [d.code for d in result.errors] == codes
    if not codes:
        assert result.ast.encodings == {"A": 0, "B": 1}


def test_parse_zero_width_state_literal():
    # with no declared state registers nothing else checks the width, and
    # every code of a zero-width register would read as 0
    text = """module m (input clk, input rst);
parameter A = 0'b0, B = 0'b1;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert result.ast is None
    assert [d.code for d in result.errors] == ["E_ENCODING", "E_ENCODING"]


@pytest.mark.parametrize("width, wider", [
    ("65536", False), ("000065536", False), ("65537", True),
    ("99999999999999999999", True), ("9" * 5000, True),
])
def test_parse_state_literal_wider_than_the_width_cap(width, wider):
    """IEEE 1364-2005 3.5.1 lets a tool cap a literal's width at 65 536
    bits; a wider state literal is E_ENCODING, decided from its digits."""
    text = f"""module m (input clk, input rst);
parameter A = {width}'b1;
reg s; reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert result.ast is None
    messages = [d.message for d in result.errors if d.code == "E_ENCODING"]
    assert messages == (["state encoding for A is wider than 65536 bits"] if wider else [])


def test_parse_rejected_only_parameter_reports_no_missing_parameters():
    # the parameter was declared, so "no state parameters declared" would
    # name a different fault than the rejected literal
    text = """module m (input clk, input rst);
parameter A = 99999999999999999999'b1;
reg s; reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert [d.code for d in result.errors] == ["E_ENCODING"]


@pytest.mark.parametrize("bound, codes, width", [
    ("65535", [], 65536),
    ("0065535", [], 65536),
    ("65536", ["E_RANGE"], None),
    ("99999999999999999999", ["E_RANGE"], None),
    ("9" * 5000, ["E_RANGE"], None),
    ("WIDTH", ["E_SYNTAX"], None),
])
def test_parse_port_range_wider_than_the_width_cap(bound, codes, width):
    """IEEE 1364-2005 4.3.1 lets a tool cap a vector's width at 65 536 bits;
    a wider range is E_RANGE, decided from the bound's digits."""
    text = design_source("vending").content.replace(
        "    input coin,", f"    input [{bound}:0] coin,")
    result = parse_source(SourceText(text))
    assert [(d.code, d.span.start) for d in result.errors] == [(c, 4) for c in codes]
    if width is not None:
        assert next(p.width for p in result.ast.ports if p.name == "coin") == width


def test_parse_reg_range_wider_than_the_width_cap():
    text = design_source("vending").content.replace(
        "reg [2:0] current_state;", f"reg [{'9' * 5000}:0] current_state;")
    result = parse_source(SourceText(text))
    assert [d.code for d in result.errors] == ["E_RANGE"]


@pytest.mark.parametrize("cut", ["busy = 1", "busy = (1)"])
def test_parse_missing_semicolon_is_syntax_error(cut):
    # designs/rsa_ctrl.v with the ";" of line 43 removed: the right-hand side
    # must not swallow the next assignment (and with it the LOAD2 -> MULT edge)
    lines = design_source("rsa_ctrl").content.split("\n")
    assert lines[42].strip() == "busy = 1;"
    lines[42] = lines[42].replace("busy = 1;", cut)
    result = parse_source(SourceText("\n".join(lines)))
    assert result.ast is None
    assert any(d.code == "E_SYNTAX" and d.message == "missing semicolon after assignment"
               and d.span.start == 43 for d in result.errors)


def test_parse_abort_adds_no_cascade_diagnostics():
    # the missing-";" mutant aborts inside the comb block; the half-read
    # module must not also be reported as missing its case statement
    lines = design_source("rsa_ctrl").content.split("\n")
    lines[42] = lines[42].replace("busy = 1;", "busy = 1")
    result = parse_source(SourceText("\n".join(lines)))
    assert [(d.code, d.span.start) for d in result.errors] == [("E_SYNTAX", 43)]


def test_parse_two_sequential_blocks():
    text = """module m (input clk, input rst);
parameter A = 1'b0;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert any(d.code == "E_MULTI_SEQ" for d in result.errors)


def test_parse_rejects_systemverilog_keywords():
    result = parse_source(SourceText("module m;\nalways_comb begin end\nendmodule"))
    assert any(d.code == "E_SV" and "always_comb" in d.message for d in result.errors)


def test_parse_rejects_casex():
    result = parse_source(SourceText("module m;\ncasex (s)\nendcase\nendmodule"))
    assert any(d.code == "E_SV" for d in result.errors)


def test_parse_case_arm_on_undeclared_label():
    text = """module m (input clk, input rst);
parameter A = 1'b0;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = A; GHOST: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert any(d.code == "E_ARM_LABEL" and "GHOST" in d.message for d in result.errors)


def test_parse_undeclared_identifier_in_guard():
    text = design_source("vending").content.replace("if (coin)", "if (cion)")
    result = parse_source(SourceText(text))
    assert result.ast is None
    (err,) = result.errors
    assert err.code == "E_UNDECLARED" and "cion" in err.message
    assert err.span.start == text.splitlines().index("            if (cion) begin") + 1


def test_parse_undeclared_identifier_in_assignment():
    text = """module m (input clk, input rst, output reg y);
parameter A = 1'b0;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin y = 0; case (s) A: begin y = ghost & 1'b1; n = A; end endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert [(d.code, d.span.start) for d in result.errors] == [("E_UNDECLARED", 6)]
    assert "ghost" in result.errors[0].message


def test_parse_rejects_reading_a_register_outside_the_state_pair():
    """Only the state pair is a register the subset drives, and the emitter
    declares no other; reading another one would not survive a round trip."""
    text = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
reg go;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: if (go) n = B; else n = A; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert [(d.code, d.span.start) for d in result.errors] == [("E_UNDECLARED", 8)]
    assert "go is not a port, state register or state" in result.errors[0].message


def test_parse_statement_diagnostics_follow_the_arms_then_the_leading_defaults():
    """Within an arm, a branch's guard comes before its body, and an
    assignment's undeclared names before its target's error; the default arm
    follows the labelled arms wherever it stands, and the leading defaults
    come last."""
    text = """module m (input clk, input rst, input a, output reg y);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin
    w = ghost3;
    n = A;
    case (s)
        A: begin
            if (ghost1 && a) begin
                if (a) n = NOPE;
                else q = 1;
            end else
                n = B;
        end
        default: n = ghost4;
        B: begin
            y = ghost2 | ghost1 | ghost2;
            if (a) begin
                if (ghost5) n = ghost6;
            end
        end
    endcase
end
endmodule
"""
    result = parse_source(SourceText(text))
    assert result.ast is None
    undeclared = "{} is not a port, state register or state".format
    target = "next-state assigned to undeclared state {}".format
    assert [(d.code, d.message, d.span.start) for d in result.diagnostics] == [
        ("E_UNDECLARED", undeclared("ghost1"), 12),
        ("E_UNDECLARED", undeclared("NOPE"), 13),
        ("E_NEXT_TARGET", target("NOPE"), 13),
        ("E_LHS", "assignment to q, which is not next-state or an output", 14),
        ("E_UNDECLARED", undeclared("ghost2"), 20),
        ("E_UNDECLARED", undeclared("ghost1"), 20),
        ("E_UNDECLARED", undeclared("ghost5"), 22),
        ("E_UNDECLARED", undeclared("ghost6"), 22),
        ("E_NEXT_TARGET", target("ghost6"), 22),
        ("E_UNDECLARED", undeclared("ghost4"), 18),
        ("E_NEXT_TARGET", target("ghost4"), 18),
        ("E_UNDECLARED", undeclared("ghost3"), 8),
        ("E_LHS", "assignment to w, which is not next-state or an output", 8),
    ]


@pytest.mark.parametrize("port, ok", [
    ("input [0:0] n", False), ("output [0:0] n", False), ("output reg [0:0] n", True),
])
def test_parse_state_register_port_must_be_an_output_reg(port, ok):
    text = f"""module m (input clk, input rst, {port});
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    if ok:
        assert result.ok
        assert parse_source(emit_verilog(result.ast)).ast == result.ast
    else:
        assert [(d.code, d.span.start) for d in result.errors] == [("E_STATE_PORT", 5)]


def test_emit_does_not_redeclare_a_state_register_port():
    text = """module m (input clk, input rst, output reg [1:0] n);
parameter A = 2'b00;
parameter B = 2'b01;
reg [1:0] s;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    emitted = emit_verilog(ast).content
    assert "reg [1:0] s;" in emitted.splitlines()
    assert "reg [1:0] n;" not in emitted.splitlines()
    assert parse_source(SourceText(emitted)).ast == ast


@pytest.mark.parametrize("port, reg, name, width", [
    ("output reg n", "reg [1:0] s;", "n", 1),
    ("output reg [2:0] n", "reg [1:0] s;", "n", 3),
    ("output reg [2:0] s", "reg [1:0] n;", "s", 3),
])
def test_parse_state_register_port_width_must_match_encoding(port, reg, name, width):
    text = f"""module m (input clk, input rst, {port});
parameter A = 2'b00;
parameter B = 2'b01;
{reg}
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert [(d.code, d.span.start) for d in result.errors] == [("E_REG_WIDTH", 5)]
    assert f"register {name} width {width} does not match encoding width 2" in result.errors[0].message


def test_sized_literals_read_no_signal():
    text = """module m (input clk, input rst, input [1:0] x, output reg y);
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(s or x) begin y = 1'b0; case (s) A: if (x == 2'b01) n = B; else n = A; B: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    guard = ast.arm_for("A").body[0].branches[0].guard
    assert expr_identifiers(guard) == ["x"]
    assert not any(w.code == INCOMPLETE_SENSITIVITY for w in lint(ast))


def test_parse_localparam_normalized():
    text = """module m (input clk, input rst);
localparam A = 1'b0, B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    ast = result.expect_ast()
    assert ast.param_names == ["A", "B"]
    assert any(w.code == LOCALPARAM_NORMALIZED for w in lint(ast))


def test_parse_collects_protected_annotations():
    text = """module m (input clk, input rst);
// @protected B
parameter A = 1'b0;
parameter B = 1'b1;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    ast = parse_source(SourceText(text)).expect_ast()
    assert ast.protected_annotations == frozenset({"B"})


def test_parse_mixed_width_encodings_rejected():
    text = """module m (input clk, input rst);
parameter A = 1'b0;
parameter B = 2'b01;
reg s;
reg n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(*) begin case (s) A: n = B; B: n = A; endcase end
endmodule"""
    result = parse_source(SourceText(text))
    assert any(d.code == "E_WIDTH_MIX" for d in result.errors)


def test_diagnostic_spans_inside_source(moore_conflict):
    result = parse_source(moore_conflict)
    line_count = max(1, len(moore_conflict.content.splitlines()))
    for d in result.diagnostics:
        assert 1 <= d.span.start <= d.span.end <= line_count


# -- lint ----------------------------------------------------------------------

def test_lint_latch_inference_on_sbit(fsm_review):
    warns = lint(parse_source(fsm_review).expect_ast())
    latch = [w for w in warns if w.code == LATCH_INFERENCE]
    assert len(latch) == 1
    assert "sbit" in latch[0].message and "s3" in latch[0].message


def test_lint_complete_sensitivity_list_is_quiet(aes_ctrl):
    warns = lint(parse_source(aes_ctrl).expect_ast())
    assert not any(w.code == INCOMPLETE_SENSITIVITY for w in warns)


def test_lint_incomplete_sensitivity(vending_deadlock):
    warns = lint(parse_source(vending_deadlock).expect_ast())
    (w,) = [w for w in warns if w.code == INCOMPLETE_SENSITIVITY]
    assert "coin" in w.message and "productSelected" in w.message


def test_lint_reads_nested_branches_and_spares_leading_defaults():
    """Latch and sensitivity lint see assignments and guards at every depth;
    a signal with a leading default (x) is never a latch."""
    text = """module m (input clk, input rst, input a, input b, input c, input d,
          output reg x, output reg y, output reg z);
parameter A = 2'b00;
parameter B = 2'b01;
parameter C = 2'b10;
reg [1:0] s;
reg [1:0] n;
always @(posedge clk) begin if (rst) s <= A; else s <= n; end
always @(s or a) begin
    x = 0;
    case (s)
        A: begin
            if (a) begin
                if (b) begin y = 1; n = B; end
                else z = d;
            end else if (c) n = C;
            else begin y = 0; n = A; end
        end
        B: begin
            x = 1;
            y = a;
            if (c) n = A;
            else n = B;
        end
        C: n = A;
        default: n = A;
    endcase
end
endmodule
"""
    warns = lint(parse_source(SourceText(text)).expect_ast())
    assert [(w.code, w.message, w.span.start, w.span.end) for w in warns] == [
        (INCOMPLETE_SENSITIVITY, "sensitivity list misses read signal(s): b, c, d", 9, 28),
        (LATCH_INFERENCE, "z is not assigned in arm(s) B, C, default; this might cause "
         "latch inference", 19, 24),
        (LATCH_INFERENCE, "y is not assigned in arm(s) C, default; this might cause "
         "latch inference", 25, 25),
    ]


def test_lint_semicolon_after_end(fsm_review):
    warns = lint(parse_source(fsm_review).expect_ast())
    assert any(w.code == SEMICOLON_AFTER_END for w in warns)


def test_lint_is_warning_only(fsm_review):
    warns = lint(parse_source(fsm_review).expect_ast())
    assert all(not w.is_error for w in warns)


# -- emit ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["vending", "vending_deadlock", "aes_ctrl",
                                  "aes_ctrl_default", "fsm_review", "rsa_ctrl"])
def test_roundtrip_parse_emit_parse(name):
    ast = design_ast(name)
    emitted = emit_verilog(ast)
    again = parse_source(emitted).expect_ast()
    assert again == ast


def test_emit_single_default_label(vending):
    text = emit_verilog(parse_source(vending).expect_ast()).content
    assert text.count("default:") == 1


def test_emit_is_stable(vending):
    ast = parse_source(vending).expect_ast()
    assert emit_verilog(ast).content == emit_verilog(ast).content


# -- property: random FSMs round-trip -------------------------------------------

_name = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def fsm_texts(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=min(4, 2 ** width)))
    names = [f"S{i}" for i in range(count)]
    codes = draw(st.permutations(range(2 ** width)))
    inputs = draw(st.lists(st.sampled_from(["go", "stop", "sel"]),
                           unique=True, min_size=0, max_size=2))
    lines = ["module m ("]
    ports = ["    input clk,", "    input rst"]
    for i in inputs:
        ports.insert(1, f"    input {i},")
    lines += ports + [");", ""]
    for name, code in zip(names, codes):
        lines.append(f"parameter {name} = {width}'b{format(code, f'0{width}b')};")
    rng_decl = f"[{width - 1}:0] " if width > 1 else ""
    lines += [f"reg {rng_decl}cs;", f"reg {rng_decl}ns;",
              "always @(posedge clk or posedge rst) begin",
              f"    if (rst) begin", f"        cs <= {names[0]};",
              "    end else begin", "        cs <= ns;", "    end", "end",
              "always @(*) begin", "    case (cs)"]
    for name in names:
        target = draw(st.sampled_from(names))
        if inputs and draw(st.booleans()):
            guard = draw(st.sampled_from(inputs))
            other = draw(st.sampled_from(names))
            lines += [f"        {name}: begin",
                      f"            if ({guard}) begin",
                      f"                ns = {target};",
                      "            end else begin",
                      f"                ns = {other};",
                      "            end",
                      "        end"]
        else:
            lines += [f"        {name}: begin", f"            ns = {target};",
                      "        end"]
    if draw(st.booleans()):
        lines += [f"        default: begin", f"            ns = {names[0]};",
                  "        end"]
    lines += ["    endcase", "end", "endmodule"]
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(fsm_texts())
def test_roundtrip_random_designs(text):
    first = parse_source(SourceText(text)).expect_ast()
    second = parse_source(emit_verilog(first)).expect_ast()
    assert second == first


# -- renaming -------------------------------------------------------------------

_EVERY_NAME_FIELD = """module m (input clk, input rst, input go, output reg done, output reg [1:0] s);
// @protected B
parameter A = 2'b00, B = 2'b01, C = 2'b10;
reg [1:0] n;
always @(posedge clk or posedge rst) begin if (rst == 1'b1) s <= A; else s <= n; end
always @(s or go or done) begin
    done = 0;
    case (s)
        A: if (go && !done) n = B; else if (go) begin n = C; done = 1; end else n = A;
        B: n = C;
        C: n = A;
        default: n = A;
    endcase
end
endmodule"""


@pytest.mark.parametrize("name", ["every_name_field", "vending", "aes_ctrl", "rsa_ctrl"])
def test_renamed_leaves_no_old_name(name):
    """Renaming every declared name leaves none of them in the emitted
    design, and the result parses back to itself."""
    src = SourceText(_EVERY_NAME_FIELD) if name == "every_name_field" else design_source(name)
    ast = replace(parse_source(src).expect_ast(), comments=())
    there = ast.renamed({n: f"renamed_{n}" for n in ast.names})
    emitted = emit_verilog(there)
    assert not set(IDENT_RE.findall(emitted.content)) & ast.names
    assert parse_source(emitted).ast == there


# -- parser fuzzing -------------------------------------------------------------

_SHIPPED = sorted(DESIGNS.glob("*.v"))


def _pieces(text: str) -> tuple[list[str], list[str]]:
    """The text split into its tokens and the gaps around them, so that
    text == gaps[0] + toks[0] + gaps[1] + ... + toks[-1] + gaps[-1]."""
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    toks, gaps, at = [], [], 0
    for tok in tokenize(SourceText(text)).tokens[:-1]:
        begin = starts[tok.line - 1] + tok.col - 1
        gaps.append(text[at:begin])
        toks.append(tok.text)
        at = begin + len(tok.text)
    gaps.append(text[at:])
    return toks, gaps


_MUTATION = st.tuples(st.sampled_from(("drop", "dup", "swap", "replace")),
                      st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                      st.sampled_from((";", "=", "end", "(")))


@st.composite
def mutated_designs(draw):
    """A shipped design with one to three token-level edits: drop,
    duplicate or swap a token, or replace it with ``;``, ``=``, ``end`` or
    ``(``.  Comments and layout between the tokens are kept."""
    text = _SHIPPED[draw(st.integers(0, len(_SHIPPED) - 1))].read_text(encoding="utf-8")
    toks, gaps = _pieces(text)
    for op, i, j, word in draw(st.lists(_MUTATION, min_size=1, max_size=3)):
        i, j = i % len(toks), j % len(toks)
        if op == "drop":
            toks[i] = ""
        elif op == "dup":
            toks[i] = f"{toks[i]} {toks[i]}"
        elif op == "swap":
            toks[i], toks[j] = toks[j], toks[i]
        else:
            toks[i] = word
    states = [toks[k + 1] for k, t in enumerate(toks[:-1]) if t == "parameter"]
    protected = draw(st.sampled_from(states)) if states else "S0"
    return "".join(g + t for g, t in zip(gaps, toks + [""])) or ";", protected


@settings(max_examples=250, deadline=None)
@given(mutated_designs())
def test_mutated_designs_never_crash_and_round_trip(case):
    text, protected = case
    src = SourceText(text)
    result = parse_source(src)
    run_all_checks(src, frozenset({protected}), RuleConfig(fif=True))
    if result.ok:
        ast = result.ast
        text = emit_verilog(ast).content
        assert parse_source(SourceText(text)).ast == ast
        # a rename maps every name-bearing field and leaves its input alone
        assert ast.renamed({}) == ast
        forward = {n: f"renamed_{i}" for i, n in enumerate(sorted(ast.names))}
        there = ast.renamed(forward)
        assert there.names == set(forward.values())
        assert parse_source(emit_verilog(there)).ast == there
        assert there.renamed({v: k for k, v in forward.items()}) == ast
        assert emit_verilog(ast).content == text
