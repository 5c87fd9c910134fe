"""Differential and round-trip tests of the GLSL front end.

1. **Lexer oracle** — the one-regex lexer gives the same tokens (kind,
   text, line, col) as ``reference_tokenize`` in tests/helpers.py, a
   per-character scan, on every default, synth and wild source,
   the variant texts of a sample of cases, the raw wild files with their
   comments, and hypothesis strings over a GLSL-ish alphabet.  Where one
   raises, the other raises the same ``LexerError`` at the same place.
2. **Round trip** — ``print_shader(parse_shader(...))`` is a fixpoint after
   one round, over the same corpus and variant texts; nested prefix
   operators print as text that parses back to the same AST.
3. **Error table** — one malformed snippet per ``ParseError`` site of the
   statement and expression parsers, each with its exact message.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.errors import LexerError, ParseError
from repro.glsl import ast, parse_shader, preprocess, print_shader, tokenize
from repro.glsl import types as T
from repro.glsl.printer import print_expr
from repro.glsl.tokens import MULTI_CHAR_OPS, SINGLE_CHAR_OPS
from helpers import ast_shape, reference_tokenize

WILD_DIR = Path(__file__).resolve().parents[1] / "examples" / "wild"

_CASES = default_corpus(synth_seed=2018, synth_count=20,
                        import_dir=str(WILD_DIR))
_VARIANT_TEXTS = [text for case in _CASES[::10]
                  for text in ShaderCompiler(case.source).all_variants().by_text]
#: Preprocessed corpus sources, then the variant texts.
_TEXTS = ([preprocess(case.source).text for case in _CASES]
          + [preprocess(text).text for text in _VARIANT_TEXTS])


def _lex(lexer, source):
    """The token tuples of *source*, or the error's message and place."""
    try:
        return [tuple(tok) for tok in lexer(source)]
    except LexerError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _blank_directives(source):
    """*source* with every directive line emptied: comments, tabs and
    ``\\r`` stay for the lexer to skip."""
    return "\n".join("" if line.lstrip().startswith("#") else line
                     for line in source.split("\n"))


# ---------------------------------------------------------------------------
# Lexer oracle
# ---------------------------------------------------------------------------


def test_corpus_spans_every_source_kind():
    families = {case.family for case in _CASES}
    assert "imported" in families
    assert sum(family.startswith("synth_") for family in families) == 20
    assert len(_CASES) == 111 and len(_VARIANT_TEXTS) > len(_CASES[::10])


def test_lexer_matches_reference_on_corpus_and_variants():
    for text in _TEXTS:
        assert _lex(tokenize, text) == _lex(reference_tokenize, text)


def test_lexer_matches_reference_on_raw_wild_files():
    paths = sorted(WILD_DIR.glob("*.frag"))
    assert len(paths) == 6
    for path in paths:
        source = _blank_directives(path.read_text())
        assert _lex(tokenize, source) == _lex(reference_tokenize, source)


_ALPHABET = sorted(
    {"0x", "0X", "1e", "2E", ".5", "5u", "1.f", "1.", "07", "a", "_b",
     "vec3", "true", "if", "//", "/*", "*/", "#", " ", "\t", "\r", "\n",
     "é", "٣", "@", "$", "\\"}
    | set("0159eEfFuUxX") | set(MULTI_CHAR_OPS) | SINGLE_CHAR_OPS)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=16).map("".join))
def test_lexer_matches_reference_on_fuzzed_text(source):
    assert _lex(tokenize, source) == _lex(reference_tokenize, source)


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"(?:[0-9]{0,2}\.?[0-9]{0,2}(?:[eE][+-]?[0-9]?)?"
                     r"|0[xX][0-9a-fA-F]{0,2})[fFuUxX.]?", fullmatch=True))
def test_lexer_matches_reference_on_fuzzed_literals(source):
    assert _lex(tokenize, source) == _lex(reference_tokenize, source)


@pytest.mark.parametrize("source", [
    "", "a // trailing", "a /* x */ // y", "/* // */ b", "a\r\n\tb",
    "x /* one\ntwo */ y", "0x", "0xu", "0x1Fu", "00x1", "1.5.3", "1.5u",
    "1e5u", "1ef", "1e+", "1.e5", ".5e-3f", "5U", "a /* open", "#version 450",
])
def test_lexer_matches_reference_on_edge_cases(source):
    assert _lex(tokenize, source) == _lex(reference_tokenize, source)


# ---------------------------------------------------------------------------
# Print/parse round trip
# ---------------------------------------------------------------------------


def test_print_parse_round_trip_is_a_fixpoint():
    for text in _TEXTS:
        once = print_shader(parse_shader(text))
        assert print_shader(parse_shader(once)) == once


#: Nested prefix operators, as a statement of ``main`` and the text its
#: expression prints as: a ``+`` or ``-`` operand that starts with the
#: operator's own character is parenthesized (``--u`` is a pre-decrement).
_PREFIX_SHAPES = [
    ("color = vec4(- -u);", "vec4(-(-u))"),
    ("color = vec4(-(-u));", "vec4(-(-u))"),
    ("color = vec4(- -f);", "vec4(-(-f))"),
    ("color = vec4(-(--f));", "vec4(-(--f))"),
    ("color = vec4(-(-1.0));", "vec4(-(-1.0))"),
    ("color = vec4(-(-(-u)));", "vec4(-(-(-u)))"),
    ("color = vec4(u - -u);", "vec4(u - -u)"),
    ("color = vec4(float(!!b));", "vec4(float(!!b))"),
]


@pytest.mark.parametrize("statement, printed", _PREFIX_SHAPES,
                         ids=[printed for _, printed in _PREFIX_SHAPES])
def test_nested_prefix_operators_print_and_parse_back(statement, printed):
    source = ("uniform float u;\nout vec4 color;\nvoid main() {\n"
              "    float f = u;\n    bool b = u > 0.0;\n"
              f"    {statement}\n}}\n")
    shader = parse_shader(source)
    text = print_shader(shader)
    assert f"color = {printed};" in text
    assert ast_shape(parse_shader(text)) == ast_shape(shader)


def test_unary_plus_of_unary_plus_prints_apart():
    """The parser drops a unary ``+``, so only a built AST has this shape."""
    u = ast.Ident(ty=T.FLOAT, name="u")
    assert print_expr(ast.Unary(op="+", operand=ast.Unary(op="+", operand=u),
                                ty=T.FLOAT)) == "+(+u)"


# ---------------------------------------------------------------------------
# Parse errors: one snippet per site, with the exact message
# ---------------------------------------------------------------------------

_SQ = "float sq(float x) { return x * x; }"
_STRUCT = "struct S { float a; };"

#: (prelude, body of main, whether main's closing brace is missing, message)
_ERRORS = [
    ("", "float x = 1.0;\n", True,
     "line 2, col 0: unterminated block"),
    ("", "float x = 1.0 }", False,
     "line 3, col 15: expected ';', found '}'"),
    ("", "1.0 = 2.0;", False,
     "line 3, col 5: invalid assignment target"),
    ("", "do { } while (1);", False,
     "line 3, col 0: do/while condition must be bool"),
    ("", "switch (1.0) { }", False,
     "line 3, col 0: switch scrutinee must be an integer"),
    ("", "switch (1) { case 1:", True,
     "line 3, col 0: unterminated switch statement"),
    ("", "switch (1) {\n  case 1: break;\n  case 1: break;\n}", False,
     "line 5, col 3: duplicate case label 1"),
    ("", "switch (1) { default: break; default: break; }", False,
     "line 3, col 30: duplicate default label"),
    ("", "switch (1) { break; }", False,
     "line 3, col 14: statement before first case label in switch"),
    ("", "float a[1.5];", False,
     "line 3, col 9: expected a constant integer expression (integer "
     "literals, const int names, and integer arithmetic)"),
    ("", "vec2 v = vec2(1.0);\nfloat f = v.;", False,
     "line 4, col 13: expected identifier, found ';'"),
    ("", "bool b = !1.0;", False,
     "line 3, col 10: operator ! requires a bool operand"),
    ("", "float f = g;", False,
     "line 3, col 11: undeclared identifier 'g'"),
    ("", "float f = ;", False,
     "line 3, col 11: unexpected token ';' in expression"),
    ("", "float a[2] = float[2](1.0);", False,
     "line 3, col 14: array literal has 1 elements, expected 2"),
    ("", "vec3 v = vec3();", False,
     "line 3, col 10: constructor vec3() requires arguments"),
    ("", "vec4 v = vec4(vec2(1.0), 1.0);", False,
     "line 3, col 10: constructor vec4 needs 4 components, got 3"),
    ("", "float f = h(1.0);", False,
     "line 3, col 11: call to undeclared function 'h'"),
    (_SQ, "float f = sq(1.0, 2.0);", False,
     "line 3, col 11: sq() expects 1 arguments, got 2"),
    ("", "float f = vec3(1.0);", False,
     "line 3, col 0: cannot convert vec3 to float"),
    ("", "float f = true ? 1.0 : vec2(1.0);", False,
     "line 3, col 0: mismatched ternary branches: float vs vec2"),
    ("", "float f = true ? 1.0 ;", False,
     "line 3, col 22: expected ':', found ';'"),
    ("", "bool b = 1.0 && true;", False,
     "line 3, col 0: operator && requires bool operands"),
    ("", "bool b = vec2(1.0) < vec2(2.0);", False,
     "line 3, col 0: operator < requires scalar operands"),
    ("", "float f = 1.0 % 2.0;", False,
     "line 3, col 0: operator % requires int operands"),
    ("", "bool b = true + false;", False,
     "line 3, col 0: arithmetic on bool operands"),
    ("", "vec3 v = vec3(1.0) + vec2(1.0);", False,
     "line 3, col 0: vector size mismatch vec3 + vec2"),
    ("", "mat3 m = mat3(1.0);\nvec2 v = m * vec2(1.0);", False,
     "line 4, col 0: matrix*vector size mismatch"),
    ("", "float f = 1.0;\nfloat g = f[0];", False,
     "line 4, col 12: type float is not indexable"),
    ("", "vec2 v = vec2(1.0);\nfloat f = v.z;", False,
     "line 4, col 12: swizzle 'z' out of range for vec2"),
    (_STRUCT, "S s = S(1.0);\nfloat f = s.b;", False,
     "line 4, col 12: struct S has no field 'b'"),
    ("", "int i = 09;", False,
     "line 3, col 9: invalid octal literal '09'"),
    ("", "float f = " + "(" * 200 + "1.0" + ")" * 200 + ";", False,
     "line 3, col 138: nesting deeper than 128 expressions and statements"),
]


@pytest.mark.parametrize("prelude, body, unterminated, message", _ERRORS,
                         ids=[message.split(": ", 1)[1][:40]
                              for *_, message in _ERRORS])
def test_parse_error_message(prelude, body, unterminated, message):
    source = f"{prelude}\nvoid main() {{\n{body}" + ("" if unterminated else "\n}")
    with pytest.raises(ParseError) as info:
        parse_shader(source)
    assert str(info.value) == message
