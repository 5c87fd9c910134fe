"""Preprocessor unit tests."""

import pytest

from repro.errors import PreprocessorError
from repro.glsl.preprocessor import _strip_comments, preprocess


def text(source, defines=None):
    return preprocess(source, defines).text


def test_passthrough():
    assert text("float x;\n") == "float x;\n"


def test_version_extracted():
    result = preprocess("#version 450\nfloat x;\n")
    assert result.version == "450"
    assert "version" not in result.text


def test_object_macro_expansion():
    assert "float x = 3;" in text("#define N 3\nfloat x = N;\n")


def test_macro_word_boundary():
    out = text("#define N 3\nfloat NN = N;\n")
    assert "NN = 3" in out


def test_nested_macro_expansion():
    out = text("#define A B\n#define B 7\nint x = A;\n")
    assert "x = 7" in out


def test_recursive_macro_raises():
    with pytest.raises(PreprocessorError):
        text("#define A A\nint x = A;\n")


def test_function_macro():
    out = text("#define SQ(x) ((x) * (x))\nfloat y = SQ(2.0);\n")
    assert "((2.0) * (2.0))" in out


def test_function_macro_two_args():
    out = text("#define ADD(a, b) (a + b)\nfloat y = ADD(1.0, 2.0);\n")
    assert "(1.0 + 2.0)" in out


def test_function_macro_nested_parens_in_arg():
    out = text("#define ID(x) x\nfloat y = ID(f(1, 2));\n")
    assert "f(1, 2)" in out


def test_function_macro_wrong_arity_raises():
    with pytest.raises(PreprocessorError):
        text("#define ADD(a, b) (a + b)\nfloat y = ADD(1.0);\n")


def test_ifdef_taken_and_skipped():
    src = "#ifdef FOO\nint a;\n#endif\nint b;\n"
    assert "int a;" not in text(src)
    assert "int a;" in text(src, {"FOO": ""})


def test_ifndef():
    src = "#ifndef FOO\nint a;\n#endif\n"
    assert "int a;" in text(src)
    assert "int a;" not in text(src, {"FOO": ""})


def test_else_branch():
    src = "#ifdef FOO\nint a;\n#else\nint b;\n#endif\n"
    assert "int b;" in text(src)
    assert "int a;" in text(src, {"FOO": ""})
    assert "int b;" not in text(src, {"FOO": ""})


def test_if_with_comparison():
    src = "#define N 5\n#if N > 3\nint big;\n#endif\n"
    assert "int big;" in text(src)
    src2 = "#define N 2\n#if N > 3\nint big;\n#endif\n"
    assert "int big;" not in text(src2)


def test_elif_chain():
    src = ("#define N 5\n#if N == 3\nint three;\n#elif N == 5\nint five;\n"
           "#else\nint other;\n#endif\n")
    out = text(src)
    assert "int five;" in out
    assert "int three;" not in out
    assert "int other;" not in out


def test_defined_operator():
    src = "#if defined(FOO) && !defined(BAR)\nint x;\n#endif\n"
    assert "int x;" in text(src, {"FOO": ""})
    assert "int x;" not in text(src, {"FOO": "", "BAR": ""})


def test_nested_conditionals():
    src = ("#ifdef A\n#ifdef B\nint ab;\n#endif\nint a;\n#endif\n")
    out = text(src, {"A": "", "B": ""})
    assert "int ab;" in out and "int a;" in out
    out = text(src, {"A": ""})
    assert "int ab;" not in out and "int a;" in out


def test_undef():
    src = "#define X 1\n#undef X\n#ifdef X\nint a;\n#endif\n"
    assert "int a;" not in text(src)


def test_unterminated_if_raises():
    with pytest.raises(PreprocessorError):
        text("#ifdef FOO\nint a;\n")


def test_else_without_if_raises():
    with pytest.raises(PreprocessorError):
        text("#else\n")


def test_line_continuation_in_define():
    src = "#define LONG 1 + \\\n 2\nint x = LONG;\n"
    assert " ".join(text(src).split()) == "int x = 1 + 2;"


def test_block_comments_removed_before_directives():
    src = "/* #define X 1 */\n#ifdef X\nint a;\n#endif\n"
    assert "int a;" not in text(src)


def test_undefined_identifier_in_if_is_zero():
    assert "int a;" not in text("#if UNDEFINED_THING\nint a;\n#endif\n")


def test_extension_recorded():
    result = preprocess("#extension GL_EXT_foo : enable\n")
    assert result.extensions == ["GL_EXT_foo : enable"]


# ---------------------------------------------------------------------------
# Inactive-region semantics: conditions inside skipped groups must not be
# evaluated (C preprocessor rule) — previously `#if garbage(` inside an
# inactive `#if 0` block raised instead of being skipped.
# ---------------------------------------------------------------------------


def test_inactive_if_condition_not_evaluated():
    src = "#if 0\n#if WEIRD_MACRO(1,\nint a;\n#endif\n#endif\nint b;\n"
    out = text(src)
    assert "int a;" not in out
    assert "int b;" in out


def test_inactive_elif_condition_not_evaluated():
    src = "#if 1\nint a;\n#elif )bad syntax(\nint b;\n#endif\n"
    out = text(src)
    assert "int a;" in out
    assert "int b;" not in out


def test_elif_after_taken_branch_not_evaluated():
    # The first branch was taken, so the #elif condition is dead and must
    # not be evaluated even if it would divide by zero.
    src = "#define N 0\n#if 1\nint a;\n#elif 1 / N\nint b;\n#endif\n"
    out = text(src)
    assert "int a;" in out
    assert "int b;" not in out


def test_nested_inactive_ifdef_garbage_directive_skipped():
    src = "#ifdef NOPE\n#if\n#endif\n#endif\nint x;\n"
    assert "int x;" in text(src)


# ---------------------------------------------------------------------------
# Condition evaluation: hex/octal literals, C integer division, unary ops.
# Previously hex literals were mangled (0x10 -> 00) and division used
# Python float semantics (#if 1/2 was true).
# ---------------------------------------------------------------------------


def test_if_hex_literal():
    assert "int a;" in text("#if 0x10 == 16\nint a;\n#endif\n")


def test_if_hex_literal_with_suffix():
    assert "int a;" in text("#if 0xFFu > 0xFE\nint a;\n#endif\n")


def test_if_octal_literal():
    assert "int a;" in text("#if 010 == 8\nint a;\n#endif\n")


def test_if_integer_division_truncates():
    # 1/2 == 0 in C; Python float division would make this branch live.
    assert "int a;" not in text("#if 1 / 2\nint a;\n#endif\n")


def test_if_division_truncates_toward_zero():
    assert "int a;" in text("#if -7 / 2 == -3\nint a;\n#endif\n")


def test_if_modulo_c_semantics():
    assert "int a;" in text("#if -7 % 2 == -1\nint a;\n#endif\n")


def test_if_unary_not():
    assert "int a;" in text("#if !0\nint a;\n#endif\n")
    assert "int b;" not in text("#if !5\nint b;\n#endif\n")


def test_if_unary_bitwise_not():
    assert "int a;" in text("#if ~0 == -1\nint a;\n#endif\n")


def test_if_unary_minus():
    assert "int a;" in text("#if -(1) < 0\nint a;\n#endif\n")


def test_if_shift_and_bitwise_ops():
    assert "int a;" in text("#if (1 << 4) == 0x10\nint a;\n#endif\n")
    assert "int b;" in text("#if (6 & 3) == 2 && (6 | 3) == 7\nint b;\n#endif\n")


def test_if_short_circuit_guards_division():
    # defined(X) && ... must not evaluate the division when X is undefined.
    src = "#if defined(X) && 10 / X > 1\nint a;\n#endif\nint b;\n"
    out = text(src)
    assert "int a;" not in out
    assert "int b;" in out


def test_if_ternary_condition():
    assert "int a;" in text("#if 1 ? 2 : 0\nint a;\n#endif\n")


def test_if_active_division_by_zero_raises():
    with pytest.raises(PreprocessorError):
        text("#if 1 / 0\nint a;\n#endif\n")


def test_if_float_literal_rejected():
    with pytest.raises(PreprocessorError):
        text("#if 1.5\nint a;\n#endif\n")


# ---------------------------------------------------------------------------
# Comment stripping: accurate positions and preserved newlines.
# Previously "unterminated block comment" carried no line number.
# ---------------------------------------------------------------------------


def test_unterminated_block_comment_reports_line():
    src = "float a;\nfloat b;\n/* never closed\nfloat c;\n"
    with pytest.raises(PreprocessorError) as excinfo:
        text(src)
    assert "line 3" in str(excinfo.value)
    assert excinfo.value.line == 3


def test_block_comment_preserves_newlines():
    # A multi-line comment must not shift following code onto earlier
    # lines, or downstream parse errors would point at the wrong place.
    src = "float a;\n/* one\ntwo */\nfloat b;\n"
    out = text(src)
    assert out.splitlines().index("float b;") == 3


@pytest.mark.parametrize("source, expected", [
    ("a /", "a /"),                     # "/" at end of input
    ("a/b", "a/b"),                     # a lone "/" is kept
    ("x/**/y", "x y"),                  # empty block comment
    ("x/*/ */y", "x y"),                # "/*/" does not close the comment
    ("x/* // \n */y", "x \ny"),         # "//" inside "/* */"
    ("x // /* \ny", "x \ny"),           # "/*" inside "//"
    ("x // end", "x "),                 # "//" comment without a newline
    ("/**//x/**/", " /x "),             # back-to-back comments
    ("a\nb\nc /* d\ne", 3),             # unterminated "/*" opened on line 3
])
def test_strip_comments_edge_cases(source, expected):
    """The comment stripper's output, or (an int) the line its error
    names."""
    if isinstance(expected, int):
        with pytest.raises(PreprocessorError) as excinfo:
            _strip_comments(source)
        assert excinfo.value.line == expected
    else:
        assert _strip_comments(source) == expected


def test_directive_lines_preserved_as_blanks():
    # Directive and inactive lines become empty lines so that lexer/parser
    # diagnostics reference original file line numbers.
    src = "#define N 3\n#if 0\nint dead;\n#endif\nfloat x = N;\n"
    lines = text(src).splitlines()
    assert lines[4] == "float x = 3;"


def test_error_directive_raises_when_active():
    with pytest.raises(PreprocessorError) as excinfo:
        text("#error custom message\n")
    assert "custom message" in str(excinfo.value)


def test_error_directive_skipped_when_inactive():
    assert "int x;" in text("#if 0\n#error nope\n#endif\nint x;\n")
