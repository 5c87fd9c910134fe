"""Parser and type-inference unit tests."""

import pytest

from repro.core import ShaderCompiler
from repro.errors import ParseError
from repro.glsl import ast
from repro.glsl import types as T
from repro.glsl.parser import MAX_NESTING, parse_shader, swizzle_indices
from repro.passes import DEFAULT_LUNARGLASS


def parse_main(body: str, prelude: str = "") -> ast.FunctionDef:
    shader = parse_shader(f"{prelude}\nvoid main() {{ {body} }}")
    fn = shader.function("main")
    assert fn is not None
    return fn


def first_stmt(body: str, prelude: str = ""):
    return parse_main(body, prelude).body.body[0]


def test_global_qualifiers():
    shader = parse_shader(
        "uniform vec4 color; in vec2 uv; out vec4 frag;\nvoid main() {}")
    assert [g.qualifier for g in shader.globals] == ["uniform", "in", "out"]
    assert shader.uniforms[0].name == "color"
    assert shader.inputs[0].ty == T.VEC2
    assert shader.outputs[0].name == "frag"


def test_layout_qualifier_skipped():
    shader = parse_shader("layout(location = 0) out vec4 frag;\nvoid main() {}")
    assert shader.outputs[0].name == "frag"


def test_precision_statement_skipped():
    shader = parse_shader("precision highp float;\nvoid main() {}")
    assert shader.globals == []


def test_struct_declaration_parses():
    shader = parse_shader("struct Light { vec3 pos; float power; };\nvoid main() {}")
    assert len(shader.structs) == 1
    struct = shader.structs[0]
    assert struct.name == "Light"
    assert struct.ty.field_names == ("pos", "power")
    assert struct.ty.field_type("pos") == T.VEC3


def test_local_declaration_type():
    stmt = first_stmt("vec3 v = vec3(1.0);")
    assert isinstance(stmt, ast.DeclStmt)
    assert stmt.declarators[0].ty == T.VEC3


def test_int_literal_types():
    stmt = first_stmt("int i = 3;")
    assert stmt.declarators[0].init.ty == T.INT


def test_octal_literal_with_an_8_or_9_is_a_parse_error():
    """A leading 0 makes an integer literal octal, so ``09`` is no number."""
    assert first_stmt("int i = 017;").declarators[0].init.value == 15
    with pytest.raises(ParseError) as info:
        parse_shader("void main() {\n    int i = 09;\n}")
    assert str(info.value) == "line 2, col 13: invalid octal literal '09'"


def test_implicit_int_to_float_coercion():
    stmt = first_stmt("float f = 3;")
    init = stmt.declarators[0].init
    assert init.ty == T.FLOAT
    assert isinstance(init, ast.Call) and init.is_constructor


def test_binary_precedence():
    stmt = first_stmt("float f = 1.0 + 2.0 * 3.0;")
    init = stmt.declarators[0].init
    assert isinstance(init, ast.Binary) and init.op == "+"
    assert isinstance(init.right, ast.Binary) and init.right.op == "*"


def test_comparison_yields_bool():
    stmt = first_stmt("bool b = 1.0 < 2.0;")
    assert stmt.declarators[0].init.ty == T.BOOL


def test_vector_scalar_multiply_type():
    stmt = first_stmt("vec4 v = vec4(1.0) * 2.0;")
    assert stmt.declarators[0].init.ty == T.VEC4


def test_vector_size_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_main("vec3 v = vec3(1.0) + vec2(1.0);")


def test_matrix_vector_multiply_type():
    stmt = first_stmt("vec4 v = m * vec4(1.0);", "uniform mat4 m;")
    assert stmt.declarators[0].init.ty == T.VEC4


def test_vector_matrix_multiply_type():
    stmt = first_stmt("vec3 v = vec3(1.0) * m;", "uniform mat3 m;")
    assert stmt.declarators[0].init.ty == T.VEC3


def test_matrix_matrix_multiply_type():
    stmt = first_stmt("mat3 r = m * m;", "uniform mat3 m;")
    assert stmt.declarators[0].ty == T.MAT3


def test_swizzle_types():
    stmt = first_stmt("vec2 v = w.xy;", "uniform vec4 w;")
    assert stmt.declarators[0].init.ty == T.VEC2
    stmt = first_stmt("float f = w.z;", "uniform vec4 w;")
    assert stmt.declarators[0].init.ty == T.FLOAT


def test_swizzle_out_of_range_rejected():
    with pytest.raises(ParseError):
        parse_main("float f = v.z;", "uniform vec2 v;")


def test_rgba_swizzle_set():
    stmt = first_stmt("vec3 v = w.rgb;", "uniform vec4 w;")
    assert stmt.declarators[0].init.ty == T.VEC3


def test_mixed_swizzle_sets_rejected():
    with pytest.raises(ParseError):
        parse_main("vec2 v = w.xg;", "uniform vec4 w;")


def test_swizzle_indices_helper():
    assert swizzle_indices("xyz") == [0, 1, 2]
    assert swizzle_indices("rbg") == [0, 2, 1]
    assert swizzle_indices("st") == [0, 1]


def test_index_into_vector():
    stmt = first_stmt("float f = v[1];", "uniform vec4 v;")
    assert stmt.declarators[0].init.ty == T.FLOAT


def test_index_into_matrix_gives_column():
    stmt = first_stmt("vec4 c = m[2];", "uniform mat4 m;")
    assert stmt.declarators[0].init.ty == T.VEC4


def test_array_declaration_and_index():
    fn = parse_main("float a[3]; a[0] = 1.0; float x = a[1];")
    decl = fn.body.body[0]
    assert decl.declarators[0].ty == T.Array(T.FLOAT, 3)


def test_array_literal_sizes_unsized_array():
    stmt = first_stmt("const vec2[] offs = vec2[](vec2(0.0), vec2(1.0));")
    assert stmt.declarators[0].ty == T.Array(T.VEC2, 2)


def test_array_literal_size_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_main("const float[3] w = float[3](1.0, 2.0);")


def test_constructor_component_counting():
    stmt = first_stmt("vec4 v = vec4(a, 1.0, 2.0);", "uniform vec2 a;")
    assert stmt.declarators[0].init.ty == T.VEC4


def test_constructor_too_few_components_rejected():
    with pytest.raises(ParseError):
        parse_main("vec4 v = vec4(1.0, 2.0);")


def test_scalar_splat_constructor_allowed():
    stmt = first_stmt("vec4 v = vec4(0.5);")
    assert stmt.declarators[0].init.ty == T.VEC4


def test_builtin_call_type_resolution():
    stmt = first_stmt("vec3 v = normalize(w);", "uniform vec3 w;")
    assert stmt.declarators[0].init.ty == T.VEC3
    stmt = first_stmt("float f = dot(w, w);", "uniform vec3 w;")
    assert stmt.declarators[0].init.ty == T.FLOAT


def test_texture_call_type():
    stmt = first_stmt("vec4 c = texture(t, vec2(0.5));",
                      "uniform sampler2D t;")
    assert stmt.declarators[0].init.ty == T.VEC4


def test_shadow_sampler_returns_float():
    stmt = first_stmt("float c = texture(t, vec3(0.5));",
                      "uniform sampler2DShadow t;")
    assert stmt.declarators[0].init.ty == T.FLOAT


def test_user_function_call():
    shader = parse_shader("""
float half_of(float x) { return x * 0.5; }
void main() { float y = half_of(4.0); }
""")
    assert shader.function("half_of") is not None


def test_call_to_undeclared_function_rejected():
    with pytest.raises(ParseError):
        parse_main("float y = nothere(1.0);")


def test_undeclared_identifier_rejected():
    with pytest.raises(ParseError):
        parse_main("float y = ghost;")


def test_ternary_type_unification():
    stmt = first_stmt("float f = true ? 1.0 : 2;")
    assert stmt.declarators[0].init.ty == T.FLOAT


def test_assignment_statement_forms():
    fn = parse_main("float f = 0.0; f += 1.0; f *= 2.0;")
    assert isinstance(fn.body.body[1], ast.AssignStmt)
    assert fn.body.body[1].op == "+="


def test_if_else_structure():
    stmt = first_stmt("if (true) { } else { }")
    assert isinstance(stmt, ast.IfStmt)
    assert stmt.else_body is not None


def test_if_without_braces():
    stmt = first_stmt("if (true) discard;")
    assert isinstance(stmt, ast.IfStmt)
    assert isinstance(stmt.then_body.body[0], ast.DiscardStmt)


def test_for_loop_structure():
    stmt = first_stmt("for (int i = 0; i < 4; i++) { }")
    assert isinstance(stmt, ast.ForStmt)
    assert isinstance(stmt.init, ast.DeclStmt)
    assert stmt.cond.ty == T.BOOL


def test_while_loop_structure():
    stmt = first_stmt("while (false) { }")
    assert isinstance(stmt, ast.WhileStmt)


def test_do_while_parses():
    stmt = first_stmt("do { } while (true);")
    assert isinstance(stmt, ast.DoWhileStmt)
    assert isinstance(stmt.cond, ast.BoolLit)


def test_logical_ops_require_bool():
    with pytest.raises(ParseError):
        parse_main("bool b = 1.0 && 2.0;")


def test_modulo_requires_int():
    with pytest.raises(ParseError):
        parse_main("float f = 1.0 % 2.0;")


def test_loop_scope_isolated():
    with pytest.raises(ParseError):
        parse_main("for (int i = 0; i < 3; i++) { } int j = i;")


# ---------------------------------------------------------------------------
# Wild-GLSL widening: const-expression array sizes, integer literal bases,
# struct declarations, do/while, and switch (see repro.glsl.normalize for
# how these leave the AST again before lowering).
# ---------------------------------------------------------------------------


def test_const_int_name_as_array_size():
    # Previously `float a[N];` was rejected: sizes required a literal.
    shader = parse_shader(
        "const int N = 4;\nuniform float w[N];\nvoid main() {}")
    assert shader.globals[1].ty == T.Array(T.FLOAT, 4)


def test_const_expression_array_size():
    shader = parse_shader(
        "const int R = 3;\nuniform float w[2 * R + 1];\nvoid main() {}")
    assert shader.globals[1].ty == T.Array(T.FLOAT, 7)


def test_local_const_int_array_size():
    fn = parse_main("const int n = 2; float a[n + n];")
    assert fn.body.body[1].declarators[0].ty == T.Array(T.FLOAT, 4)


def test_const_size_division_truncates_toward_zero():
    shader = parse_shader(
        "const int N = 7;\nuniform float w[N / 2];\nvoid main() {}")
    assert shader.globals[1].ty == T.Array(T.FLOAT, 3)


def test_non_const_array_size_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_main("int n = 4; float a[n];")
    assert "constant integer expression" in str(excinfo.value)


def test_non_const_global_name_in_size_rejected():
    with pytest.raises(ParseError):
        parse_shader("uniform int n;\nuniform float w[n];\nvoid main() {}")


def test_hex_int_literal_value():
    stmt = first_stmt("int x = 0x1F;")
    assert stmt.declarators[0].init.value == 31


def test_octal_int_literal_value():
    stmt = first_stmt("int x = 010;")
    assert stmt.declarators[0].init.value == 8


def test_hex_literal_as_array_size():
    fn = parse_main("float a[0x4];")
    assert fn.body.body[0].declarators[0].ty == T.Array(T.FLOAT, 4)


def test_struct_variable_and_field_access():
    fn = parse_main(
        "Light l = Light(vec3(1.0), 2.0); float p = l.power;",
        prelude="struct Light { vec3 pos; float power; };")
    init = fn.body.body[1].declarators[0].init
    assert isinstance(init, ast.Member)
    assert init.ty == T.FLOAT
    assert isinstance(init.base.ty, T.Struct)


def test_struct_constructor_arity_checked():
    with pytest.raises(ParseError):
        parse_main("Light l = Light(vec3(1.0));",
                   prelude="struct Light { vec3 pos; float power; };")


def test_struct_unknown_field_rejected():
    with pytest.raises(ParseError):
        parse_main("Light l = Light(vec3(1.0), 2.0); float p = l.radius;",
                   prelude="struct Light { vec3 pos; float power; };")


def test_struct_redeclaration_rejected():
    with pytest.raises(ParseError):
        parse_shader("struct A { float x; };\nstruct A { float y; };\n"
                     "void main() {}")


def test_struct_duplicate_field_rejected():
    with pytest.raises(ParseError):
        parse_shader("struct A { float x; float x; };\nvoid main() {}")


def test_struct_trailing_instance_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_shader("struct A { float x; } a;\nvoid main() {}")
    assert "instance" in str(excinfo.value)


def test_nested_struct_field():
    shader = parse_shader(
        "struct Inner { float a; };\n"
        "struct Outer { Inner inner; float b; };\n"
        "void main() { Outer o = Outer(Inner(1.0), 2.0); "
        "float x = o.inner.a; }")
    stmt = shader.function("main").body.body[1]
    assert stmt.declarators[0].init.ty == T.FLOAT


def test_do_while_condition_must_be_bool():
    with pytest.raises(ParseError):
        parse_main("do { } while (1);")


def test_switch_parses_with_fallthrough_groups():
    fn = parse_main(
        "int x = 0; switch (m) { case 0: case 1: x = 1; break; "
        "case 2: x = 2; default: x = 3; break; }",
        prelude="uniform int m;")
    stmt = fn.body.body[1]
    assert isinstance(stmt, ast.SwitchStmt)
    # `case 0: case 1:` merged into one group; default's values is None.
    assert [c.values for c in stmt.cases] == [[0, 1], [2], None]


def test_switch_case_label_const_folded():
    fn = parse_main(
        "const int K = 2; switch (m) { case K + 1: break; }",
        prelude="uniform int m;")
    assert fn.body.body[1].cases[0].values == [3]


def test_switch_duplicate_case_rejected():
    with pytest.raises(ParseError):
        parse_main("switch (m) { case 1: break; case 1: break; }",
                   prelude="uniform int m;")


def test_switch_non_integer_scrutinee_rejected():
    with pytest.raises(ParseError):
        parse_main("switch (f) { case 1: break; }",
                   prelude="uniform float f;")


def test_switch_statement_before_first_label_rejected():
    with pytest.raises(ParseError):
        parse_main("int x; switch (m) { x = 1; case 1: break; }",
                   prelude="uniform int m;")


# ---------------------------------------------------------------------------
# The nesting limit
# ---------------------------------------------------------------------------


def _main(body: str) -> str:
    return ("uniform float u;\nout vec4 f;\nvoid main() {\n"
            f"    float x = u;\n{body}\n    f = vec4(x);\n}}\n")


#: name -> (shader nesting *n* levels deep, the deepest *n* the limit
#: allows, the text on the line of the token one level past it).
_NESTED = {
    # The statement and the constructor's argument, then a level per
    # parenthesis.
    "parentheses": (lambda n: _main(f"    x = float({'(' * n}u{')' * n});"),
                    MAX_NESTING - 3, "x = float("),
    # A level per call, as for parentheses.
    "calls": (lambda n: _main(f"    x = {'sin(' * n}u{')' * n};"),
              MAX_NESTING - 2, "x = sin("),
    # The statement and the right-hand side, then a level per ``+``; the
    # last operand takes one more.
    "sum": (lambda n: _main("    x = " + " + ".join(["u"] * (n + 1)) + ";"),
            MAX_NESTING - 3, "x = u + u"),
    # A level per ``if``; the innermost statement, its right-hand side, the
    # ``*`` and its right operand take four more.
    "if": (lambda n: _main("    if (u > 0.5) {\n" * n + "x = x * 2.0;\n"
                           + "    }\n" * n),
           MAX_NESTING - 4, "x = x * 2.0;"),
}


def _from_deeper_stack(frames: int, fn):
    """Call *fn* from *frames* more stack frames than the caller's."""
    return fn() if frames == 0 else _from_deeper_stack(frames - 1, fn)


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_at_the_limit_compiles_and_one_level_more_is_a_parse_error(
        shape):
    """At the limit, a shader goes through the whole offline pipeline
    under the default flags, even from 100 frames deeper than a test, so
    no later stage overflows first.  One level deeper, the parser rejects
    it with a ``ParseError`` at the line that goes too deep."""
    make, limit, marker = _NESTED[shape]
    compiled = _from_deeper_stack(100, lambda: ShaderCompiler(
        make(limit)).compile(DEFAULT_LUNARGLASS))
    assert "f = " in compiled.output
    deeper = make(limit + 1)
    with pytest.raises(ParseError, match="nesting deeper than") as info:
        parse_shader(deeper)
    assert deeper.splitlines()[info.value.line - 1].lstrip().startswith(
        marker)


def test_nesting_far_past_the_limit_is_a_parse_error_not_an_overflow():
    for source in (_main(f"    x = float({'(' * 5000}u{')' * 5000});"),
                   _main("    x = " + " - " * 5000 + "u;"),
                   _main("    if (u > 0.5)\n" * 5000 + "x = 1.0;")):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_shader(source)
