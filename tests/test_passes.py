"""Per-pass unit tests: each flag pass does its documented rewrite."""

import pytest

from helpers import assert_outputs_close, run_source
from repro.core import ShaderCompiler, compile_shader
from repro.ir import Interpreter, verify_function
from repro.ir.instructions import (
    BinOp, CondBr, Construct, InsertElem, Phi, Sample, Select,
)
from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags


def compiled(source, **flags):
    return compile_shader(source, OptimizationFlags(**flags))


def instrs(c, cls):
    return [i for i in c.module.function.instructions() if isinstance(i, cls)]


# ---------------------------------------------------------------------------
# Canonical always-on passes
# ---------------------------------------------------------------------------


def test_constant_folding_always_on():
    c = compiled("out vec4 f;\nvoid main() { f = vec4(2.0 * 3.0 + 1.0); }")
    assert not instrs(c, BinOp)
    assert "7.0" in c.output


def test_builtin_constant_folding():
    c = compiled("out vec4 f;\nvoid main() { f = vec4(sqrt(16.0)); }")
    assert "4.0" in c.output
    assert "sqrt" not in c.output


def test_local_cse_always_on():
    c = compiled("""
uniform vec4 a;
out vec4 f;
void main() { f = (a * a) + (a * a); }
""")
    muls = [i for i in instrs(c, BinOp) if i.op == "mul"]
    assert len(muls) == 1


def test_dead_code_removed_always():
    c = compiled("""
uniform vec4 a;
out vec4 f;
void main() { vec4 dead = a * 17.0; f = vec4(1.0); }
""")
    assert not instrs(c, BinOp)


def test_int_identities_folded_but_float_kept():
    c = compiled("""
uniform float x;
out vec4 f;
void main() {
    int i = 3 + 0;
    f = vec4(x + 0.0) * float(i);
}
""")
    # float x + 0.0 must SURVIVE the canonical pipeline (it belongs to the
    # reassociation flag passes per the paper).
    adds = [i for i in instrs(c, BinOp) if i.op == "add"]
    assert len(adds) == 1


# ---------------------------------------------------------------------------
# ADCE
# ---------------------------------------------------------------------------


def test_adce_never_changes_output(blur_shader):
    """Paper Section VI-D-1: ADCE in practice never changes the source."""
    sc = ShaderCompiler(blur_shader)
    for base_index in (0, 2, 16, 50):
        base = OptimizationFlags.from_index(base_index)
        with_adce = base.with_flag("adce", True)
        assert sc.compile(base).output == sc.compile(with_adce).output


# ---------------------------------------------------------------------------
# Unroll
# ---------------------------------------------------------------------------


def test_unroll_eliminates_loop():
    c = compiled("""
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 4; i++) { acc += float(i); }
    f = vec4(acc);
}
""", unroll=True)
    assert not instrs(c, Phi)
    assert not instrs(c, CondBr)
    # acc fully constant-folds: 0+1+2+3 = 6
    assert "6.0" in c.output


def test_unroll_preserves_semantics():
    src = """
uniform sampler2D t;
in vec2 uv;
out vec4 f;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 7; i++) { acc += texture(t, uv + vec2(float(i) * 0.01, 0.0)); }
    f = acc / 7.0;
}
"""
    base = run_source(src, inputs={"uv": (0.2, 0.4)})
    opt = run_source(src, OptimizationFlags.single("unroll"),
                     inputs={"uv": (0.2, 0.4)})
    assert_outputs_close(base, opt, tol=1e-9)


def test_unroll_respects_trip_limit():
    c = compiled("""
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 100; i++) { acc += 1.0; }
    f = vec4(acc);
}
""", unroll=True)
    assert instrs(c, Phi)  # 100 > MAX_TRIPS stays a loop


def test_unroll_skips_dynamic_bounds():
    c = compiled("""
uniform int n;
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < n; i++) { acc += 1.0; }
    f = vec4(acc);
}
""", unroll=True)
    assert instrs(c, Phi)


def test_unroll_skips_loops_with_break():
    c = compiled("""
uniform float u;
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 4; i++) {
        if (u > 0.5) { break; }
        acc += 1.0;
    }
    f = vec4(acc);
}
""", unroll=True)
    assert instrs(c, Phi)


def test_unroll_nested_loops():
    src = """
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) { acc += float(i * 3 + j); }
    }
    f = vec4(acc);
}
"""
    c = compiled(src, unroll=True)
    assert not instrs(c, Phi)
    assert "36.0" in c.output  # sum 0..8


def test_unroll_folds_const_array_loads(blur_shader):
    c = compile_shader(blur_shader, OptimizationFlags(unroll=True))
    from repro.ir.instructions import LoadElem
    assert not instrs(c, LoadElem)
    assert len(instrs(c, Sample)) == 9


# ---------------------------------------------------------------------------
# Hoist
# ---------------------------------------------------------------------------


def test_hoist_flattens_diamond_to_select():
    c = compiled("""
uniform float u;
out vec4 f;
void main() {
    float x = 0.0;
    if (u > 0.5) { x = 1.0; } else { x = 2.0; }
    f = vec4(x);
}
""", hoist=True)
    assert not instrs(c, CondBr)
    assert len(instrs(c, Select)) == 1


def test_hoist_flattens_triangle():
    c = compiled("""
uniform float u;
out vec4 f;
void main() {
    float x = 3.0;
    if (u > 0.5) { x = 1.0; }
    f = vec4(x);
}
""", hoist=True)
    assert not instrs(c, CondBr)


def test_hoist_preserves_semantics_both_paths():
    src = """
uniform float u;
out vec4 f;
void main() {
    float x = 0.0;
    if (u > 0.5) { x = u * 3.0; } else { x = u - 5.0; }
    f = vec4(x);
}
"""
    for u in (0.2, 0.9):
        base = run_source(src, uniforms={"u": u})
        opt = run_source(src, OptimizationFlags.single("hoist"),
                         uniforms={"u": u})
        assert_outputs_close(base, opt)


def test_hoist_speculates_texture_fetches():
    c = compiled("""
uniform sampler2D t;
uniform float u;
in vec2 uv;
out vec4 f;
void main() {
    vec4 x = vec4(0.1);
    if (u > 0.5) { x = texture(t, uv); }
    f = x;
}
""", hoist=True)
    assert not instrs(c, CondBr)
    assert len(instrs(c, Sample)) == 1


def test_hoist_leaves_discard_branches_alone():
    c = compiled("""
uniform float u;
out vec4 f;
void main() {
    if (u > 0.5) { discard; }
    f = vec4(1.0);
}
""", hoist=True)
    assert instrs(c, CondBr)  # discard is a side effect: not hoistable


def test_hoist_merges_blocks_into_large_block():
    c = compiled("""
uniform float u;
out vec4 f;
void main() {
    float x = 0.0;
    if (u > 0.5) { x = 1.0; } else { x = 2.0; }
    f = vec4(x);
}
""", hoist=True)
    assert len(c.module.function.blocks) == 1


# ---------------------------------------------------------------------------
# Reassociate (integer + float zero identities)
# ---------------------------------------------------------------------------


def test_reassociate_removes_float_add_zero():
    src = """
uniform float x;
out vec4 f;
void main() { f = vec4(x + 0.0); }
"""
    base = compile_shader(src, OptimizationFlags.none())
    opt = compile_shader(src, OptimizationFlags.single("reassociate"))
    assert len(instrs(opt, BinOp)) < len(instrs(base, BinOp))


def test_reassociate_folds_float_mul_zero():
    c = compiled("""
uniform float x;
out vec4 f;
void main() { f = vec4(x * 0.0 + 1.0); }
""", reassociate=True)
    assert "1.0" in c.output
    assert not instrs(c, BinOp)


def test_reassociate_groups_int_constants():
    src = """
uniform int n;
out vec4 f;
void main() { f = vec4(float((n + 2) + 3)); }
"""
    opt = compile_shader(src, OptimizationFlags.single("reassociate"))
    adds = [i for i in instrs(opt, BinOp) if i.op == "add"]
    assert len(adds) == 1  # n + 5


# ---------------------------------------------------------------------------
# FP Reassociate
# ---------------------------------------------------------------------------


def test_fp_reassociate_factors_common_multiplier():
    src = """
uniform vec4 a;
uniform vec4 b;
uniform vec4 c;
out vec4 f;
void main() { f = a * b + a * c; }
"""
    base = compile_shader(src, OptimizationFlags.none())
    opt = compile_shader(src, OptimizationFlags.single("fp_reassociate"))
    base_muls = [i for i in instrs(base, BinOp) if i.op == "mul"]
    opt_muls = [i for i in instrs(opt, BinOp) if i.op == "mul"]
    assert len(opt_muls) == len(base_muls) - 1


def test_fp_reassociate_collapses_repeated_addends():
    src = """
uniform float a;
out vec4 f;
void main() { f = vec4(a + a + a); }
"""
    opt = compile_shader(src, OptimizationFlags.single("fp_reassociate"))
    # a + a + a -> 3a: one multiply, no adds
    assert not [i for i in instrs(opt, BinOp) if i.op == "add"]
    assert "3.0" in opt.output


def test_fp_reassociate_cancellation():
    src = """
uniform float a;
uniform float b;
out vec4 f;
void main() { f = vec4(a + b - a); }
"""
    opt = compile_shader(src, OptimizationFlags.single("fp_reassociate"))
    assert not instrs(opt, BinOp)  # just b


def test_fp_reassociate_groups_scalars_before_vectorizing():
    src = """
uniform float f1;
uniform float f2;
uniform vec4 v;
out vec4 f;
void main() { f = f1 * (f2 * v); }
"""
    base = compile_shader(src, OptimizationFlags.none())
    opt = compile_shader(src, OptimizationFlags.single("fp_reassociate"))
    base_vec_muls = [i for i in instrs(base, BinOp)
                     if i.op == "mul" and i.ty.is_vector]
    opt_vec_muls = [i for i in instrs(opt, BinOp)
                    if i.op == "mul" and i.ty.is_vector]
    opt_scalar_muls = [i for i in instrs(opt, BinOp)
                       if i.op == "mul" and i.ty.is_scalar]
    assert len(base_vec_muls) == 2
    assert len(opt_vec_muls) == 1
    assert len(opt_scalar_muls) == 1


def test_fp_reassociate_groups_constants():
    src = """
uniform vec4 v;
out vec4 f;
void main() { f = 2.0 * (4.0 * v); }
"""
    opt = compile_shader(src, OptimizationFlags.single("fp_reassociate"))
    assert "8.0" in opt.output
    assert len([i for i in instrs(opt, BinOp) if i.op == "mul"]) == 1


def test_fp_reassociate_removes_mul_one():
    src = """
uniform vec4 v;
out vec4 f;
void main() { f = v * 1.0; }
"""
    opt = compile_shader(src, OptimizationFlags.single("fp_reassociate"))
    assert not instrs(opt, BinOp)


def test_fp_reassociate_semantics_within_tolerance(blur_shader):
    env = {"uniforms": {"ambient": (0.5, 0.5, 0.5, 0.5)},
           "inputs": {"uv": (0.4, 0.6)}}
    base = run_source(blur_shader, OptimizationFlags.none(), **env)
    opt = run_source(blur_shader, OptimizationFlags.single("fp_reassociate"),
                     **env)
    assert_outputs_close(base, opt, tol=1e-4)  # unsafe: small drift allowed


# ---------------------------------------------------------------------------
# Div-to-Mul
# ---------------------------------------------------------------------------


def test_div_to_mul_rewrites_constant_divisor():
    src = """
uniform vec4 v;
out vec4 f;
void main() { f = v / 4.0; }
"""
    opt = compile_shader(src, OptimizationFlags.single("div_to_mul"))
    assert not [i for i in instrs(opt, BinOp) if i.op == "div"]
    assert "0.25" in opt.output


def test_div_to_mul_skips_dynamic_divisor():
    src = """
uniform vec4 v;
uniform float d;
out vec4 f;
void main() { f = v / d; }
"""
    opt = compile_shader(src, OptimizationFlags.single("div_to_mul"))
    assert [i for i in instrs(opt, BinOp) if i.op == "div"]


def test_div_to_mul_skips_zero_component():
    src = """
uniform vec2 v;
out vec4 f;
void main() { f = vec4(v / vec2(2.0, 0.0), 0.0, 1.0); }
"""
    opt = compile_shader(src, OptimizationFlags.single("div_to_mul"))
    assert [i for i in instrs(opt, BinOp) if i.op == "div"]


# ---------------------------------------------------------------------------
# GVN
# ---------------------------------------------------------------------------


def test_gvn_merges_across_blocks():
    # a*a is computed in the entry block AND in a dominated branch block;
    # local CSE cannot see across the blocks, dominator-scoped GVN can.
    src = """
uniform vec4 a;
uniform float u;
out vec4 f;
void main() {
    vec4 y = a * a;
    vec4 x = y;
    if (u > 0.5) { x = a * a + vec4(1.0); }
    f = x + y;
}
"""
    base = compile_shader(src, OptimizationFlags.none())
    opt = compile_shader(src, OptimizationFlags.single("gvn"))
    base_muls = [i for i in instrs(base, BinOp) if i.op == "mul"]
    opt_muls = [i for i in instrs(opt, BinOp) if i.op == "mul"]
    assert len(base_muls) == 2
    assert len(opt_muls) == 1


def test_gvn_respects_commutativity():
    src = """
uniform vec4 a;
uniform vec4 b;
out vec4 f;
void main() { f = (a * b) + (b * a); }
"""
    opt = compile_shader(src, OptimizationFlags.single("gvn"))
    assert len([i for i in instrs(opt, BinOp) if i.op == "mul"]) == 1


#: ``u * 0.0`` and ``u * -0.0`` differ in GLSL (``1.0 / b`` is ``-inf``
#: for ``u > 0``), although ``-0.0 == 0.0`` in Python.
SIGNED_ZEROS = """
uniform float u;
out vec4 color;
void main() {
    float a = u * 0.0;
    float b = u * -0.0;
    color = vec4(a, b, 1.0 / a, 1.0 / b);
}
"""


@pytest.mark.parametrize("flags", [OptimizationFlags.none(),
                                   OptimizationFlags.single("gvn")],
                         ids=str)
def test_cse_and_gvn_keep_signed_zeros_apart(flags):
    c = compile_shader(SIGNED_ZEROS, flags)
    muls = [i for i in instrs(c, BinOp) if i.op == "mul"]
    divs = [i for i in instrs(c, BinOp) if i.op == "div"]
    assert len(muls) == 2 and len(divs) == 2
    assert "* 0.0;" in c.output and "* -0.0;" in c.output


DIVIDE_BY_NEGATIVE_ZERO = """
uniform float u;
out vec4 color;
void main() {
    float b = u * -0.0;
    color = vec4(b, 1.0 / b, 1.0 / -0.0, 1.0);
}
"""


def test_division_by_zero_takes_the_sign_of_the_divisor():
    """``x / ±0.0`` is ±1e30 with the sign of x times the divisor's, as
    GLSL's ±inf is: the constant division folds to -1e+30 under no flag
    and under all eight, and the scalar and batched interpreters agree on
    the run-time ``1.0 / b``."""
    import re

    from repro.ir.interp_batch import BatchedInterpreter

    for flags in (OptimizationFlags.none(), OptimizationFlags.all()):
        output = compile_shader(DIVIDE_BY_NEGATIVE_ZERO, flags).output
        assert "-1e+30, 1.0)" in output, output
        assert re.findall(r"-?1e\+30", output) == re.findall(r"-1e\+30",
                                                               output)
    module = compile_shader(DIVIDE_BY_NEGATIVE_ZERO,
                            OptimizationFlags.none()).module
    uniforms = {"u": 2.0}
    scalar = Interpreter(module, uniforms=uniforms).run()
    batched = BatchedInterpreter(module, uniforms=uniforms,
                                 inputs=[{}, {}]).run()
    assert scalar["color"] == (-0.0, -1e30, -1e30, 1.0)
    assert batched == [scalar, scalar]


def test_constant_keys_tell_signed_zeros_apart():
    from repro.ir.types import IRType
    from repro.ir.values import Constant
    from repro.passes.keys import value_key

    vec2 = IRType("float", 2)
    assert value_key(Constant.float_(0.0)) != value_key(Constant.float_(-0.0))
    assert value_key(Constant(vec2, (1.0, 0.0))) != value_key(
        Constant(vec2, (1.0, -0.0)))
    for constant in (Constant.float_(-0.0), Constant(vec2, (-0.0, 2.0)),
                     Constant.float_(1.5), Constant.int_(0),
                     Constant.bool_(False)):
        twin = Constant(constant.ty, constant.value)
        assert value_key(constant) == value_key(twin), constant


# ---------------------------------------------------------------------------
# Coalesce
# ---------------------------------------------------------------------------


def test_coalesce_merges_insert_chain():
    src = """
uniform float a;
uniform float b;
out vec4 f;
void main() {
    vec4 v = vec4(0.0);
    v.x = a;
    v.y = b;
    v.z = a + b;
    v.w = 1.0;
    f = v;
}
"""
    base = compile_shader(src, OptimizationFlags.none())
    opt = compile_shader(src, OptimizationFlags.single("coalesce"))
    assert instrs(base, InsertElem)
    assert not instrs(opt, InsertElem)
    assert instrs(opt, Construct)


def test_coalesce_preserves_semantics():
    src = """
uniform float a;
out vec4 f;
void main() {
    vec4 v = vec4(0.5);
    v.y = a * 2.0;
    v.w = a;
    f = v;
}
"""
    base = run_source(src, uniforms={"a": 0.3})
    opt = run_source(src, OptimizationFlags.single("coalesce"),
                     uniforms={"a": 0.3})
    assert_outputs_close(base, opt)


# ---------------------------------------------------------------------------
# Pipeline determinism
# ---------------------------------------------------------------------------


def test_compilation_is_deterministic(blur_shader):
    a = compile_shader(blur_shader, DEFAULT_LUNARGLASS).output
    b = compile_shader(blur_shader, DEFAULT_LUNARGLASS).output
    assert a == b


def test_flag_index_roundtrip():
    """``index`` is computed once per instance and kept out of equality,
    hashing and pickles, which see the eight flags alone."""
    import pickle

    from repro.passes import ALL_FLAG_NAMES

    for index in range(256):
        flags = OptimizationFlags.from_index(index)
        fresh = OptimizationFlags(**{name: getattr(flags, name)
                                     for name in ALL_FLAG_NAMES})
        pickled = pickle.dumps(fresh)
        assert flags.index == index and flags.index == index
        assert fresh == flags and hash(fresh) == hash(flags)
        assert fresh.index == index
        assert fresh == flags and hash(fresh) == hash(flags)
        assert pickle.dumps(fresh) == pickled
        restored = pickle.loads(pickled)
        assert restored == flags and hash(restored) == hash(flags)
        assert restored.index == index


def test_default_lunarglass_flags_match_paper():
    assert DEFAULT_LUNARGLASS.enabled() == (
        "adce", "coalesce", "gvn", "reassociate", "unroll", "hoist")
