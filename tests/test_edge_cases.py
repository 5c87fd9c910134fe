"""Edge-case and failure-injection tests across the stack."""

import pytest

from helpers import assert_outputs_close, run_source
from repro.core import ShaderCompiler, compile_shader
from repro.errors import (
    HarnessError, LoweringError, ParseError, ReproError, TypeError_,
)
from repro.glsl import parse_shader, preprocess
from repro.glsl import types as T
from repro.glsl.builtins import resolve_builtin
from repro.gpu.vendors import INTEL
from repro.harness.environment import ShaderExecutionEnvironment
from repro.ir import lower_shader
from repro.passes import OptimizationFlags


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    with pytest.raises(ReproError):
        parse_shader("void main() { &&& }")


def test_lowering_requires_main():
    shader = parse_shader("float helper(float x) { return x; }")
    with pytest.raises(LoweringError):
        lower_shader(shader)


def test_lowering_rejects_assignment_to_uniform():
    shader = parse_shader("uniform float u;\nvoid main() { u = 1.0; }")
    with pytest.raises(LoweringError):
        lower_shader(shader)


def test_lowering_rejects_const_array_store():
    shader = parse_shader("""
void main() {
    const float w[2] = float[](1.0, 2.0);
    w[0] = 3.0;
}
""")
    with pytest.raises(LoweringError):
        lower_shader(shader)


def test_harness_wraps_driver_compile_failure():
    env = ShaderExecutionEnvironment(INTEL)
    with pytest.raises(HarnessError):
        env.run("this is not glsl at all {{{")


def test_builtin_resolution_errors():
    with pytest.raises(TypeError_):
        resolve_builtin("nonexistent", [T.FLOAT])
    with pytest.raises(TypeError_):
        resolve_builtin("texture", [T.FLOAT, T.VEC2])  # not a sampler


# ---------------------------------------------------------------------------
# Numeric edge cases survive optimization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("expr", [
    "1.0 / 0.0",
    "0.0 / 0.0",
    "sqrt(-1.0)",
    "log(0.0)",
    "pow(0.0, 0.0)",
    "inversesqrt(0.0)",
    "normalize(vec3(0.0)).x",
    "mod(1.0, 0.0)",
])
def test_guarded_math_consistent_across_optimization(expr):
    src = f"out vec4 f;\nuniform float u;\nvoid main() {{ f = vec4({expr} + u * 0.0 + u - u); }}"
    base = run_source(src, uniforms={"u": 0.5})
    opt = run_source(src, OptimizationFlags.all(), uniforms={"u": 0.5})
    # Values may be huge sentinels; they must simply agree in magnitude class.
    for a, b in zip(base["f"], opt["f"]):
        if abs(float(a)) > 1e20:
            assert abs(float(b)) > 1e19 or b == a
        else:
            assert abs(float(a) - float(b)) < 1e-3 * max(abs(float(a)), 1.0)


def test_zero_trip_loop():
    out = run_source("""
out vec4 f;
void main() {
    float acc = 5.0;
    for (int i = 0; i < 0; i++) { acc += 1.0; }
    f = vec4(acc);
}
""", OptimizationFlags.single("unroll"))
    assert out["f"][0] == 5.0


def test_single_trip_loop_unrolls():
    c = compile_shader("""
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 1; i++) { acc += 3.0; }
    f = vec4(acc);
}
""", OptimizationFlags.single("unroll"))
    assert "3.0" in c.output
    assert "while" not in c.output


def test_downward_counting_loop_unrolls():
    c = compile_shader("""
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 4; i > 0; i--) { acc += float(i); }
    f = vec4(acc);
}
""", OptimizationFlags.single("unroll"))
    assert "10.0" in c.output


def test_loop_stepping_by_two():
    out = run_source("""
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 10; i += 2) { acc += 1.0; }
    f = vec4(acc);
}
""", OptimizationFlags.single("unroll"))
    assert out["f"][0] == 5.0


def test_deeply_nested_branches():
    src = """
uniform float u;
out vec4 f;
void main() {
    float x = 0.0;
    if (u > 0.2) {
        if (u > 0.4) {
            if (u > 0.6) { x = 3.0; } else { x = 2.0; }
        } else { x = 1.0; }
    }
    f = vec4(x);
}
"""
    for u, expected in ((0.1, 0.0), (0.3, 1.0), (0.5, 2.0), (0.7, 3.0)):
        for flags in (OptimizationFlags.none(), OptimizationFlags.all()):
            out = run_source(src, flags, uniforms={"u": u})
            assert out["f"][0] == expected, (u, flags)


def test_output_read_back_after_write():
    """GLSL allows reading an `out` variable after writing it."""
    out = run_source("""
out vec4 f;
void main() {
    f = vec4(2.0);
    f = f * 3.0;
}
""")
    assert out["f"][0] == 6.0


def test_multiple_outputs():
    out = run_source("""
out vec4 color0;
out vec4 color1;
void main() {
    color0 = vec4(1.0);
    color1 = vec4(2.0);
}
""", OptimizationFlags.all())
    assert out["color0"][0] == 1.0
    assert out["color1"][0] == 2.0


def test_empty_main_compiles_on_all_flags():
    for index in (0, 255):
        c = compile_shader("out vec4 f;\nvoid main() { }",
                           OptimizationFlags.from_index(index))
        assert "void main()" in c.output


def test_shader_compiler_reuse_is_isolated():
    """One ShaderCompiler can compile many flag sets without cross-talk."""
    compiler = ShaderCompiler("""
out vec4 f;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 3; i++) { acc += 1.0; }
    f = vec4(acc);
}
""")
    unrolled = compiler.compile(OptimizationFlags.single("unroll")).output
    plain = compiler.compile(OptimizationFlags.none()).output
    assert "while" not in unrolled
    assert "while" in plain  # the unroll did not leak into the cached module


def test_preprocessor_define_injection_specializes():
    src = """
out vec4 f;
void main() {
#ifdef FAST_PATH
    f = vec4(1.0);
#else
    f = vec4(0.0);
#endif
}
"""
    fast = compile_shader("#define FAST_PATH\n" + src)
    slow = compile_shader(src)
    assert "1.0" in fast.output
    assert "1.0" not in slow.output
