"""IR lowering, mem2reg, CFG analyses, verifier, and cloning."""

import pytest

from repro.core import ShaderCompiler
from repro.errors import IRError
from repro.glsl import parse_shader, preprocess
from repro.harness.environment import SAMPLE_FRAGMENTS
from repro.harness.uniforms import (
    default_textures, default_uniform_values, fragment_inputs,
)
from repro.ir import (
    Interpreter, lower_shader, promote_to_ssa, verify_function,
)
from repro.ir.cfg import (
    compute_dominators, compute_postdominators, dominates, find_natural_loops,
    reverse_postorder,
)
from repro.ir.clone import clone_function
from repro.ir.instructions import (
    Br, Construct, ExtractElem, Phi, Ret, Sample, StoreOutput,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant
from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags
from helpers import run_source


def lower(source, ssa=True):
    module = lower_shader(parse_shader(preprocess(source).text))
    if ssa:
        promote_to_ssa(module.function)
    verify_function(module.function)
    return module


def ops(module):
    return [i.opcode for i in module.function.instructions()]


# ---------------------------------------------------------------------------
# Lowering artifacts
# ---------------------------------------------------------------------------


def test_matrix_multiply_scalarized():
    module = lower("""
uniform mat4 m;
out vec4 frag;
void main() { frag = m * vec4(1.0, 2.0, 3.0, 4.0); }
""")
    assert not any(o == "call" for o in ops(module))
    # 4 column loads, 4 splats/muls, 3 adds: well over the 2 source lines.
    assert ops(module).count("bin") >= 7


def test_scalar_vector_multiply_splat_artifact():
    module = lower("""
uniform float f;
out vec4 frag;
void main() { frag = vec4(1.0) * f; }
""")
    constructs = [i for i in module.function.instructions()
                  if isinstance(i, Construct)]
    assert constructs, "scalar should be splatted into a vector (artifact)"


def test_output_initialized_and_stored():
    module = lower("out vec4 frag;\nvoid main() { }")
    stores = [i for i in module.function.instructions()
              if isinstance(i, StoreOutput)]
    assert len(stores) == 1
    assert stores[0].var == "frag"


def test_texture_lowered_to_sample():
    module = lower("""
uniform sampler2D t;
in vec2 uv;
out vec4 frag;
void main() { frag = texture(t, uv); }
""")
    samples = [i for i in module.function.instructions()
               if isinstance(i, Sample)]
    assert len(samples) == 1
    assert samples[0].sampler == "t"
    assert samples[0].sampler_kind == "sampler2D"


def test_const_array_becomes_const_slot():
    module = lower("""
out vec4 frag;
void main() {
    const float w[2] = float[](0.25, 0.75);
    frag = vec4(w[0] + w[1]);
}
""")
    const_slots = [s for s in module.function.slots if s.const_init]
    assert len(const_slots) == 1
    assert [c.value for c in const_slots[0].const_init] == [0.25, 0.75]


def test_function_inlining_no_calls_left():
    module = lower("""
out vec4 frag;
float dbl(float x) { return x * 2.0; }
void main() { frag = vec4(dbl(dbl(1.5))); }
""")
    from repro.ir.instructions import Call
    user_calls = [i for i in module.function.instructions()
                  if isinstance(i, Call) and i.callee == "dbl"]
    assert not user_calls


def test_inlined_early_return():
    module = lower("""
out vec4 frag;
uniform float u;
float pick(float x) {
    if (x > 0.5) { return 1.0; }
    return 0.0;
}
void main() { frag = vec4(pick(u)); }
""")
    verify_function(module.function)


def test_out_parameter_copy_back():
    module = lower("""
out vec4 frag;
void fill(out float r) { r = 7.0; }
void main() { float v = 0.0; fill(v); frag = vec4(v); }
""")
    verify_function(module.function)


def test_unused_function_not_lowered():
    module = lower("""
out vec4 frag;
float unused(float x) { return x + 1.0; }
void main() { frag = vec4(0.0); }
""")
    assert len(list(module.function.instructions())) < 8


def test_discard_is_terminator():
    module = lower("""
out vec4 frag;
in vec2 uv;
void main() {
    if (uv.x > 0.5) { discard; }
    frag = vec4(1.0);
}
""")
    from repro.ir.instructions import Discard
    discards = [i for i in module.function.instructions()
                if isinstance(i, Discard)]
    assert len(discards) == 1
    assert discards[0] is discards[0].block.terminator


_SHADOWED_LOOPS = """
in vec2 uv;
out vec4 frag;
void main() {
    float x = uv.x;
    for (int i = 0; i < 3; i++) {
        for (int INNER = 0; INNER < 2; INNER++) {
            x = x * 1.5 + float(INNER);
        }
        x = x - float(i);
    }
    frag = vec4(x, uv.y, 0.0, 1.0);
}
"""


def _fragment_outputs(source, flags):
    """The scalar interpreter's outputs of *source* at every sample
    fragment."""
    module = ShaderCompiler(source).compile(flags).module
    verify_function(module.function)
    interface = module.interface
    return [Interpreter(module, uniforms=default_uniform_values(interface),
                        inputs=fragment_inputs(interface, position),
                        textures=default_textures(interface)).run()
            for position in SAMPLE_FRAGMENTS]


@pytest.mark.parametrize("flags", [OptimizationFlags.none(),
                                   DEFAULT_LUNARGLASS],
                         ids=["none", "default"])
def test_inner_loop_variable_shadows_the_outer_one(flags):
    """The inner `for` redeclares `i`; the outer loop's step must still
    advance the outer `i`, as with the inner variable renamed."""
    shadowed = _SHADOWED_LOOPS.replace("INNER", "i")
    renamed = _SHADOWED_LOOPS.replace("INNER", "j")
    assert (_fragment_outputs(shadowed, flags)
            == _fragment_outputs(renamed, flags))


def test_declaration_in_a_block_ends_with_the_block():
    source = """
out vec4 frag;
void main() {
    float x = 1.0;
    {
        float x = 5.0;
        x = x + 1.0;
    }
    if (x > 0.0) {
        float x = 7.0;
    }
    frag = vec4(x);
}
"""
    assert run_source(source) == {"frag": (1.0, 1.0, 1.0, 1.0)}


# ---------------------------------------------------------------------------
# mem2reg
# ---------------------------------------------------------------------------


def test_mem2reg_promotes_all_scalar_slots():
    module = lower("""
out vec4 frag;
in vec2 uv;
void main() {
    float a = uv.x;
    if (a > 0.5) { a = a * 2.0; }
    frag = vec4(a);
}
""", ssa=False)
    promoted = promote_to_ssa(module.function)
    assert promoted > 0
    assert all(s.is_array for s in module.function.slots)
    from repro.ir.instructions import LoadVar, StoreVar
    assert not any(isinstance(i, (LoadVar, StoreVar))
                   for i in module.function.instructions())


def test_mem2reg_places_phi_at_merge():
    module = lower("""
out vec4 frag;
in vec2 uv;
void main() {
    float a = 0.0;
    if (uv.x > 0.5) { a = 1.0; } else { a = 2.0; }
    frag = vec4(a);
}
""")
    phis = [i for i in module.function.instructions() if isinstance(i, Phi)]
    assert len(phis) == 1
    assert len(phis[0].incoming) == 2


def test_mem2reg_loop_phi():
    module = lower("""
out vec4 frag;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 4; i++) { acc += 1.0; }
    frag = vec4(acc);
}
""")
    phis = [i for i in module.function.instructions() if isinstance(i, Phi)]
    assert len(phis) == 2  # acc and i


# ---------------------------------------------------------------------------
# CFG analyses
# ---------------------------------------------------------------------------


def _diamond():
    fn = Function("f")
    entry = fn.add_block(BasicBlock("entry"))
    then = fn.add_block(BasicBlock("then"))
    other = fn.add_block(BasicBlock("else"))
    merge = fn.add_block(BasicBlock("merge"))
    from repro.ir.instructions import CondBr
    entry.append(CondBr(Constant.bool_(True), then, other))
    then.append(Br(merge))
    other.append(Br(merge))
    merge.append(Ret())
    return fn, entry, then, other, merge


def test_dominators_of_diamond():
    fn, entry, then, other, merge = _diamond()
    idom = compute_dominators(fn)
    assert idom[entry] is None
    assert idom[then] is entry
    assert idom[other] is entry
    assert idom[merge] is entry
    assert dominates(idom, entry, merge)
    assert not dominates(idom, then, merge)


def test_postdominators_of_diamond():
    fn, entry, then, other, merge = _diamond()
    ipdom = compute_postdominators(fn)
    assert ipdom[entry] is merge
    assert ipdom[then] is merge
    assert ipdom[merge] is None


def test_reverse_postorder_starts_at_entry():
    fn, entry, *_ = _diamond()
    order = reverse_postorder(fn)
    assert order[0] is entry
    assert len(order) == 4


def test_natural_loop_detection():
    module = lower("""
out vec4 frag;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 4; i++) { acc += 1.0; }
    frag = vec4(acc);
}
""")
    loops = find_natural_loops(module.function)
    assert len(loops) == 1
    loop = loops[0]
    assert len(loop.latches) == 1
    assert loop.header in loop.blocks


def test_nested_loops_detected():
    module = lower("""
out vec4 frag;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 2; i++) {
        for (int j = 0; j < 2; j++) { acc += 1.0; }
    }
    frag = vec4(acc);
}
""")
    assert len(find_natural_loops(module.function)) == 2


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


def test_verifier_rejects_missing_terminator():
    fn = Function("f")
    fn.add_block(BasicBlock("entry"))
    with pytest.raises(IRError):
        verify_function(fn)


def test_verifier_rejects_use_before_def():
    fn = Function("f")
    block = fn.add_block(BasicBlock("entry"))
    from repro.ir.instructions import BinOp
    a = BinOp("add", Constant.float_(1.0), Constant.float_(2.0))
    b = BinOp("add", a, Constant.float_(1.0))
    block.append(b)  # b uses a, but a is appended after
    block.append(a)
    block.append(Ret())
    with pytest.raises(IRError):
        verify_function(fn)


def test_verifier_rejects_bad_phi_incoming():
    fn, entry, then, other, merge = _diamond()
    phi = Phi(Constant.float_(0.0).ty)
    phi.add_incoming(then, Constant.float_(1.0))  # missing the else edge
    merge.insert_at_front(phi)
    with pytest.raises(IRError):
        verify_function(fn)


def test_verifier_rejects_type_mismatch():
    fn = Function("f")
    block = fn.add_block(BasicBlock("entry"))
    from repro.ir.instructions import BinOp
    bad = BinOp("add", Constant.float_(1.0), Constant.int_(1))
    block.append(bad)
    block.append(Ret())
    with pytest.raises(IRError):
        verify_function(fn)


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------


def test_clone_function_is_deep_and_verifies():
    module = lower("""
uniform sampler2D t;
in vec2 uv;
out vec4 frag;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 3; i++) {
        if (uv.x > 0.5) { acc += texture(t, uv); }
    }
    frag = acc;
}
""")
    clone = clone_function(module.function)
    verify_function(clone)
    originals = set(map(id, module.function.instructions()))
    for instr in clone.instructions():
        assert id(instr) not in originals
    assert len(clone.blocks) == len(module.function.blocks)
