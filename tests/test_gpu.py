"""GPU model tests: ISA classification, cost model mechanisms, vendor JITs,
timer noise."""

import random

import pytest

from helpers import count_calls
from repro.core import compile_shader
from repro.gpu.cost import GPUSpec, draw_time_ns, estimate_kernel
from repro.gpu.isa import OpClass, classify
from repro.gpu.platform import all_platforms, platform_by_name
from repro.gpu.registers import max_live_scalars
from repro.gpu.timing import TimerModel
from repro.gpu.vendors import AMD, ARM, INTEL, NVIDIA, QUALCOMM
from repro.passes import OptimizationFlags


def build(source, **flags):
    return compile_shader(source, OptimizationFlags(**flags)).module.function


SCALAR_SPEC = GPUSpec(name="s", isa="scalar")
VECTOR_SPEC = GPUSpec(name="v", isa="vector")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_core_ops():
    fn = build("""
uniform sampler2D t;
uniform vec4 c;
in vec2 uv;
out vec4 f;
void main() { f = texture(t, uv) * c + vec4(sin(uv.x)); }
""")
    classes = {classify(i).op_class for i in fn.instructions()}
    assert OpClass.TEXTURE in classes
    assert OpClass.INTERP in classes
    assert OpClass.UNIFORM in classes
    assert OpClass.TRANSCENDENTAL in classes
    assert OpClass.EXPORT in classes


def test_const_array_load_is_uniform_class():
    fn = build("""
uniform int n;
out vec4 f;
void main() {
    const float w[2] = float[](0.3, 0.7);
    f = vec4(w[n]);
}
""")
    from repro.ir.instructions import LoadElem
    loads = [i for i in fn.instructions() if isinstance(i, LoadElem)]
    assert loads and classify(loads[0]).op_class is OpClass.UNIFORM


# ---------------------------------------------------------------------------
# Cost model mechanisms
# ---------------------------------------------------------------------------


def test_scalar_isa_pays_per_lane_vector_isa_per_issue():
    fn = build("""
uniform vec4 a;
uniform vec4 b;
out vec4 f;
void main() { f = a * b + a; }
""")
    scalar_cost = estimate_kernel(fn, SCALAR_SPEC).alu_cycles
    vector_cost = estimate_kernel(fn, VECTOR_SPEC).alu_cycles
    assert scalar_cost > vector_cost * 2


def test_vector_isa_punishes_scalar_grouping():
    """The FP-Reassociate Mali mechanism: grouped scalar chains are cheaper
    on scalar ISAs and more expensive (relatively) on vector ISAs."""
    src = """
uniform float f1;
uniform float f2;
uniform vec4 v;
out vec4 f;
void main() { f = f1 * (f2 * v); }
"""
    base = build(src)
    grouped = build(src, fp_reassociate=True)
    spec_v = GPUSpec(name="v", isa="vector", scalar_op_penalty=2.0)

    scalar_delta = (estimate_kernel(base, SCALAR_SPEC).cycles_per_fragment
                    - estimate_kernel(grouped, SCALAR_SPEC).cycles_per_fragment)
    vector_delta = (estimate_kernel(base, spec_v).cycles_per_fragment
                    - estimate_kernel(grouped, spec_v).cycles_per_fragment)
    assert scalar_delta > 0        # scalar ISA: grouping wins
    assert vector_delta < 0        # vector ISA: grouping loses


def test_register_pressure_reduces_occupancy():
    fn = build("""
uniform sampler2D t;
in vec2 uv;
out vec4 f;
void main() {
    vec4 a = texture(t, uv);
    vec4 b = texture(t, uv * 2.0);
    vec4 c = texture(t, uv * 3.0);
    vec4 d = texture(t, uv * 4.0);
    f = (a + b) * (c + d) + a * b + c * d;
}
""")
    tight = GPUSpec(name="tight", isa="scalar", reg_file=32,
                    warps_full_hiding=8, max_warps=8)
    roomy = GPUSpec(name="roomy", isa="scalar", reg_file=1024,
                    warps_full_hiding=8, max_warps=8)
    assert estimate_kernel(fn, tight).occupancy < estimate_kernel(fn, roomy).occupancy
    assert (estimate_kernel(fn, tight).cycles_per_fragment
            > estimate_kernel(fn, roomy).cycles_per_fragment)


def test_divergent_branch_costs_more_than_uniform():
    uniform_loop = build("""
out vec4 f;
uniform int n;
void main() {
    float acc = 0.0;
    for (int i = 0; i < n; i++) { acc += 1.0; }
    f = vec4(acc);
}
""")
    divergent = build("""
in vec2 uv;
out vec4 f;
void main() {
    float x = 0.0;
    if (uv.x > 0.5) { x = 1.0; }
    f = vec4(x);
}
""")
    spec = GPUSpec(name="s", isa="scalar", branch=1.0, divergent_branch=10.0)
    uniform_branches = estimate_kernel(uniform_loop, spec,
                                       profile=None).branch_cycles
    divergent_branches = estimate_kernel(divergent, spec,
                                         profile=None).branch_cycles
    # One divergent branch costs more than one uniform loop branch.
    assert divergent_branches > 10.0
    assert uniform_branches < divergent_branches * len(uniform_loop.blocks)


def test_icache_penalty_applies_to_huge_shaders():
    fn = build("""
uniform sampler2D t;
in vec2 uv;
out vec4 f;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 16; i++) { acc += texture(t, uv + vec2(float(i) * 0.01, 0.0)); }
    f = acc;
}
""", unroll=True)
    small_cache = GPUSpec(name="s", isa="scalar", icache_ops=16,
                          icache_penalty=2.0)
    big_cache = GPUSpec(name="b", isa="scalar", icache_ops=100000,
                        icache_penalty=2.0)
    assert (estimate_kernel(fn, small_cache).cycles_per_fragment
            > estimate_kernel(fn, big_cache).cycles_per_fragment * 1.5)


def test_profile_weights_blocks():
    fn = build("""
uniform float u;
out vec4 f;
void main() {
    float x = 0.0;
    if (u > 0.5) { x = sin(u) + cos(u) + sin(u * 2.0); }
    f = vec4(x);
}
""")
    then_block = [b.name for b in fn.blocks if "then" in b.name][0]
    taken = {b.name: 1.0 for b in fn.blocks}
    skipped = dict(taken)
    skipped[then_block] = 0.0
    spec = SCALAR_SPEC
    assert (estimate_kernel(fn, spec, taken).cycles_per_fragment
            > estimate_kernel(fn, spec, skipped).cycles_per_fragment)


def test_draw_time_scales_with_fragments():
    fn = build("out vec4 f;\nvoid main() { f = vec4(1.0); }")
    cost = estimate_kernel(fn, SCALAR_SPEC)
    assert draw_time_ns(cost, SCALAR_SPEC, 500 * 500) == pytest.approx(
        draw_time_ns(cost, SCALAR_SPEC, 250) * 1000)


def test_max_live_scalars_counts_widths():
    fn = build("""
uniform vec4 a;
uniform vec4 b;
out vec4 f;
void main() { f = (a + b) * (a - b); }
""")
    assert max_live_scalars(fn) >= 8  # two vec4 temporaries live at once


# ---------------------------------------------------------------------------
# Vendor JITs
# ---------------------------------------------------------------------------

LOOP_SRC = """
uniform sampler2D t;
in vec2 uv;
out vec4 f;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 9; i++) { acc += texture(t, uv + vec2(float(i) * 0.01, 0.0)); }
    f = acc;
}
"""


def _has_loop(function) -> bool:
    from repro.ir.cfg import find_natural_loops

    return bool(find_natural_loops(function))


def test_amd_jit_does_not_unroll():
    assert _has_loop(AMD.jit.compile(LOOP_SRC).function)


def test_intel_and_nvidia_jits_unroll():
    assert not _has_loop(INTEL.jit.compile(LOOP_SRC).function)
    assert not _has_loop(NVIDIA.jit.compile(LOOP_SRC).function)


def test_mali_jit_unrolls_only_tiny_loops():
    assert _has_loop(ARM.jit.compile(LOOP_SRC).function)  # 9 trips > 4
    tiny = LOOP_SRC.replace("i < 9", "i < 3")
    assert not _has_loop(ARM.jit.compile(tiny).function)


def test_no_jit_performs_unsafe_fp():
    src = """
uniform vec4 a;
uniform vec4 b;
uniform vec4 c;
out vec4 f;
void main() { f = a * b + a * c; }
"""
    from repro.ir.instructions import BinOp

    for platform in all_platforms():
        fn = platform.jit.compile(src).function
        muls = [i for i in fn.instructions()
                if isinstance(i, BinOp) and i.op == "mul"]
        assert len(muls) == 2, platform.name  # never factored by a driver


def test_all_jits_compile_whole_corpus():
    from repro.corpus import default_corpus

    for case in default_corpus(max_shaders=10):
        for platform in all_platforms():
            module = platform.jit.compile(case.source)
            assert module.function.blocks


# ---------------------------------------------------------------------------
# Platforms & timing
# ---------------------------------------------------------------------------


def test_platform_lookup():
    assert platform_by_name("arm").device.startswith("Mali")
    assert platform_by_name("Intel").name == "Intel"
    with pytest.raises(KeyError):
        platform_by_name("voodoo3dfx")


def test_five_platforms_match_paper():
    names = {p.name for p in all_platforms()}
    assert names == {"Intel", "AMD", "NVIDIA", "ARM", "Qualcomm"}
    assert sum(p.is_mobile for p in all_platforms()) == 2


def test_timer_noise_seeded_and_unbiased():
    timer = TimerModel(sigma=0.02, overhead_ns=100.0, quantum_ns=10.0)
    rng1, rng2 = random.Random(7), random.Random(7)
    seq1 = [timer.measure(10000.0, rng1) for _ in range(50)]
    seq2 = [timer.measure(10000.0, rng2) for _ in range(50)]
    assert seq1 == seq2
    mean = sum(seq1) / len(seq1)
    assert 10000.0 < mean < 10400.0  # overhead + noise, no wild bias


def test_timer_quantization():
    timer = TimerModel(sigma=0.0, overhead_ns=0.0, quantum_ns=500.0)
    rng = random.Random(1)
    assert timer.measure(1234.0, rng) % 500.0 == 0.0


def test_intel_is_quietest_platform():
    sigmas = {p.name: p.timer.sigma for p in all_platforms()}
    assert sigmas["Intel"] == min(sigmas.values())
    assert sigmas["Qualcomm"] == max(sigmas.values())


# ---------------------------------------------------------------------------
# Shared JIT front end
# ---------------------------------------------------------------------------


def test_vendor_jits_share_one_frontend_per_source():
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo, shared_frontend

    clear_frontend_memo()
    base = shared_frontend(MOTIVATING_SHADER)
    assert shared_frontend(MOTIVATING_SHADER) is base, "front end re-parsed"

    # Vendors optimize clones; the memoized module must stay pristine.
    from repro.ir.fingerprint import fingerprint_module

    before = fingerprint_module(base)
    for platform in (NVIDIA, ARM):
        platform.jit.compile(MOTIVATING_SHADER)
    assert fingerprint_module(shared_frontend(MOTIVATING_SHADER)) == before


def test_offline_compiler_and_vendor_jits_parse_a_source_once(monkeypatch):
    """``ShaderCompiler`` takes its module from the JITs' front-end memo, so
    compiling a shader on all five JITs and walking its 256 flag
    combinations parses it once."""
    import sys

    from repro.core import ShaderCompiler
    from repro.corpus import MOTIVATING_SHADER
    from repro.glsl import parser
    from repro.gpu.jit import clear_frontend_memo, shared_frontend

    original = parser.parse_shader
    parsed = []

    def counting_parse(*args, **kwargs):
        parsed.append(args)
        return original(*args, **kwargs)

    # ``from ... import parse_shader`` copies the binding: patch every copy.
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                vars(module).get("parse_shader") is original:
            monkeypatch.setattr(module, "parse_shader", counting_parse)

    clear_frontend_memo()
    for platform in all_platforms():
        platform.jit.compile(MOTIVATING_SHADER)
    ShaderCompiler(MOTIVATING_SHADER).all_variants()
    assert len(parsed) == 1
    assert ShaderCompiler(MOTIVATING_SHADER)._module is \
        shared_frontend(MOTIVATING_SHADER)


def _blur_taps3():
    from repro.corpus import default_corpus

    return next(case.source for case in default_corpus()
                if case.name == "blur.taps3")


def _count_frontend_builds(monkeypatch):
    """Record the builds of a source's cleaned front-end module."""
    import repro.gpu.jit as jit_module

    return count_calls(monkeypatch, jit_module, "lower_shader")


def test_compiled_module_memo_keys_on_the_whole_jit_configuration():
    """A JIT that shares a stock JIT's name but not its pipeline must not
    be served the stock JIT's kernel summary."""
    import dataclasses

    from helpers import assert_report_identical, reference_measurement
    from repro.gpu.jit import clear_frontend_memo, driver_output_memo
    from repro.harness.environment import ShaderExecutionEnvironment

    clear_frontend_memo()
    source = _blur_taps3()
    bare = dataclasses.replace(
        NVIDIA, jit=dataclasses.replace(NVIDIA.jit, passes=(),
                                        unroll_max_trips=0))
    assert bare.jit.name == NVIDIA.jit.name

    stock = ShaderExecutionEnvironment(NVIDIA).run(source, seed=1)
    report = ShaderExecutionEnvironment(bare).run(source, seed=1)
    assert report.true_ns != stock.true_ns
    assert_report_identical(report, reference_measurement(bare, source, 1))
    steps = {jit.compile(source).driver_steps
             for jit in (bare.jit, NVIDIA.jit)}
    assert len(steps) == 2
    assert set(driver_output_memo(source)) == steps, "a summary was shared"


@pytest.mark.parametrize("field, value", [
    ("name", "renamed-driver"),
    ("passes", ()),
    ("unroll_max_trips", 0),
    ("unroll_max_growth", 1),
], ids=["name", "passes", "unroll_max_trips", "unroll_max_growth"])
def test_compiled_module_memo_separates_jits_differing_only_in(
        field, value, monkeypatch):
    """The three pipeline fields change blur.taps3's compiled IR on NVIDIA,
    so a JIT differing in one of them records other ``driver_steps`` and
    shares no kernel summary with the stock JIT.  A JIT differing only in
    its name runs the same steps and shares the stock JIT's summary: one
    profile serves both."""
    import dataclasses

    from helpers import assert_report_identical, reference_measurement
    from repro.gpu.jit import clear_frontend_memo, driver_output_memo
    from repro.harness.environment import ShaderExecutionEnvironment
    from repro.ir.interp_batch import BatchedInterpreter

    clear_frontend_memo()
    source = _blur_taps3()
    other = dataclasses.replace(
        NVIDIA, jit=dataclasses.replace(NVIDIA.jit, **{field: value}))
    profiles = count_calls(monkeypatch, BatchedInterpreter, "run")
    ShaderExecutionEnvironment(NVIDIA).run(source, seed=1)
    report = ShaderExecutionEnvironment(other).run(source, seed=1)

    stock_steps = NVIDIA.jit.compile(source).driver_steps
    other_steps = other.jit.compile(source).driver_steps
    if field == "name":
        assert other_steps == stock_steps
        assert len(profiles) == 1
        assert list(driver_output_memo(source)) == [stock_steps]
    else:
        assert other_steps != stock_steps
        assert len(profiles) == 2
        assert set(driver_output_memo(source)) == {stock_steps, other_steps}
    assert_report_identical(report, reference_measurement(other, source, 1))


def test_compile_cached_serves_one_module_per_jit_and_source(monkeypatch):
    """Every compile returns a private module (``compile_cached`` is the
    same method).  The five drivers share one cleaned module per source,
    which ``clear_frontend_memo()`` drops."""
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo
    from repro.ir.fingerprint import fingerprint_module

    clear_frontend_memo()
    builds = _count_frontend_builds(monkeypatch)
    first = INTEL.jit.compile(MOTIVATING_SHADER)
    again = INTEL.jit.compile(MOTIVATING_SHADER)
    assert again is not first and again.function is not first.function
    digest = fingerprint_module(first)
    assert fingerprint_module(again) == digest
    # Wrecking one returned module leaves every later compile intact.
    first.function.blocks.clear()
    assert fingerprint_module(INTEL.jit.compile(MOTIVATING_SHADER)) == digest

    for platform in all_platforms():
        platform.jit.compile(MOTIVATING_SHADER)
    assert len(builds) == 1
    clear_frontend_memo()
    assert fingerprint_module(INTEL.jit.compile(MOTIVATING_SHADER)) == digest
    assert len(builds) == 2


@pytest.mark.parametrize("platform", all_platforms(),
                         ids=lambda platform: platform.name)
def test_jit_pipeline_steps_count_each_vendor_step(platform, monkeypatch):
    """The step counter counts the steps a compile runs on IR: each loop
    scan, unroll round, post-unroll cleanup and safe pass on a step-memo
    miss.  The cleanup every walk starts from is the front end's, built
    once per source by the first compile of it.  A repeated compile hits
    the memo and counts nothing; another driver counts at most its own
    steps, and builds no front end."""
    from helpers import unshared_jit_steps
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo, jit_pipeline_steps

    clear_frontend_memo()
    builds = _count_frontend_builds(monkeypatch)
    jit = platform.jit
    before = jit_pipeline_steps()
    steps = unshared_jit_steps(jit, jit.compile(MOTIVATING_SHADER))
    assert jit_pipeline_steps() - before == steps
    jit.compile(MOTIVATING_SHADER)
    assert jit_pipeline_steps() - before == steps
    other = next(p.jit for p in all_platforms() if p.jit != jit)
    other_steps = unshared_jit_steps(other, other.compile(MOTIVATING_SHADER))
    assert 0 <= jit_pipeline_steps() - before - steps <= other_steps
    assert len(builds) == 1


#: A 9-trip and a 20-trip loop: Intel (32 trips) unrolls both, Qualcomm
#: (16) only the first, ARM (4) neither, and AMD has no unroller.
TWO_LOOP_SRC = """
uniform sampler2D t;
in vec2 uv;
out vec4 f;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 9; i++) { acc += texture(t, uv + vec2(float(i) * 0.01, 0.0)); }
    for (int j = 0; j < 20; j++) { acc += texture(t, uv + vec2(0.0, float(j) * 0.02)); }
    f = acc;
}
"""


def test_drivers_with_equal_steps_share_one_summary_and_profile(monkeypatch):
    """AMD and ARM change the two-loop shader by the same steps (none), so
    the later one reuses the earlier one's profile and kernel summary.
    Intel and Qualcomm both unroll, with different limits, to different
    modules, and share nothing.  Every platform's run equals the oracle."""
    from helpers import assert_report_identical, reference_measurement
    from repro.gpu.jit import clear_frontend_memo, driver_output_memo
    from repro.harness.environment import ShaderExecutionEnvironment
    from repro.ir.fingerprint import fingerprint_module

    clear_frontend_memo()
    profiled = count_calls(monkeypatch, ShaderExecutionEnvironment,
                            "profile")
    reports = {platform.name: ShaderExecutionEnvironment(platform).run(
        TWO_LOOP_SRC, seed=5) for platform in all_platforms()}
    assert [env.platform.name for env, _ in profiled] == [
        "Intel", "AMD", "NVIDIA", "Qualcomm"]

    modules = {platform.name: platform.jit.compile(TWO_LOOP_SRC)
               for platform in all_platforms()}
    steps = {name: module.driver_steps for name, module in modules.items()}
    assert steps["AMD"] == steps["ARM"]
    assert (fingerprint_module(modules["AMD"])
            == fingerprint_module(modules["ARM"]))
    assert steps["Intel"][0][0] == steps["Qualcomm"][0][0] == "unroll"
    assert steps["Intel"] != steps["Qualcomm"]
    assert (fingerprint_module(modules["Intel"])
            != fingerprint_module(modules["Qualcomm"]))
    assert set(driver_output_memo(TWO_LOOP_SRC)) == set(steps.values())
    for platform in all_platforms():
        assert_report_identical(
            reports[platform.name],
            reference_measurement(platform, TWO_LOOP_SRC, 5), platform.name)


def test_five_platforms_clean_once_and_profile_each_distinct_output(
        monkeypatch):
    """Measuring a source on all five platforms builds its cleaned module
    once and runs one profile per distinct ``driver_steps``: Intel and
    Qualcomm unroll the same loop and share one, AMD, NVIDIA and ARM
    change nothing and share the other."""
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo
    from repro.harness.environment import ShaderExecutionEnvironment
    from repro.ir.interp_batch import BatchedInterpreter

    clear_frontend_memo()
    builds = _count_frontend_builds(monkeypatch)
    profiles = count_calls(monkeypatch, BatchedInterpreter, "run")
    for platform in all_platforms():
        ShaderExecutionEnvironment(platform).run(MOTIVATING_SHADER, seed=2)
    assert len(builds) == 1
    distinct = {platform.jit.compile(MOTIVATING_SHADER).driver_steps
                for platform in all_platforms()}
    assert len(profiles) == len(distinct) == 2


def test_measuring_leaves_the_shared_modules_unchanged():
    """The cleaned module is shared by every compile of a source: the
    offline walk, each flag-point compile and each driver pipeline start
    from clones of it.  Walking all 256 combinations, compiling a spread of
    them, measuring on all five platforms, building every platform's
    driver output and running the ARM static analyser must leave it as it
    was, and the memo must hand out that same object throughout."""
    from helpers import fresh_frontend
    from repro.analysis.cycle_analyzer import arm_static_cycles
    from repro.core import ShaderCompiler
    from repro.gpu.jit import clear_frontend_memo, shared_frontend
    from repro.harness.environment import ShaderExecutionEnvironment
    from repro.ir.clone import clone_module
    from repro.ir.fingerprint import fingerprint_module
    from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags
    from repro.passes.manager import run_cleanup

    clear_frontend_memo()
    shared = shared_frontend(TWO_LOOP_SRC)
    cleaned = clone_module(fresh_frontend(TWO_LOOP_SRC))
    run_cleanup(cleaned.function)
    digest = fingerprint_module(shared)
    assert digest == fingerprint_module(cleaned)

    def assert_unchanged(after):
        assert shared_frontend(TWO_LOOP_SRC) is shared, after
        assert fingerprint_module(shared) == digest, after

    compiler = ShaderCompiler(TWO_LOOP_SRC)
    compiler.all_variants()
    assert_unchanged("all_variants")
    spread = [OptimizationFlags.none(), DEFAULT_LUNARGLASS,
              OptimizationFlags.from_index(255)]
    spread += [OptimizationFlags.from_index(1 << bit) for bit in range(8)]
    for flags in spread:
        compiler.compile(flags)
        assert_unchanged(f"compile({flags})")
    for platform in all_platforms():
        ShaderExecutionEnvironment(platform).run(TWO_LOOP_SRC, seed=3)
    assert_unchanged("measuring")
    for platform in all_platforms():
        assert platform.jit.compile(TWO_LOOP_SRC).function.blocks
    assert_unchanged("the driver outputs")
    assert arm_static_cycles(TWO_LOOP_SRC) > 0
    assert_unchanged("arm_static_cycles")


def test_offline_compile_after_the_jits_parses_and_cleans_nothing(
        monkeypatch):
    """Once the five JITs have compiled a source, its cleaned module is in
    the memo: a flag-point compile of the source parses nothing and runs
    no cleanup before its first pipeline step."""
    import repro.gpu.jit as jit_module
    from repro.core import ShaderCompiler
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo
    from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags, manager

    clear_frontend_memo()
    for platform in all_platforms():
        platform.jit.compile(MOTIVATING_SHADER)
    events = []

    def record(owner, name, event):
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            events.append(event)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)

    record(jit_module, "parse_shader", "parse")
    record(jit_module, "run_cleanup", "cleanup")
    record(manager, "run_cleanup", "cleanup")
    record(jit_module, "_run", "step")
    ShaderCompiler(MOTIVATING_SHADER).compile(OptimizationFlags.none())
    assert events == []
    ShaderCompiler(MOTIVATING_SHADER).compile(DEFAULT_LUNARGLASS)
    assert events[0] == "step" and "parse" not in events, events


def test_compile_builds_its_ir_only_when_read(monkeypatch):
    """A compile's ``driver_steps`` and ``interface`` are set at once, and
    its IR is built on the first read of ``function``.  Once every driver
    has compiled a source, compiling it again clones nothing and runs no
    step until ``function`` is read; the IR then built is the compile's
    own, so wrecking it leaves later compiles intact."""
    import repro.gpu.jit as jit_module
    from repro.gpu.jit import (
        clear_frontend_memo, jit_pipeline_steps, shared_frontend,
    )
    from repro.ir.fingerprint import fingerprint_module

    clear_frontend_memo()
    digests = {platform.name: fingerprint_module(
        platform.jit.compile(TWO_LOOP_SRC)) for platform in all_platforms()}
    clones = count_calls(monkeypatch, jit_module, "clone_module")
    before = jit_pipeline_steps()
    modules = {platform.name: platform.jit.compile(TWO_LOOP_SRC)
               for platform in all_platforms()}
    interface = shared_frontend(TWO_LOOP_SRC).interface
    assert all(module.interface is interface for module in modules.values())
    assert len({module.driver_steps for module in modules.values()}) == 4
    assert (len(clones), jit_pipeline_steps() - before) == (0, 0)

    for name, module in modules.items():
        function = module.function
        assert module.function is function, "read twice, built twice"
        assert fingerprint_module(module) == digests[name], name
        function.blocks.clear()
    assert len(clones) == len(modules)
    for platform in all_platforms():
        assert (fingerprint_module(platform.jit.compile(TWO_LOOP_SRC))
                == digests[platform.name]), platform.name


def test_drivers_unrolling_the_same_loops_share_steps_and_profile(
        monkeypatch):
    """Intel (at most 32 trips and 2,048 instructions) and Qualcomm (16 and
    768) have different unroll limits, but both unroll the motivating
    shader's one 9-trip loop.  They take the same unroll round, record
    equal steps and run one profile between them."""
    from helpers import assert_report_identical, reference_measurement
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo
    from repro.harness.environment import ShaderExecutionEnvironment
    from repro.ir.interp_batch import BatchedInterpreter

    assert ((INTEL.jit.unroll_max_trips, INTEL.jit.unroll_max_growth)
            == (32, 2048))
    assert ((QUALCOMM.jit.unroll_max_trips, QUALCOMM.jit.unroll_max_growth)
            == (16, 768))
    clear_frontend_memo()
    profiles = count_calls(monkeypatch, BatchedInterpreter, "run")
    reports = {platform.name: ShaderExecutionEnvironment(platform).run(
        MOTIVATING_SHADER, seed=6) for platform in (INTEL, QUALCOMM)}
    intel = INTEL.jit.compile(MOTIVATING_SHADER).driver_steps
    qualcomm = QUALCOMM.jit.compile(MOTIVATING_SHADER).driver_steps
    assert intel == qualcomm
    assert intel[:2] == (("unroll", 0, 9), ("cleanup",))
    assert len(profiles) == 1
    for platform in (INTEL, QUALCOMM):
        assert_report_identical(
            reports[platform.name],
            reference_measurement(platform, MOTIVATING_SHADER, 6),
            platform.name)


def test_threads_measuring_the_same_sources_match_the_oracle():
    """Service workers are threads.  Racing to fill the same sources' step
    memos and kernel summaries, they may build one twice, but every
    prepared module, cost and draw time still equals the from-scratch
    oracle's."""
    import sys
    import threading

    from helpers import reference_jit_compile, reference_measurement
    from repro.corpus import MOTIVATING_SHADER
    from repro.gpu.jit import clear_frontend_memo, shared_frontend
    from repro.harness.environment import ShaderExecutionEnvironment
    from repro.ir.fingerprint import fingerprint_module

    sources = (MOTIVATING_SHADER, TWO_LOOP_SRC, _blur_taps3())
    units = [(source, platform) for source in sources
             for platform in all_platforms()]
    results, errors = [], []

    def prepare(offset, start):
        try:
            start.wait(timeout=60)
            for index in range(len(units)):
                index = (index + offset) % len(units)
                source, platform = units[index]
                results.append((index, ShaderExecutionEnvironment(
                    platform).prepare(source)))
        except Exception as exc:  # re-raised below, in the test's thread
            errors.append(exc)

    expected = [reference_measurement(platform, source, 7)
                for source, platform in units]
    interval = sys.getswitchinterval()
    try:
        # Each round races the first compiles of every source again.  The
        # front ends are built first, so only the step memos and the
        # summaries are raced for.
        for _ in range(6):
            clear_frontend_memo()
            for source in sources:
                shared_frontend(source)
            digests = [
                fingerprint_module(reference_jit_compile(platform.jit, source))
                for source, platform in units]
            del results[:]
            start = threading.Barrier(6)
            threads = [threading.Thread(target=prepare, args=(offset, start))
                       for offset in range(6)]
            sys.setswitchinterval(1e-5)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert len(results) == len(threads) * len(units)
            for index, prepared in results:
                assert fingerprint_module(prepared.module) == digests[index]
                assert prepared.cost == expected[index].cost, index
                assert prepared.true_ns == expected[index].true_ns, index
    finally:
        sys.setswitchinterval(interval)


def test_execution_report_vertex_shader_is_lazy(monkeypatch):
    import repro.harness.environment as environment
    from repro.corpus import MOTIVATING_SHADER
    from repro.harness.environment import ShaderExecutionEnvironment

    calls = []
    real = environment.generate_vertex_shader

    def counting(interface):
        calls.append(interface)
        return real(interface)

    monkeypatch.setattr(environment, "generate_vertex_shader", counting)
    report = ShaderExecutionEnvironment(NVIDIA).run(MOTIVATING_SHADER, seed=3)
    assert not calls, "measurement-only run generated a vertex shader"
    vertex = report.vertex_shader
    assert "gl_Position" in vertex and len(calls) == 1
    assert report.vertex_shader is vertex, "second access regenerated"
