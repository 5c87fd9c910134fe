"""Compiler-infrastructure throughput benchmarks (pytest-benchmark timing of
the pipeline itself rather than a paper figure): how fast the offline
optimizer, the variant explosion, and a platform measurement run."""

from repro.core import ShaderCompiler, compile_shader
from repro.corpus import MOTIVATING_SHADER
from repro.gpu.jit import clear_frontend_memo, shared_frontend
from repro.gpu.vendors import NVIDIA
from repro.harness.environment import ShaderExecutionEnvironment
from repro.ir import emit_glsl
from repro.ir.clone import clone_module
from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags, run_passes


def _forget_compiled_points():
    """Keep the shader's cleaned module but drop its step and text memos,
    so the next compile runs and emits its whole pass pipeline."""
    clear_frontend_memo()
    shared_frontend(MOTIVATING_SHADER)


def test_bench_full_pipeline_compile(benchmark):
    result = benchmark.pedantic(
        compile_shader, args=(MOTIVATING_SHADER, DEFAULT_LUNARGLASS),
        setup=_forget_compiled_points, rounds=100)
    assert result.output and result.emitted


def test_bench_all_256_variants(benchmark):
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    variants = benchmark(compiler.all_variants)
    assert 1 < variants.unique_count <= 48


def _naive_variants(compiler):
    """The baseline: a full pass-pipeline run per flag combination, the
    reference path that shares nothing between combinations: a
    name-preserving clone of the cleaned module, ``run_passes`` and
    emission."""
    texts = {}
    for flags in OptimizationFlags.all_combinations():
        module = clone_module(compiler._module, preserve_names=True)
        run_passes(module, flags)
        texts[flags.index] = emit_glsl(module)
    return texts


def test_bench_256_variants_naive(benchmark):
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    index_to_text = benchmark(_naive_variants, compiler)
    assert 1 < len(set(index_to_text.values())) <= 48


def test_bench_trie_variants(benchmark):
    """Naive-vs-trie A/B: the trie must be faster AND byte-identical."""
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    baseline = _naive_variants(compiler)
    variants = benchmark(compiler.all_variants)
    assert variants.index_to_text == baseline


def test_bench_environment_run(benchmark):
    env = ShaderExecutionEnvironment(NVIDIA)
    report = benchmark(env.run, MOTIVATING_SHADER, 7)
    assert report.true_ns > 0
