"""Differential testing: the measurement path against its references.

The measurement path (a driver-JIT compile from the source's shared
cleaned module, one lane-batched interpreter profile and kernel summary
per distinct driver output, the summary folded per platform, one stream of
timer factors per seed applied to every text measured under it) must
reproduce the measurement oracle
(``helpers.reference_measurement``: a from-scratch vendor pipeline, one
scalar interpreter run per sample fragment, a per-instruction cost walk,
one ``TimerModel.measure`` call per frame) bit for bit — through
``ShaderExecutionEnvironment.run``, ``run_many`` and
``EvaluationEngine.measure_many``, for every pass pipeline on every
platform and for a seeded slice of the synthesized and hand-written
corpus.  The profile and the protocol are also held to
their own references (``helpers.reference_profile`` and
``helpers.reference_protocol``), and a whole study to both oracles.  The
shared timer stream is checked on its own: for any true time, under seed
changes, and across threads sharing one engine.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_report_identical, count_calls, naive_variants,
    reference_measurement, reference_profile, reference_protocol,
    unshared_jit_steps,
)
from repro.core.pipeline import ShaderCompiler, optimize_source
from repro.corpus import MOTIVATING_SHADER, default_corpus
from repro.gpu.jit import (
    clear_frontend_memo, driver_output_memo, jit_pipeline_steps,
)
from repro.gpu.platform import all_platforms
from repro.gpu.timing import TimerModel
from repro.harness.environment import (
    SAMPLE_FRAGMENTS, ShaderExecutionEnvironment, measure_mode,
)
from repro.harness.protocol import (
    FRAMES_PER_RUN, REPEATS, protocol_noise, run_protocol,
)
from repro.harness.study import StudyConfig, _variant_seed, run_study
from repro.harness.uniforms import (
    batch_fragment_inputs, default_textures, default_uniform_values,
    fragment_inputs,
)
from repro.ir.interp import Interpreter
from repro.ir.interp_batch import BatchedInterpreter
from repro.passes import OptimizationFlags
from repro.search.engine import EvaluationEngine

#: Every single-pass pipeline plus the empty and all-on combinations.
PASS_PIPELINES = ([OptimizationFlags.none()]
                  + [OptimizationFlags.from_index(1 << bit)
                     for bit in range(8)]
                  + [OptimizationFlags.from_index(255)])


@pytest.fixture(scope="module")
def corpus_slice():
    """A seeded slice of the synthesized corpus plus hand-picked cases
    covering divergent branches, loops, discard, and texture sampling."""
    corpus = default_corpus(synth_seed=20180417, synth_count=2)
    synth = [case for case in corpus if case.family.startswith("synth_")]
    picked = [case for case in corpus
              if case.family in ("sprite", "blur", "phong")][:3]
    return synth[:2] + picked


# ---------------------------------------------------------------------------
# Per-lane interpreter equivalence, for every pass pipeline
# ---------------------------------------------------------------------------


def test_batched_interpreter_matches_scalar_per_lane_every_pipeline():
    """For every pass pipeline's emitted variant, on every platform's
    JIT-compiled module, every lane of one batched pass must reproduce
    the scalar interpreter's outputs and stats exactly."""
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    for flags in PASS_PIPELINES:
        text = compiler.compile(flags).output
        for platform in all_platforms():
            module = platform.jit.compile(text)
            interface = module.interface
            uniforms = default_uniform_values(interface)
            textures = default_textures(interface)
            lanes = batch_fragment_inputs(interface, SAMPLE_FRAGMENTS)
            assert lanes == [fragment_inputs(interface, position)
                             for position in SAMPLE_FRAGMENTS]

            batch = BatchedInterpreter(module, uniforms=uniforms,
                                       inputs=lanes, textures=textures)
            batched_outputs = batch.run()
            for lane, inputs in enumerate(lanes):
                interp = Interpreter(module, uniforms=uniforms, inputs=inputs,
                                     textures=textures)
                context = (flags.index, platform.name, lane)
                assert interp.run() == batched_outputs[lane], context
                lane_stats = batch.stats[lane]
                assert interp.stats.steps == lane_stats.steps, context
                assert interp.stats.block_visits == lane_stats.block_visits, \
                    context
                assert (list(interp.stats.block_visits)
                        == list(lane_stats.block_visits)), \
                    f"visit order drifted: {context}"
                assert (interp.stats.texture_samples
                        == lane_stats.texture_samples), context


# ---------------------------------------------------------------------------
# Profile and protocol against their references
# ---------------------------------------------------------------------------


def test_profile_matches_scalar_reference_every_platform(corpus_slice):
    """Same averages, same key order: the cost model sums the profile in
    its iteration order, so order is part of bit-identity."""
    sources = [MOTIVATING_SHADER] + [case.source for case in corpus_slice]
    for platform in all_platforms():
        env = ShaderExecutionEnvironment(platform)
        for source in sources:
            module = platform.jit.compile(source)
            profile = env.profile(module)
            expected = reference_profile(module)
            assert profile == expected, platform.name
            assert list(profile) == list(expected), platform.name


@pytest.mark.parametrize("platform", all_platforms(),
                         ids=lambda platform: platform.name)
def test_run_protocol_matches_per_frame_reference(platform):
    for true_ns, frames, repeats in ((4246.875, FRAMES_PER_RUN, REPEATS),
                                     (120397.75, 7, 3), (3.0, 1, 1)):
        rng, reference_rng = random.Random(41), random.Random(41)
        noise = protocol_noise(platform.timer, rng, frames=frames,
                               repeats=repeats)
        measurement = run_protocol(true_ns, platform.timer, noise)
        expected = reference_protocol(true_ns, platform.timer,
                                      reference_rng, frames=frames,
                                      repeats=repeats)
        context = (true_ns, frames, repeats)
        assert measurement.mean_ns == expected.mean_ns, context
        assert measurement.std_ns == expected.std_ns, context
        assert measurement.repeat_means == expected.repeat_means, context
        assert len(measurement.repeat_means) == repeats, context
        assert rng.getstate() == reference_rng.getstate(), context


# ---------------------------------------------------------------------------
# One timer stream per seed, shared across the texts measured under it
# ---------------------------------------------------------------------------


#: Every platform's timer, plus one without quantization.
TIMERS = ([(platform.name, platform.timer) for platform in all_platforms()]
          + [("unquantized", TimerModel(sigma=0.03, overhead_ns=250.0,
                                        quantum_ns=0.0, drift_sigma=0.01))])


@pytest.mark.parametrize("timer", [timer for _, timer in TIMERS],
                         ids=[name for name, _ in TIMERS])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       true_times=st.lists(st.floats(min_value=0.0, max_value=1e12),
                           min_size=1, max_size=4))
def test_one_noise_stream_times_any_true_time(timer, seed, true_times):
    """The safety argument for sharing a seed's stream: the draws never
    depend on the true time, so one stream applied to any true time equals
    the per-frame reference on a fresh rng of that seed."""
    noise = protocol_noise(timer, random.Random(seed))
    for true_ns in true_times:
        measurement = run_protocol(true_ns, timer, noise)
        expected = reference_protocol(true_ns, timer, random.Random(seed))
        assert measurement.mean_ns == expected.mean_ns, true_ns
        assert measurement.std_ns == expected.std_ns, true_ns
        assert measurement.repeat_means == expected.repeat_means, true_ns


@pytest.mark.parametrize("platform", all_platforms(),
                         ids=lambda platform: platform.name)
def test_texts_measured_under_one_seed_draw_the_noise_once(monkeypatch,
                                                           platform):
    texts = [MOTIVATING_SHADER,
             optimize_source(MOTIVATING_SHADER,
                             OptimizationFlags.from_index(255))]
    env = ShaderExecutionEnvironment(platform)
    draws = count_calls(monkeypatch, random.Random, "gauss")
    reports = [env.run(text, seed=5) for text in texts]
    per_frame = 2 if platform.timer.drift_sigma else 1
    assert len(draws) == FRAMES_PER_RUN * REPEATS * per_frame
    assert reports[0].true_ns != reports[1].true_ns
    for text, report in zip(texts, reports):
        assert_report_identical(
            report, reference_measurement(platform, text, 5), text[:40])


def test_seed_changes_replace_the_stream():
    """Seeds A, B, A, A on one environment: each run draws or reuses the
    stream of its own seed."""
    for platform in (all_platforms()[0], all_platforms()[3]):
        env = ShaderExecutionEnvironment(platform)
        for seed in (21, 8, 21, 21):
            assert_report_identical(
                env.run(MOTIVATING_SHADER, seed=seed),
                reference_measurement(platform, MOTIVATING_SHADER, seed),
                (platform.name, seed))


def test_threads_sharing_an_engine_measure_mixed_seeds_exactly():
    """Service workers are threads sharing one engine, and so its
    environments.  More threads than cores measure mixed seeds and texts
    with the GIL switching often; every report and sample must still equal
    the oracle."""
    import os
    import sys
    import threading

    texts = [MOTIVATING_SHADER,
             optimize_source(MOTIVATING_SHADER,
                             OptimizationFlags.from_index(255))]
    platforms = [all_platforms()[0], all_platforms()[3]]
    units = [(text, platform, seed) for text in texts
             for platform in platforms for seed in (3, 4, 3, 9)]
    expected = {(text, platform.name, seed):
                reference_measurement(platform, text, seed)
                for text, platform, seed in units}
    engine = EvaluationEngine(platforms=platforms)
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    workers = cores + 2
    results, errors = [], []

    def measure(offset, start):
        try:
            start.wait(timeout=60)
            for step in range(2 * len(units)):
                text, platform, seed = units[(step + offset) % len(units)]
                key = (text, platform.name, seed)
                report = engine.environment(platform.name).run(text, seed)
                sample = engine.measure(text, platform.name, seed)
                results.append((key, report, sample))
        except Exception as exc:  # re-raised below, in the test's thread
            errors.append(exc)

    start = threading.Barrier(workers)
    threads = [threading.Thread(target=measure, args=(offset * 3, start))
               for offset in range(workers)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) == workers * 2 * len(units)
    for key, report, sample in results:
        reference = expected[key]
        assert_report_identical(report, reference, key[1:])
        assert sample.mean_ns == reference.measurement.mean_ns, key[1:]
        assert sample.static_ops == reference.cost.static_ops, key[1:]
        assert sample.registers == reference.cost.registers, key[1:]


def test_prepare_compiles_once_per_platform_and_source(monkeypatch):
    """A second preparation of a (source, platform) unit runs no pipeline
    step: its walk hits the step memo all the way, and the cleaned module
    and the kernel summary of the first are reused, so it builds no front
    end and runs no profile, for an equal cost and draw time.  The step
    memo and the summaries live in the source's front-end memo entry, so
    ``clear_frontend_memo()`` drops them."""
    import repro.gpu.jit as jit_module

    clear_frontend_memo()
    platform = all_platforms()[0]
    builds = count_calls(monkeypatch, jit_module, "lower_shader")
    profiles = count_calls(monkeypatch, BatchedInterpreter, "run")

    before = jit_pipeline_steps()
    first = ShaderExecutionEnvironment(platform).prepare(MOTIVATING_SHADER)
    assert jit_pipeline_steps() - before == unshared_jit_steps(
        platform.jit, first.module)
    assert (len(builds), len(profiles)) == (1, 1)

    env = ShaderExecutionEnvironment(platform)
    before = jit_pipeline_steps()
    second = env.prepare(MOTIVATING_SHADER)
    assert jit_pipeline_steps() - before == 0
    env.run_many(MOTIVATING_SHADER, [1, 2, 3])
    assert (len(builds), len(profiles)) == (1, 1)
    assert second.module is not first.module
    assert second.module.driver_steps == first.module.driver_steps
    assert second.cost == first.cost
    assert second.true_ns == first.true_ns

    assert list(driver_output_memo(MOTIVATING_SHADER)) == [
        first.module.driver_steps]
    clear_frontend_memo()
    assert driver_output_memo(MOTIVATING_SHADER) == {}


def test_remeasuring_on_fresh_environments_runs_no_compile_work(
        monkeypatch):
    """Measure two sources on all five platforms, then again on fresh
    environments.  The second round finds every step, cleaned module and
    summary in the front-end memo: it clones nothing and runs no cleanup, pass,
    unroll or profile, and still equals the from-scratch oracle."""
    import repro.gpu.jit as jit_module
    from repro.passes import manager

    clear_frontend_memo()
    sources = (MOTIVATING_SHADER, optimize_source(
        MOTIVATING_SHADER, OptimizationFlags.from_index(255)))
    for source in sources:
        for platform in all_platforms():
            ShaderExecutionEnvironment(platform).run(source, seed=8)

    work = [count_calls(monkeypatch, owner, name) for owner, name in (
        (jit_module, "clone_module"), (jit_module, "run_cleanup"),
        (manager, "run_cleanup"), (jit_module, "run_step"),
        (jit_module, "unroll_round"), (jit_module, "loop_sizes"),
        (BatchedInterpreter, "run"))]
    before = jit_pipeline_steps()
    reports = [(source, platform, ShaderExecutionEnvironment(platform).run(
        source, seed=8)) for source in sources for platform in all_platforms()]
    assert [len(calls) for calls in work] == [0] * len(work)
    assert jit_pipeline_steps() == before
    for source, platform, report in reports:
        assert_report_identical(
            report, reference_measurement(platform, source, 8), platform.name)


def test_measure_mode_is_batched_whatever_the_environment(monkeypatch):
    """``REPRO_MEASURE`` is not read: a run profiles in one batched pass."""
    monkeypatch.setenv("REPRO_MEASURE", "scalar")
    assert measure_mode() == "batched"
    clear_frontend_memo()
    passes = []
    real_run = BatchedInterpreter.run

    def counting_run(self, *args, **kwargs):
        passes.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(BatchedInterpreter, "run", counting_run)
    platform = all_platforms()[0]
    report = ShaderExecutionEnvironment(platform).run(MOTIVATING_SHADER,
                                                      seed=4)
    assert len(passes) == 1
    assert_report_identical(
        report, reference_measurement(platform, MOTIVATING_SHADER, 4))


# ---------------------------------------------------------------------------
# ExecutionReport equivalence with the oracle
# ---------------------------------------------------------------------------


def test_run_matches_reference_every_pipeline():
    for flags in PASS_PIPELINES:
        text = optimize_source(MOTIVATING_SHADER, flags)
        for platform in all_platforms():
            env = ShaderExecutionEnvironment(platform)
            assert_report_identical(env.run(text, seed=13),
                                    reference_measurement(platform, text, 13),
                                    (flags.index, platform.name))


def test_run_many_matches_reference_on_corpus_slice(corpus_slice):
    seeds = [2018, 3, 77]
    for case in corpus_slice:
        for platform in all_platforms()[:3]:
            env = ShaderExecutionEnvironment(platform)
            reports = env.run_many(case.source, seeds)
            assert len(reports) == len(seeds)
            for seed, report in zip(seeds, reports):
                context = (case.name, platform.name, seed)
                assert_report_identical(
                    report, reference_measurement(platform, case.source, seed),
                    context)
                assert_report_identical(env.run(case.source, seed=seed),
                                        report, context)


# ---------------------------------------------------------------------------
# Engine-level seed batching through the result cache
# ---------------------------------------------------------------------------


def test_engine_measure_many_matches_reference():
    platforms = all_platforms()[:2]
    platform = platforms[0]
    seeds = [11, 12, 13]
    expected = {seed: reference_measurement(platform, MOTIVATING_SHADER, seed)
                for seed in seeds + [99]}

    def assert_matches(sample, seed):
        reference = expected[seed]
        assert sample.mean_ns == reference.measurement.mean_ns, seed
        assert sample.static_ops == reference.cost.static_ops, seed
        assert sample.registers == reference.cost.registers, seed

    engine = EvaluationEngine(platforms=platforms)
    samples = engine.measure_many(MOTIVATING_SHADER, platform.name, seeds)
    for seed, sample in zip(seeds, samples):
        assert_matches(sample, seed)
    assert engine.measure_count == len(seeds)

    # A second batch overlapping the first only measures the new seeds,
    # and cached/uncached samples interleave in request order.
    mixed = engine.measure_many(MOTIVATING_SHADER, platform.name,
                                [12, 99, 11])
    for seed, sample in zip([12, 99, 11], mixed):
        assert_matches(sample, seed)
    assert engine.measure_count == len(seeds) + 1


# ---------------------------------------------------------------------------
# A whole study against both oracles
# ---------------------------------------------------------------------------


def test_study_matches_reference_on_synth_shader():
    """Every number a study records equals the measurement oracle on the
    variant oracle's texts, in the study's variant order."""
    case = next(case for case in default_corpus(synth_seed=7, synth_count=1)
                if case.family.startswith("synth_"))
    platforms = all_platforms()[:2]
    config = StudyConfig(platforms=platforms)
    shader = run_study([case], config).shader(case.name)

    for platform in platforms:
        reference = reference_measurement(
            platform, case.source, _variant_seed(config.seed, 0, -1))
        assert (shader.original_times_ns[platform.name]
                == reference.measurement.mean_ns), platform.name

    variants = sorted(naive_variants(case.source).items(),
                      key=lambda item: min(f.index for f in item[1]))
    assert len(shader.variants) == len(variants)
    for record, (text, combos) in zip(shader.variants, variants):
        assert record.flag_indices == sorted(f.index for f in combos)
        assert (record.text_hash
                == hashlib.sha256(text.encode()).hexdigest()[:16])
        for platform in platforms:
            reference = reference_measurement(
                platform, text,
                _variant_seed(config.seed, 0, record.variant_id))
            context = (record.variant_id, platform.name)
            assert (record.times_ns[platform.name]
                    == reference.measurement.mean_ns), context
            assert (record.static_ops[platform.name]
                    == reference.cost.static_ops), context
            assert (record.registers[platform.name]
                    == reference.cost.registers), context
