"""The repro.search subsystem: strategies, engine+cache, scheduler, and the
refactored exhaustive study."""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import CancelledError

import pytest

from repro.analysis.cycle_analyzer import arm_static_cycles
from repro.core.pipeline import ShaderCompiler
from repro.corpus import default_corpus
from repro.glsl.metrics import lines_of_code
from repro.gpu.platform import all_platforms
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.results import ShaderResult, StudyResult, VariantRecord
from repro.harness.study import StudyConfig, _variant_seed, run_study
from repro.passes import OptimizationFlags
from repro.passes.flags import (
    SPACE_SIZE, flip_bit, hamming_distance, mutate_index, neighbor_indices,
    popcount, uniform_crossover,
)
from repro.search import (
    STRATEGIES, EvaluationEngine, Exhaustive, Genetic, GreedyHillClimb,
    RandomSampling, ResultCache, Scheduler, make_strategy,
)
from repro.search.cache import SourceRecord


TARGET = 0b10110001  # planted optimum for synthetic landscapes


def synthetic_objective(index: int) -> float:
    """Smooth unimodal landscape peaking at TARGET (score 0)."""
    return -float(hamming_distance(index, TARGET))


@pytest.fixture(scope="module")
def small_corpus():
    return default_corpus(max_shaders=2)


@pytest.fixture(scope="module")
def varied_corpus():
    """Cases whose flag points emit many distinct texts and timings."""
    return [case for case in default_corpus()
            if case.name in ("blur.taps5", "shadow.pcf2", "ssao.s4")]


@pytest.fixture(scope="module")
def two_platforms():
    return all_platforms()[:2]


# ---------------------------------------------------------------------------
# Flag-mask utilities
# ---------------------------------------------------------------------------


def test_flag_mask_utilities():
    assert flip_bit(0, 3) == 8
    assert flip_bit(8, 3) == 0
    assert popcount(0b10110001) == 4
    assert hamming_distance(0b1111, 0b0000) == 4
    assert sorted(neighbor_indices(0)) == [1 << bit for bit in range(8)]
    import random
    rng = random.Random(7)
    for _ in range(50):
        child = uniform_crossover(0b1010_1010, 0b0101_0101, rng)
        assert 0 <= child < SPACE_SIZE
        mutated = mutate_index(child, rng)
        assert 0 <= mutated < SPACE_SIZE
    # rate=0 never mutates; rate=1 flips every bit.
    assert mutate_index(42, random.Random(0), rate=0.0) == 42
    assert mutate_index(42, random.Random(0), rate=1.0) == 42 ^ 0xFF


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strategy_determinism_under_fixed_seed(name):
    a = make_strategy(name, seed=123).search(synthetic_objective, budget=48)
    b = make_strategy(name, seed=123).search(synthetic_objective, budget=48)
    assert a.history == b.history
    assert (a.best_index, a.best_score) == (b.best_index, b.best_score)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strategy_respects_budget_and_unique_points(name):
    outcome = make_strategy(name, seed=5).search(synthetic_objective,
                                                 budget=40)
    assert outcome.points_evaluated <= 40
    indices = [index for index, _ in outcome.history]
    assert len(indices) == len(set(indices)), "budget counts unique points"
    assert outcome.fraction_of_space <= 40 / SPACE_SIZE + 1e-12


def test_exhaustive_covers_the_whole_space():
    outcome = Exhaustive(seed=0).search(synthetic_objective)
    assert outcome.points_evaluated == SPACE_SIZE
    assert outcome.best_index == TARGET
    assert outcome.best_score == 0.0


def test_greedy_climbs_to_planted_optimum():
    # The landscape is unimodal in Hamming distance, so bit-flip ascent
    # reaches the target from any start without restarts.
    outcome = GreedyHillClimb(seed=1).search(synthetic_objective, budget=80)
    assert outcome.best_index == TARGET


def test_genetic_finds_planted_optimum_within_quarter_space():
    outcome = Genetic(seed=2018).search(synthetic_objective, budget=64)
    assert outcome.points_evaluated <= 64
    assert outcome.best_index == TARGET


def test_random_sampling_draws_without_replacement():
    outcome = RandomSampling(seed=9).search(synthetic_objective, budget=256)
    assert outcome.points_evaluated == SPACE_SIZE
    assert outcome.best_index == TARGET


def test_evaluations_to_reach():
    outcome = Exhaustive(seed=0).search(synthetic_objective)
    # TARGET is evaluated exactly at position TARGET + 1 in index order.
    assert outcome.evaluations_to_reach(0.0) == TARGET + 1
    assert outcome.evaluations_to_reach(1.0) is None


# ---------------------------------------------------------------------------
# Engine + cache
# ---------------------------------------------------------------------------


def test_cache_hit_and_miss_semantics(small_corpus, two_platforms):
    case = small_corpus[0]
    platform = two_platforms[0]
    engine = EvaluationEngine(platforms=two_platforms, seed=7)

    first = engine.evaluate(case, OptimizationFlags.from_index(37), platform)
    assert not first.from_cache
    compiles = engine.compile_count
    frontends = engine.frontend_count
    measures = engine.measure_count

    second = engine.evaluate(case, OptimizationFlags.from_index(37), platform)
    assert second.from_cache
    assert engine.compile_count == compiles, "cache hit must not compile"
    assert engine.frontend_count == frontends
    assert engine.measure_count == measures, "cache hit must not re-measure"
    assert second.mean_ns == first.mean_ns
    assert second.speedup_pct == first.speedup_pct

    # A different flag combination that emits the *same* text re-runs the
    # pass pipeline but reuses the measurement (content-addressed).
    same_text_index = next(
        (i for i in range(SPACE_SIZE)
         if i != 37 and engine.text_for(case.source, i)
         == engine.text_for(case.source, 37)), None)
    if same_text_index is not None:
        measures = engine.measure_count
        third = engine.evaluate(case, same_text_index, platform)
        assert engine.measure_count == measures
        assert third.mean_ns == first.mean_ns


def test_disk_cache_round_trip_does_zero_compiles(tmp_path, small_corpus,
                                                  two_platforms):
    case = small_corpus[0]
    platform = two_platforms[0]
    store = tmp_path / "cache.json"

    warm = EvaluationEngine(platforms=two_platforms, seed=3,
                            cache=ResultCache(store))
    baseline = warm.evaluate(case, 42, platform)
    warm.cache.save()
    assert store.exists()

    cold = EvaluationEngine(platforms=two_platforms, seed=3,
                            cache=ResultCache(store))
    replay = cold.evaluate(case, 42, platform)
    assert replay.from_cache
    assert cold.frontend_count == 0, "disk hit must skip the front end"
    assert cold.compile_count == 0, "disk hit must skip the pass pipeline"
    assert cold.measure_count == 0, "disk hit must skip measurement"
    assert replay.mean_ns == baseline.mean_ns
    assert replay.speedup_pct == baseline.speedup_pct


def _count_everywhere(monkeypatch, function):
    """Record each call of *function* through any ``repro`` module's
    binding of it; returns the list the calls land in."""
    import sys

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, function.__name__, None) is function):
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def test_warm_study_replay_parses_nothing(tmp_path, monkeypatch,
                                         small_corpus, two_platforms):
    """A source's variant set, ARM static cycle count and lines of code are
    one cache record, so a warm replay, serial or pooled, runs no front
    end, no variant walk and no LOC count, and reads the Fig. 4a and 4b
    facts the cold run computed."""
    import repro.gpu.jit as jit
    from helpers import count_calls

    expected = [(lines_of_code(case.source), arm_static_cycles(case.source))
                for case in small_corpus]
    for workers in (1, 2):
        store = tmp_path / f"cache{workers}.jsonl"
        config = StudyConfig(platforms=two_platforms, max_workers=workers)
        cold_engine = EvaluationEngine(platforms=two_platforms,
                                       cache=ResultCache(store))
        cold = run_study(small_corpus, config, engine=cold_engine)
        assert cold_engine.frontend_count == len(small_corpus)

        jit.clear_frontend_memo()
        calls = [count_calls(monkeypatch, jit, "parse_shader"),
                 count_calls(monkeypatch, ShaderCompiler, "all_variants"),
                 _count_everywhere(monkeypatch, lines_of_code),
                 _count_everywhere(monkeypatch, arm_static_cycles)]
        warm_engine = EvaluationEngine(platforms=two_platforms,
                                       cache=ResultCache(store))
        warm = run_study(small_corpus, config, engine=warm_engine)
        monkeypatch.undo()
        assert calls == [[], [], [], []], workers
        assert warm.to_json() == cold.to_json()
        assert warm_engine.frontend_count == 0
        assert warm_engine.compile_count == warm_engine.measure_count == 0
        for study in (cold, warm):
            assert [(shader.loc, shader.arm_static_cycles)
                    for shader in study.shaders] == expected


def test_measurements_identical_across_processes(tmp_path):
    """Disk-cached results are only sound if measurements don't depend on
    per-process state (str hash salting regressed this once)."""
    import os
    import subprocess
    import sys

    import repro

    code = ("from repro.corpus import MOTIVATING_SHADER\n"
            "from repro.gpu.platform import platform_by_name\n"
            "from repro.harness.environment import ShaderExecutionEnvironment\n"
            "env = ShaderExecutionEnvironment(platform_by_name('Intel'))\n"
            "print(repr(env.run(MOTIVATING_SHADER, seed=42)"
            ".measurement.mean_ns))\n")
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=package_root)
        outputs.add(subprocess.check_output(
            [sys.executable, "-c", code], env=env, text=True).strip())
    assert len(outputs) == 1, f"measurement varies across processes: {outputs}"


def test_engine_keeps_no_front_end_module_alive(small_corpus):
    """The engine compiles through the shared front-end LRU and holds no
    module of its own, so dropping the LRU frees the module."""
    import gc
    import weakref

    from repro.gpu.jit import clear_frontend_memo, shared_frontend

    source = small_corpus[0].source
    engine = EvaluationEngine(platforms=all_platforms()[:1], seed=5)
    engine.text_for(source, 37)
    module = weakref.ref(shared_frontend(source))
    clear_frontend_memo()
    gc.collect()
    assert module() is None
    assert engine.frontend_count == 1


def test_engine_of_another_seed_reads_the_studys_variant_sets(small_corpus,
                                                              two_platforms):
    """The result cache is the one store of variant sets: an engine of
    another seed on the same cache compiles none of the study's points."""
    cache = ResultCache()
    run_study(small_corpus, StudyConfig(platforms=two_platforms),
              engine=EvaluationEngine(platforms=two_platforms, cache=cache))
    engine = EvaluationEngine(platforms=two_platforms, seed=7, cache=cache)
    for case in small_corpus:
        for index in (0, 37, 255):
            engine.evaluate(case, index, two_platforms[0])
    assert engine.frontend_count == 0
    assert engine.compile_count == 0


def test_a_covered_point_compiles_nothing(monkeypatch, varied_corpus):
    """Once a point p is compiled, a point q with changed(p) ⊆ q ⊆
    enabled(p) differs from it only by passes that changed nothing.  Its
    walk reaches p's state through memo hits and takes p's text: no clone,
    no step, no emission and no compile counted."""
    import repro.core.pipeline as pipeline
    import repro.gpu.jit as jit_module
    from helpers import changed_flags, count_calls, naive_variants
    from repro.gpu.jit import clear_frontend_memo, jit_pipeline_steps

    source = varied_corpus[0].source
    clear_frontend_memo()
    engine = EvaluationEngine(platforms=all_platforms()[:1], seed=5)
    text = engine.text_for(source, 255)
    assert engine.compile_count == 1
    steps = ShaderCompiler(source).compile(
        OptimizationFlags.from_index(255)).module.driver_steps
    changed = changed_flags(steps)
    covered = [q for q in range(SPACE_SIZE)
               if q != 255 and q & changed == changed]
    assert covered
    clones = count_calls(monkeypatch, jit_module, "clone_module")
    emits = count_calls(monkeypatch, pipeline, "emit_glsl")
    before = jit_pipeline_steps()
    assert all(engine.text_for(source, q) == text for q in covered)
    assert (clones, emits, jit_pipeline_steps() - before) == ([], [], 0)
    assert engine.compile_count == 1
    monkeypatch.undo()
    reference = naive_variants(source).index_to_text
    assert all(reference[q] == text for q in [255] + covered)


@pytest.mark.parametrize("strategy", ["greedy", "genetic"])
def test_searches_match_an_engine_primed_with_the_studys_variant_sets(
        strategy, varied_corpus, two_platforms):
    """A search that compiles its points alone, and reuses them where they
    cover a later point, finds what it finds on the study's variant sets."""
    platforms = two_platforms[:1]
    primed = ResultCache()
    run_study(varied_corpus, StudyConfig(platforms=platforms),
              engine=EvaluationEngine(platforms=platforms, cache=primed))
    runs = []
    for cache in (ResultCache(), primed):
        engine = EvaluationEngine(platforms=platforms, seed=2018, cache=cache)
        objective = engine.corpus_objective(varied_corpus, platforms[0].name)
        outcome = make_strategy(strategy, seed=4).search(objective,
                                                         budget=24)
        runs.append((outcome, engine))
    (cold, cold_engine), (warm, warm_engine) = runs
    assert len({score for _, score in cold.history}) > 3
    assert cold == warm
    assert warm_engine.compile_count == 0
    assert 0 < cold_engine.compile_count < (cold.points_evaluated
                                            * len(varied_corpus))


def test_threads_sharing_an_engine_get_every_point_right(varied_corpus):
    """Service workers are threads sharing one engine and its points.  More
    threads than cores ask for points of the same sources with the GIL
    switching often; every text must still be the point's own."""
    import os
    import random
    import sys
    import threading

    from helpers import reference_compile

    sources = [case.source for case in varied_corpus]
    engine = EvaluationEngine(platforms=all_platforms()[:1], seed=5)
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    workers = cores + 2
    results, errors = [], []

    def ask(seed, start):
        try:
            rng = random.Random(seed)
            start.wait(timeout=60)
            for _ in range(24):
                position = rng.randrange(len(sources))
                index = rng.randrange(SPACE_SIZE)
                results.append((position, index,
                                engine.text_for(sources[position], index)))
        except Exception as exc:  # re-raised below, in the test's thread
            errors.append(exc)

    start = threading.Barrier(workers)
    threads = [threading.Thread(target=ask, args=(seed, start))
               for seed in range(workers)]
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
    assert len(results) == workers * 24
    assert engine.compile_count < len(results)
    for position, index, text in results:
        expected = reference_compile(sources[position],
                                     OptimizationFlags.from_index(index))
        assert text == expected, (position, index)


def test_release_measurements_drops_the_protocol_memo(small_corpus):
    """When a search job ends, every environment's memoized protocol runs
    go, and the engine keeps nothing else: a point asked for again takes
    its text from the front-end memo without a compile."""
    from helpers import assert_engine_keeps_no_store

    platform = all_platforms()[0].name
    engine = EvaluationEngine(platforms=all_platforms()[:1], seed=5)
    for case in small_corpus:
        engine.measure(engine.text_for(case.source, 37), platform)
    environment = engine.environment(platform)
    assert environment._noise is not None and environment._noise[2]
    engine.release_measurements()
    assert environment._noise is None
    assert_engine_keeps_no_store(engine)
    compiles = engine.compile_count
    for case in small_corpus:
        engine.text_for(case.source, 37)
    assert engine.compile_count == compiles


def test_corrupt_disk_cache_is_ignored(tmp_path):
    store = tmp_path / "cache.json"
    store.write_text("{not json")
    cache = ResultCache(store)
    assert len(cache) == 0


def test_corpus_objective_matches_direct_evaluations(small_corpus,
                                                     two_platforms):
    engine = EvaluationEngine(platforms=two_platforms, seed=11)
    platform = two_platforms[1]
    objective = engine.corpus_objective(small_corpus, platform)
    score = objective(0)
    expected = sum(engine.evaluate(c, 0, platform).speedup_pct
                   for c in small_corpus) / len(small_corpus)
    assert score == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _boom(x):
    if x == 5:
        raise RuntimeError("worker failed")
    return x


def _pid(_):
    return os.getpid()


def test_scheduler_preserves_order_and_parallel_equals_serial():
    items = list(range(100))
    serial = list(Scheduler(max_workers=1).map(_square, items))
    scheduler = Scheduler(max_workers=4)
    with scheduler.session() as pooled:
        assert pooled
        parallel = scheduler.map(_square, items)
        # Every item is its own pool task, a one-item map's included.
        lone = scheduler.map(_pid, [0])
        assert scheduler.finished(60) is not None
        assert scheduler.finished(60) is not None
        assert list(parallel) == serial == [x * x for x in items]
        assert next(lone) != os.getpid()
    # Outside a session the items run here.
    assert list(scheduler.map(_pid, [0])) == [os.getpid()]


def test_scheduler_propagates_worker_exceptions():
    scheduler = Scheduler(max_workers=4)
    with scheduler.session():
        results = scheduler.map(_boom, list(range(10)))
        assert scheduler.finished(60) is results
        assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
        with pytest.raises(RuntimeError, match="worker failed"):
            next(results)
    with pytest.raises(RuntimeError, match="worker failed"):
        list(Scheduler(max_workers=1).map(_boom, list(range(10))))


def test_scheduler_session_cancels_and_leaves_no_worker():
    """A session closed by an error (a cancellation, a signal handler's
    exception) drops the tasks that have not started and joins its
    workers."""
    import multiprocessing

    class Cancelled(Exception):
        pass

    scheduler = Scheduler(max_workers=2)
    with pytest.raises(Cancelled):
        with scheduler.session():
            pending = scheduler.map(time.sleep, [0.05] * 200)
            raise Cancelled
    assert not multiprocessing.active_children()
    with pytest.raises(CancelledError):
        list(pending)


def test_scheduler_honors_jobs_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert Scheduler().max_workers == 6
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert Scheduler().max_workers == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert Scheduler().max_workers == 1


def test_study_serial_and_parallel_runs_are_identical(small_corpus,
                                                      two_platforms):
    serial = run_study(small_corpus,
                       StudyConfig(platforms=two_platforms, max_workers=1))
    parallel = run_study(small_corpus,
                         StudyConfig(platforms=two_platforms, max_workers=4))
    assert serial.to_json() == parallel.to_json()


def test_parallel_study_counts_the_work_a_serial_one_does(small_corpus,
                                                          two_platforms):
    """Pool workers compile and measure for the engine, which counts their
    work exactly as it counts its own."""
    engines = [EvaluationEngine(platforms=two_platforms) for _ in range(2)]
    for engine, workers in zip(engines, (1, 2)):
        run_study(small_corpus, StudyConfig(platforms=two_platforms,
                                            max_workers=workers),
                  engine=engine)
    serial, parallel = engines
    assert serial.frontend_count == parallel.frontend_count == 2
    assert serial.compile_count == parallel.compile_count == 2 * SPACE_SIZE
    assert serial.measure_count == parallel.measure_count > 0


# ---------------------------------------------------------------------------
# Refactored study == seed implementation
# ---------------------------------------------------------------------------


def _seed_reference_study(corpus, platforms, seed=2018) -> StudyResult:
    """Verbatim copy of the pre-search-subsystem run_study nested loop."""
    result = StudyResult(platforms=[p.name for p in platforms], seed=seed)
    environments = {p.name: ShaderExecutionEnvironment(p) for p in platforms}
    for case_index, case in enumerate(corpus):
        compiler = ShaderCompiler(case.source)
        variant_set = compiler.all_variants()
        shader_result = ShaderResult(
            name=case.name, family=case.family,
            loc=lines_of_code(case.source),
            arm_static_cycles=arm_static_cycles(case.source))
        for platform in platforms:
            env = environments[platform.name]
            report = env.run(case.source,
                             seed=_variant_seed(seed, case_index, -1))
            shader_result.original_times_ns[platform.name] = \
                report.measurement.mean_ns
        ordered = sorted(variant_set.items(),
                         key=lambda kv: min(f.index for f in kv[1]))
        for variant_id, (text, combos) in enumerate(ordered):
            record = VariantRecord(
                variant_id=variant_id,
                flag_indices=sorted(f.index for f in combos),
                text_hash=hashlib.sha256(text.encode()).hexdigest()[:16])
            for platform in platforms:
                env = environments[platform.name]
                report = env.run(text, seed=_variant_seed(seed, case_index,
                                                          variant_id))
                record.times_ns[platform.name] = report.measurement.mean_ns
                record.static_ops[platform.name] = report.cost.static_ops
                record.registers[platform.name] = report.cost.registers
            shader_result.variants.append(record)
        result.shaders.append(shader_result)
    return result


def test_run_study_byte_identical_to_seed_implementation(small_corpus,
                                                         two_platforms):
    reference = _seed_reference_study(small_corpus, two_platforms)
    refactored = run_study(small_corpus, StudyConfig(platforms=two_platforms))
    assert refactored.to_json() == reference.to_json()


# ---------------------------------------------------------------------------
# VariantSet fast path
# ---------------------------------------------------------------------------


def test_variant_set_index_map_matches_linear_scan(small_corpus):
    variant_set = ShaderCompiler(small_corpus[0].source).all_variants()
    assert len(variant_set.index_to_text) == SPACE_SIZE
    for index in range(0, SPACE_SIZE, 17):
        flags = OptimizationFlags.from_index(index)
        expected = next(text for text, combos in variant_set.by_text.items()
                        if any(f.index == index for f in combos))
        assert variant_set.text_for(flags) == expected


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_tune_cli_smoke(capsys):
    from repro.cli import main

    assert main(["tune", "--strategy", "greedy", "--budget", "16",
                 "--platform", "Intel", "--max-shaders", "2"]) == 0
    out = capsys.readouterr().out
    assert "strategy=greedy" in out
    assert "worst-platform gap" in out


# ---------------------------------------------------------------------------
# Cache persistence hygiene
# ---------------------------------------------------------------------------


def test_warm_store_appends_only_changed_entries(tmp_path):
    """Re-putting what a loaded store already holds leaves its file
    byte-for-byte alone; a changed value appends exactly one line."""
    store = tmp_path / "cache.json"
    cold = ResultCache(store)
    cold.put("k", {"mean_ns": 1.0})
    cold.put_variants("d", SourceRecord({0: "text", 1: "text"}, 2.5, 3))
    cold.save()
    before = store.read_bytes()

    warm = ResultCache(store)
    warm.put("k", {"mean_ns": 1.0})
    warm.put_variants("d", SourceRecord({0: "text", 1: "text"}, 2.5, 3))
    warm.save()
    assert store.read_bytes() == before

    warm.put("k", {"mean_ns": 2.0})
    warm.save()
    after = store.read_bytes()
    assert after.startswith(before)
    assert after[len(before):].count(b"\n") == 1
    assert ResultCache(store).get("k") == {"mean_ns": 2.0}
