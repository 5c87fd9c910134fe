"""Compilation-trie correctness against the naive variant oracle.

The shared-prefix compilation trie (repro.core.trie) must be a pure
optimization: ``ShaderCompiler.all_variants`` must equal compiling every
flag combination alone (``helpers.naive_variants``) — texts, flag
groupings, even insertion order — and the study's ``StudyResult`` JSON
must not depend on ``max_workers`` or on sharding.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import fresh_frontend, naive_variants
from repro.core.pipeline import ShaderCompiler, compile_mode
from repro.core.trie import VariantTrie
from repro.corpus import MOTIVATING_SHADER, default_corpus
from repro.gpu.platform import all_platforms
from repro.harness.results import StudyResult, merge_study_results
from repro.harness.study import ShardSpec, StudyConfig, run_study
from repro.ir import emit_glsl
from repro.ir.clone import clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.passes import OptimizationFlags
from repro.passes.manager import PASS_ORDER


WILD_DIR = Path(__file__).resolve().parents[1] / "examples" / "wild"


def _synth_slice(count: int):
    cases = [case for case in default_corpus(synth_seed=7, synth_count=2)
             if case.family.startswith("synth_")]
    assert len(cases) >= count, "synth corpus slice is short"
    return cases[:count]


@pytest.fixture(scope="module")
def equivalence_corpus():
    """A cross-section of corpus families plus the motivating shader, two
    synthesized shaders, and the imported wild shaders as normalized
    core-subset text (the full 50-shader corpus runs in the benchmark job,
    not tier-1)."""
    imported = default_corpus(families=["imported"], import_dir=str(WILD_DIR))
    assert len(imported) == 6, "examples/wild went missing"
    return default_corpus(max_shaders=6) + _synth_slice(2) + imported


def _variant_sets(source: str, es: bool = False):
    return (naive_variants(source, es=es),
            ShaderCompiler(source).all_variants(es=es))


# ---------------------------------------------------------------------------
# Byte-identical VariantSet
# ---------------------------------------------------------------------------


def test_trie_matches_naive_on_motivating_shader():
    naive, trie = _variant_sets(MOTIVATING_SHADER)
    assert trie.index_to_text == naive.index_to_text
    assert trie.by_text == naive.by_text
    assert list(trie.by_text) == list(naive.by_text), "insertion order drifted"
    for text, combos in naive.by_text.items():
        assert trie.by_text[text] == combos


def test_trie_matches_naive_across_corpus(equivalence_corpus):
    for case in equivalence_corpus:
        naive, trie = _variant_sets(case.source)
        assert trie.index_to_text == naive.index_to_text, case.name
        assert trie.by_text == naive.by_text, case.name
        assert list(trie.by_text) == list(naive.by_text), case.name


def test_trie_matches_naive_in_es_dialect():
    naive, trie = _variant_sets(MOTIVATING_SHADER, es=True)
    assert trie.index_to_text == naive.index_to_text
    assert all(text.startswith("#version 310 es")
               for text in trie.by_text)


def test_property_random_flag_subsets_match_fresh_compiles():
    """Property test: for random flag subsets, the trie's text equals an
    independent single-combination pipeline run on a fresh compiler."""
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    trie_set = compiler.all_variants()
    rng = random.Random(20180417)
    for index in rng.sample(range(256), 32):
        flags = OptimizationFlags.from_index(index)
        fresh = ShaderCompiler(MOTIVATING_SHADER).compile(flags)
        assert trie_set.index_to_text[index] == fresh.output, flags


# ---------------------------------------------------------------------------
# The trie actually shares work
# ---------------------------------------------------------------------------


def test_trie_shares_prefixes_and_dedups_emission():
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    trie = VariantTrie(compiler._module)
    index_to_text = trie.compile()
    assert len(index_to_text) == 256
    # Full binary tree would be 255 pass runs; the naive path pays 1024.
    assert trie.stats.pass_runs <= 255
    assert trie.stats.merges > 0, "no converging states on an 8-pass walk?"
    # One emission per distinct final state, not per combination.
    assert trie.stats.emits == len(set(index_to_text.values()))
    assert trie.stats.emits < 256
    assert len(trie.stats.level_states) == len(PASS_ORDER) + 1


def test_trie_stats_account_for_every_pass_run_and_emit(equivalence_corpus):
    """The counters the benchmark tracer reads: one pass run per live state
    per level, one emission per distinct final state, and a disabled edge
    never drops a state."""
    for case in equivalence_corpus:
        trie = VariantTrie(ShaderCompiler(case.source)._module)
        index_to_text = trie.compile()
        stats = trie.stats
        levels = stats.level_states
        assert len(levels) == len(PASS_ORDER) + 1, case.name
        assert levels[0] == 1, case.name
        assert stats.pass_runs == sum(levels[:-1]), case.name
        assert stats.merges <= stats.pass_runs, case.name
        for parent, child in zip(levels, levels[1:]):
            assert parent <= child <= 2 * parent, case.name
        assert stats.emits == levels[-1], case.name
        assert stats.emits == len(set(index_to_text.values())), case.name


def test_walk_leaves_the_front_end_module_untouched():
    """The front-end module is shared by the walk, single-combination
    compiles and every vendor JIT of the same source; each clones before
    its first cleanup, so none of them changes it for the others."""
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    base = compiler._module
    digest, text = fingerprint_module(base), emit_glsl(base)

    def assert_untouched(after):
        assert fingerprint_module(base) == digest, after
        assert emit_glsl(base) == text, after

    variants = compiler.all_variants()
    assert_untouched("the variant walk")
    for index in (0, 255):
        flags = OptimizationFlags.from_index(index)
        assert compiler.compile(flags).output == variants.index_to_text[index]
    assert_untouched("single-combination compiles")
    for platform in all_platforms():
        platform.jit.compile(MOTIVATING_SHADER)
        assert_untouched(f"the {platform.name} JIT")


def test_compile_mode_is_the_trie_whatever_the_environment(monkeypatch):
    """``REPRO_COMPILE`` is not read: ``all_variants`` always walks the
    trie and never compiles a combination alone."""
    monkeypatch.setenv("REPRO_COMPILE", "naive")
    assert compile_mode() == "trie"
    walks, compiles = [], []
    real_walk, real_compile = VariantTrie.compile, ShaderCompiler.compile

    def counting_walk(self):
        walks.append(self)
        return real_walk(self)

    def counting_compile(self, *args, **kwargs):
        compiles.append(args)
        return real_compile(self, *args, **kwargs)

    monkeypatch.setattr(VariantTrie, "compile", counting_walk)
    monkeypatch.setattr(ShaderCompiler, "compile", counting_compile)
    ShaderCompiler(MOTIVATING_SHADER).all_variants()
    assert len(walks) == 1
    assert compiles == []


def test_fingerprint_is_clone_invariant_and_change_sensitive():
    base = fresh_frontend(MOTIVATING_SHADER)
    fp = fingerprint_module(base)
    assert fp == fingerprint_module(base), "fingerprint must be a pure function"
    clone = clone_module(base, preserve_names=True)
    assert fingerprint_module(clone) == fp, \
        "name-preserving clone must fingerprint identically"
    from repro.passes.manager import run_cleanup
    run_cleanup(clone.function)
    assert fingerprint_module(clone) != fp, \
        "cleanup changes the IR, so the fingerprint must move"


def test_clone_does_not_mutate_source_module():
    compiler = ShaderCompiler(MOTIVATING_SHADER)
    base = compiler._module
    before = fingerprint_module(base)
    blocks_before = list(base.function.blocks)
    clone_module(base)
    clone_module(base, preserve_names=True)
    assert fingerprint_module(base) == before
    assert base.function.blocks == blocks_before


# ---------------------------------------------------------------------------
# Byte-identical StudyResult
# ---------------------------------------------------------------------------


def test_study_json_identical_across_jobs():
    corpus = default_corpus(max_shaders=2)
    platforms = all_platforms()[:2]

    def study_json(workers: int) -> str:
        config = StudyConfig(platforms=platforms, max_workers=workers)
        return run_study(corpus, config).to_json()

    assert study_json(2) == study_json(1)


def test_synth_study_bytes_identical_across_jobs_and_shards():
    corpus = _synth_slice(4)
    platforms = all_platforms()[:2]

    def study_json(workers: int, shard=None) -> str:
        config = StudyConfig(platforms=platforms, max_workers=workers,
                             shard=shard)
        return run_study(corpus, config).to_json()

    baseline = study_json(1)
    assert study_json(2) == baseline
    parts = [StudyResult.from_json(study_json(1, ShardSpec.parse(f"{i}/2")))
             for i in (1, 2)]
    assert merge_study_results(parts).to_json() == baseline
