"""Procedural corpus synthesis: determinism, validity, pass coverage,
and the lazy corpus stream."""

import pytest

from repro.analysis.static_metrics import corpus_composition_spec
from repro.core import ShaderCompiler
from repro.corpus import default_corpus, iter_corpus, synth_family
from repro.corpus import synth
from repro.corpus.generator import CorpusSpec, corpus_families
from repro.glsl import parse_shader, preprocess
from repro.gpu.platform import all_platforms
from repro.harness.environment import ShaderExecutionEnvironment
from repro.ir import lower_shader, promote_to_ssa
from repro.ir.verify import verify_function
from repro.passes import OptimizationFlags


def _verify_case(source: str) -> None:
    pp = preprocess(source)
    module = lower_shader(parse_shader(pp.text), version=pp.version)
    promote_to_ssa(module.function)
    verify_function(module.function)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_synth_family_is_pure_function_of_seed_and_index():
    a = synth_family(7, 3)
    b = synth_family(7, 3)
    assert [c.source for c in a.instances()] == \
        [c.source for c in b.instances()]
    assert [v.name for v in a.variants] == [v.name for v in b.variants]


def test_synth_seed_changes_content_not_shape():
    a = synth_family(7, 3)
    b = synth_family(8, 3)
    assert a.name == b.name == "synth_00003"
    assert a.template != b.template


def test_synth_names_sort_in_index_order():
    names = [synth.family_name(i) for i in (0, 9, 10, 99, 100, 4321)]
    assert names == sorted(names)
    with pytest.raises(ValueError):
        synth.family_name(synth.MAX_SYNTH_FAMILIES)
    with pytest.raises(ValueError):
        synth.family_name(-1)


def test_synth_sources_are_distinct():
    cases = default_corpus(families=None, synth_seed=2018, synth_count=25)
    synth_cases = [c for c in cases if c.family.startswith("synth_")]
    assert len(synth_cases) >= 50
    assert len({c.source for c in synth_cases}) == len(synth_cases)


# ---------------------------------------------------------------------------
# Validity: every block in every pool, and full pipeline on a sample
# ---------------------------------------------------------------------------


def test_every_feature_block_composes_validly():
    """Each block, with every knob enabled, parses and verifies as IR."""
    fetch = synth.FETCH_BLOCKS[0]
    pools = (synth.FETCH_BLOCKS + synth.LIGHT_BLOCKS + synth.SHAPE_BLOCKS
             + synth.POST_BLOCKS)
    for block in pools:
        blocks = [block] if block in synth.FETCH_BLOCKS else [fetch, block]
        template = synth._compose_template(blocks)
        defines = {knob: options[-1]
                   for b in blocks for knob, options in b.value_knobs.items()}
        for b in blocks:
            for knob in b.bool_knobs:
                defines[knob] = ""
        define_block = "".join(f"#define {k} {v}".rstrip() + "\n"
                               for k, v in sorted(defines.items()))
        _verify_case("#version 450\n" + define_block + template)


def test_synth_corpus_parses_and_verifies_broadly():
    for case in iter_corpus(synth_seed=11, synth_count=15):
        if case.family.startswith("synth_"):
            _verify_case(case.source)


def test_synth_cases_compile_and_measure_on_all_platforms():
    """Full pipeline: 256-combination variant sets + every simulated GPU."""
    cases = [c for c in iter_corpus(synth_seed=2018, synth_count=3)
             if c.family.startswith("synth_")]
    assert cases
    environments = [ShaderExecutionEnvironment(p) for p in all_platforms()]
    for case in cases:
        variants = ShaderCompiler(case.source).all_variants()
        assert variants.unique_count >= 1
        for env in environments:
            report = env.run(case.source, seed=3)
            assert report.measurement.mean_ns > 0
            assert report.cost.registers > 0


def test_synth_corpus_stresses_every_flagged_pass():
    """Across a modest synth corpus, each key flag rewrites some case."""
    sources = [c.source for c in iter_corpus(synth_seed=2018, synth_count=12)
               if c.family.startswith("synth_")]
    pending = {"unroll", "gvn", "fp_reassociate", "div_to_mul", "hoist"}
    for source in sources:
        if not pending:
            break
        compiler = ShaderCompiler(source)
        baseline = compiler.compile(OptimizationFlags.none()).output
        for flag in sorted(pending):
            flipped = compiler.compile(
                OptimizationFlags.none().with_flag(flag, True)).output
            if flipped != baseline:
                pending.discard(flag)
    assert not pending, f"no synth case exercised: {sorted(pending)}"


# ---------------------------------------------------------------------------
# Lazy corpus stream
# ---------------------------------------------------------------------------


def test_truncation_is_lazy(monkeypatch):
    built = []
    real = synth.synth_family

    def counting(seed, index):
        built.append(index)
        return real(seed, index)

    monkeypatch.setattr(synth, "synth_family", counting)
    # 50 hand-written cases come first alphabetically up to 'ssao'; the
    # synth families sort between 'ssao' and 'terrain_lod'.
    cases = default_corpus(max_shaders=5, synth_count=50_000)
    assert len(cases) == 5
    assert built == []          # truncated before any synth family


def test_truncation_matches_eager_prefix():
    full = default_corpus(synth_seed=4, synth_count=5)
    for cut in (1, 17, len(full)):
        trunc = default_corpus(max_shaders=cut, synth_seed=4, synth_count=5)
        assert [c.source for c in trunc] == [c.source for c in full][:cut]


def test_synth_count_cap_is_validated():
    with pytest.raises(ValueError):
        list(iter_corpus(synth_count=synth.MAX_SYNTH_FAMILIES + 1))


def test_corpus_families_includes_synth():
    families = corpus_families(synth_seed=2, synth_count=3)
    assert "synth_00002" in families
    assert "blur" in families
    assert len(corpus_families()) + 3 == len(families)


def test_default_corpus_unchanged_without_synth():
    cases = default_corpus()
    assert len(cases) == 50
    assert not any(c.family.startswith("synth_") for c in cases)


# ---------------------------------------------------------------------------
# The corpus-composition artifact
# ---------------------------------------------------------------------------


def test_corpus_composition_spec_splits_synth_and_handwritten():
    from repro.harness.results import ShaderResult, StudyResult, VariantRecord

    def shader(name, family, loc, uniques):
        result = ShaderResult(name=name, family=family, loc=loc,
                              arm_static_cycles=1.0)
        result.variants = [VariantRecord(i, [i], "h") for i in range(uniques)]
        return result

    study = StudyResult(platforms=["Intel"], seed=5, shaders=[
        shader("flat.base", "flat", 6, 2),
        shader("flat.gamma", "flat", 8, 3),
        shader("synth_00000.base", "synth_00000", 40, 12),
    ])
    spec = corpus_composition_spec(study)
    families = [row[0] for row in spec.rows]
    assert families[:2] == ["flat", "synth_00000"]
    assert "(all synthesized)" in families
    assert "(all hand-written)" in families
    flat_row = spec.rows[families.index("flat")]
    assert flat_row[1:] == (2, 6, 8, 8, "2.5")
    assert "3 cases across 2 families" in spec.caption
    assert "2 hand-written" in spec.caption and "1 synthesized" in spec.caption


@pytest.mark.parametrize("payload, message", [
    ({"max_shaders": -1}, "max_shaders must be >= 0"),
    ({"synth_count": -2}, "synth_count must be >= 0"),
    ({"max_shaders": -3, "synth_seed": 5, "synth_count": 4},
     "max_shaders must be >= 0"),
])
def test_corpus_spec_rejects_negative_counts(payload, message):
    """The service's ``JobSpec`` path rebuilds specs with ``from_dict``: a
    negative count fails there, not when the job builds its corpus."""
    with pytest.raises(ValueError, match=message):
        CorpusSpec.from_dict(payload)
    assert CorpusSpec.from_dict({"max_shaders": 0}).build() == []
    assert CorpusSpec.from_dict({"max_shaders": None}).max_shaders is None
