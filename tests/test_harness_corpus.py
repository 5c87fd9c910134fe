"""Harness, corpus, study, and analysis tests."""

import random

import pytest

from repro.analysis.cycle_analyzer import arm_static_cycles
from repro.analysis.flags import (
    best_static_flags, flag_applicability, isolated_flag_impact,
)
from repro.analysis.speedups import average_speedups, top_shaders
from repro.analysis.static_metrics import loc_distribution, loc_summary
from repro.analysis.uniqueness import variant_count_distribution
from repro.corpus import MOTIVATING_SHADER, default_corpus
from repro.corpus.generator import corpus_families
from repro.glsl import parse_shader, preprocess, shader_interface
from repro.gpu.vendors import INTEL, NVIDIA
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.protocol import protocol_noise, run_protocol
from repro.harness.results import StudyResult
from repro.harness.study import StudyConfig, run_study
from repro.harness.uniforms import (
    default_textures, default_uniform_values, fragment_inputs,
)
from repro.harness.vertex_gen import generate_vertex_shader
from repro.gpu.timing import TimerModel


def interface_of(source):
    return shader_interface(parse_shader(preprocess(source).text))


# ---------------------------------------------------------------------------
# Uniform defaults (paper Section IV-B)
# ---------------------------------------------------------------------------


def test_float_uniforms_default_half():
    iface = interface_of("uniform float a;\nuniform vec3 b;\nvoid main() { }")
    values = default_uniform_values(iface)
    assert values["a"] == 0.5
    assert values["b"] == (0.5, 0.5, 0.5)


def test_sampler_uniforms_get_distinct_textures():
    iface = interface_of(
        "uniform sampler2D a;\nuniform sampler2D b;\nvoid main() { }")
    textures = default_textures(iface)
    assert textures["a"].sample((0.3, 0.3)) != textures["b"].sample((0.3, 0.3))


def test_uniform_array_defaults():
    iface = interface_of("uniform vec3 ls[4];\nvoid main() { }")
    values = default_uniform_values(iface)
    assert len(values["ls"]) == 4


def test_fragment_inputs_carry_position():
    iface = interface_of("in vec2 uv;\nin vec3 pos;\nvoid main() { }")
    values = fragment_inputs(iface, (0.25, 0.75))
    assert values["uv"] == (0.25, 0.75)
    assert values["pos"][:2] == (0.25, 0.75)


# ---------------------------------------------------------------------------
# Vertex shader generation
# ---------------------------------------------------------------------------


def test_generated_vertex_shader_parses_and_matches_interface():
    iface = interface_of(
        "in vec2 uv;\nin vec3 v_n;\nin float v_d;\nout vec4 f;\nvoid main() { }")
    vs = generate_vertex_shader(iface)
    vs_iface = interface_of(vs)
    out_names = {o.name for o in vs_iface.outputs}
    assert {"uv", "v_n", "v_d"} <= out_names
    assert "gl_Position" in out_names
    assert any(u.name == "u_depth" for u in vs_iface.uniforms)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def test_protocol_shape_and_determinism():
    timer = TimerModel(sigma=0.02, overhead_ns=0.0, quantum_ns=1.0)
    m1 = run_protocol(50000.0, timer, protocol_noise(timer, random.Random(3)))
    m2 = run_protocol(50000.0, timer, protocol_noise(timer, random.Random(3)))
    assert m1.mean_ns == m2.mean_ns
    assert len(m1.repeat_means) == 5
    assert m1.std_ns < m1.mean_ns * 0.01  # frame averaging crushes noise


def test_environment_report_fields():
    env = ShaderExecutionEnvironment(INTEL)
    report = env.run(MOTIVATING_SHADER, seed=3)
    assert report.true_ns > 0
    assert report.measurement.mean_ns > 0
    assert report.cost.registers > 0
    assert "gl_Position" in report.vertex_shader


def test_environment_measurement_reflects_noise_seed():
    env = ShaderExecutionEnvironment(INTEL)
    a = env.run(MOTIVATING_SHADER, seed=1).measurement.mean_ns
    b = env.run(MOTIVATING_SHADER, seed=2).measurement.mean_ns
    c = env.run(MOTIVATING_SHADER, seed=1).measurement.mean_ns
    assert a == c
    assert a != b


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_corpus_has_family_structure():
    cases = default_corpus()
    families = {c.family for c in cases}
    assert len(families) >= 12
    assert len(cases) >= 40
    by_family = {}
    for case in cases:
        by_family.setdefault(case.family, []).append(case)
    assert any(len(v) >= 3 for v in by_family.values())


def test_corpus_defines_are_materialized():
    cases = default_corpus(families=["phong"])
    assert any("#define NUM_LIGHTS 4" in c.source for c in cases)


def test_corpus_loc_power_law():
    """Fig. 4a shape: most shaders < 50 LoC, none above ~300."""
    summary = loc_summary(default_corpus())
    assert summary["fraction_under_50"] > 0.5
    assert summary["max"] <= 300
    assert summary["median"] < 50


def test_corpus_family_lookup():
    families = corpus_families()
    assert "blur" in families and "pbr" in families


def test_arm_static_cycles_orders_by_complexity():
    simple = [c for c in default_corpus() if c.name == "flat.base"][0]
    complex_ = [c for c in default_corpus() if c.name == "pbr.l4_aces_gamma"][0]
    assert arm_static_cycles(complex_.source) > arm_static_cycles(simple.source) * 3


# ---------------------------------------------------------------------------
# Mini-study + analysis integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_study():
    corpus = default_corpus(families=["blur", "sprite", "fog"])
    return run_study(corpus, StudyConfig(platforms=[INTEL, NVIDIA], seed=11))


def test_study_records_all_shaders_and_platforms(mini_study):
    assert len(mini_study.shaders) == 9  # 3 blur + 3 sprite + 3 fog
    assert mini_study.platforms == ["Intel", "NVIDIA"]


def test_variants_partition_all_256_combos(mini_study):
    for shader in mini_study.shaders:
        indices = sorted(i for v in shader.variants for i in v.flag_indices)
        assert indices == list(range(256))


def test_uniqueness_counts_small(mini_study):
    counts = variant_count_distribution(mini_study)
    assert all(1 <= c <= 48 for c in counts)


def test_speedup_functions_run(mini_study):
    rows = average_speedups(mini_study)
    assert {r.platform for r in rows} == {"Intel", "NVIDIA"}
    top = top_shaders(mini_study, "Intel", count=3)
    assert len(top) == 3


def test_best_static_flags_is_valid_combination(mini_study):
    flags = best_static_flags(mini_study, "Intel")
    assert 0 <= flags.index < 256


def test_flag_applicability_counts_bounded(mini_study):
    stats = flag_applicability(mini_study, "Intel")
    for name, stat in stats.items():
        assert 0 <= stat.changes_code <= stat.total_shaders
        assert 0 <= stat.in_optimal_set <= stat.total_shaders


def test_adce_never_applicable(mini_study):
    stats = flag_applicability(mini_study, "Intel")
    assert stats["adce"].changes_code == 0


def test_isolated_impact_has_entry_per_shader(mini_study):
    impact = isolated_flag_impact(mini_study, "Intel", "unroll")
    assert len(impact.speedups_pct) == len(mini_study.shaders)


def test_full_report_reads_rows_not_per_combination_lookups(mini_study,
                                                           monkeypatch):
    """Every artifact reads the speed-up rows: only Fig. 9's isolated
    impacts look variants up, twice per (shader, platform, flag), where a
    per-combination analysis would look up 256 x shaders x platforms."""
    from helpers import count_calls
    from repro.harness.results import ShaderResult
    from repro.passes import FLAG_COUNT
    from repro.reporting import ReportBuilder

    lookups = count_calls(monkeypatch, ShaderResult, "variant_for_flags")
    report = ReportBuilder(config=StudyConfig(platforms=[INTEL, NVIDIA])) \
        .build(mini_study)
    assert report.sections
    shaders, platforms = len(mini_study.shaders), len(mini_study.platforms)
    assert len(lookups) == 2 * FLAG_COUNT * shaders * platforms


def test_studies_build_no_flag_objects(tmp_path, monkeypatch):
    """A cold serial study and its warm replay group each case's variants
    by flag index and construct no ``OptimizationFlags``."""
    from helpers import count_calls
    from repro.passes import OptimizationFlags

    corpus = default_corpus(max_shaders=2)
    config = StudyConfig(platforms=[INTEL],
                         cache_path=str(tmp_path / "cache.jsonl"))
    constructed = count_calls(monkeypatch, OptimizationFlags, "__init__")
    cold = run_study(corpus, config)
    warm = run_study(corpus, config)
    assert constructed == []
    assert warm.to_json() == cold.to_json()


def test_study_json_roundtrip(mini_study):
    text = mini_study.to_json()
    back = StudyResult.from_json(text)
    assert back.platforms == mini_study.platforms
    assert len(back.shaders) == len(mini_study.shaders)
    assert (back.shaders[0].variants[0].times_ns
            == mini_study.shaders[0].variants[0].times_ns)
