"""Report-pipeline tests: the artifact registry, rendering determinism
(across runs and ``--jobs`` settings), and the warm-cache zero-work
guarantee."""

import pytest

from repro.cli import main
from repro.corpus import default_corpus
from repro.gpu.platform import platform_by_name
from repro.harness.study import StudyConfig, run_study
from repro.reporting import (
    ReportBuilder, all_artifacts, artifact_names, get_artifact,
)

PLATFORM_NAMES = ["Intel", "ARM"]


def _platforms():
    return [platform_by_name(name) for name in PLATFORM_NAMES]


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(max_shaders=2)


@pytest.fixture(scope="module")
def study(corpus):
    return run_study(corpus, StudyConfig(platforms=_platforms()))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_has_paper_artifacts():
    artifacts = all_artifacts()
    assert len(artifacts) >= 5
    assert len({a.name for a in artifacts}) == len(artifacts)
    for artifact in artifacts:
        assert artifact.paper_ref, f"{artifact.name} lacks a paper mapping"
        assert artifact.title and artifact.description


def test_registry_lookup():
    assert get_artifact("best-flags").paper_ref.startswith("Table I")
    assert "best-flags" in artifact_names()
    with pytest.raises(KeyError):
        get_artifact("no-such-artifact")


# ---------------------------------------------------------------------------
# Building and rendering
# ---------------------------------------------------------------------------


def test_report_covers_every_artifact(study):
    report = ReportBuilder(config=StudyConfig(platforms=_platforms())) \
        .build(study)
    assert [s.artifact.name for s in report.sections] == artifact_names()
    for section in report.sections:
        assert section.specs, f"{section.artifact.name} computed no figures"
    html = report.to_html()
    markdown = report.to_markdown()
    for artifact in all_artifacts():
        assert f'id="{artifact.name}"' in html
        assert f"(#{artifact.name})" in markdown


def test_report_only_selection(study):
    builder = ReportBuilder(config=StudyConfig(platforms=_platforms()))
    report = builder.build(study, only=["best-flags", "uniqueness"])
    assert [s.artifact.name for s in report.sections] == \
        ["best-flags", "uniqueness"]


def test_report_rendering_deterministic(study):
    builder = ReportBuilder(config=StudyConfig(platforms=_platforms()))
    first = builder.build(study)
    second = builder.build(study)
    assert first.to_text() == second.to_text()
    assert first.to_markdown() == second.to_markdown()
    assert first.to_html() == second.to_html()


def test_report_identical_across_jobs(corpus, study):
    """Mirrors the study's byte-identical guarantee: a parallel study run
    renders the exact same report bytes as the serial one."""
    parallel_study = run_study(
        corpus, StudyConfig(platforms=_platforms(), max_workers=2))
    builder = ReportBuilder(config=StudyConfig(platforms=_platforms()))
    serial = builder.build(study)
    parallel = builder.build(parallel_study)
    assert serial.to_text() == parallel.to_text()
    assert serial.to_markdown() == parallel.to_markdown()
    assert serial.to_html() == parallel.to_html()


def test_report_write(tmp_path, study):
    report = ReportBuilder(config=StudyConfig(platforms=_platforms())) \
        .build(study)
    paths = report.write(tmp_path)
    html = paths["html"].read_text()
    assert html.startswith("<!DOCTYPE html>") and "<svg" in html
    assert paths["md"].read_text().startswith("# ")


# ---------------------------------------------------------------------------
# Warm-cache regeneration: zero compiles, zero measurements
# ---------------------------------------------------------------------------


def test_warm_cache_report_does_zero_work(tmp_path, corpus):
    cache_path = str(tmp_path / "cache.json")
    config = StudyConfig(platforms=_platforms(), cache_path=cache_path)

    cold = ReportBuilder(config=config)
    cold_report = cold.build_from_corpus(corpus)
    assert cold.engine.compile_count > 0 and cold.engine.measure_count > 0
    cold.engine.cache.save()

    warm = ReportBuilder(config=config)
    warm_report = warm.build_from_corpus(corpus)
    assert warm.engine.frontend_count == 0, "warm report re-ran the front end"
    assert warm.engine.compile_count == 0, "warm report re-ran the pipeline"
    assert warm.engine.measure_count == 0, "warm report re-measured"
    assert warm_report.to_html() == cold_report.to_html()
    assert warm_report.to_markdown() == cold_report.to_markdown()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_report_list(capsys):
    assert main(["report", "--list"]) == 0
    out = capsys.readouterr().out
    for artifact in all_artifacts():
        assert artifact.name in out
        assert artifact.paper_ref in out


def test_cli_report_unknown_artifact(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--only", "warpdrive", "--out-dir", str(tmp_path)])


def test_cli_report_missing_study_file(tmp_path):
    with pytest.raises(SystemExit, match="cannot read study"):
        main(["report", "--study", str(tmp_path / "nope.json"),
              "--out-dir", str(tmp_path)])


def test_cli_report_rejects_a_study_missing_a_combination(tmp_path, study):
    """A saved study whose shader lacks flag combination 5 is refused as
    not a saved study, naming the shader and the index, before any
    artifact reads it."""
    import json

    payload = json.loads(study.to_json())
    shader = payload["shaders"][1]
    for variant in shader["variants"]:
        if 5 in variant["flag_indices"]:
            variant["flag_indices"].remove(5)
    path = tmp_path / "holey.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit, match="is not a saved study JSON") as exc:
        main(["report", "--study", str(path), "--out-dir",
              str(tmp_path / "out")])
    assert f"shader {shader['name']!r}" in str(exc.value)
    assert "missing [5]" in str(exc.value)
    assert not (tmp_path / "out").exists()


def test_study_json_must_cover_every_combination_once(study):
    import json
    import re

    from repro.harness.results import StudyResult

    def broken(edit) -> str:
        payload = json.loads(study.to_json())
        edit(payload["shaders"][0]["variants"])
        return json.dumps(payload)

    name = study.shaders[0].name
    for edit, problem in [
            (lambda vs: vs[-1]["flag_indices"].append(0), "repeated [0]"),
            (lambda vs: vs[-1]["flag_indices"].append(256), "invalid [256]"),
            (lambda vs: vs[0]["flag_indices"].remove(0), "missing [0]"),
            (lambda vs: vs[0]["flag_indices"].__setitem__(0, 0.0),
             "invalid [0.0]")]:
        with pytest.raises(ValueError, match=re.escape(problem)) as exc:
            StudyResult.from_json(broken(edit))
        assert repr(name) in str(exc.value)
    assert StudyResult.from_json(study.to_json()).to_json() == study.to_json()


def test_variant_cache_roundtrips_sparse_indices(tmp_path):
    """put_variants must preserve the real flag indices, even for sparse
    maps (a dense-remap regression poisoned warm caches silently)."""
    from repro.search.cache import ResultCache, SourceRecord
    cache = ResultCache(tmp_path / "c.json")
    sparse = SourceRecord({3: "textA", 7: "textB", 250: "textA"}, 12.5, 4)
    cache.put_variants("digest", sparse)
    cache.save()
    reloaded = ResultCache(tmp_path / "c.json")
    assert reloaded.get_variants("digest") == sparse
    assert reloaded.get_variants("unknown") is None


def test_cli_report_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cache = str(tmp_path / "cache.json")
    args = ["report", "--max-shaders", "1", "--cache", cache,
            "--out-dir", str(out_dir)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "rendered" in first and "engine work:" in first
    html = (out_dir / "report.html").read_text()
    markdown = (out_dir / "report.md").read_text()
    assert "<svg" in html and "## " in markdown

    # Second run against the warm cache: zero work, identical bytes.
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "0 front-ends, 0 pass-pipeline compiles, 0 measurements" in second
    assert (out_dir / "report.html").read_text() == html
    assert (out_dir / "report.md").read_text() == markdown
