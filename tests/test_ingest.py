"""Ingest pipeline tests: wild shaders end-to-end into the study corpus."""

import pytest

from repro.corpus.generator import (CorpusSpec, IMPORTED_FAMILY,
                                    default_corpus)
from repro.errors import ReproError
from repro.glsl import parse_shader
from repro.glsl.ingest import (SHADER_SUFFIXES, ingest_directory, ingest_file,
                               ingest_source, iter_shader_files)
from repro.gpu.platform import platform_by_name
from repro.harness.study import StudyConfig, run_study
from repro.ir import verify_function
from helpers import ast_shape

WILD_DIR = "examples/wild"


def test_wild_directory_ingests_at_least_five_shaders():
    results = ingest_directory(WILD_DIR)
    assert len(results) >= 5
    for result in results:
        assert result.canonical.strip()
        assert result.shader.function("main") is not None


def test_iter_shader_files_is_sorted_and_filtered():
    paths = iter_shader_files(WILD_DIR)
    assert paths == sorted(paths)
    assert all(p.suffix in SHADER_SUFFIXES for p in paths)
    assert len(paths) >= 5


def test_ingest_file_names_after_stem():
    path = iter_shader_files(WILD_DIR)[0]
    result = ingest_file(path)
    assert result.name == path.stem
    assert result.loc_before > 0
    assert result.loc_after > 0


def test_ingested_canonical_is_core_subset():
    for result in ingest_directory(WILD_DIR):
        text = result.canonical
        for construct in ("struct", "switch", "do {", "#define", "#if"):
            assert construct not in text, (result.name, construct)


def test_ingest_is_deterministic():
    first = [r.canonical for r in ingest_directory(WILD_DIR)]
    second = [r.canonical for r in ingest_directory(WILD_DIR)]
    assert first == second


def test_ingest_source_defines_override():
    source = ("#ifdef FAST\nout float r;\nvoid main() { r = 1.0; }\n"
              "#else\n#error need FAST\n#endif\n")
    result = ingest_source(source, name="gated", defines={"FAST": "1"})
    assert "r = 1.0;" in result.canonical
    with pytest.raises(ReproError):
        ingest_source(source, name="gated")


def test_long_if_chain_imports_and_compiles_through_gvn():
    """Each sequential `if` nests the dominator tree one level deeper, past
    Python's recursion limit here; mem2reg renaming and GVN walk it
    without recursing."""
    count = 1200
    body = "".join(
        f"    if (uv.x > {i / count:.6f}) {{ acc += {i % 7 + 1}.0; }}\n"
        for i in range(count))
    source = ("#version 330\nin vec2 uv;\nout vec4 color;\n"
              "void main() {\n    float acc = 0.0;\n" + body
              + "    color = vec4(acc);\n}\n")
    result = ingest_source(source, name="if_chain")
    jit = platform_by_name("NVIDIA").jit
    assert "gvn" in jit.passes
    module = jit.compile(result.canonical)
    verify_function(module.function)


def test_import_of_a_double_negation_keeps_its_meaning():
    """`- -f` of a local must not come back as `--f`, a pre-decrement."""
    source = ("uniform float u;\nout vec4 color;\nvoid main() {\n"
              "    float f = u;\n    color = vec4(- -f);\n}\n")
    result = ingest_source(source, name="double_negation")
    assert "color = vec4(-(-f));" in result.canonical
    assert ast_shape(parse_shader(result.canonical)) == ast_shape(
        parse_shader(source))


_DEEP_IF_BODY = "\nout vec4 f;\nvoid main() { f = vec4(1.0); }\n#endif\n"


@pytest.mark.parametrize("name", ["octal_literal", "deep_parentheses",
                                  "deep_if_parentheses", "deep_if_sum"])
def test_import_of_malformed_input_reports_fail_without_a_traceback(
        name, tmp_path, capsys):
    """``repro import`` reports a front-end rejection as a FAIL line and
    exits 1: the committed octal-literal example, a constructor around
    600 nested parentheses, and ``#if`` conditions of 2,000 nested
    parentheses and of a 3,000-term sum."""
    from repro.cli import main

    if name == "octal_literal":
        path = "examples/broken/octal_literal.frag"
        error = "ParseError: line 2, col 23: invalid octal literal '09'"
    elif name == "deep_parentheses":
        path = tmp_path / "deep_parentheses.frag"
        path.write_text("out vec4 f;\nvoid main() {\n    f = vec4("
                        + "(" * 600 + "1.0" + ")" * 600 + ");\n}\n")
        error = "ParseError: line 3, col 140: nesting deeper than 128"
    else:
        path = tmp_path / f"{name}.frag"
        condition = ("(" * 2000 + "1" + ")" * 2000 if name.endswith("parentheses")
                     else " + ".join(["1"] * 3000))
        path.write_text(f"#if {condition}" + _DEEP_IF_BODY)
        error = "PreprocessorError: line 1: #if condition nests deeper than 128"
    assert main(["import", str(path)]) == 1
    assert f"FAIL {path}: {error}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# corpus integration
# ---------------------------------------------------------------------------


def test_corpus_merges_imported_family():
    cases = default_corpus(import_dir=WILD_DIR)
    imported = [c for c in cases if c.family == IMPORTED_FAMILY]
    assert len(imported) >= 5
    assert [c.name for c in imported] == sorted(c.name for c in imported)
    # Families arrive in sorted order with 'imported' slotted alphabetically.
    families = [c.family for c in cases]
    assert families == sorted(families)


def test_corpus_spec_round_trips_import_dir():
    spec = CorpusSpec(import_dir=WILD_DIR, max_shaders=20)
    again = CorpusSpec.from_dict(spec.to_dict())
    assert again.import_dir == WILD_DIR
    assert "--import-dir" in spec.to_cli_args()


def test_corpus_spec_digest_stable_without_import_dir():
    # Omitting import_dir must serialize exactly as before the field
    # existed, so historical job content digests stay valid.
    assert "import_dir" not in CorpusSpec().to_dict()


def test_imported_study_is_deterministic_across_jobs():
    cases = [c for c in default_corpus(import_dir=WILD_DIR)
             if c.family == IMPORTED_FAMILY][:3]
    serial = run_study(cases, StudyConfig(max_workers=1))
    parallel = run_study(cases, StudyConfig(max_workers=2))
    assert serial.to_json() == parallel.to_json()
