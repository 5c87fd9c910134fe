"""CLI and reporting-module tests."""

import pytest

from repro.cli import main, parse_flags
from repro.corpus import MOTIVATING_SHADER
from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags
from repro.reporting import (
    render_bars, render_histogram, render_table, render_violin_table,
    violin_summary,
)


@pytest.fixture()
def shader_file(tmp_path):
    path = tmp_path / "blur.frag"
    path.write_text(MOTIVATING_SHADER)
    return str(path)


# ---------------------------------------------------------------------------
# Flag parsing
# ---------------------------------------------------------------------------


def test_parse_flags_names():
    flags = parse_flags("unroll,fp_reassociate")
    assert flags.unroll and flags.fp_reassociate and not flags.gvn


def test_parse_flags_special_values():
    assert parse_flags("default") == DEFAULT_LUNARGLASS
    assert parse_flags("all") == OptimizationFlags.all()
    assert parse_flags("none") == OptimizationFlags.none()


def test_parse_flags_unknown_rejected():
    with pytest.raises(SystemExit):
        parse_flags("warpdrive")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def test_cli_optimize(shader_file, capsys):
    assert main(["optimize", shader_file, "--flags",
                 "unroll,fp_reassociate,div_to_mul"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#version")
    assert out.count("texture(") == 9  # unrolled
    assert "for (" not in out


def test_cli_optimize_es(shader_file, capsys):
    assert main(["optimize", shader_file, "--es", "--flags", "none"]) == 0
    assert "precision highp float;" in capsys.readouterr().out


def test_cli_variants(shader_file, capsys):
    assert main(["variants", shader_file]) == 0
    out = capsys.readouterr().out
    assert "unique variants from 256 combinations" in out


def test_cli_time_single_platform(shader_file, capsys):
    assert main(["time", shader_file, "--platform", "AMD",
                 "--flags", "unroll"]) == 0
    out = capsys.readouterr().out
    assert "AMD" in out and "speed-up" in out


def test_cli_rejects_the_removed_trie_stats_options(tmp_path, capsys):
    """``--trie-stats`` went with the corpus trie; argument parsing
    rejects it before any study work starts."""
    for argv in (["study", "--max-shaders", "1",
                  "--trie-stats", str(tmp_path / "trie.json")],
                 ["merge-results", "s1.json",
                  "--output", str(tmp_path / "merged.json"),
                  "--trie-stats", "s1.stats.json",
                  "--trie-stats-out", str(tmp_path / "merged.stats.json")]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
        assert "--trie-stats" in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["study"], ["tune"], ["report"],
                                     ["client", "submit"]],
                         ids=["study", "tune", "report", "client-submit"])
@pytest.mark.parametrize("flag, value", [("--max-shaders", "-1"),
                                         ("--synth-count", "-2"),
                                         ("--max-shaders", "few")])
def test_cli_rejects_bad_corpus_counts_at_parse_time(tmp_path, monkeypatch,
                                                     capsys, command, flag,
                                                     value):
    """A negative or non-integer corpus count is an argparse error (exit
    2) on every command that selects a corpus, before any work starts."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([*command, flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert ("must be >= 0" if value.startswith("-") else "invalid int") in err
    assert list(tmp_path.iterdir()) == []


#: Every flag ``report --study`` ignores, with a value that sets it.
_IGNORED_WITH_STUDY = {
    "--max-shaders": ["2"], "--seed": ["7"], "--jobs": ["2"],
    "--synth-count": ["1"], "--synth-seed": ["5"],
    "--import-dir": ["wild"], "--cache": ["cache.json"], "--verbose": [],
}


@pytest.mark.parametrize("flag", [None, *_IGNORED_WITH_STUDY])
def test_cli_report_study_names_each_ignored_flag(tmp_path, monkeypatch,
                                                  capsys, flag):
    """``report --study`` renders the saved study as it is, so every corpus,
    seed, pool and cache flag is ignored, and the note says so before the
    study is read."""
    monkeypatch.chdir(tmp_path)
    extra = [] if flag is None else [flag, *_IGNORED_WITH_STUDY[flag]]
    with pytest.raises(SystemExit, match="cannot read study"):
        main(["report", "--study", "missing.json", "--out-dir", "out",
              *extra])
    err = capsys.readouterr().err
    if flag is None:
        assert "ignored with --study" not in err
    else:
        assert f"note: {flag} ignored with --study" in err


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def test_fmt_cell_keeps_sign_above_1000():
    """Mixed-magnitude speed-up columns must format consistently: every
    float carries an explicit sign, whatever its magnitude."""
    from repro.reporting import fmt_cell
    assert fmt_cell(2.5) == "+2.50"
    assert fmt_cell(-4.25) == "-4.25"
    assert fmt_cell(1234.5).startswith("+")
    assert fmt_cell(-1234.5).startswith("-")
    assert fmt_cell(1.5e6).startswith("+")
    assert fmt_cell(999.994) == "+999.99"
    assert fmt_cell(999.996) == "+1000"   # rounds across the branch boundary
    assert fmt_cell(7) == "7"          # ints are not sign-decorated
    assert fmt_cell("x") == "x"


def test_render_table_mixed_magnitudes_signed():
    text = render_table(["v"], [[1234.5], [-0.25], [2.0]])
    cells = [line.strip() for line in text.splitlines()[2:]]
    assert all(cell[0] in "+-" for cell in cells)


def test_render_table_alignment():
    text = render_table(["a", "long header"], [[1, 2.5], [333, -4.25]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert all(len(line) == len(lines[1]) for line in lines[1:])
    assert "+2.50" in text and "-4.25" in text


def test_render_bars_handles_negative():
    text = render_bars([5.0, -2.5], ["up", "down"])
    assert "up" in text and "down" in text and "-#" in text


def test_render_bars_empty():
    assert "(empty)" in render_bars([], title="x")


def test_render_histogram_bins_sum_to_count():
    import re
    values = [float(i) for i in range(100)]
    text = render_histogram(values, bins=10)
    counts = [int(m.group(1)) for m in re.finditer(r"\)\s+(\d+)", text)]
    assert sum(counts) == 100


def test_violin_summary_quartiles():
    summary = violin_summary(list(range(1, 101)))
    assert summary["min"] == 1
    assert summary["max"] == 100
    assert 24 <= summary["p25"] <= 27
    assert 49 <= summary["median"] <= 52
    assert summary["mean"] == pytest.approx(50.5)


def test_violin_summary_empty():
    assert violin_summary([])["mean"] == 0.0


def test_render_violin_table():
    text = render_violin_table({"flagA": [1.0, 2.0], "flagB": [-1.0, 3.0]})
    assert "flagA" in text and "flagB" in text and "median" in text
