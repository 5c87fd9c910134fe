"""Docs-tree health: the files exist, intra-repo links resolve, the
paper-mapping table names real modules and artifacts, every documented
``repro`` command parses against the real argparse tree, the public
surface keeps its docstrings, and ``repro.__version__`` is the version
``pyproject.toml`` declares."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.reporting import artifact_names

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = ("architecture.md", "paper_mapping.md", "cli.md", "corpus.md",
             "tutorial.md", "service.md", "dispatch.md", "import.md")


def test_package_version_matches_pyproject():
    import repro

    project = (ROOT / "pyproject.toml").read_text().split("[project]", 1)[1]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match, "pyproject.toml declares no [project] version"
    assert repro.__version__ == match.group(1)


def test_docs_tree_exists():
    for name in DOC_FILES:
        path = ROOT / "docs" / name
        assert path.exists(), f"missing docs/{name}"
        assert path.read_text().startswith("# ")


def test_intra_repo_links_resolve():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs_links.py")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_paper_mapping_names_real_artifacts_and_modules():
    text = (ROOT / "docs" / "paper_mapping.md").read_text()
    known = set(artifact_names())
    referenced = set(re.findall(r"`([a-z0-9-]+)`", text)) & \
        {name for name in known}
    assert referenced == known, (
        f"paper_mapping.md must mention every registered artifact; "
        f"missing: {sorted(known - referenced)}")
    for module in re.findall(r"`((?:analysis|search|gpu|core|glsl|harness|"
                             r"corpus|passes)/[a-z_{},./]+\.py)`", text):
        for part in _expand_braces(module):
            assert (ROOT / "src" / "repro" / part).exists(), \
                f"paper_mapping.md references missing module {part}"


def _expand_braces(path: str):
    match = re.search(r"\{([^}]*)\}", path)
    if not match:
        return [path]
    head, tail = path[:match.start()], path[match.end():]
    return [head + option + tail for option in match.group(1).split(",")]


def test_readme_links_docs_tree():
    text = (ROOT / "README.md").read_text()
    for name in DOC_FILES:
        assert f"docs/{name}" in text, f"README does not link docs/{name}"
    assert "repro report" in text


# ---------------------------------------------------------------------------
# Documented commands must parse against the real CLI
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```sh\n(.*?)```", re.DOTALL)


def _documented_commands():
    """Every ``repro …`` invocation inside a ```sh fence in docs/ + README."""
    sources = [ROOT / "README.md"] + [ROOT / "docs" / name
                                      for name in DOC_FILES]
    for path in sources:
        for block in _FENCE_RE.findall(path.read_text()):
            for line in block.splitlines():
                line = line.split("#", 1)[0].strip()
                for part in line.split("&&"):
                    part = part.strip()
                    if part.startswith("repro "):
                        yield f"{path.name}: {part}", shlex.split(part)[1:]


_COMMANDS = sorted(_documented_commands())


def test_docs_contain_repro_commands():
    """The extraction itself works (guards against fence-format drift)."""
    assert len(_COMMANDS) >= 20
    documented = {argv[0] for _, argv in _COMMANDS}
    assert {"optimize", "variants", "study", "merge-results", "tune",
            "report", "serve", "client"} <= documented


@pytest.mark.parametrize("label,argv", _COMMANDS,
                         ids=[label for label, _ in _COMMANDS])
def test_documented_command_parses(label, argv):
    args = build_parser().parse_args(argv)
    assert callable(args.fn), label


def test_public_surface_has_docstrings():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docstrings.py")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
