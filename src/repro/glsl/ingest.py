"""Wild-GLSL ingestion: bring real-world shaders into the studied subset.

Real fragment shaders found in the wild (engine dumps, ShaderToy exports,
GFXBench-style captures) use a wider surface than the subset the rest of
the library studies: preprocessor conditionals with arithmetic, ``struct``
declarations, ``do``/``while``, ``switch``, const-expression array sizes.
:func:`ingest_source` runs the full import pipeline over one shader:

1. preprocess with full conditional semantics,
2. parse with the widened grammar,
3. normalize into the core subset (:mod:`repro.glsl.normalize`), and
4. validate that the canonical output round-trips through lowering and
   SSA construction — i.e. it will behave like a natively-authored
   corpus shader in ``repro study`` / ``tune`` / ``report``.

Any failure raises the frontend's usual :class:`~repro.errors.ReproError`
subclass; callers that want an automatically shrunk reproducer instead
should use :mod:`repro.glsl.minimize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.glsl import ast
from repro.glsl.normalize import normalize_shader
from repro.glsl.parser import parse_shader
from repro.glsl.preprocessor import preprocess
from repro.glsl.printer import print_shader

#: File suffixes scanned by :func:`ingest_directory`, in scan order.
SHADER_SUFFIXES = (".frag", ".glsl", ".fs")


@dataclass
class IngestResult:
    """One successfully imported shader."""

    name: str          # stem used to identify the shader in corpora
    source: str        # original wild text, as read
    canonical: str     # normalized text inside the core subset
    shader: ast.Shader  # the normalized AST behind ``canonical``
    version: Optional[str]  # ``#version`` string from the original, if any

    @property
    def loc_before(self) -> int:
        return sum(1 for ln in self.source.splitlines() if ln.strip())

    @property
    def loc_after(self) -> int:
        return sum(1 for ln in self.canonical.splitlines() if ln.strip())


def ingest_source(
    source: str,
    name: str = "<import>",
    defines: Optional[Dict[str, str]] = None,
) -> IngestResult:
    """Import one wild shader; raises a ReproError subclass on failure."""
    pp = preprocess(source, defines)
    shader = parse_shader(pp.text)
    normalize_shader(shader)
    canonical = print_shader(shader)
    _validate(canonical)
    return IngestResult(name=name, source=source, canonical=canonical,
                        shader=shader, version=pp.version)


def _validate(canonical: str) -> None:
    """Round-trip the canonical text through lowering + SSA.

    Imported late to avoid a glsl -> ir package cycle at import time.
    """
    from repro.ir import lower_shader, promote_to_ssa

    reparsed = parse_shader(canonical)
    module = lower_shader(reparsed)
    promote_to_ssa(module.function)


def ingest_file(path: Union[str, Path]) -> IngestResult:
    """Import the shader file at *path*."""
    path = Path(path)
    return ingest_source(path.read_text(), name=path.stem)


def iter_shader_files(directory: Union[str, Path]) -> List[Path]:
    """Shader files under *directory* (recursive), sorted for determinism."""
    root = Path(directory)
    return sorted(
        p for p in root.rglob("*")
        if p.is_file() and p.suffix in SHADER_SUFFIXES
    )


def ingest_directory(directory: Union[str, Path]) -> List[IngestResult]:
    """Import every shader file under *directory*; fails on the first error."""
    return [ingest_file(p) for p in iter_shader_files(directory)]
