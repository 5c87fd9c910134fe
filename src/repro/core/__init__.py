"""The paper's primary contribution: the offline shader optimization pipeline
(GLSL -> IR -> flag-controlled passes -> GLSL) and the exhaustive flag-space
exploration built on top of it."""

from repro.core.pipeline import (
    CompiledShader, ShaderCompiler, VariantSet, compile_shader,
    optimize_source, unique_variants,
)
from repro.core.trie import TrieStats, VariantTrie

__all__ = [
    "CompiledShader", "ShaderCompiler", "VariantSet", "compile_shader",
    "optimize_source", "unique_variants", "TrieStats", "VariantTrie",
]
