"""End-to-end source-to-source pipeline (the LunarGlass role).

``optimize_source(source, flags)`` is the paper's offline optimizer: GLSL in,
transformed GLSL out, with compilation artifacts included.
``unique_variants(source)`` runs all 256 flag combinations and deduplicates
the emitted text — Fig. 4c's "unique shader variants" statistic.  A
:class:`ShaderCompiler` takes its module from the same memo the vendor
JITs use (:func:`repro.gpu.jit.shared_frontend`), so a source text is
parsed, lowered and cleaned once, however many flag combinations and
platforms compile it; every consumer clones that shared module before
mutating it.

One flag point compiles as a driver pipeline
(:meth:`repro.gpu.jit.VendorJIT.for_flags`) through the source's step
memo, and its text is emitted once per state reached.  ``all_variants``
walks the shared-prefix compilation trie (:mod:`repro.core.trie`), so each
pass runs once per distinct reachable IR state rather than once per
combination.  Both equal ``run_passes`` on a clone, the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.trie import VariantTrie
from repro.gpu.jit import VendorJIT, shared_frontend
from repro.ir import emit_glsl
from repro.ir.module import Module
from repro.passes import OptimizationFlags


def compile_mode() -> str:
    """The variant-compilation path: always ``"trie"``.  There is one path;
    ``perfbench/child.py`` records this name with every run."""
    return "trie"


@dataclass
class CompiledShader:
    """A shader taken through the pipeline under one flag combination."""

    source: str
    flags: OptimizationFlags
    module: Module
    output: str
    #: False when ``output`` is the text an earlier compile emitted for
    #: the same state.
    emitted: bool = True


class ShaderCompiler:
    """One shader's cleaned module, compiled under any flag combination.

    The module comes from :func:`repro.gpu.jit.shared_frontend` and is
    shared with every other compiler and vendor JIT of the same source
    text, so it is only ever cloned, never mutated.
    """

    def __init__(self, source: str):
        self.source = source

    @property
    def _module(self) -> Module:
        """The source's cleaned module, built on the first ask."""
        return shared_frontend(self.source)

    def compile(self, flags: OptimizationFlags, es: bool = False) -> CompiledShader:
        """Compile under *flags*: walk the offline pipeline through the
        source's step memo, and emit the text only for a state no earlier
        compile emitted.  The module's IR is built on its first read."""
        module = VendorJIT.for_flags(flags).compile(self.source)
        texts = module.state_texts
        key = (module.driver_steps, es)
        output = texts.get(key)
        emitted = output is None
        if emitted:
            output = texts[key] = emit_glsl(module, es=es)
        return CompiledShader(source=self.source, flags=flags, module=module,
                              output=output, emitted=emitted)

    def all_variants(self, es: bool = False) -> "VariantSet":
        """Compile all 256 combinations and deduplicate the emitted text.

        Walks the shared-prefix compilation trie
        (:class:`repro.core.trie.VariantTrie`): one pass application per
        distinct reachable IR state instead of a full pipeline run per
        combination, with output byte-identical to compiling each
        combination alone through ``run_passes`` or :meth:`compile`.
        """
        return VariantSet.from_index_to_text(
            VariantTrie(self._module, es=es).compile())


@dataclass
class VariantSet:
    """Distinct emitted texts -> the flag combinations that produce them."""

    by_text: Dict[str, List[OptimizationFlags]]
    #: flag index -> emitted text, for O(1) lookups (``text_for`` is on the
    #: hot path of every per-combination analysis, 256x per shader).
    index_to_text: Dict[int, str]

    @classmethod
    def from_index_to_text(cls, index_to_text: Dict[int, str]) -> "VariantSet":
        """Group *index_to_text* by emitted text, each text's combinations
        in ascending flag index."""
        by_text: Dict[str, List[OptimizationFlags]] = {}
        for index in sorted(index_to_text):
            by_text.setdefault(index_to_text[index], []).append(
                OptimizationFlags.from_index(index))
        return cls(by_text, dict(index_to_text))

    @property
    def unique_count(self) -> int:
        return len(self.by_text)

    def text_for(self, flags: OptimizationFlags) -> str:
        try:
            return self.index_to_text[flags.index]
        except KeyError:
            raise KeyError(f"flags {flags} not found in variant set") from None

    def items(self):
        return self.by_text.items()


def compile_shader(source: str, flags: Optional[OptimizationFlags] = None,
                   es: bool = False) -> CompiledShader:
    """Preprocess, parse, lower, optimize, and re-emit *source*."""
    flags = flags or OptimizationFlags.none()
    return ShaderCompiler(source).compile(flags, es=es)


def optimize_source(source: str, flags: OptimizationFlags,
                    es: bool = False) -> str:
    """Source-to-source optimization; the paper's core tool invocation."""
    return compile_shader(source, flags, es=es).output


def unique_variants(source: str,
                    es: bool = False) -> Dict[str, List[OptimizationFlags]]:
    """Map each distinct emitted text to the flag combinations producing it."""
    return ShaderCompiler(source).all_variants(es=es).by_text
