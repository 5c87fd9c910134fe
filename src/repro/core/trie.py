"""Shared-prefix compilation trie over the 256-combination flag space.

The naive variant explosion pays for every combination independently: 256
``clone_module`` -> ``run_passes`` -> ``emit_glsl`` runs per shader,
even though ``PASS_ORDER`` is fixed and a disabled flag is a literal no-op
in the pipeline loop — most combinations share long identical pass
prefixes.  This module walks the flag space as an 8-level binary decision
tree instead:

* the **"flag disabled" edge** reuses the parent IR state verbatim (no
  clone, no work — siblings that diverge clone first, so sharing is safe);
* the **"flag enabled" edge** clones once (name-preserving, see
  :mod:`repro.ir.clone`) and applies exactly one pass + cleanup via
  :func:`repro.passes.manager.apply_flag_pass`.

States are keyed by the canonical IR fingerprint
(:mod:`repro.ir.fingerprint`): whenever two differently-reached states
converge to identical IR — a pass was a no-op, or different prefixes
produced the same code — they merge mid-walk and the whole subtree below
them is shared.  ``emit_glsl`` then runs once per distinct *final* state
instead of 256 times.

The arithmetic: a full binary tree applies at most 2^0+...+2^7 = 255 passes
(vs. the naive sum of popcounts, 256 * 4 = 1024) even with zero
convergence; in practice most passes don't fire on most shaders, so the
state count per level stays far below 2^level and the walk does a few dozen
pass runs and a handful of emissions.  The result is byte-identical to the
naive path (asserted by tests/test_compile_trie.py) because every leaf's
lineage applies exactly the same operation sequence the naive path would,
with only structure-and-name-preserving clones and fingerprint-sound merges
in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.ir import emit_glsl
from repro.ir.clone import clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.ir.module import Module
from repro.passes import OptimizationFlags
from repro.passes.manager import PASS_ORDER, apply_flag_pass, run_cleanup

#: Bit position of each flag pass within a trie path bitmask (the *execution*
#: order, distinct from the flag-index bit order in ``ALL_FLAG_NAMES``).
_PASS_BIT: Dict[str, int] = {name: bit for bit, name in enumerate(PASS_ORDER)}


def _pass_subset(index: int) -> int:
    """Map a flag-combination index to its enabled-pass bitmask in
    ``PASS_ORDER`` bit positions."""
    flags = OptimizationFlags.from_index(index)
    subset = 0
    for name, bit in _PASS_BIT.items():
        if getattr(flags, name):
            subset |= 1 << bit
    return subset


@dataclass
class TrieStats:
    """Work counters, exposed so tests and benchmarks can assert sharing."""

    pass_runs: int = 0
    emits: int = 0
    merges: int = 0
    #: distinct states alive at each of the 9 levels (root + one per pass).
    level_states: list = field(default_factory=list)


class VariantTrie:
    """Compile all 256 flag combinations of one module by walking the
    shared-prefix decision tree from a cleaned name-preserving clone."""

    def __init__(self, base_module: Module, es: bool = False):
        self._base = base_module
        self.es = es
        self.stats = TrieStats()

    def compile(self) -> Dict[int, str]:
        """Emitted text for every flag index 0..255 (deduplicated work,
        byte-identical results to the naive per-combination path)."""
        root = clone_module(self._base, preserve_names=True)
        run_cleanup(root.function)
        root_fp = fingerprint_module(root)

        # fingerprint -> module for states alive at the current level, and
        # enabled-pass bitmask (over levels walked so far) -> fingerprint.
        states: Dict[str, Module] = {root_fp: root}
        subset_to_fp: Dict[int, str] = {0: root_fp}
        self.stats.level_states.append(len(states))

        for bit, name in enumerate(PASS_ORDER):
            child_fp: Dict[str, str] = {}
            next_states: Dict[str, Module] = dict(states)
            for parent_fp, module in states.items():
                child = clone_module(module, preserve_names=True)
                apply_flag_pass(child, name)
                self.stats.pass_runs += 1
                fp = fingerprint_module(child)
                child_fp[parent_fp] = fp
                if fp in next_states:
                    self.stats.merges += 1
                else:
                    next_states[fp] = child
            next_subsets: Dict[int, str] = {}
            for subset, fp in subset_to_fp.items():
                next_subsets[subset] = fp
                next_subsets[subset | (1 << bit)] = child_fp[fp]
            subset_to_fp = next_subsets
            live = set(subset_to_fp.values())
            states = {fp: module for fp, module in next_states.items()
                      if fp in live}
            self.stats.level_states.append(len(states))

        texts: Dict[str, str] = {}
        for fp, module in states.items():
            texts[fp] = emit_glsl(module, es=self.es)
            self.stats.emits += 1

        return {index: texts[subset_to_fp[_pass_subset(index)]]
                for index in range(256)}
