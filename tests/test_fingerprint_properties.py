"""Property fuzz of the canonical IR fingerprint — the compilation trie's
entire safety argument.

The per-shader compilation trie (:mod:`repro.core.trie`) merges any two
states of a walk whose fingerprints are equal and keeps only one of them
for every later pass and the final emission, so three properties must hold
over seeded synth IR:

1. **Invariance** — the fingerprint survives clone round-trips (both name
   modes) and rank-preserving SSA renaming: it keys *content*, never object
   identity or absolute counter values.
2. **No aliasing of distinct semantics** — modules whose outputs differ on
   shared inputs (checked via the batched interpreter) never share a
   fingerprint.
3. **Equal fingerprints are total** — equal fingerprints imply byte-identical
   ``emit_glsl`` and identical interpreter behaviour.

Plus two checks that a digest always describes the IR as it is now.
"""

import re

from hypothesis import given, settings, strategies as st

from helpers import fresh_frontend

from repro.core import ShaderCompiler
from repro.corpus import MOTIVATING_SHADER, default_corpus
from repro.harness.environment import SAMPLE_FRAGMENTS
from repro.harness.uniforms import (
    batch_fragment_inputs, default_textures, default_uniform_values,
)
from repro.ir import emit_glsl
from repro.ir.clone import clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.ir.interp_batch import BatchedInterpreter
from repro.passes import OptimizationFlags
from repro.passes.manager import PASS_ORDER, apply_flag_pass, run_cleanup

# Seeded synth IR: procedurally composed übershader families plus the
# paper's motivating shader.  Compilers are built lazily and memoized —
# hypothesis re-draws the same names across examples.
_CASES = {case.name: case.source
          for case in default_corpus(synth_seed=11, synth_count=3)
          if case.family.startswith("synth_")}
_CASES["motivating"] = MOTIVATING_SHADER
_NAMES = sorted(_CASES)
_COMPILERS = {}


def _compiler(name):
    if name not in _COMPILERS:
        _COMPILERS[name] = ShaderCompiler(_CASES[name])
    return _COMPILERS[name]


def _batched_outputs(module):
    """All sample-fragment outputs in one batched-interpreter pass."""
    interface = module.interface
    interp = BatchedInterpreter(
        module, uniforms=default_uniform_values(interface),
        inputs=batch_fragment_inputs(interface, SAMPLE_FRAGMENTS),
        textures=default_textures(interface))
    return interp.run()


def _rank_preserving_rename(module):
    """Rename every SSA value to a fresh name with the same relative order
    under the fingerprint's ``(len, name)`` sort — a legal SSA renaming."""
    instrs = [instr for block in module.function.blocks
              for instr in block.instrs]
    order = sorted(range(len(instrs)),
                   key=lambda i: (len(instrs[i].name), instrs[i].name))
    for rank, position in enumerate(order):
        instrs[position].name = f"v{rank:06d}"


# ---------------------------------------------------------------------------
# Property 1: invariance under renaming and cloning
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(_NAMES),
       index=st.integers(min_value=0, max_value=255))
def test_fingerprint_invariant_under_clone_and_rename(name, index):
    compiled = _compiler(name).compile(OptimizationFlags.from_index(index))
    module = compiled.module
    reference = fingerprint_module(module)

    preserved = clone_module(module, preserve_names=True)
    assert fingerprint_module(preserved) == reference

    renamed = clone_module(module, preserve_names=True)
    _rank_preserving_rename(renamed)
    assert fingerprint_module(renamed) == reference

    # Round-trip: a clone of a clone still agrees.
    assert fingerprint_module(
        clone_module(preserved, preserve_names=True)) == reference


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(_NAMES))
def test_fresh_name_clone_of_pristine_module_is_invariant(name):
    """Fresh-name (RPO-renumbering) clones agree with *each other*, which is
    the property the variant walk relies on: every variant starts from a
    fresh clone of the same pristine module and therefore gets the same
    renumbering.  (They need not agree with the source — phi shells rename
    first — and after passes run creation order diverges from RPO entirely,
    which is why every mid-pipeline clone preserves names.)"""
    pristine = _compiler(name)._module
    first = clone_module(pristine)
    second = clone_module(pristine)
    assert fingerprint_module(first) == fingerprint_module(second)
    assert emit_glsl(first) == emit_glsl(second)


# ---------------------------------------------------------------------------
# Properties 2 + 3: equal fingerprints are safe, distinct semantics differ
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(_NAMES),
       index_a=st.integers(min_value=0, max_value=255),
       index_b=st.integers(min_value=0, max_value=255))
def test_equal_fingerprints_imply_identical_emission_and_behaviour(
        name, index_a, index_b):
    compiler = _compiler(name)
    a = compiler.compile(OptimizationFlags.from_index(index_a))
    b = compiler.compile(OptimizationFlags.from_index(index_b))
    if fingerprint_module(a.module) == fingerprint_module(b.module):
        assert a.output == b.output, (
            "equal fingerprints emitted different GLSL — the trie would "
            "have merged these states")
        assert _batched_outputs(a.module) == _batched_outputs(b.module)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(_NAMES),
       subset=st.lists(st.sampled_from(PASS_ORDER), max_size=4))
def test_independent_clones_of_same_pipeline_converge(name, subset):
    """The construction the trie relies on: two separately-cloned copies
    taken through the same step sequence must fingerprint equal and emit
    byte-identically."""
    base = _compiler(name)._module
    modules = []
    for _ in range(2):
        module = clone_module(base)
        run_cleanup(module.function)
        for pass_name in subset:
            apply_flag_pass(module, pass_name)
        modules.append(module)
    first, second = modules
    assert fingerprint_module(first) == fingerprint_module(second)
    assert emit_glsl(first) == emit_glsl(second)


_SEMANTIC_PAIR = (
    "#version 330\nuniform float gain;\nin vec2 uv;\nout vec4 color;\n"
    "void main() { color = vec4(uv.x + gain); }\n",
    "#version 330\nuniform float gain;\nin vec2 uv;\nout vec4 color;\n"
    "void main() { color = vec4(uv.x * gain); }\n",
)


def test_distinct_semantics_never_share_a_fingerprint():
    add = ShaderCompiler(_SEMANTIC_PAIR[0]).compile(OptimizationFlags.none())
    mul = ShaderCompiler(_SEMANTIC_PAIR[1]).compile(OptimizationFlags.none())
    # Same interface, shared inputs: the batched interpreter distinguishes
    # them, so the fingerprint must as well.
    assert _batched_outputs(add.module) != _batched_outputs(mul.module)
    assert fingerprint_module(add.module) != fingerprint_module(mul.module)


@settings(max_examples=15, deadline=None)
@given(name_a=st.sampled_from(_NAMES), name_b=st.sampled_from(_NAMES),
       index=st.integers(min_value=0, max_value=255))
def test_cross_shader_fingerprint_equality_is_emission_safe(
        name_a, name_b, index):
    """Across different shaders, an (unlikely) fingerprint collision would
    still be emission-safe — assert the implication on every drawn pair."""
    a = _compiler(name_a).compile(OptimizationFlags.from_index(index))
    b = _compiler(name_b).compile(OptimizationFlags.from_index(index))
    if fingerprint_module(a.module) == fingerprint_module(b.module):
        assert emit_glsl(a.module) == emit_glsl(b.module)


# ---------------------------------------------------------------------------
# A digest describes the IR as it is now
# ---------------------------------------------------------------------------


def test_direct_rename_changes_the_digest_without_notification():
    """Direct IR surgery below the pass manager needs no announcement: a
    digest taken after renaming one value reflects the rename."""
    module = clone_module(_compiler("motivating")._module,
                          preserve_names=True)
    run_cleanup(module.function)
    before = fingerprint_module(module)
    # Renaming one value moves it to the end of the creation order, so the
    # rank payload changes.
    instr = next(i for block in module.function.blocks
                 for i in block.instrs if re.match(r"v\d+$", i.name))
    instr.name = instr.name + "zzzzzz"
    assert fingerprint_module(module) != before


def test_mutating_a_clone_leaves_its_twin_digest_alone():
    module = clone_module(fresh_frontend(MOTIVATING_SHADER),
                          preserve_names=True)
    twin = clone_module(module, preserve_names=True)
    before_twin = fingerprint_module(twin)
    run_cleanup(module.function)  # changes the front-end IR
    assert fingerprint_module(module) != before_twin
    assert fingerprint_module(twin) == before_twin
