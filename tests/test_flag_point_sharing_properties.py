"""Property fuzz of the fact that lets a flag point compile as a driver
pipeline through its source's step memo.

``ShaderCompiler.compile`` walks the offline pipeline under its flags
(``VendorJIT.for_flags``: ``unroll`` at the offline limits, then each other
enabled flag pass in ``PASS_ORDER``) through the step memo the five vendor
JITs walk (``VendorJIT.compile``), and takes the text of any state an
earlier compile emitted (the module's ``state_texts``).  That is exact when
every point, compiled in any order among other points and driver compiles
of the same source, emits the text the offline pipeline emits alone.  It
follows from the honest change counts that ``tests/test_cleanup_properties.py``
fuzzes: a step that reports zero changes leaves the IR alone, so equal
``driver_steps`` mean equal IR.

Drawn over the default, synth and imported wild shaders, from an empty or a
warm memo: each point's text equals the trie's (``VariantTrie``), and on a
few cases ``helpers.reference_compile``'s, which runs ``run_passes`` on a
fresh front end.  And once a point p is compiled, every point q with
changed(p) ⊆ q ⊆ enabled(p), where changed(p) is read from p's
``driver_steps``, reaches p's state through memo hits: it clones nothing,
runs no step and emits nothing.
"""

from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.core.pipeline as pipeline
import repro.gpu.jit as jit_module
from helpers import changed_flags, reference_compile
from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.gpu.jit import (
    VendorJIT, clear_frontend_memo, jit_pipeline_steps, shared_frontend,
)
from repro.gpu.platform import all_platforms
from repro.passes import DEFAULT_LUNARGLASS, OptimizationFlags
from repro.passes.unroll import MAX_GROWTH, MAX_TRIPS, loop_sizes

WILD_DIR = Path(__file__).resolve().parent.parent / "examples" / "wild"

_CASES = {f"{case.family}/{case.name}": case.source
          for case in default_corpus(synth_seed=11, synth_count=3,
                                     import_dir=str(WILD_DIR))}
_NAMES = sorted(_CASES)
#: One default, one synth and one wild case for the reference.
_ORACLE_NAMES = [next(name for name in _NAMES if name.startswith(prefix))
                 for prefix in ("blur/", "synth_", "imported/")]
_TRIE_TEXTS = {}

indices = st.integers(min_value=0, max_value=255)
#: A flag index compiles that point; a stock driver compiles the source.
compiles = st.one_of(indices,
                     st.sampled_from([p.jit for p in all_platforms()]))


def _compile_in_order(name, order, es=False):
    """Compile *order*'s points and drivers on *name*'s source; yields
    each point's index and text."""
    source = _CASES[name]
    compiler = ShaderCompiler(source)
    for item in order:
        if isinstance(item, VendorJIT):
            item.compile(source)
        else:
            flags = OptimizationFlags.from_index(item)
            yield item, compiler.compile(flags, es=es).output


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(_NAMES),
       order=st.lists(compiles, min_size=1, max_size=24),
       es=st.booleans(), empty_memo=st.booleans())
def test_walked_points_equal_trie_texts(name, order, es, empty_memo):
    if (name, es) not in _TRIE_TEXTS:
        _TRIE_TEXTS[name, es] = ShaderCompiler(
            _CASES[name]).all_variants(es=es).index_to_text
    texts = _TRIE_TEXTS[name, es]
    if empty_memo:
        clear_frontend_memo()
    for index, text in _compile_in_order(name, order, es):
        assert text == texts[index], f"{name}: point {index} is not the trie's"


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(_ORACLE_NAMES),
       order=st.lists(compiles, min_size=1, max_size=8),
       empty_memo=st.booleans())
def test_walked_points_equal_reference_texts(name, order, empty_memo):
    if empty_memo:
        clear_frontend_memo()
    for index, text in _compile_in_order(name, order):
        assert text == reference_compile(
            _CASES[name], OptimizationFlags.from_index(index)), (
            f"{name}: point {index} is not the reference's")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_NAMES), index=indices,
       queries=st.lists(indices, min_size=1, max_size=8))
def test_points_between_a_points_changes_and_flags_reuse_its_state(
        name, index, queries):
    """changed(p) ⊆ q ⊆ enabled(p): each query is projected into p's
    interval, then compiled with no clone, step or emission."""
    compiler = ShaderCompiler(_CASES[name])
    compiled = compiler.compile(OptimizationFlags.from_index(index))
    changed = changed_flags(compiled.module.driver_steps)
    assert changed & ~index == 0
    steps = jit_pipeline_steps()
    with mock.patch.object(jit_module, "clone_module",
                           wraps=jit_module.clone_module) as clones, \
            mock.patch.object(pipeline, "emit_glsl",
                              wraps=pipeline.emit_glsl) as emits:
        for query in queries:
            query = (query & index) | changed
            again = compiler.compile(OptimizationFlags.from_index(query))
            assert again.output == compiled.output, (name, index, query)
            assert not again.emitted
            assert again.module.driver_steps == compiled.module.driver_steps
    assert (clones.call_count, emits.call_count) == (0, 0)
    assert jit_pipeline_steps() == steps


#: One 40-trip loop whose unrolled size lies past a driver's default growth
#: limit (``VendorJIT.unroll_max_growth``) and within the offline one.
BIG_LOOP = """
uniform float u;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 40; i++) {
        float f = float(i);
        acc += vec4(u * f, sin(u + f), cos(u * f), u / (f + 1.0));
        acc = acc * 0.5 + vec4(f * f, u - f, exp(u * 0.1), sqrt(f));
        acc = acc * u + vec4(f - u, u * u + f, f / (u + 2.0), log(f + 1.0));
    }
    color = acc;
}
"""


def test_a_point_unrolls_at_the_offline_limits():
    [(trips, body)] = loop_sizes(shared_frontend(BIG_LOOP).function,
                                 MAX_TRIPS)
    assert VendorJIT("default").unroll_max_growth < trips * body <= MAX_GROWTH
    for flags in (OptimizationFlags.single("unroll"), DEFAULT_LUNARGLASS):
        compiled = ShaderCompiler(BIG_LOOP).compile(flags)
        assert compiled.module.driver_steps[0] == ("unroll", 0, trips)
        assert compiled.output == reference_compile(BIG_LOOP, flags)
