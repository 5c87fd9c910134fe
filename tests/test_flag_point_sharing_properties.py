"""Property fuzz of the fact that lets ``tune`` reuse a compiled flag point's
text for every point that differs from it only by passes that changed
nothing.

``EvaluationEngine.text_for`` keeps each point p it compiles through
``ShaderCompiler.compile`` with the flags whose pass reported changes in
its ``pass_stats`` (``changed_flags``), and answers every point q with
changed(p) ⊆ q ⊆ enabled(p) from it (``covers``).  That is exact when every
such q emits p's text.  It follows from the honest change counts that
``tests/test_cleanup_properties.py`` fuzzes: a pass that reports zero
changes leaves the IR alone, and its cleanup is skipped, so q runs p's
changing passes on p's IR states.

Drawn over the default, synth and imported wild shaders: each compiled
point, and every point its interval covers, maps to the compiled text in
the trie's variant set (``VariantTrie``), and on a few cases in the naive
oracle that compiles every combination alone (``helpers.naive_variants``).
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from helpers import naive_variants
from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.passes import OptimizationFlags, changed_flags, covers

WILD_DIR = Path(__file__).resolve().parent.parent / "examples" / "wild"

_CASES = {f"{case.family}/{case.name}": case.source
          for case in default_corpus(synth_seed=11, synth_count=3,
                                     import_dir=str(WILD_DIR))}
_NAMES = sorted(_CASES)
#: One default, one synth and one wild case for the naive oracle.
_ORACLE_NAMES = [next(name for name in _NAMES if name.startswith(prefix))
                 for prefix in ("blur/", "synth_", "imported/")]
_TRIE_TEXTS = {}
_NAIVE_TEXTS = {}

indices = st.integers(min_value=0, max_value=255)


def _compiled_point(name, index):
    """The compiled text of one point and the points it covers."""
    compiled = ShaderCompiler(_CASES[name]).compile(
        OptimizationFlags.from_index(index))
    changed = changed_flags(compiled.pass_stats)
    covered = [q for q in range(256) if covers(index, changed, q)]
    assert index in covered
    return compiled.output, covered


def _assert_covered_texts(texts, name, index):
    text, covered = _compiled_point(name, index)
    assert texts[index] == text, f"{name}: point {index} is not the walk's"
    for q in covered:
        assert texts[q] == text, f"{name}: {index} covers {q}, texts differ"


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(_NAMES), index=indices)
def test_compiled_points_cover_equal_trie_texts(name, index):
    if name not in _TRIE_TEXTS:
        _TRIE_TEXTS[name] = ShaderCompiler(
            _CASES[name]).all_variants().index_to_text
    _assert_covered_texts(_TRIE_TEXTS[name], name, index)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(_ORACLE_NAMES), index=indices)
def test_compiled_points_cover_equal_naive_texts(name, index):
    if name not in _NAIVE_TEXTS:
        _NAIVE_TEXTS[name] = naive_variants(_CASES[name]).index_to_text
    _assert_covered_texts(_NAIVE_TEXTS[name], name, index)


def test_a_point_covers_exactly_its_interval():
    """changed ⊆ q ⊆ index, and nothing else."""
    index, changed = 0b1011_0110, 0b0010_0100
    covered = {q for q in range(256) if covers(index, changed, q)}
    assert covered == {q for q in range(256)
                       if q & changed == changed and q | index == index}
    assert len(covered) == 1 << 3
    assert {q for q in range(256) if covers(index, index, q)} == {index}
    assert changed_flags({"unroll": 3, "gvn": 0, "adce": 1}) == (
        1 << 4 | 1 << 0)
