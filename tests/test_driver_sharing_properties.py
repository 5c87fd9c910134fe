"""Property fuzz of the facts that let the vendor JITs share pipeline
steps, and the measurement path profile and summarize each distinct driver
output once.

Every vendor pipeline starts from the source text's one cleaned module
(``shared_frontend``) and walks the source's step memo
(``VendorJIT.compile``), recording the steps that changed it
(``Module.driver_steps``): unroll rounds keyed by the loop each unrolled,
the cleanup after the last round, and each safe pass that changed the IR.  A compile reuses every step an earlier compile
of the text ran, and the measurement path
(``ShaderExecutionEnvironment.prepare``) shares a kernel summary between
any two drivers with equal steps.  Both are exact when

(a) **the shared module and step memo are invisible** — ``VendorJIT.compile``
    is fingerprint-equal to the from-scratch vendor pipeline
    (``helpers.reference_jit_compile``, which runs the whole ``unroll()``
    through ``run_step``), whatever drivers compiled the text before it and
    in whatever order;
(b) **equal steps mean equal outputs** — two drivers whose compiles of a
    text report the same ``driver_steps`` produce fingerprint-equal IR; and
(c) **the rounds are ``unroll()``'s** — a driver's walk takes as many
    unroll rounds as ``unroll()`` under its limits unrolls loops on a clone
    of the cleaned module.

(b) follows from the honest change counts that
``tests/test_cleanup_properties.py`` fuzzes: a step that reports zero
changes leaves the IR alone, so a driver's output is its cleaned module
with only the reported steps applied, in order.  All three are drawn over the texts
of the offline variant walk on the default, synth and imported wild
shaders, for the five stock drivers and for drawn driver configurations:
unroll limits over the whole range, and the order in which several drivers
compile a text, with and without an empty memo first.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from helpers import reference_jit_compile, unroll_rounds
from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.gpu.jit import VendorJIT, clear_frontend_memo, shared_frontend
from repro.gpu.platform import all_platforms
from repro.ir.clone import clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.passes import OptimizationFlags
from repro.passes.unroll import unroll

WILD_DIR = Path(__file__).resolve().parent.parent / "examples" / "wild"

_CASES = {f"{case.family}/{case.name}": case.source
          for case in default_corpus(synth_seed=11, synth_count=3,
                                     import_dir=str(WILD_DIR))}
_NAMES = sorted(_CASES)
_COMPILERS = {}

_STOCK_JITS = [platform.jit for platform in all_platforms()]
#: The driver unroller limits of the stock drivers, plus "no unroller".
_UNROLL_LIMITS = sorted({(jit.unroll_max_trips, jit.unroll_max_growth)
                         for jit in _STOCK_JITS} | {(0, 1024)})

names = st.sampled_from(_NAMES)
indices = st.integers(min_value=0, max_value=255)
safe_passes = st.lists(
    st.sampled_from(["gvn", "coalesce", "div_to_mul", "hoist"]),
    unique=True, max_size=3)
drivers = st.builds(
    lambda passes, limits: VendorJIT("drawn", tuple(passes), *limits),
    safe_passes, st.sampled_from(_UNROLL_LIMITS))
#: Growth limits over 1-4096, each octave as likely as the next, so that
#: limits near the corpus's unrolled loop sizes (tens to hundreds of
#: instructions) are drawn as often as the large ones.
growths = st.integers(min_value=0, max_value=12).flatmap(
    lambda octave: st.integers(min_value=(1 << octave) // 2 + 1,
                               max_value=1 << octave))
#: Unroll limits over the whole range (0 trips: no unroller).
any_limits = st.one_of(
    st.sampled_from(_UNROLL_LIMITS),
    st.tuples(st.integers(min_value=0, max_value=64), growths))
any_drivers = st.one_of(
    st.sampled_from(_STOCK_JITS),
    st.builds(lambda passes, limits: VendorJIT("drawn", tuple(passes),
                                               *limits),
              safe_passes, any_limits))


def _walk_text(name, index):
    """The offline walk's emitted text for one flag combination."""
    if name not in _COMPILERS:
        _COMPILERS[name] = ShaderCompiler(_CASES[name])
    return _COMPILERS[name].compile(OptimizationFlags.from_index(index)).output


def _assert_equal_steps_mean_equal_outputs(jits, text):
    """(a) and (c) for each of *jits* on *text*, compiled in that order,
    and (b) for every pair of them."""
    by_steps = {}
    for jit in jits:
        module = jit.compile(text)
        digest = fingerprint_module(module)
        reference = reference_jit_compile(jit, text)
        assert digest == fingerprint_module(reference), (
            f"{jit} compiled from the shared module differs from scratch")
        assert by_steps.setdefault(module.driver_steps, digest) == digest, (
            f"{jit}: driver_steps {module.driver_steps} shared by a "
            "different output")
        rounds = 0
        if jit.unroll_max_trips > 0:
            cleaned = clone_module(shared_frontend(text), preserve_names=True)
            rounds = unroll(cleaned.function, jit.unroll_max_trips,
                            jit.unroll_max_growth)
        assert unroll_rounds(module) == rounds, (
            f"{jit}: {module.driver_steps} against {rounds} unroll() rounds")


@settings(max_examples=100, deadline=None)
@given(name=names, index=indices)
def test_stock_drivers_with_equal_steps_compile_equal_ir(name, index):
    _assert_equal_steps_mean_equal_outputs(_STOCK_JITS,
                                           _walk_text(name, index))


@settings(max_examples=60, deadline=None)
@given(name=names, index=indices, jits=st.lists(drivers, min_size=2,
                                                max_size=4))
def test_drawn_drivers_with_equal_steps_compile_equal_ir(name, index, jits):
    _assert_equal_steps_mean_equal_outputs(jits, _walk_text(name, index))


@settings(max_examples=200, deadline=None)
@given(name=names, index=indices,
       jits=st.lists(any_drivers, min_size=2, max_size=6),
       empty_memo=st.booleans())
def test_drivers_with_any_limits_in_any_order_compile_equal_ir(
        name, index, jits, empty_memo):
    text = _walk_text(name, index)
    if empty_memo:
        clear_frontend_memo()
    _assert_equal_steps_mean_equal_outputs(jits, text)
