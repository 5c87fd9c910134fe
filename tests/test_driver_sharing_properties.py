"""Property fuzz of the fact that lets the measurement path profile and
summarize each distinct driver output once.

Every vendor pipeline starts from one cleaned prefix per source text and
records the steps that changed it (``Module.driver_steps``).  The
measurement path (``ShaderExecutionEnvironment.prepare``) shares a kernel
summary between any two drivers with equal steps, which is exact when

(a) **the shared prefix is invisible** — ``VendorJIT.compile`` is
    fingerprint-equal to the from-scratch vendor pipeline
    (``helpers.reference_jit_compile``), and
(b) **equal steps mean equal outputs** — two drivers whose compiles of a
    text report the same ``driver_steps`` produce fingerprint-equal IR.

(b) follows from the honest change counts that
``tests/test_cleanup_properties.py`` fuzzes: a step that reports zero
changes leaves the IR alone, so a driver's output is its prefix with only
the reported steps applied, in order.  Both are drawn over the texts of
the offline variant walk on the default, synth and imported wild shaders,
for the five stock drivers and for drawn driver configurations.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from helpers import reference_jit_compile
from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.gpu.jit import VendorJIT
from repro.gpu.platform import all_platforms
from repro.ir.fingerprint import fingerprint_module
from repro.passes import OptimizationFlags

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
drivers = st.builds(
    lambda passes, limits: VendorJIT("drawn", tuple(passes), *limits),
    st.lists(st.sampled_from(["gvn", "coalesce", "div_to_mul", "hoist"]),
             unique=True, max_size=3),
    st.sampled_from(_UNROLL_LIMITS))


def _walk_text(name, index):
    """The offline walk's emitted text for one flag combination."""
    if name not in _COMPILERS:
        _COMPILERS[name] = ShaderCompiler(_CASES[name])
    return _COMPILERS[name].compile(OptimizationFlags.from_index(index)).output


def _assert_equal_steps_mean_equal_outputs(jits, text):
    """(a) for each of *jits* on *text*, and (b) for every pair of them."""
    by_steps = {}
    for jit in jits:
        module = jit.compile(text)
        digest = fingerprint_module(module)
        reference = reference_jit_compile(jit, text)
        assert digest == fingerprint_module(reference), (
            f"{jit} compiled from the shared prefix differs from scratch")
        assert by_steps.setdefault(module.driver_steps, digest) == digest, (
            f"{jit}: driver_steps {module.driver_steps} shared by a "
            "different output")


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
