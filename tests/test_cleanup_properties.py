"""Property fuzz of the two facts that let a pipeline step skip the
canonical cleanup when it changed nothing (``repro.passes.manager.run_step``).

Every flag pass, vendor-JIT safe pass and driver unroll runs on IR that
``run_cleanup`` has already cleaned.  When the step reports zero changes,
skipping the cleanup after it yields the same IR as running it, because

(a) **cleanup is idempotent** — ``run_cleanup`` on cleaned IR leaves the
    fingerprint unchanged;
(b) **change counts are honest** — a pass or unroll that returns 0 leaves
    the fingerprint unchanged.

Both are drawn over the states of the offline variant walk (the pipeline
under every flag combination) and of the vendor JIT pipelines, on the
default, synth and imported wild shaders.  The fingerprint is the corpus
trie's notion of "the same IR" (see ``tests/test_fingerprint_properties.py``).
"""

from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.gpu.jit import shared_frontend
from repro.gpu.platform import all_platforms
from repro.ir.clone import clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.passes import OptimizationFlags, manager
from repro.passes.coalesce import coalesce
from repro.passes.dce import adce
from repro.passes.div_to_mul import div_to_mul
from repro.passes.fp_reassociate import fp_reassociate
from repro.passes.gvn import gvn
from repro.passes.hoist import hoist
from repro.passes.manager import PASS_ORDER, apply_flag_pass, run_cleanup
from repro.passes.reassociate import reassociate
from repro.passes.unroll import unroll

WILD_DIR = Path(__file__).resolve().parent.parent / "examples" / "wild"

_CASES = {f"{case.family}/{case.name}": case.source
          for case in default_corpus(synth_seed=11, synth_count=3,
                                     import_dir=str(WILD_DIR))}
_NAMES = sorted(_CASES)
_COMPILERS = {}

#: The raw flag passes (the vendor JITs' safe passes are among them).
_PASSES = {
    "unroll": unroll, "hoist": hoist, "reassociate": reassociate,
    "fp_reassociate": fp_reassociate, "div_to_mul": div_to_mul, "gvn": gvn,
    "coalesce": coalesce, "adce": adce,
}
_JITS = {platform.name: platform.jit for platform in all_platforms()}
#: Distinct driver unroller limits, (max_trips, max_growth).
_UNROLL_LIMITS = sorted({(jit.unroll_max_trips, jit.unroll_max_growth)
                         for jit in _JITS.values() if jit.unroll_max_trips})

names = st.sampled_from(_NAMES)
indices = st.integers(min_value=0, max_value=255)


def _walk_state(name, index):
    """The offline walk's state for one flag combination: cleanup, then one
    ``apply_flag_pass`` per enabled flag (``run_passes``)."""
    if name not in _COMPILERS:
        _COMPILERS[name] = ShaderCompiler(_CASES[name])
    return _COMPILERS[name].compile(OptimizationFlags.from_index(index))


def _assert_cleanup_idempotent(module):
    again = clone_module(module, preserve_names=True)
    run_cleanup(again.function)
    assert fingerprint_module(again) == fingerprint_module(module)


def _run_raw(module, step, **options):
    """Clone *module* and run *step* on the clone without a cleanup;
    returns (change count, clone)."""
    probe = clone_module(module, preserve_names=True)
    changed = step(probe.function, **options)
    probe.function.touch()  # direct surgery: honor the fingerprint contract
    return changed, probe


def _assert_zero_change_is_identity(module, step, **options):
    changed, probe = _run_raw(module, step, **options)
    if not changed:
        assert fingerprint_module(probe) == fingerprint_module(module), (
            f"{step.__name__}{options or ''} reported 0 changes but "
            "changed the IR")
    return changed, probe


# ---------------------------------------------------------------------------
# (a) cleanup is idempotent
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(name=names, index=indices)
def test_cleanup_is_idempotent_on_walk_states(name, index):
    _assert_cleanup_idempotent(_walk_state(name, index).module)


# ---------------------------------------------------------------------------
# (b) a step that reports zero changes changed nothing
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(name=names, index=indices)
def test_zero_change_steps_leave_walk_states_unchanged(name, index):
    module = _walk_state(name, index).module
    for step in _PASSES.values():
        _assert_zero_change_is_identity(module, step)
    for trips, growth in _UNROLL_LIMITS:
        _assert_zero_change_is_identity(module, unroll, max_trips=trips,
                                        max_growth=growth)


@settings(max_examples=60, deadline=None)
@given(name=names, index=indices, vendor=st.sampled_from(sorted(_JITS)))
def test_vendor_pipeline_steps_are_exact(name, index, vendor):
    """Both facts along a vendor JIT's own pipeline, which starts from the
    re-parsed text of a variant rather than from a walk state."""
    jit = _JITS[vendor]
    text = _walk_state(name, index).output
    module = clone_module(shared_frontend(text), preserve_names=True)
    run_cleanup(module.function)
    steps = [(_PASSES[pass_name], {}) for pass_name in jit.passes]
    if jit.unroll_max_trips:
        steps.insert(0, (unroll, {"max_trips": jit.unroll_max_trips,
                                  "max_growth": jit.unroll_max_growth}))
    for step, options in steps:
        _assert_cleanup_idempotent(module)
        changed, module = _assert_zero_change_is_identity(module, step,
                                                          **options)
        if changed:
            run_cleanup(module.function)


@settings(max_examples=30, deadline=None)
@given(name=names, index=indices)
def test_zero_change_flag_pass_never_runs_cleanup(name, index):
    module = _walk_state(name, index).module
    with mock.patch.object(manager, "run_cleanup",
                           wraps=manager.run_cleanup) as cleanup:
        for pass_name in PASS_ORDER:
            cleanup.reset_mock()
            changed = apply_flag_pass(
                clone_module(module, preserve_names=True), pass_name)
            assert cleanup.call_count == (1 if changed else 0), pass_name
