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

(c) **the fast cleanup equals its reference** — on every module a cleanup
    meets (a front-end module, and the output of each walk or vendor step
    that changed something), ``run_cleanup`` and ``reference_cleanup``
    (tests/helpers.py: ``isinstance`` chains and one whole-function
    replace-all-uses per replaced value) leave the same text, fingerprint
    and dump.  A coverage test holds the class tables to the instruction
    set.
"""

import inspect
import re
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import ShaderCompiler
from repro.corpus import default_corpus
from repro.gpu.jit import shared_frontend
from repro.gpu.platform import all_platforms
from repro.ir import (
    clone, emit_glsl, instructions, interp_batch, verify_function,
)
from repro.ir.clone import clone_function, clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.ir.instructions import (
    BinOp, Br, ExtractElem, LoadGlobal, Ret, Shuffle, StoreOutput,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import INT, IRType
from repro.ir.values import Constant
from repro.passes import OptimizationFlags, manager
from repro.passes.coalesce import coalesce
from repro.passes.dce import adce
from repro.passes.div_to_mul import div_to_mul
from repro.passes.fp_reassociate import fp_reassociate
from repro.passes.gvn import gvn
from repro.passes.hoist import hoist
from repro.passes.manager import PASS_ORDER, apply_flag_pass, run_cleanup
from repro.passes.reassociate import reassociate
from repro.passes import canonicalize, keys
from repro.passes.unroll import unroll
from helpers import fresh_frontend, reference_cleanup

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


# ---------------------------------------------------------------------------
# (c) the fast cleanup equals its reference
# ---------------------------------------------------------------------------


def _normalized_dump(module):
    """The module's dump with block names numbered in layout order (a
    clone's blocks get fresh suffixes)."""
    names = {block.name: f"B{index}"
             for index, block in enumerate(module.function.blocks)}
    return re.sub(r"[\w.]+", lambda match: names.get(match.group(), match.group()),
                  module.dump())


def _assert_cleanups_agree(module):
    fast = clone_module(module, preserve_names=True)
    slow = clone_module(module, preserve_names=True)
    run_cleanup(fast.function)
    reference_cleanup(slow.function)
    assert emit_glsl(fast) == emit_glsl(slow)
    assert fingerprint_module(fast) == fingerprint_module(slow)
    assert _normalized_dump(fast) == _normalized_dump(slow)


@settings(max_examples=200, deadline=None)
@given(name=names, index=indices)
def test_fast_cleanup_matches_reference_on_walk_steps(name, index):
    """The front end's own cleanup, and the cleanup after each flag pass
    that changes a walk state."""
    _assert_cleanups_agree(clone_module(fresh_frontend(_CASES[name])))
    module = _walk_state(name, index).module
    for step in _PASSES.values():
        changed, probe = _run_raw(module, step)
        if changed:
            _assert_cleanups_agree(probe)


@settings(max_examples=150, deadline=None)
@given(name=names, index=indices, vendor=st.sampled_from(sorted(_JITS)))
def test_fast_cleanup_matches_reference_on_vendor_steps(name, index, vendor):
    """The cleanup after each step of a vendor JIT's pipeline that changed
    the IR, starting from a variant's re-parsed text."""
    jit = _JITS[vendor]
    text = _walk_state(name, index).output
    _assert_cleanups_agree(clone_module(fresh_frontend(text)))
    module = clone_module(shared_frontend(text), preserve_names=True)
    steps = [(_PASSES[pass_name], {}) for pass_name in jit.passes]
    if jit.unroll_max_trips:
        steps.insert(0, (unroll, {"max_trips": jit.unroll_max_trips,
                                  "max_growth": jit.unroll_max_growth}))
    for step, options in steps:
        changed, module = _run_raw(module, step, **options)
        if changed:
            _assert_cleanups_agree(module)
            run_cleanup(module.function)


def test_in_place_simplification_is_indexed_for_later_replacements():
    """Blocks laid out against dominance order: an extract through a
    shuffle is simplified in place to read the shuffle's source, which a
    fold in a block laid out later replaces in the same round."""
    function = Function()
    entry, use, define = (function.add_block(BasicBlock(name))
                          for name in ("entry", "use", "define"))
    ivec2 = IRType("int", 2)
    scalar = entry.append(LoadGlobal("u", INT, "uniform"))
    entry.append(BinOp("add", scalar, Constant.int_(0)))  # builds the index
    entry.append(Br(define))
    vector = define.append(LoadGlobal("w", ivec2, "uniform"))
    source = define.append(BinOp("add", vector, Constant(ivec2, (0, 0))))
    shuffle = define.append(Shuffle(source, [1, 0]))
    define.append(Br(use))
    use.append(StoreOutput("o", use.append(ExtractElem(shuffle, 0))))
    use.append(Ret())
    verify_function(function)
    fast = clone_function(function, preserve_names=True)
    slow = clone_function(function, preserve_names=True)
    run_cleanup(fast)
    reference_cleanup(slow)
    verify_function(fast)
    lane, = [instr for instr in fast.instructions()
             if isinstance(instr, ExtractElem)]
    assert lane.operands[0].name == vector.name and lane.index == 1
    assert (_normalized_dump(Module(fast, None))
            == _normalized_dump(Module(slow, None)))


#: The classes the isinstance chains of the IR core named before the class
#: tables replaced them.
_SIMPLIFIED = {"BinOp", "UnOp", "Cmp", "Convert", "Select", "ExtractElem",
               "Shuffle", "Construct", "Call", "LoadElem"}
_KEYED = {"BinOp", "Cmp", "UnOp", "Convert", "Select", "ExtractElem",
          "InsertElem", "Shuffle", "Construct", "Call", "Sample", "LoadGlobal"}


def _concrete_instruction_classes():
    return {cls for _, cls in inspect.getmembers(instructions, inspect.isclass)
            if issubclass(cls, instructions.Instr) and not cls.__subclasses__()}


def test_class_tables_cover_the_instruction_set():
    concrete = _concrete_instruction_classes()
    # Phis are copied as shells by clone_function and the unroller, and
    # evaluated on the incoming edge before the rest of the block.
    others = concrete - {instructions.Phi}
    assert set(clone._CLONERS) == others
    handled = set(interp_batch._VALUE_OPS) | set(interp_batch._STATEMENT_OPS)
    assert handled == others
    assert not set(interp_batch._VALUE_OPS) & set(interp_batch._STATEMENT_OPS)
    assert {cls.__name__ for cls in canonicalize._RULES} == _SIMPLIFIED
    assert {cls.__name__ for cls in keys._KEYS} == _KEYED
    assert set(canonicalize._RULES) | set(keys._KEYS) <= concrete
