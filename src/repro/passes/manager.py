"""Pass pipeline driver, mirroring the LunarGlass stack's fixed order.

The always-on canonical cleanup (:func:`run_cleanup`) runs whatever the
flags, as in LunarGlass: once per source text, in
:func:`repro.gpu.jit.shared_frontend`.  ``run_passes(module, flags)`` then
applies each enabled flag pass to a cleaned module in a fixed order (unroll
first so constant-index array loads fold; hoist next so flattened code
feeds the scalar passes; then the arithmetic passes; GVN and coalesce
late; ADCE last), re-running the cleanup after each one that changed the IR.

Skipping the cleanup after a pass that changed nothing gives the same IR:
the pass ran on cleaned IR and left it as it was, and the cleanup is
idempotent.  ``tests/test_cleanup_properties.py`` fuzzes both facts.

The vendor JIT pipelines run their own steps through :func:`run_step`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.ir.module import Module
from repro.passes.canonicalize import canonicalize
from repro.passes.coalesce import coalesce
from repro.passes.cse import local_cse
from repro.passes.dce import adce, trivial_dce
from repro.passes.div_to_mul import div_to_mul
from repro.passes.flags import OptimizationFlags
from repro.passes.fp_reassociate import fp_reassociate
from repro.passes.gvn import gvn
from repro.passes.hoist import hoist
from repro.passes.reassociate import reassociate
from repro.passes.simplify_cfg import merge_straightline_blocks
from repro.passes.unroll import unroll

#: Flag pass execution order (not the flag-bit order).
PASS_ORDER = (
    "unroll", "hoist", "reassociate", "fp_reassociate", "div_to_mul",
    "gvn", "coalesce", "adce",
)

_PASS_FN = {
    "unroll": unroll,
    "hoist": hoist,
    "reassociate": reassociate,
    "fp_reassociate": fp_reassociate,
    "div_to_mul": div_to_mul,
    "gvn": gvn,
    "coalesce": coalesce,
    "adce": adce,
}


def run_cleanup(function) -> None:
    """The always-on canonical cleanup (LunarGlass's "necessary passes").

    Runs once per front-end module, and again after every pipeline step
    that changed the IR (see :func:`run_step`).  ``canonicalize``
    stops at its own fixpoint, so its second run (and the DCE before it)
    has work only when block merging (trivial-phi pruning included) or
    local CSE changed something, or when its round cap cut it short.
    """
    settled = canonicalize(function)
    changed = merge_straightline_blocks(function)
    changed += local_cse(function)
    if changed or not settled:
        trivial_dce(function)
        canonicalize(function)


def run_step(function, step: Callable[..., int], **options) -> int:
    """Run one pipeline step on cleaned IR, then the cleanup only if the
    step changed something; returns the step's change count.

    *step* is a pass returning its change count, called as
    ``step(function, **options)``.
    """
    changed = step(function, **options)
    if changed:
        run_cleanup(function)
    return changed


def apply_flag_pass(module: Module, name: str) -> int:
    """One incremental pipeline step: a single flag pass plus the canonical
    cleanup (skipped when the pass changed nothing).  ``run_passes`` is
    exactly one such step per enabled flag in ``PASS_ORDER`` — the
    compilation trie (:mod:`repro.core.trie`) walks edges of precisely this
    granularity."""
    if name not in _PASS_FN:
        raise KeyError(f"unknown flag pass {name!r}; have {PASS_ORDER}")
    return run_step(module.function, _PASS_FN[name])


def run_passes(module: Module, flags: OptimizationFlags) -> Dict[str, int]:
    """Run the enabled flag passes in place on a cleaned *module* (a clone
    of a ``shared_frontend`` module is one); returns per-pass change counts."""
    stats: Dict[str, int] = {}
    for name in PASS_ORDER:
        if not getattr(flags, name):
            continue
        stats[name] = apply_flag_pass(module, name)
    return stats
