"""Simulated vendor driver JIT compilers.

OpenGL drivers receive GLSL source and compile it with their own (opaque)
optimizer.  Each vendor's JIT here re-parses the (possibly offline-optimized)
source through the shared frontend and applies a vendor-specific pipeline:
the always-on canonical cleanup, a driver unroller with vendor limits, and a
subset of the safe passes.  No JIT performs the unsafe FP passes — a
conformant driver cannot (paper Section III-B).

The redundancy (or absence) of each offline flag in a vendor's JIT is one of
the two mechanisms behind the paper's cross-platform variance.

The front end (preprocess -> parse -> lower -> SSA) is identical for every
vendor and for the offline compiler (:class:`repro.core.ShaderCompiler`),
so :func:`shared_frontend` memoizes it per source text for both: a study
that walks a shader's 256 flag combinations and measures its variants on 5
platforms parses each text once.  Every vendor pipeline then starts with
the same step, the cleanup, so the source's memo entry also keeps that
step's result: a cleaned name-preserving clone of the front-end module
(the *prefix*), built the first time any driver compiles the text.
:meth:`VendorJIT.compile` clones the prefix (exactly equivalent to lowering
fresh and cleaning — see :mod:`repro.ir.clone`), runs only the driver's own
unroll and safe passes, and records the steps that changed the module in
``Module.driver_steps``.  Two drivers with equal steps compile a text to
identical IR, because a step that reports no change leaves the IR alone
(``tests/test_cleanup_properties.py``), so the measurement path analyses
each distinct driver output once and keeps the analysis in the same entry
(:func:`driver_output_memo`).  Nothing stored in an entry is ever mutated,
and an entry goes as a whole: by LRU eviction or :func:`clear_frontend_memo`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.glsl import parse_shader, preprocess
from repro.ir import lower_shader, promote_to_ssa
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.passes.coalesce import coalesce
from repro.passes.div_to_mul import div_to_mul
from repro.passes.gvn import gvn
from repro.passes.hoist import hoist
from repro.passes.manager import run_cleanup, run_step
from repro.passes.unroll import unroll

_SAFE_PASSES = {
    "gvn": gvn,
    "coalesce": coalesce,
    "div_to_mul": div_to_mul,
    "hoist": hoist,
}


class _FrontEnd:
    """One source text's memo entry.  Its modules are never mutated: the
    vendor JITs, the offline compiler and its variant walk all clone
    ``module`` or ``prefix`` before optimizing.  ``prefix`` and
    ``driver_outputs`` fill in as the text is compiled and measured."""

    __slots__ = ("module", "prefix", "driver_outputs")

    def __init__(self, module: Module):
        #: The pristine lowered, SSA-promoted module.
        self.module = module
        #: The cleaned clone every vendor pipeline starts from (built by
        #: the first :meth:`VendorJIT.compile` of the text).
        self.prefix: Optional[Module] = None
        #: Per-``driver_steps`` analyses of this text's driver outputs.
        self.driver_outputs: Dict[Tuple, object] = {}


_FRONTEND_MEMO: "OrderedDict[str, _FrontEnd]" = OrderedDict()
_FRONTEND_MEMO_SIZE = 256
_FRONTEND_LOCK = threading.Lock()


def _memo_entry(source: str) -> Optional[_FrontEnd]:
    with _FRONTEND_LOCK:
        return _FRONTEND_MEMO.get(source)


def shared_frontend(source: str) -> Module:
    """Parse + lower + SSA-promote *source* once per distinct text."""
    with _FRONTEND_LOCK:
        entry = _FRONTEND_MEMO.get(source)
        if entry is not None:
            _FRONTEND_MEMO.move_to_end(source)
            return entry.module
    pp = preprocess(source)
    shader = parse_shader(pp.text)
    module = lower_shader(shader, version=pp.version)
    promote_to_ssa(module.function)
    with _FRONTEND_LOCK:
        _FRONTEND_MEMO[source] = _FrontEnd(module)
        while len(_FRONTEND_MEMO) > _FRONTEND_MEMO_SIZE:
            _FRONTEND_MEMO.popitem(last=False)
    return module


def clear_frontend_memo() -> None:
    """Drop the shared front-end memo, with every prefix and driver-output
    analysis it holds (tests and memory-sensitive callers)."""
    with _FRONTEND_LOCK:
        _FRONTEND_MEMO.clear()


def driver_output_memo(source: str) -> Dict[Tuple, object]:
    """The dict, keyed by ``Module.driver_steps``, in which the measurement
    path keeps what it derives from *source*'s driver outputs.

    It lives in the source's front-end memo entry and goes with it.  With
    no entry (evicted since the compile) it is a fresh, unshared dict.
    """
    entry = _memo_entry(source)
    return {} if entry is None else entry.driver_outputs


def _cleaned_prefix(source: str) -> Module:
    """``run_cleanup`` on a name-preserving clone of the front-end module,
    run once per memo entry (a race may build it twice; both are equal).
    The lookup goes through :func:`shared_frontend`, which keeps the
    entry's place in the LRU current."""
    frontend = shared_frontend(source)
    entry = _memo_entry(source)
    if entry is not None and entry.prefix is not None:
        return entry.prefix
    prefix = clone_module(frontend, preserve_names=True)
    run_cleanup(prefix.function)
    _count_jit_steps(1)
    if entry is not None:
        entry.prefix = prefix
    return prefix


#: Pipeline steps (cleanup / unroll / safe pass) executed by
#: ``VendorJIT.compile`` so far.  The cleanup counts once per source, when
#: the prefix is built.  An unroll or safe-pass step counts even when it
#: changed nothing and so skipped its cleanup (``run_step``): the cleanup
#: would have left the already-cleaned IR as it was.
_JIT_STEPS = 0
_JIT_STEPS_LOCK = threading.Lock()


def jit_pipeline_steps() -> int:
    """Pipeline steps executed by ``VendorJIT.compile`` calls so far."""
    with _JIT_STEPS_LOCK:
        return _JIT_STEPS


def _count_jit_steps(steps: int) -> None:
    global _JIT_STEPS
    with _JIT_STEPS_LOCK:
        _JIT_STEPS += steps


@dataclass(frozen=True)
class VendorJIT:
    """One driver compiler: which redundant optimizations it already does."""

    name: str
    #: Safe passes the driver applies itself (subset of _SAFE_PASSES keys).
    passes: Tuple[str, ...] = ()
    #: Driver unroller limit (0 = driver does not unroll).
    unroll_max_trips: int = 0
    unroll_max_growth: int = 1024

    def compile(self, source: str) -> Module:
        """Parse and optimize GLSL the way this vendor's driver would.

        Returns a private module: a clone of the source's cleaned prefix,
        with this driver's unroll and safe passes run on it and the steps
        that changed it in ``driver_steps`` (the unroller with its limits,
        e.g. ``(("unroll", 32, 2048), ("gvn",))``).
        """
        module = clone_module(_cleaned_prefix(source), preserve_names=True)
        function = module.function
        changed = []
        steps = len(self.passes)
        if self.unroll_max_trips > 0:
            if run_step(function, unroll, max_trips=self.unroll_max_trips,
                        max_growth=self.unroll_max_growth):
                changed.append(("unroll", self.unroll_max_trips,
                                self.unroll_max_growth))
            steps += 1
        for name in self.passes:
            if run_step(function, _SAFE_PASSES[name]):
                changed.append((name,))
        _count_jit_steps(steps)
        module.driver_steps = tuple(changed)
        return module

    #: :meth:`compile` under the name ``perfbench``'s tracer resolves.
    compile_cached = compile
