"""Simulated vendor driver JIT compilers.

OpenGL drivers receive GLSL source and compile it with their own (opaque)
optimizer.  Each vendor's JIT here re-parses the (possibly offline-optimized)
source through the shared frontend and applies a vendor-specific pipeline:
the always-on canonical cleanup, a driver unroller with vendor limits, and a
subset of the offline flag passes.  None runs the reassociation passes
(``reassociate``, ``fp_reassociate``), but every stock pipeline runs
``div_to_mul``, which :mod:`repro.passes.div_to_mul` and
:mod:`repro.passes.flags` call unsafe because the compile-time reciprocal
rounds.  Whether a conformant driver may do that is an open question;
changing a pipeline changes every measured time.

The redundancy (or absence) of each offline flag in a vendor's JIT is one of
the two mechanisms behind the paper's cross-platform variance.

The front end is identical for every vendor and for the offline compiler
(:class:`repro.core.ShaderCompiler`), and so is the always-on cleanup that
follows it whatever the flags, as in LunarGlass.  :func:`shared_frontend`
runs preprocess -> parse -> lower -> SSA -> one fresh-name clone (values
renumbered in reverse postorder, the order the reassociation passes sort
leaves by) -> ``run_cleanup`` once per source text, and keeps only the
cleaned module: a study that walks a shader's 256 flag combinations and
measures its variants on 5 platforms parses and cleans each text once.

The drivers' pipelines differ only in their unroll limits and safe passes,
so they share most steps too.  A compile is a walk from the cleaned
module, state ``()``, where a state is the tuple of steps that changed the
IR so far (``Module.driver_steps``).  The driver unroller runs as rounds,
as in :func:`~repro.passes.unroll.unroll`: each round unrolls the first
loop within the driver's limits and is the step ``("unroll", loop index,
trips)``; ``("cleanup",)`` follows the last round; each safe pass that
changes the IR is the step ``(name,)``.  The entry's step memo maps
``(state, step)`` to the state after it, and ``(state, ("loops", trip
cap))`` to the state's limit-free loop sizes
(:func:`~repro.passes.unroll.loop_sizes`), from which every driver picks
its round.  :meth:`VendorJIT.compile` follows the memo while it hits, and
runs a missed step on its one private module, cloned from the cleaned
module the first time the walk needs IR and brought to the walk's state
by replaying the steps it skipped.  Drivers that unroll the same loops
share the rounds and everything after them.  Two compiles with equal
steps produce identical IR, because every step is a deterministic function
of the IR it runs on and a step that reports no change leaves the IR alone
(``tests/test_cleanup_properties.py``), so the measurement path analyses
each distinct driver output once and keeps the analysis in the same entry
(:func:`driver_output_memo`).  The step memo holds no IR, the entry's one
module is never mutated, and an entry goes as a whole: by LRU eviction or
:func:`clear_frontend_memo`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.glsl import parse_shader, preprocess
from repro.ir import lower_shader, promote_to_ssa
from repro.ir.clone import clone_module
from repro.ir.module import Function, Module
from repro.passes.coalesce import coalesce
from repro.passes.div_to_mul import div_to_mul
from repro.passes.gvn import gvn
from repro.passes.hoist import hoist
from repro.passes.manager import run_cleanup, run_step
from repro.passes.unroll import (
    MAX_ROUNDS, MAX_TRIPS, first_fit, loop_sizes, unroll_round,
)

_SAFE_PASSES = {
    "gvn": gvn,
    "coalesce": coalesce,
    "div_to_mul": div_to_mul,
    "hoist": hoist,
}


class _FrontEnd:
    """One source text's memo entry: the cleaned ``module``, which the
    vendor JITs, the offline compiler and its variant walk all clone and
    never mutate, and the ``steps`` and ``driver_outputs`` that fill in as
    the text is compiled and measured."""

    __slots__ = ("module", "steps", "driver_outputs")

    def __init__(self, module: Module):
        self.module = module
        #: The driver pipelines' step memo: ``(state, step) -> state
        #: after`` and ``(state, ("loops", trip cap)) -> loop sizes``,
        #: where a state is a ``driver_steps`` tuple.  It holds no IR.
        self.steps: Dict[Tuple, Tuple] = {}
        #: Per-``driver_steps`` analyses of this text's driver outputs.
        self.driver_outputs: Dict[Tuple, object] = {}


_FRONTEND_MEMO: "OrderedDict[str, _FrontEnd]" = OrderedDict()
_FRONTEND_MEMO_SIZE = 256
_FRONTEND_LOCK = threading.Lock()


def _entry(source: str) -> _FrontEnd:
    """*source*'s memo entry, built on a miss (a race may build it twice)."""
    with _FRONTEND_LOCK:
        entry = _FRONTEND_MEMO.get(source)
        if entry is not None:
            _FRONTEND_MEMO.move_to_end(source)
            return entry
    pp = preprocess(source)
    lowered = lower_shader(parse_shader(pp.text), version=pp.version)
    promote_to_ssa(lowered.function)
    entry = _FrontEnd(clone_module(lowered))
    run_cleanup(entry.module.function)
    with _FRONTEND_LOCK:
        _FRONTEND_MEMO[source] = entry
        while len(_FRONTEND_MEMO) > _FRONTEND_MEMO_SIZE:
            _FRONTEND_MEMO.popitem(last=False)
    return entry


def shared_frontend(source: str) -> Module:
    """The cleaned module of *source*, built once per distinct text."""
    return _entry(source).module


def clear_frontend_memo() -> None:
    """Drop the shared front-end memo, with every step memo and
    driver-output analysis it holds (tests and memory-sensitive callers)."""
    with _FRONTEND_LOCK:
        _FRONTEND_MEMO.clear()


def driver_output_memo(source: str) -> Dict[Tuple, object]:
    """The dict, keyed by ``Module.driver_steps``, in which the measurement
    path keeps what it derives from *source*'s driver outputs.

    It lives in the source's front-end memo entry and goes with it.  With
    no entry (evicted since the compile) it is a fresh, unshared dict.
    """
    with _FRONTEND_LOCK:
        entry = _FRONTEND_MEMO.get(source)
    return {} if entry is None else entry.driver_outputs


#: Pipeline steps that ``VendorJIT.compile`` ran on IR so far: each loop
#: scan, unroll round, post-unroll cleanup and safe pass run on a step-memo
#: miss, and each step replayed to bring a walk's module to its state.  A
#: memo hit counts nothing, nor does the front end's cleanup.
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


def _run(function: Function, step: Tuple) -> bool:
    """Run one pipeline step on *function*; True when it changed the IR."""
    _count_jit_steps(1)
    if step[0] == "unroll":
        unroll_round(function, step[1], step[2])
        return True
    if step[0] == "cleanup":
        run_cleanup(function)
        return True
    return bool(run_step(function, _SAFE_PASSES[step[0]]))


class _Walk:
    """One compile's way through its source's step memo.

    ``module`` is the walk's one private module, at state ``at``: cloned
    from the source's cleaned module the first time the walk needs IR, it
    falls behind while the walk follows memo hits, and catches up by
    replaying the steps it skipped when the walk next needs IR.
    """

    __slots__ = ("cleaned", "memo", "module", "at")

    def __init__(self, entry: _FrontEnd):
        self.cleaned: Module = entry.module
        self.memo = entry.steps
        self.module: Optional[Module] = None
        self.at: Tuple = ()

    def ir(self, state: Tuple) -> Function:
        """The IR at *state*, on the walk's module."""
        if self.module is None:
            self.module = clone_module(self.cleaned, preserve_names=True)
        function = self.module.function
        for step in state[len(self.at):]:
            if not _run(function, step):
                raise AssertionError(f"replayed step {step} changed nothing")
        self.at = state
        return function

    def loops(self, state: Tuple, trip_cap: int) -> Tuple:
        """Limit-free ``loop_sizes`` of the IR at *state*."""
        key = (state, ("loops", trip_cap))
        sizes = self.memo.get(key)
        if sizes is None:
            sizes = loop_sizes(self.ir(state), trip_cap)
            _count_jit_steps(1)
            self.memo[key] = sizes
        return sizes

    def step(self, state: Tuple, step: Tuple) -> Tuple:
        """The state after *step*, run on the walk's module on a miss."""
        key = (state, step)
        after = self.memo.get(key)
        if after is None:
            after = state + (step,) if _run(self.ir(state), step) else state
            self.at = after
            self.memo[key] = after
        return after


class _DriverModule(Module):
    """A driver's compile of a source: ``driver_steps`` and ``interface``
    are set at once, ``function`` is built on first read, from the walk's
    module or by replaying the steps on a clone of the cleaned module.  The
    IR is private to this object."""

    def __init__(self, walk: _Walk, steps: Tuple):
        self._walk: Optional[_Walk] = walk
        super().__init__(None, walk.cleaned.interface, walk.cleaned.version)
        self.driver_steps = steps

    @property
    def function(self) -> Function:
        if self._function is None:
            self._function = self._walk.ir(self.driver_steps)
            self._walk = None
        return self._function

    @function.setter
    def function(self, function: Function) -> None:
        self._function = function


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

        Walks this driver's pipeline through the source's step memo (see
        the module docstring) and returns a module whose ``driver_steps``
        are the steps that changed the source's cleaned module, e.g.
        ``(("unroll", 0, 9), ("cleanup",), ("gvn",))``.  Its IR is built
        on the first read of ``function`` and is private to it.
        """
        walk = _Walk(_entry(source))
        state: Tuple = ()
        if self.unroll_max_trips > 0:
            # One scan of a state serves every driver with at most
            # MAX_TRIPS trips, whatever its limits.
            trip_cap = max(MAX_TRIPS, self.unroll_max_trips)
            for _ in range(MAX_ROUNDS):
                chosen = first_fit(walk.loops(state, trip_cap),
                                   self.unroll_max_trips,
                                   self.unroll_max_growth)
                if chosen is None:
                    break
                index, (trips, _) = chosen
                state = walk.step(state, ("unroll", index, trips))
            if state:  # a round unrolled a loop
                state = walk.step(state, ("cleanup",))
        for name in self.passes:
            state = walk.step(state, (name,))
        return _DriverModule(walk, state)

    #: :meth:`compile` under the name ``perfbench``'s tracer resolves.
    compile_cached = compile
