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
vendor, so it is memoized per source text: a study measuring one variant on
5 platforms parses it once and each vendor pipeline runs off a
name-preserving clone (exactly equivalent to lowering fresh — see
:mod:`repro.ir.clone`).

Under ``REPRO_COMPILE=corpus`` each pipeline is additionally routed through
the corpus-global state trie (:mod:`repro.core.corpus_trie`): every
cleanup/unroll/pass step becomes a memoized trie edge, so the five vendors'
overlapping pipelines — and the offline 256-variant walks, whose ``("pass",
name)`` steps are literally the same edges — execute each step once per
distinct IR state for the whole study.  The returned module is then an
*interned shared* module; all consumers here (profiling, cost estimation,
emission) only read, which the per-shader memo path already required.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Tuple

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

#: Pristine lowered modules per source text (vendor-independent front-end
#: work).  Entries are never mutated — vendors clone before optimizing.
_FRONTEND_MEMO: "OrderedDict[str, Module]" = OrderedDict()
_FRONTEND_MEMO_SIZE = 256
_FRONTEND_LOCK = threading.Lock()


def shared_frontend(source: str) -> Module:
    """Parse + lower + SSA-promote *source* once per distinct text."""
    with _FRONTEND_LOCK:
        module = _FRONTEND_MEMO.get(source)
        if module is not None:
            _FRONTEND_MEMO.move_to_end(source)
            return module
    pp = preprocess(source)
    shader = parse_shader(pp.text)
    module = lower_shader(shader, version=pp.version)
    promote_to_ssa(module.function)
    with _FRONTEND_LOCK:
        _FRONTEND_MEMO[source] = module
        while len(_FRONTEND_MEMO) > _FRONTEND_MEMO_SIZE:
            _FRONTEND_MEMO.popitem(last=False)
    return module


def clear_frontend_memo() -> None:
    """Drop the shared front-end memo (tests and memory-sensitive callers)."""
    with _FRONTEND_LOCK:
        _FRONTEND_MEMO.clear()
    with _COMPILED_LOCK:
        _COMPILED_MEMO.clear()


#: Fully JIT-compiled modules per (vendor, source) — the batched
#: measurement path treats these as immutable (profiling and cost
#: estimation only read the IR), so one compile serves every measurement
#: seed of a (text, platform) unit.
_COMPILED_MEMO: "OrderedDict[Tuple[str, str], Module]" = OrderedDict()
_COMPILED_MEMO_SIZE = 256
_COMPILED_LOCK = threading.Lock()

#: Pipeline steps (cleanup / unroll / safe pass) actually executed by the
#: per-shader ``compile`` path.  An unroll or safe-pass step counts even
#: when it changed nothing and so skipped its cleanup (``run_step``): the
#: cleanup would have left the already-cleaned IR as it was.  The
#: corpus-trie benchmark reads this as the unshared-JIT baseline;
#: corpus-mode steps are counted by the trie instead.
_JIT_STEPS = 0
_JIT_STEPS_LOCK = threading.Lock()


def jit_pipeline_steps() -> int:
    """Steps executed by non-corpus ``VendorJIT.compile`` calls so far."""
    with _JIT_STEPS_LOCK:
        return _JIT_STEPS


def reset_jit_pipeline_steps() -> None:
    """Zero the step counter (benchmark bracketing)."""
    global _JIT_STEPS
    with _JIT_STEPS_LOCK:
        _JIT_STEPS = 0


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

        Under ``REPRO_COMPILE=corpus`` the pipeline runs as corpus-trie
        edges and the result is an interned **shared** module — callers
        must treat it as immutable (every caller today only reads:
        profiling, cost estimation, static cycle analysis).  In the other
        modes the result is a private clone as before.
        """
        from repro.core.pipeline import compile_mode

        if compile_mode() == "corpus":
            return self._compile_shared(source)
        module = clone_module(shared_frontend(source), preserve_names=True)
        function = module.function

        steps = 1
        run_cleanup(function)
        if self.unroll_max_trips > 0:
            run_step(function, unroll, max_trips=self.unroll_max_trips,
                     max_growth=self.unroll_max_growth)
            steps += 1
        for name in self.passes:
            run_step(function, _SAFE_PASSES[name])
            steps += 1
        _count_jit_steps(steps)
        return module

    def _compile_shared(self, source: str) -> Module:
        """The ``REPRO_COMPILE=corpus`` pipeline: every step a trie edge.

        Step keys line up with the offline walk on purpose: ``("pass",
        "gvn")`` here and in :meth:`CorpusTrie.compile_variants` are the
        same edge (``apply_flag_pass`` is exactly "safe pass + cleanup"),
        so a vendor pipeline can serve states the offline walk produced
        and vice versa.
        """
        from repro.core.corpus_trie import shared_corpus_trie

        trie = shared_corpus_trie()
        state = trie.intern(shared_frontend(source))
        state = trie.apply(state, ("cleanup",))
        if self.unroll_max_trips > 0:
            state = trie.apply(state, ("unroll", self.unroll_max_trips,
                                       self.unroll_max_growth))
        for name in self.passes:
            state = trie.apply(state, ("pass", name))
        return state.module

    def compile_cached(self, source: str) -> Module:
        """Memoized :meth:`compile` for read-only consumers.

        The returned module is shared across callers and MUST NOT be
        mutated — the batched measurement path only profiles and costs it.
        Callers that optimize the module further (none today) must use
        :meth:`compile`, which always returns a fresh clone.
        """
        key = (self.name, source)
        with _COMPILED_LOCK:
            module = _COMPILED_MEMO.get(key)
            if module is not None:
                _COMPILED_MEMO.move_to_end(key)
                return module
        module = self.compile(source)
        with _COMPILED_LOCK:
            _COMPILED_MEMO[key] = module
            while len(_COMPILED_MEMO) > _COMPILED_MEMO_SIZE:
                _COMPILED_MEMO.popitem(last=False)
        return module
