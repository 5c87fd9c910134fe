"""Corpus-global compilation-state trie: intern once, compile everywhere.

The per-shader :class:`~repro.core.trie.VariantTrie` (PR 3) collapses the
256-combination flag space of *one* shader by merging fingerprint-equal
states mid-walk.  This module widens the same idea to the whole study: a
:class:`CorpusTrie` interns post-pass IR states across **every** pipeline the
study runs —

* the offline 256-variant walk of every corpus shader
  (:meth:`CorpusTrie.compile_variants`, byte-identical to ``VariantTrie``);
* every simulated vendor JIT pipeline (:mod:`repro.gpu.jit` under
  ``REPRO_COMPILE=corpus``): each measured text x each of the five vendor
  drivers is a sequence of exactly the same step granularity.

States are keyed by the canonical IR fingerprint
(:mod:`repro.ir.fingerprint`) **plus** a digest of the module's GLSL
interface and ``#version`` — the per-shader trie can omit those (constant
within one shader) but a corpus-wide key cannot, since emission reprints the
interface declarations.  Edges are memoized as ``(state key, step) -> child
key`` where a step is one of::

    ("cleanup",)                  run_cleanup
    ("pass", name)                apply_flag_pass  (flag pass + cleanup)
    ("unroll", trips, growth)     driver unroller + cleanup

The payoff is *cross-pipeline* sharing the per-shader trie structurally
cannot see: the five vendor JITs repeat each other's cleanup/gvn/div_to_mul
steps on the same post-frontend states, the JIT pipelines of a shader's 256
variant texts converge onto states the offline walk already produced, and a
step key ``("pass", "gvn")`` is *identical* between the offline walk and a
vendor pipeline, so either side can hit edges the other created.  (Distinct
synth families do not converge to identical whole-function states — feature
blocks compose into one function body — so the measured win is this
cross-pipeline/cross-text sharing, not cross-family aliasing; see
``docs/architecture.md``.)

Safety rests entirely on the fingerprint contract — equal fingerprints imply
identical later-pass behaviour and byte-identical emission — which is what
``tests/test_fingerprint_properties.py`` fuzzes and
``tests/test_corpus_trie.py`` enforces differentially (``StudyResult`` bytes
identical across ``REPRO_COMPILE=naive|trie|corpus``).

Interned modules are **shared and immutable**: :meth:`CorpusTrie.apply`
clones before running any pass, and every consumer of a returned module
(measurement profiling, cost estimation, emission) only reads.  All state is
guarded by one re-entrant lock, so `--jobs` worker threads and the service
worker pool can share one trie; process-pool workers each build their own
process-global trie via :func:`shared_corpus_trie` (fork/spawn boundaries
cannot share Python object graphs cheaply), which preserves every
correctness property — sharing is an optimization, never a dependency.

An optional ``max_states`` bound evicts least-recently-used *modules* only.
Edge and emit memos are content-addressed (key = state content), so they
stay valid across evictions; an edge whose child module was evicted simply
recomputes it (counted in ``stats.pass_runs`` again) and re-interns under
the same key.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.ir import emit_glsl
from repro.ir.clone import clone_module
from repro.ir.fingerprint import fingerprint_module
from repro.ir.module import Module
from repro.passes.manager import (
    PASS_ORDER, apply_flag_pass, run_cleanup, run_step,
)
from repro.passes.unroll import unroll

#: A trie edge label; see the module docstring for the three step kinds.
Step = Tuple


@dataclass(frozen=True)
class TrieState:
    """A handle on one interned compilation state.

    Carrying the module in the handle (not just the key) is what makes
    eviction safe: :meth:`CorpusTrie.apply` can always clone the parent it
    was handed, even if the trie has since evicted it.
    """

    key: str
    module: Module  # interned and shared — MUST be treated as immutable


@dataclass
class CorpusTrieStats:
    """Cumulative work/sharing counters (exposed on the engine and CLI)."""

    #: memoized edge servings: a pipeline step answered without running it.
    hits: int = 0
    #: steps actually executed (clone + pass/cleanup/unroll) — the misses.
    pass_runs: int = 0
    #: distinct states interned (re-interning an evicted state counts again).
    interned_states: int = 0
    #: emissions actually run / answered from the emit memo.
    emits: int = 0
    emit_hits: int = 0
    #: modules dropped by the ``max_states`` LRU bound.
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "pass_runs": self.pass_runs,
                "interned_states": self.interned_states, "emits": self.emits,
                "emit_hits": self.emit_hits, "evictions": self.evictions}

    @staticmethod
    def merge_dicts(parts: Iterable[Dict[str, int]]) -> Dict[str, int]:
        """Sum per-shard stat dicts (the ``repro merge-results`` path)."""
        merged = CorpusTrieStats().as_dict()
        for part in parts:
            for name in merged:
                merged[name] += int(part.get(name, 0))
        return merged


class CorpusTrie:
    """Corpus-wide interning of compilation states and pipeline steps."""

    def __init__(self, max_states: Optional[int] = None):
        if max_states is not None and max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {max_states}")
        self.max_states = max_states
        self.stats = CorpusTrieStats()
        self._lock = threading.RLock()
        #: state key -> interned module, LRU-ordered for eviction.
        self._states: "OrderedDict[str, Module]" = OrderedDict()
        #: (parent state key, step) -> child state key.  Content-addressed:
        #: never invalidated, even across evictions.
        self._edges: Dict[Tuple[str, Step], str] = {}
        #: (state key, es) -> emitted GLSL.  Content-addressed likewise.
        self._emits: Dict[Tuple[str, bool], str] = {}

    # ------------------------------------------------------------------
    # Keys and interning
    # ------------------------------------------------------------------

    @staticmethod
    def state_key(module: Module) -> str:
        """Canonical content key: function fingerprint + interface/version.

        The function fingerprint deliberately omits interface and version
        (constant across the states of one shader); a corpus-wide key must
        fold them in, because emission reprints the declarations and two
        shaders could in principle share a function body but not an
        interface.
        """
        interface = module.interface
        context = repr((module.version,
                        tuple((v.name, repr(v.ty)) for v in interface.uniforms),
                        tuple((v.name, repr(v.ty)) for v in interface.inputs),
                        tuple((v.name, repr(v.ty)) for v in interface.outputs)))
        suffix = hashlib.sha256(context.encode()).hexdigest()[:16]
        return f"{fingerprint_module(module)}:{suffix}"

    def intern(self, module: Module) -> TrieState:
        """Intern *module* (or return the already-interned equal state).

        The caller must not mutate *module* afterwards — on a miss it
        becomes the shared canonical copy.
        """
        key = self.state_key(module)
        with self._lock:
            return self._install(key, module)

    def _install(self, key: str, module: Module) -> TrieState:
        existing = self._states.get(key)
        if existing is not None:
            self._states.move_to_end(key)
            return TrieState(key, existing)
        self._states[key] = module
        self.stats.interned_states += 1
        if self.max_states is not None:
            while len(self._states) > self.max_states:
                self._states.popitem(last=False)
                self.stats.evictions += 1
        return TrieState(key, module)

    # ------------------------------------------------------------------
    # Steps and emission
    # ------------------------------------------------------------------

    def apply(self, state: TrieState, step: Step) -> TrieState:
        """The child state of running *step* on *state* (memoized).

        A memo hit serves the interned child without cloning or running
        anything; a miss clones the parent (name-preserving, exactly as the
        per-shader trie and the vendor JITs do), runs the step, and interns
        the result so every later pipeline reaching this edge shares it.
        """
        with self._lock:
            child_key = self._edges.get((state.key, step))
            if child_key is not None:
                module = self._states.get(child_key)
                if module is not None:
                    self._states.move_to_end(child_key)
                    self.stats.hits += 1
                    return TrieState(child_key, module)
                # Child evicted: fall through and recompute under the same
                # (content-addressed) key.
        module = clone_module(state.module, preserve_names=True)
        _run_step(module, step)
        with self._lock:
            self.stats.pass_runs += 1
            child = self._install(self.state_key(module), module)
            self._edges[(state.key, step)] = child.key
            return child

    def emit(self, state: TrieState, es: bool = False) -> str:
        """Emitted GLSL of *state* (memoized corpus-wide per ``es``)."""
        memo_key = (state.key, bool(es))
        with self._lock:
            text = self._emits.get(memo_key)
            if text is not None:
                self.stats.emit_hits += 1
                return text
        text = emit_glsl(state.module, es=es)
        with self._lock:
            if memo_key in self._emits:
                self.stats.emit_hits += 1
            else:
                self._emits[memo_key] = text
                self.stats.emits += 1
            return self._emits[memo_key]

    # ------------------------------------------------------------------
    # The offline 256-variant walk
    # ------------------------------------------------------------------

    def compile_variants(self, base_module: Module,
                         es: bool = False) -> Dict[int, str]:
        """Emitted text for every flag index 0..255 of *base_module*.

        The walk is step-for-step the per-shader ``VariantTrie.compile``
        (same root cleanup, same level order, same merge points — the
        corpus key is the fingerprint plus a constant-within-one-shader
        suffix, so merges happen exactly where the per-shader walk merges),
        with every edge routed through the corpus-wide memo: a state
        another shader's walk or a vendor JIT pipeline already produced is
        served instead of recomputed, and repeated studies of the same
        shader share everything including the emissions.
        """
        root_module = clone_module(base_module)
        run_cleanup(root_module.function)
        root = self.intern(root_module)

        states: Dict[str, TrieState] = {root.key: root}
        subset_to_key: Dict[int, str] = {0: root.key}
        for bit, name in enumerate(PASS_ORDER):
            step: Step = ("pass", name)
            child_of = {key: self.apply(state, step)
                        for key, state in states.items()}
            next_states = dict(states)
            for child in child_of.values():
                next_states.setdefault(child.key, child)
            next_subsets: Dict[int, str] = {}
            for subset, key in subset_to_key.items():
                next_subsets[subset] = key
                next_subsets[subset | (1 << bit)] = child_of[key].key
            subset_to_key = next_subsets
            live = set(subset_to_key.values())
            states = {key: state for key, state in next_states.items()
                      if key in live}

        texts = {key: self.emit(state, es=es)
                 for key, state in states.items()}
        from repro.core.trie import _pass_subset

        return {index: texts[subset_to_key[_pass_subset(index)]]
                for index in range(256)}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    def clear(self) -> None:
        """Drop every interned state, memo, and counter."""
        with self._lock:
            self._states.clear()
            self._edges.clear()
            self._emits.clear()
            self.stats = CorpusTrieStats()


def _run_step(module: Module, step: Step) -> None:
    """Execute one pipeline step in place (the edge-miss path)."""
    kind = step[0]
    if kind == "cleanup":
        run_cleanup(module.function)
    elif kind == "pass":
        apply_flag_pass(module, step[1])
    elif kind == "unroll":
        run_step(module.function, unroll, max_trips=step[1],
                 max_growth=step[2])
    else:
        raise KeyError(f"unknown trie step {step!r}")


# ---------------------------------------------------------------------------
# Process-global shared instance
# ---------------------------------------------------------------------------
# One trie per process is the sharing unit: `--jobs` threads and service
# workers all land in it; each process-pool/shard worker builds its own and
# their hit statistics are summed by `repro merge-results --trie-stats`.

_SHARED: Optional[CorpusTrie] = None
_SHARED_LOCK = threading.Lock()


def shared_corpus_trie() -> CorpusTrie:
    """The process-wide trie ``REPRO_COMPILE=corpus`` pipelines share."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = CorpusTrie()
        return _SHARED


def reset_shared_corpus_trie() -> None:
    """Drop the process-wide trie (tests, benchmarks, memory pressure)."""
    global _SHARED
    with _SHARED_LOCK:
        _SHARED = None
