"""Evaluation engine: one flag combination of one shader on one platform.

The engine wraps :class:`ShaderCompiler` (front-end work shared across
combinations) and :class:`ShaderExecutionEnvironment` (per-platform timing)
behind a single ``evaluate(case, flags, platform)`` call, backed by the
content-addressed :class:`ResultCache`.  Three memo layers keep repeated
work off the hot path:

1. front-end lowering — one :class:`ShaderCompiler` per distinct source;
2. pass pipeline — emitted text per (source, flag index);
3. measurement — cached per (text, platform, seed), so flag combinations
   that collapse to the same emitted text (most of them — Fig. 4c) are
   timed once.

Every layer is keyed on content hashes, so a disk-backed cache survives
process restarts: repeated ``tune`` runs, repeated studies, and the
benchmark suite all skip work they have already paid for.  (Study and
``tune`` entries don't cross-hit each other: the study keeps the paper's
per-variant measurement seeds for protocol fidelity, while ``tune`` keys
every measurement on the engine's single seed.)
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import ShaderCompiler, VariantSet
from repro.gpu.platform import Platform, all_platforms
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.results import ShaderCase
from repro.passes import OptimizationFlags
from repro.search.cache import ResultCache, make_key, source_digest

FlagsLike = Union[OptimizationFlags, int]
PlatformLike = Union[Platform, str]


@dataclass(frozen=True)
class Sample:
    """One measurement of one shader text on one platform."""

    mean_ns: float
    static_ops: int
    registers: int


@dataclass(frozen=True)
class Evaluation:
    """The outcome of evaluating one flag combination of one shader."""

    shader: str
    flag_index: int
    platform: str
    mean_ns: float
    original_ns: float
    static_ops: int
    registers: int
    text_hash: str
    from_cache: bool = False

    @property
    def speedup_pct(self) -> float:
        """Percentage speed-up over the unaltered shader (the paper metric)."""
        return (self.original_ns / self.mean_ns - 1.0) * 100.0


class EvaluationEngine:
    """Compile-and-measure service shared by the study, ``tune``, and tests."""

    def __init__(self, platforms: Optional[Sequence[Platform]] = None,
                 seed: int = 2018, cache: Optional[ResultCache] = None):
        self.platforms: List[Platform] = list(platforms or all_platforms())
        self.seed = seed
        self.cache = cache if cache is not None else ResultCache()
        self._environments: Dict[str, ShaderExecutionEnvironment] = {
            p.name: ShaderExecutionEnvironment(p) for p in self.platforms}
        self._compilers: Dict[str, ShaderCompiler] = {}
        self._variant_sets: Dict[str, VariantSet] = {}
        self._texts: Dict[Tuple[str, int], str] = {}
        # Work counters, exposed so tests can assert cache semantics.
        self.frontend_count = 0     # ShaderCompiler constructions
        self.compile_count = 0      # pass-pipeline runs (per flag combo)
        self.measure_count = 0      # actual environment executions
        # Per-thread cooperative-cancellation hook (see set_cancel_check):
        # thread-local so service workers sharing one engine each cancel
        # only their own job.
        self._cancel_local = threading.local()

    # ------------------------------------------------------------------
    # Cooperative cancellation
    # ------------------------------------------------------------------

    def set_cancel_check(self, check: Optional[Callable[[], None]]) -> None:
        """Install (or clear, with ``None``) this thread's cancel hook.

        The hook is a zero-argument callable invoked at every compile and
        measurement boundary; it cancels the in-flight work by raising.
        The ``repro serve`` worker pool uses it to enforce per-job
        ``--timeout`` deadlines and client-requested cancellation without
        wedging a worker mid-study.
        """
        self._cancel_local.check = check

    def check_cancelled(self) -> None:
        """Run this thread's cancel hook, if any (no-op otherwise)."""
        check = getattr(self._cancel_local, "check", None)
        if check is not None:
            check()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def environment(self, platform: PlatformLike) -> ShaderExecutionEnvironment:
        name = platform.name if isinstance(platform, Platform) else platform
        try:
            return self._environments[name]
        except KeyError:
            raise KeyError(f"platform {name!r} not configured on this engine; "
                           f"have {sorted(self._environments)}") from None

    def compiler_for(self, source: str) -> ShaderCompiler:
        digest = source_digest(source)
        compiler = self._compilers.get(digest)
        if compiler is None:
            self.frontend_count += 1
            compiler = ShaderCompiler(source)
            self._compilers[digest] = compiler
        return compiler

    def variants_for(self, case: ShaderCase) -> VariantSet:
        """The full deduplicated 256-combination variant set.

        Memoized in-process and persisted in the result cache, so a warm
        disk cache replays the whole study without a single pass-pipeline
        run (the report pipeline's zero-compile re-render guarantee).
        """
        self.check_cancelled()
        digest = source_digest(case.source)
        variant_set = self._variant_sets.get(digest)
        if variant_set is None:
            cached = self.cache.get_variants(digest)
            if cached is not None:
                variant_set = self.prime_variants(case.source, cached)
            else:
                self.compile_count += 256
                variant_set = self.compiler_for(case.source).all_variants()
                self._variant_sets[digest] = variant_set
                self._texts.update({(digest, index): text for index, text
                                    in variant_set.index_to_text.items()})
                self.cache.put_variants(digest, variant_set.index_to_text)
        return variant_set

    def has_variants(self, source: str) -> bool:
        digest = source_digest(source)
        return digest in self._variant_sets or self.cache.has_variants(digest)

    def prime_variants(self, source: str,
                       index_to_text: Dict[int, str]) -> VariantSet:
        """Install a variant set compiled elsewhere (e.g. a pool worker),
        grouped exactly as ``all_variants`` groups it in-process."""
        variant_set = VariantSet.from_index_to_text(index_to_text)
        digest = source_digest(source)
        self._variant_sets[digest] = variant_set
        self._texts.update({(digest, index): text
                            for index, text in index_to_text.items()})
        if not self.cache.has_variants(digest):
            self.cache.put_variants(digest, variant_set.index_to_text)
        return variant_set

    def release_case(self, source: str) -> None:
        """Drop the in-process compiled memos for *source* (streaming mode).

        The result cache keeps the compiled variant set (streaming stores
        have already appended it to disk), so a later request for the same
        source falls back to the cache and, failing that, recompiles —
        correctness is unaffected, only memory residency.  The study's
        streaming path calls this per finished case so a huge synth corpus
        holds one case's 256 variant texts in memory, not all of them.
        """
        digest = source_digest(source)
        self._compilers.pop(digest, None)
        variant_set = self._variant_sets.pop(digest, None)
        if variant_set is not None:
            for index in variant_set.index_to_text:
                self._texts.pop((digest, index), None)
        self.cache.release_variants(digest)

    def text_for(self, source: str, flags: FlagsLike) -> str:
        """Emitted text of *source* under *flags* (memoized per flag index)."""
        flags = self._coerce_flags(flags)
        digest = source_digest(source)
        key = (digest, flags.index)
        text = self._texts.get(key)
        if text is None:
            self.compile_count += 1
            text = self.compiler_for(source).compile(flags).output
            self._texts[key] = text
        return text

    @staticmethod
    def _coerce_flags(flags: FlagsLike) -> OptimizationFlags:
        if isinstance(flags, OptimizationFlags):
            return flags
        return OptimizationFlags.from_index(flags)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self, text: str, platform: PlatformLike,
                seed: Optional[int] = None) -> Sample:
        """Time one shader text on one platform, through the result cache."""
        seed = self.seed if seed is None else seed
        return self.measure_many(text, platform, [seed])[0]

    def measure_many(self, text: str, platform: PlatformLike,
                     seeds: Sequence[int]) -> List[Sample]:
        """Time one shader text under every measurement seed, through the
        result cache.

        The uncached seeds run as one
        :meth:`~repro.harness.environment.ShaderExecutionEnvironment.run_many`
        batch, which prepares the unit once.  Samples come back in *seeds*
        order, bit-identical to per-seed :meth:`measure` calls.
        """
        self.check_cancelled()
        name = platform.name if isinstance(platform, Platform) else platform
        samples: List[Optional[Sample]] = []
        pending: List[Tuple[int, int]] = []
        for position, seed in enumerate(seeds):
            cached = self.cache.get(make_key(text, -1, name, seed))
            if cached is not None:
                samples.append(Sample(mean_ns=cached["mean_ns"],
                                      static_ops=int(cached["static_ops"]),
                                      registers=int(cached["registers"])))
            else:
                samples.append(None)
                pending.append((position, seed))
        if pending:
            reports = self.environment(name).run_many(
                text, [seed for _, seed in pending])
            for (position, seed), report in zip(pending, reports):
                self.measure_count += 1
                sample = Sample(mean_ns=report.measurement.mean_ns,
                                static_ops=report.cost.static_ops,
                                registers=report.cost.registers)
                self.cache.put(make_key(text, -1, name, seed),
                               {"mean_ns": sample.mean_ns,
                                "static_ops": sample.static_ops,
                                "registers": sample.registers})
                samples[position] = sample
        return samples  # type: ignore[return-value]

    def original(self, case: ShaderCase, platform: PlatformLike) -> Sample:
        """Measurement of the unaltered shader (the speed-up baseline)."""
        return self.measure(case.source, platform)

    def evaluate(self, case: ShaderCase, flags: FlagsLike,
                 platform: PlatformLike) -> Evaluation:
        """Full pipeline for one (shader, flags, platform) point.

        A result-cache hit on the ``sha256(source) x flag index x platform
        x seed`` key short-circuits before any compilation.
        """
        self.check_cancelled()
        flags = self._coerce_flags(flags)
        name = platform.name if isinstance(platform, Platform) else platform
        key = make_key(case.source, flags.index, name, self.seed)
        cached = self.cache.get(key)
        original = self.original(case, name)
        if cached is not None:
            return Evaluation(shader=case.name, flag_index=flags.index,
                              platform=name, mean_ns=cached["mean_ns"],
                              original_ns=original.mean_ns,
                              static_ops=int(cached["static_ops"]),
                              registers=int(cached["registers"]),
                              text_hash=cached["text_hash"], from_cache=True)
        text = self.text_for(case.source, flags)
        sample = self.measure(text, name)
        text_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
        self.cache.put(key, {"mean_ns": sample.mean_ns,
                             "static_ops": sample.static_ops,
                             "registers": sample.registers,
                             "text_hash": text_hash})
        return Evaluation(shader=case.name, flag_index=flags.index,
                          platform=name, mean_ns=sample.mean_ns,
                          original_ns=original.mean_ns,
                          static_ops=sample.static_ops,
                          registers=sample.registers,
                          text_hash=text_hash)

    # ------------------------------------------------------------------
    # Search objectives
    # ------------------------------------------------------------------

    def corpus_objective(self, corpus: Sequence[ShaderCase],
                         platform: PlatformLike) -> Callable[[int], float]:
        """Mean speed-up (%) across *corpus* as a function of flag index —
        the Table I metric the search strategies maximize."""
        name = platform.name if isinstance(platform, Platform) else platform

        def objective(flag_index: int) -> float:
            if not corpus:
                return 0.0
            total = 0.0
            for case in corpus:
                total += self.evaluate(case, flag_index, name).speedup_pct
            return total / len(corpus)

        return objective
