"""Evaluation engine: one flag combination of one shader on one platform.

The engine wraps :class:`ShaderCompiler` and
:class:`ShaderExecutionEnvironment` (per-platform timing) behind a single
``evaluate(case, flags, platform)`` call.  The content-addressed
:class:`ResultCache` is the one store of what it produces:

1. compiled sources — one record per source (:func:`compile_source`):
   its 256-combination emitted texts, ARM static cycle count and lines of
   code, compiled and stored together (the front-end module itself lives
   in the vendor JITs' shared LRU, :func:`repro.gpu.jit.shared_frontend`,
   and no engine pins it);
2. measurements — per (text, platform, seed), so flag combinations that
   collapse to the same emitted text (most of them — Fig. 4c) are timed
   once.

The engine keeps no compiled text of its own.  A flag point that no cached
variant set holds compiles through :meth:`ShaderCompiler.compile`, which
takes the text of any state an earlier compile of the source reached from
the source's front-end entry, which the LRU bounds.  A long-lived engine
drops its environments' memoized protocol runs when a search job ends,
with :meth:`EvaluationEngine.release_measurements`.  The engine is the one
place that builds cache keys and values and counts work.  Every entry is
keyed on content hashes, so a disk-backed cache survives process restarts
and is shared by engines of every seed: repeated ``tune`` runs, repeated
studies, and the benchmark suite all skip work they have already paid
for.  (Study and ``tune`` measurements don't cross-hit each other: the
study keeps the paper's per-variant measurement seeds for protocol
fidelity, while ``tune`` keys every measurement on the engine's single
seed.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.analysis.cycle_analyzer import arm_static_cycles
from repro.core.pipeline import ShaderCompiler
from repro.glsl.metrics import lines_of_code
from repro.gpu.platform import Platform, all_platforms
from repro.harness.environment import (
    ExecutionReport, ShaderExecutionEnvironment,
)
from repro.harness.results import ShaderCase
from repro.passes import OptimizationFlags
from repro.search.cache import (
    ResultCache, SourceRecord, make_key, source_digest,
)

FlagsLike = Union[OptimizationFlags, int]
PlatformLike = Union[Platform, str]


def compile_source(source: str) -> SourceRecord:
    """Compile a source's record: all 256 flag combinations, then ARM's
    static cycle count, whose driver compile starts from the front-end
    entry the variant walk just made, then the lines of code."""
    return SourceRecord(
        index_to_text=ShaderCompiler(source).all_variants().index_to_text,
        arm_static_cycles=arm_static_cycles(source),
        loc=lines_of_code(source))


@dataclass(frozen=True)
class Sample:
    """One measurement of one shader text on one platform."""

    mean_ns: float
    static_ops: int
    registers: int

    @classmethod
    def from_report(cls, report: ExecutionReport) -> "Sample":
        """The sample one environment run reports."""
        return cls(mean_ns=report.measurement.mean_ns,
                   static_ops=report.cost.static_ops,
                   registers=report.cost.registers)


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
        #: digests of the sources this engine compiled (holds no IR).
        self._compiled: Set[str] = set()
        # Work counters, exposed so tests can assert cache semantics.
        # compile_count: 256 per variant set, 1 per point whose text had
        # to be emitted.
        self.compile_count = 0
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

    @property
    def frontend_count(self) -> int:
        """Distinct sources this engine compiled: one front end each."""
        return len(self._compiled)

    def _count_compiles(self, digest: str, combinations: int) -> None:
        self._compiled.add(digest)
        self.compile_count += combinations

    def variants_for(self, case: ShaderCase) -> SourceRecord:
        """The source's record: its full 256-combination variant set, ARM
        static cycle count and lines of code.

        Read from the result cache when it holds the record; otherwise
        compiled and stored there, so a warm disk cache replays the whole
        study without a single pass-pipeline run or front end (the report
        pipeline's zero-compile re-render guarantee).
        """
        self.check_cancelled()
        digest = source_digest(case.source)
        record = self.cache.get_variants(digest)
        if record is None:
            record = compile_source(case.source)
            self.prime_compiled(case.source, record)
        return record

    def prime_compiled(self, source: str, record: SourceRecord) -> None:
        """Store a source's record, compiled here or in a pool worker,
        where the cache lacks it, counting the compile as this engine's
        work."""
        digest = source_digest(source)
        if self.cache.get_variants(digest) is None:
            self._count_compiles(digest, 256)
            self.cache.put_variants(digest, record)

    def text_for(self, source: str, flags: FlagsLike) -> str:
        """Emitted text of *source* under *flags*: from the cached variant
        set, else from :meth:`ShaderCompiler.compile`, counted as a compile
        when it had to emit the text."""
        flags = self._coerce_flags(flags)
        digest = source_digest(source)
        record = self.cache.get_variants(digest)
        text = record.index_to_text.get(flags.index) if record else None
        if text is None:
            compiled = ShaderCompiler(source).compile(flags)
            self._count_compiles(digest, compiled.emitted)
            text = compiled.output
        return text

    def release_measurements(self) -> None:
        """Drop every environment's memoized protocol runs (when a search
        job ends)."""
        for environment in self._environments.values():
            environment.release_measurements()

    @staticmethod
    def _coerce_flags(flags: FlagsLike) -> OptimizationFlags:
        if isinstance(flags, OptimizationFlags):
            return flags
        return OptimizationFlags.from_index(flags)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def has_sample(self, text: str, platform: str, seed: int) -> bool:
        """Whether the cache holds this measurement.  Unmetered: it moves
        neither the cache's hit nor its miss counter."""
        return make_key(text, -1, platform, seed) in self.cache

    def record_sample(self, text: str, platform: str, seed: int,
                      sample: Sample) -> None:
        """Store one measured sample (here or in a pool worker) and count
        it as this engine's work."""
        self.measure_count += 1
        self.cache.put(make_key(text, -1, platform, seed),
                       {"mean_ns": sample.mean_ns,
                        "static_ops": sample.static_ops,
                        "registers": sample.registers})

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
                samples[position] = Sample.from_report(report)
                self.record_sample(text, name, seed, samples[position])
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
        text_hash = source_digest(text)[:16]
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
