"""The exhaustive iterative-compilation study (paper Sections III-A, IV).

For every corpus shader: compile all 256 flag combinations, deduplicate the
emitted GLSL (most combinations collapse — Fig. 4c), then time every unique
variant plus the unaltered original on every platform.

The study now runs on the :mod:`repro.search` layers — the
:class:`EvaluationEngine` (compile/measure with a content-addressed result
cache; it builds every cache key and value and counts all work, the
pool's included) and the :class:`Scheduler`.  With ``max_workers > 1`` a
process pool primes the engine first (the work is pure-Python and
CPU-bound, so threads would serialize on the GIL): one task per unique
shader source compiles the 256-combination variant set (via the
shared-prefix compilation trie, :mod:`repro.core.trie`), then the
unmeasured (shader x variant x platform) tasks are measured in per-text
:class:`MeasureBatch` groups so each emitted shader pickles across the
process boundary once rather than once per task.
Assembly then reads everything back through the engine's cache.  Compiles
and measurements are pure functions of their inputs, so serial runs,
parallel runs, and the pre-refactor nested loop all produce byte-identical
:class:`StudyResult` JSON.

With ``cache_path`` set, the cache persists both measurements and compiled
variant sets, each appended to its log the moment it is produced, so a
killed study keeps what it measured, and a repeated study — and the
``repro report`` pipeline built on top of it — replays from disk with zero
compiles and zero measurements.

Large corpora (see ``repro.corpus.synth``) add two scale-out levers:

- **Sharding** (``shard=ShardSpec.parse("2/3")``): the corpus is striped
  deterministically across shards (global index mod shard count), each
  shard runs independently — on one machine or many — and
  :func:`repro.harness.results.merge_study_results` reassembles a result
  byte-identical to the unsharded run.  This works because every
  measurement seed derives from the *global* corpus index, which shard runs
  carry along.
- **Streaming** (``checkpoint_every=N``): the result cache is flushed
  every N cases, and each finished case's compiled variant set is
  released from the cache's memory, with or without a cache file (a
  file's log keeps it; without one, a repeated source compiles again).
  A serial streaming run holds one case's variants in memory; a parallel
  one primes in chunks of ``checkpoint_every x max_workers`` cases, so
  memory is bounded by the chunk, never the corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import ShaderCompiler
from repro.glsl.metrics import lines_of_code
from repro.gpu.platform import Platform, all_platforms, platform_by_name
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.results import (
    ShaderCase, ShaderResult, ShardInfo, StudyResult, VariantRecord,
)
from repro.search.cache import ResultCache, source_digest
from repro.search.engine import EvaluationEngine, Sample
from repro.search.scheduler import MeasureBatch, Scheduler


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a sharded study: shard *index* (1-based) of *count*.

    Cases are striped by global corpus index (``index mod count``), so
    every shard gets a balanced mix of small and large families instead of
    one shard inheriting the whole synth tail.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"I/N"`` (e.g. ``"2/3"``)."""
        head, sep, tail = text.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
        except ValueError:
            raise ValueError(
                f"shard spec must look like 'I/N' (e.g. '2/3'), "
                f"got {text!r}") from None
        # Range errors get the precise __post_init__ message, not the
        # format one — '0/3' is well-formed, just out of range.
        return cls(index=index, count=count)

    def select(self, total: int) -> List[int]:
        """The global corpus indices belonging to this shard."""
        return [i for i in range(total) if i % self.count == self.index - 1]

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass
class StudyConfig:
    """Everything that parameterizes one ``run_study`` invocation."""

    platforms: Optional[Sequence[Platform]] = None
    seed: int = 2018
    verbose: bool = False
    #: worker processes for compile/measure sharding; 1 = serial, None =
    #: honor the REPRO_JOBS environment variable (serial when unset).
    max_workers: Optional[int] = None
    #: optional append-only log behind the result cache (any suffix);
    #: repeated studies and benchmark runs skip recompilation/re-measurement.
    cache_path: Optional[str] = None
    #: run only this shard of the corpus (see :class:`ShardSpec`); the
    #: result carries :class:`~repro.harness.results.ShardInfo` so
    #: ``merge_study_results`` can reassemble the full study.
    shard: Optional[ShardSpec] = None
    #: when > 0: persist the result cache after every N cases and release
    #: each finished case's compiled variant set from the cache's memory
    #: (streaming mode — memory stays bounded by one case serially, or by
    #: one N x max_workers priming chunk in parallel runs).
    checkpoint_every: int = 0
    #: called as ``progress(position, total, shader_result)`` after each
    #: finished case — the incremental-streaming hook the study service
    #: uses to publish per-case results while a job is still running.
    progress: Optional[Callable[[int, int, ShaderResult], None]] = None
    #: when set, this file is touched at study start and after every
    #: finished case — the liveness signal dispatch supervision watches: a
    #: worker whose heartbeat goes stale is presumed hung and killed.
    heartbeat_path: Optional[str] = None


def run_study(corpus: Sequence[ShaderCase],
              config: Optional[StudyConfig] = None,
              engine: Optional[EvaluationEngine] = None,
              scheduler: Optional[Scheduler] = None) -> StudyResult:
    """Run the exhaustive study over *corpus* (or one shard of it).

    Serial runs, parallel runs, shard runs merged back together, and warm
    cache replays all produce byte-identical :class:`StudyResult` JSON.
    """
    config = config or StudyConfig()
    platforms = list(config.platforms or all_platforms())
    if engine is None:
        engine = EvaluationEngine(platforms=platforms, seed=config.seed,
                                  cache=ResultCache(config.cache_path))
    scheduler = scheduler or Scheduler(config.max_workers)

    cases = list(corpus)
    case_indices = list(range(len(cases)))
    shard_info = None
    if config.shard is not None:
        full_digest = corpus_digest(cases)
        case_indices = config.shard.select(len(cases))
        cases = [cases[i] for i in case_indices]
        shard_info = ShardInfo(index=config.shard.index,
                               count=config.shard.count,
                               case_indices=list(case_indices),
                               corpus_digest=full_digest)
        if config.verbose:
            print(f"[study] shard {config.shard}: {len(cases)} of "
                  f"{len(corpus)} cases")

    # Streaming bounds memory by releasing each finished case's compiled
    # variants — so a parallel run must also prime in bounded chunks, or
    # _prime_engine would install the whole corpus's variant sets up front.
    chunk_size = len(cases) or 1
    if scheduler.parallel and config.checkpoint_every > 0:
        chunk_size = config.checkpoint_every * scheduler.max_workers

    result = StudyResult(platforms=[p.name for p in platforms],
                         seed=config.seed, shard=shard_info)
    _beat(config.heartbeat_path)
    position = 0
    for start in range(0, len(cases), chunk_size):
        chunk = cases[start:start + chunk_size]
        chunk_indices = case_indices[start:start + chunk_size]
        if scheduler.parallel:
            _prime_engine(chunk, chunk_indices, platforms, engine, scheduler,
                          config.seed, config.verbose)
        for case, case_index in zip(chunk, chunk_indices):
            # Cooperative cancellation boundary: a service job's timeout or
            # client cancel lands here between cases (and, finer-grained,
            # at every compile/measure inside _run_one).
            engine.check_cancelled()
            position += 1
            if config.verbose:
                print(f"[study] {position}/{len(cases)} {case.name}")
            result.shaders.append(
                _run_one(case, case_index, platforms, engine, config.seed))
            if config.progress is not None:
                config.progress(position, len(cases), result.shaders[-1])
            _beat(config.heartbeat_path)
            if config.checkpoint_every > 0:
                engine.cache.release_variants(source_digest(case.source))
                if position % config.checkpoint_every == 0:
                    engine.cache.save()
    engine.cache.save()
    return result


def corpus_digest(cases: Sequence[ShaderCase]) -> str:
    """Content hash of the whole corpus, in order — the identity shard
    merging checks so shards from different corpora cannot be combined.
    The dispatcher reuses it as the shard checkpoint identity."""
    digest = hashlib.sha256()
    for case in cases:
        digest.update(source_digest(case.source).encode())
    return digest.hexdigest()


def _beat(path: Optional[str]) -> None:
    """Touch the heartbeat file (best effort — liveness reporting must
    never kill the study it reports on)."""
    if not path:
        return
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).touch()
    except OSError:
        pass


def _run_one(case: ShaderCase, case_index: int, platforms: List[Platform],
             engine: EvaluationEngine, seed: int) -> ShaderResult:
    variant_set = engine.variants_for(case)

    shader_result = ShaderResult(
        name=case.name,
        family=case.family,
        loc=lines_of_code(case.source),
        arm_static_cycles=engine.static_cycles_for(case.source),
    )

    for platform in platforms:
        sample = engine.measure(case.source, platform.name,
                                _variant_seed(seed, case_index, -1))
        shader_result.original_times_ns[platform.name] = sample.mean_ns

    # Variants in the order of their smallest producing flag index.
    for variant_id, (text, indices) in enumerate(
            variant_set.indices_by_text.items()):
        record = VariantRecord(
            variant_id=variant_id,
            flag_indices=indices,
            text_hash=hashlib.sha256(text.encode()).hexdigest()[:16],
        )
        for platform in platforms:
            sample = engine.measure(text, platform.name,
                                    _variant_seed(seed, case_index,
                                                  variant_id))
            record.times_ns[platform.name] = sample.mean_ns
            record.static_ops[platform.name] = sample.static_ops
            record.registers[platform.name] = sample.registers
        shader_result.variants.append(record)
    return shader_result


# ---------------------------------------------------------------------------
# Parallel priming: shard the CPU-bound work across a process pool, land
# everything in the engine's result cache, and let assembly read it back.
# ---------------------------------------------------------------------------


def _prime_engine(corpus: Sequence[ShaderCase], case_indices: Sequence[int],
                  platforms: List[Platform], engine: EvaluationEngine,
                  scheduler: Scheduler, seed: int, verbose: bool) -> None:
    """Shard the CPU-bound work across the pool and land it in the cache.

    ``case_indices`` carries each case's *global* corpus index — measurement
    seeds are derived from it, which is what keeps shard runs byte-
    compatible with the unsharded study.
    """
    # Phase 1: one task per unique uncached source compiles all 256
    # combinations (the dominant cost: ~256 pass-pipeline runs each).
    sources: List[str] = []
    seen = set()
    for case in corpus:
        digest = source_digest(case.source)
        if digest not in seen and not engine.cache.has_variants(digest):
            seen.add(digest)
            sources.append(case.source)
    if verbose and sources:
        print(f"[study] compiling {len(sources)} shaders "
              f"x 256 combinations on {scheduler.max_workers} workers")
    for source, index_to_text in zip(
            sources, scheduler.map(_compile_case_variants, sources)):
        engine.prime_variants(source, index_to_text)

    # Phase 2: the unmeasured (text, platform, seed) tasks, batched per
    # shader text so the pool pickles each text once (instead of once per
    # variant x platform) and the worker's shared JIT front-end memo parses
    # it once for all of the batch's platforms.
    pending: Dict[str, List[Tuple[str, int]]] = {}
    for case, case_index in zip(corpus, case_indices):
        texts = [case.source] + list(engine.variants_for(case).indices_by_text)
        for variant_id, text in enumerate(texts, start=-1):
            unit_seed = _variant_seed(seed, case_index, variant_id)
            for platform in platforms:
                if not engine.has_sample(text, platform.name, unit_seed):
                    pending.setdefault(text, []).append(
                        (platform.name, unit_seed))
    batches = [MeasureBatch(text=text, tasks=tuple(tasks))
               for text, tasks in pending.items()]
    if verbose and batches:
        print(f"[study] measuring {sum(len(b.tasks) for b in batches)} "
              f"units in {len(batches)} text batches on "
              f"{scheduler.max_workers} workers")
    for batch, samples in zip(batches, scheduler.map(_measure_batch, batches)):
        for (platform_name, unit_seed), sample in zip(batch.tasks, samples):
            engine.record_sample(batch.text, platform_name, unit_seed, sample)


def _compile_case_variants(source: str) -> Dict[int, str]:
    """Pool worker: emitted text for all 256 combinations of one shader
    (module-level so it pickles into process-pool workers)."""
    return ShaderCompiler(source).all_variants().index_to_text


def _measure_batch(batch: MeasureBatch) -> List[Sample]:
    """Pool worker: measure one shader text on every (platform, seed) task.

    The text crosses the process boundary once per batch; the vendor JITs'
    shared front-end memo then parses it once for all platforms here.  The
    batch's tasks are grouped per platform and run through
    :meth:`~repro.harness.environment.ShaderExecutionEnvironment.run_many`,
    so each (text, platform) unit compiles, profiles, and costs once no
    matter how many measurement seeds it carries.
    """
    by_platform: Dict[str, List[Tuple[int, int]]] = {}
    for position, (platform_name, seed) in enumerate(batch.tasks):
        by_platform.setdefault(platform_name, []).append((position, seed))
    results: List[Optional[Sample]] = [None] * len(batch.tasks)
    for platform_name, tasks in by_platform.items():
        env = ShaderExecutionEnvironment(platform_by_name(platform_name))
        reports = env.run_many(batch.text, [seed for _, seed in tasks])
        for (position, _), report in zip(tasks, reports):
            results[position] = Sample.from_report(report)
    return results  # type: ignore[return-value]


def _variant_seed(seed: int, case_index: int, variant_id: int) -> int:
    return seed * 7_919 + case_index * 257 + (variant_id + 2)
