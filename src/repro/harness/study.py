"""The exhaustive iterative-compilation study (paper Sections III-A, IV).

For every corpus shader: compile all 256 flag combinations, deduplicate the
emitted GLSL (most combinations collapse — Fig. 4c), then time every unique
variant plus the unaltered original on every platform.

The study runs on the :mod:`repro.search` layers — the
:class:`EvaluationEngine` (compile/measure with a content-addressed result
cache; it builds every cache key and value and counts all work, the
pool's included) and the :class:`Scheduler`.  With ``max_workers > 1``
the study opens one scheduler session, one process pool for the whole
study (the work is pure-Python and CPU-bound, so threads would serialize
on the GIL), and feeds it case by case.  Each case's source is one task
that compiles the 256-combination variant set (via the shared-prefix
compilation trie, :mod:`repro.core.trie`) and counts its ARM static cycles
on the front-end entry the walk just made.  As soon as that task returns,
the case's unmeasured (text x platform) units go out as one
:class:`MeasureBatch` task per text, so each emitted shader pickles across
the process boundary once rather than once per platform.  Cases are
assembled in corpus order as their batches return: the engine stores the
compiled set, the static count and the samples, then the serial per-case
path reads everything back through its cache.  Compiles and measurements
are pure functions of their inputs, so serial runs, parallel runs, and the
pre-refactor nested loop all produce byte-identical :class:`StudyResult`
JSON, and serial and parallel runs write the same cache log.  If a worker
dies, the cases not yet assembled finish serially.

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
  one admits a case to the pool only while fewer than
  ``checkpoint_every x max_workers`` admitted cases wait for assembly, so
  memory is bounded by that window, never the corpus.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cycle_analyzer import arm_static_cycles
from repro.core.pipeline import ShaderCompiler, VariantSet
from repro.glsl.metrics import lines_of_code
from repro.gpu.jit import clear_frontend_memo
from repro.gpu.platform import Platform, all_platforms, platform_by_name
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.results import (
    ShaderCase, ShaderResult, ShardInfo, StudyResult, VariantRecord,
)
from repro.search.cache import ResultCache, source_digest
from repro.search.engine import EvaluationEngine, Sample
from repro.search.scheduler import MeasureBatch, Scheduler, Tasks


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
    #: N x max_workers cases compiled but not yet assembled in parallel
    #: runs).
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

    result = StudyResult(platforms=[p.name for p in platforms],
                         seed=config.seed, shard=shard_info)

    def assemble(position: int) -> None:
        """Run case *position* through the engine (a replay of what the
        pool stored, or the serial work itself) and publish it."""
        case = cases[position]
        # Cooperative cancellation boundary: a service job's timeout or
        # client cancel lands here between cases (and, finer-grained,
        # at every compile/measure inside _run_one).
        engine.check_cancelled()
        if config.verbose:
            print(f"[study] {position + 1}/{len(cases)} {case.name}")
        result.shaders.append(_run_one(case, case_indices[position],
                                       platforms, engine, config.seed))
        if config.progress is not None:
            config.progress(position + 1, len(cases), result.shaders[-1])
        _beat(config.heartbeat_path)
        if config.checkpoint_every > 0:
            engine.cache.release_variants(source_digest(case.source))
            if (position + 1) % config.checkpoint_every == 0:
                engine.cache.save()

    _beat(config.heartbeat_path)
    assembled = 0
    with scheduler.session() as pooled:
        if pooled:
            window = len(cases)
            if config.checkpoint_every > 0:
                window = config.checkpoint_every * scheduler.max_workers
            if config.verbose:
                print(f"[study] {len(cases)} cases on "
                      f"{scheduler.max_workers} workers")
            assembled = _PoolFeed(cases, case_indices, platforms, engine,
                                  scheduler, config.seed).run(assemble,
                                                              window)
            if assembled < len(cases) and config.verbose:
                print(f"[study] a pool worker died; finishing "
                      f"{len(cases) - assembled} cases serially")
    for position in range(assembled, len(cases)):
        assemble(position)
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
# The pool feed: one compile task per case source, one MeasureBatch task per
# text as soon as its case's compile returns, cases assembled in order.
# ---------------------------------------------------------------------------

#: How long the feed waits on the pool between cancellation checks.
_POLL_S = 0.1


class _PoolFeed:
    """Feeds one session's pool case by case, with no phase barrier.

    A case is *admitted* when its compile task is submitted (or, for a
    source whose variant set the cache holds, when its measure batches
    are), and *assembled* when the engine has stored its results and
    ``assemble`` has read them back.  Cases admitted while a compile of
    their source runs share it.
    """

    def __init__(self, cases: Sequence[ShaderCase],
                 case_indices: Sequence[int], platforms: List[Platform],
                 engine: EvaluationEngine, scheduler: Scheduler, seed: int):
        self.cases = cases
        #: global corpus indices: measurement seeds derive from them, which
        #: keeps shard runs byte-compatible with the unsharded study.
        self.case_indices = case_indices
        self.platforms = platforms
        self.engine = engine
        self.scheduler = scheduler
        self.seed = seed
        #: source digest -> the admitted cases its running compile serves.
        self.waiting: Dict[str, List[int]] = {}
        self.compiles: Dict[Tasks, str] = {}      # compile map -> digest
        self.measures: Dict[Tasks, int] = {}      # measure map -> case
        #: case -> (variant set, static cycles) from its compile task.
        self.compiled: Dict[int, Tuple[Dict[int, str], float]] = {}
        self.batches: Dict[int, List[MeasureBatch]] = {}
        #: case -> samples per batch, once every batch returned.
        self.samples: Dict[int, List[List[Sample]]] = {}

    def run(self, assemble: Callable[[int], None], window: int) -> int:
        """Assemble every case in order, keeping at most *window* admitted
        cases unassembled; returns how many cases were assembled, which
        is fewer than all only when a pool worker died."""
        total = len(self.cases)
        admitted = assembled = 0
        try:
            while assembled < total:
                while admitted < min(total, assembled + window):
                    self._admit(admitted)
                    admitted += 1
                if assembled in self.samples:
                    self._store(assembled)
                    assemble(assembled)
                    assembled += 1
                    continue
                self.engine.check_cancelled()
                tasks = self.scheduler.finished(_POLL_S)
                if tasks is not None:
                    self._on_finished(tasks)
        except BrokenProcessPool:
            pass
        return assembled

    def _admit(self, position: int) -> None:
        source = self.cases[position].source
        digest = source_digest(source)
        if digest in self.waiting:
            self.waiting[digest].append(position)
            return
        index_to_text = self.engine.cache.get_variants(digest)
        if index_to_text is not None:
            self._submit_measures(position, index_to_text)
            return
        self.waiting[digest] = [position]
        tasks = self.scheduler.map(_compile_case_variants, [source])
        self.compiles[tasks] = digest

    def _on_finished(self, tasks: Tasks) -> None:
        digest = self.compiles.pop(tasks, None)
        if digest is None:
            self.samples[self.measures.pop(tasks)] = list(tasks)
            return
        compiled = next(tasks)
        for position in self.waiting.pop(digest):
            self.compiled[position] = compiled
            self._submit_measures(position, compiled[0])

    def _submit_measures(self, position: int,
                         index_to_text: Dict[int, str]) -> None:
        """Send out the case's unmeasured units, one batch per text, in
        the order :func:`_run_one` reads them."""
        source = self.cases[position].source
        variant_set = VariantSet.from_index_to_text(index_to_text)
        batches: List[MeasureBatch] = []
        for variant_id, text in enumerate(
                [source, *variant_set.indices_by_text], start=-1):
            unit_seed = _variant_seed(self.seed, self.case_indices[position],
                                      variant_id)
            tasks = tuple(
                (platform.name, unit_seed) for platform in self.platforms
                if not self.engine.has_sample(text, platform.name, unit_seed))
            if tasks:
                batches.append(MeasureBatch(text=text, tasks=tasks))
        self.batches[position] = batches
        if batches:
            self.measures[self.scheduler.map(_measure_batch, batches)] = \
                position
        else:
            self.samples[position] = []

    def _store(self, position: int) -> None:
        """Hand the case's worker results to the engine, which stores them
        (and counts the work) in the order a serial run would."""
        compiled = self.compiled.pop(position, None)
        if compiled is not None:
            self.engine.prime_compiled(self.cases[position].source,
                                       *compiled)
        for batch, samples in zip(self.batches.pop(position),
                                  self.samples.pop(position)):
            for (platform_name, unit_seed), sample in zip(batch.tasks,
                                                          samples):
                self.engine.record_sample(batch.text, platform_name,
                                          unit_seed, sample)


# A pool task starts from an empty front-end memo, so its work, and every
# work counter of a traced run, is the same whichever worker runs it after
# whichever tasks; and a worker holds one task's entries, not the study's.


def _compile_case_variants(source: str) -> Tuple[Dict[int, str], float]:
    """Pool worker: emitted text for all 256 combinations of one shader and
    its ARM static cycle count, whose driver compile starts from the
    front-end entry the variant walk just made (module-level so it pickles
    into process-pool workers)."""
    clear_frontend_memo()
    index_to_text = ShaderCompiler(source).all_variants().index_to_text
    return index_to_text, arm_static_cycles(source)


def _measure_batch(batch: MeasureBatch) -> List[Sample]:
    """Pool worker: measure one shader text on every (platform, seed) task.

    The text crosses the process boundary once per batch; the vendor JITs'
    shared front-end memo then parses it once for all platforms here.  The
    batch's tasks are grouped per platform and run through
    :meth:`~repro.harness.environment.ShaderExecutionEnvironment.run_many`,
    so each (text, platform) unit compiles, profiles, and costs once no
    matter how many measurement seeds it carries.
    """
    clear_frontend_memo()
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
