"""The exhaustive iterative-compilation study (paper Sections III-A, IV).

For every corpus shader: compile all 256 flag combinations, deduplicate the
emitted GLSL (most combinations collapse — Fig. 4c), then time every unique
variant plus the unaltered original on every platform.

The study runs on the :mod:`repro.search` layers — the
:class:`EvaluationEngine` (compile/measure with a content-addressed result
cache; it builds every cache key and value and counts all work, the
pool's included) and the :class:`Scheduler` — and every case goes through
one loop, the case feed.  A case's source is one compile task,
:func:`~repro.search.engine.compile_source`: the 256-combination variant
set (via the shared-prefix compilation trie, :mod:`repro.core.trie`), the
ARM static cycle count, taken on the front-end entry the walk just made,
and the lines of code; a source whose record the cache holds has none.
Once the record is known, each of the case's units (a text on a platform,
under the text's one seed) is looked up in the cache once, and the
missing ones go out as one :class:`MeasureBatch` task per text, so each
emitted shader pickles across the process boundary once rather than once
per platform.  Cases are assembled in corpus order: a case's
:class:`ShaderResult` is built once, from its record and its samples, and
the engine stores the record and the new samples in case order.

With ``max_workers > 1`` the study opens one scheduler session, one
process pool for the whole study (the work is pure-Python and CPU-bound,
so threads would serialize on the GIL), and the feed submits its tasks
there as their inputs arrive, with no barrier between compiling and
measuring.  Otherwise — a serial study, a pool that failed to start, or
the work left when a pool worker died — the feed runs each task in this
process as it submits it, one case at a time, with the engine's cancel
hook before each task.  Compiles and measurements are pure functions of their inputs,
so serial runs, parallel runs, and the pre-refactor nested loop all
produce byte-identical :class:`StudyResult` JSON, and serial and parallel
runs write the same cache log and count the same work.

With ``cache_path`` set, the cache persists both measurements and each
source's record, each appended to its log as its case is assembled, so a
killed study keeps every case it finished, and a repeated study — and the
``repro report`` pipeline built on top of it — replays from disk with zero
compiles, zero measurements and no front end.

Large corpora (see ``repro.corpus.synth``) add two scale-out levers:

- **Sharding** (``shard=ShardSpec.parse("2/3")``): the corpus is striped
  deterministically across shards (global index mod shard count), each
  shard runs independently — on one machine or many — and
  :func:`repro.harness.results.merge_study_results` reassembles a result
  byte-identical to the unsharded run.  This works because every
  measurement seed derives from the *global* corpus index, which shard runs
  carry along.
- **Streaming** (``checkpoint_every=N``): the result cache is flushed
  every N cases, and a source's record (its variant set, static cycle
  count and lines of code) is released from the cache's memory after the
  last case of the study that reads it, with or without a cache file, so
  only measurements stay.  (The cache reads records from memory only: a
  later study reads a released record back from the file's log, and
  without a file compiles it again.)  A serial streaming run holds one
  case's record in memory, besides the records of sources that recur
  later in the study; a parallel one admits a case to the pool only while
  fewer than ``checkpoint_every x max_workers`` admitted cases wait for
  assembly, so memory is bounded by that window, never the corpus.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.pipeline import VariantSet
from repro.gpu.jit import clear_frontend_memo
from repro.gpu.platform import Platform, all_platforms, platform_by_name
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.results import (
    ShaderCase, ShaderResult, ShardInfo, StudyResult, VariantRecord,
)
from repro.search.cache import ResultCache, SourceRecord, source_digest
from repro.search.engine import EvaluationEngine, Sample, compile_source
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
    #: each source's record from the cache's memory after the last case
    #: that reads it (streaming mode — memory stays bounded by one case
    #: serially, or by N x max_workers cases compiled but not yet
    #: assembled in parallel runs, besides the records of recurring
    #: sources).
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
    # source digest -> the position of the last case reading its record.
    last_reader = {}
    if config.checkpoint_every > 0:
        last_reader = {source_digest(case.source): position
                       for position, case in enumerate(cases)}

    _beat(config.heartbeat_path)
    with scheduler.session() as pooled:
        window = 1
        if pooled:
            window = len(cases)
            if config.checkpoint_every > 0:
                window = config.checkpoint_every * scheduler.max_workers
            if config.verbose:
                print(f"[study] {len(cases)} cases on "
                      f"{scheduler.max_workers} workers")
        feed = _Feed(cases, case_indices, platforms, engine, config.seed,
                     scheduler if pooled else None, window, config.verbose)
        for position, shader_result in enumerate(feed):
            case = cases[position]
            if config.verbose:
                print(f"[study] {position + 1}/{len(cases)} {case.name}")
            result.shaders.append(shader_result)
            if config.progress is not None:
                config.progress(position + 1, len(cases), shader_result)
            _beat(config.heartbeat_path)
            if config.checkpoint_every > 0:
                digest = source_digest(case.source)
                if last_reader[digest] == position:
                    engine.cache.release_variants(digest)
                if (position + 1) % config.checkpoint_every == 0:
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


# ---------------------------------------------------------------------------
# The case feed: one compile task per case source, one MeasureBatch task per
# text once its case's record is known, cases assembled in order.
# ---------------------------------------------------------------------------

#: How long the feed waits on the pool between cancellation checks.
_POLL_S = 0.1


@dataclass
class _Admitted:
    """One admitted case, from its admission to its assembly."""

    #: the source's record, once known, and whether this feed compiled it
    #: (then the engine stores it).
    record: Optional[SourceRecord] = None
    compiled: bool = False
    variant_set: Optional[VariantSet] = None
    #: each unit's cached sample, in (text, platform) order; None where
    #: the unit is measured.
    cached: List[Optional[Sample]] = field(default_factory=list)
    #: the samples of those measured units, in order, once all returned.
    fresh: Optional[List[Sample]] = None


class _Feed:
    """The study's one loop: iterating it yields each case's
    :class:`ShaderResult`, in corpus order.

    A case is *admitted* when its compile task is submitted (or, for a
    source whose record the cache holds, when its units are looked up),
    and *assembled* when its tasks have returned; at most *window*
    admitted cases wait for assembly.  Cases admitted while a compile of
    their source runs share it.  With a *scheduler* (an open pool
    session) the tasks run on its pool; without one, or once a pool
    worker died, each runs in this process as it is submitted.
    """

    def __init__(self, cases: Sequence[ShaderCase],
                 case_indices: Sequence[int], platforms: List[Platform],
                 engine: EvaluationEngine, seed: int,
                 scheduler: Optional[Scheduler], window: int, verbose: bool):
        self.cases = cases
        #: global corpus indices: measurement seeds derive from them, which
        #: keeps shard runs byte-compatible with the unsharded study.
        self.case_indices = case_indices
        self.platforms = platforms
        self.engine = engine
        self.seed = seed
        self.scheduler = scheduler
        self.window = window
        self.verbose = verbose
        self.assembled = 0
        self.admitted: Dict[int, _Admitted] = {}
        #: source digest -> the admitted cases its running compile serves.
        self.waiting: Dict[str, List[int]] = {}
        #: pool map -> (its task as run here, its items, its handler).
        self.pending: Dict[Tasks, Tuple[Callable, list, Callable]] = {}

    def __iter__(self) -> Iterator[ShaderResult]:
        total = len(self.cases)
        admitted = 0
        while self.assembled < total:
            # Cooperative cancellation boundary: a service job's timeout
            # or client cancel lands here between cases, and before every
            # task run here and every wait on the pool.
            self.engine.check_cancelled()
            while admitted < min(total, self.assembled + self.window):
                self._admit(admitted)
                admitted += 1
            case = self.admitted[self.assembled]
            while case.fresh is None:
                self.engine.check_cancelled()
                tasks = self.scheduler.finished(_POLL_S)
                if tasks is not None:
                    self._finish(tasks)
            yield self._assemble(self.assembled,
                                 self.admitted.pop(self.assembled))
            self.assembled += 1

    # -- running tasks -------------------------------------------------

    def _run(self, task: Callable, here: Callable, items: list,
             done: Callable[[list], None]) -> None:
        """Submit *task* over *items* to the pool, or run *here* over them
        now; *done* gets the results in input order."""
        if self.scheduler is not None and items:
            try:
                self.pending[self.scheduler.map(task, items)] = (here, items,
                                                                 done)
                return
            except BrokenProcessPool:
                self._lose_pool()
        done(self._run_here(here, items))

    def _run_here(self, here: Callable, items: list) -> list:
        results = []
        for item in items:
            self.engine.check_cancelled()
            results.append(here(item))
        return results

    def _finish(self, tasks: Tasks) -> None:
        here, items, done = self.pending.pop(tasks)
        try:
            results = list(tasks)
        except BrokenProcessPool:
            self._lose_pool()
            results = self._run_here(here, items)
        done(results)

    def _lose_pool(self) -> None:
        """A pool worker died: run the pool's unfinished work here, and
        every later task too."""
        if self.verbose:
            print(f"[study] a pool worker died; finishing "
                  f"{len(self.cases) - self.assembled} cases serially")
        self.scheduler, self.window = None, 1
        lost = list(self.pending.values())
        self.pending.clear()
        for here, items, done in lost:
            done(self._run_here(here, items))

    # -- cases -----------------------------------------------------------

    def _admit(self, position: int) -> None:
        source = self.cases[position].source
        digest = source_digest(source)
        case = self.admitted[position] = _Admitted()
        if digest in self.waiting:
            self.waiting[digest].append(position)
            return
        case.record = self.engine.cache.get_variants(digest)
        if case.record is not None:
            self._submit_measures(position)
            return
        self.waiting[digest] = [position]
        self._run(_compile_case_variants, compile_source, [source],
                  partial(self._compiled, digest))

    def _compiled(self, digest: str, records: List[SourceRecord]) -> None:
        [record] = records
        positions = self.waiting.pop(digest)
        for position in positions:
            self.admitted[position].record = record
        self.admitted[positions[0]].compiled = True
        for position in positions:
            self._submit_measures(position)

    def _units(self, position: int,
               case: _Admitted) -> Iterator[Tuple[int, str, int]]:
        """The case's measured texts as ``(variant id, text, seed)``: the
        unaltered source at -1, then each distinct variant in the order of
        its smallest producing flag index."""
        case_index = self.case_indices[position]
        texts = [self.cases[position].source,
                 *case.variant_set.indices_by_text]
        for variant_id, text in enumerate(texts, start=-1):
            yield variant_id, text, _variant_seed(self.seed, case_index,
                                                  variant_id)

    def _submit_measures(self, position: int) -> None:
        """Look each of the case's units up in the cache once, and send
        out the missing ones, one batch per text."""
        case = self.admitted[position]
        case.variant_set = VariantSet.from_index_to_text(
            case.record.index_to_text)
        batches: List[MeasureBatch] = []
        for _, text, seed in self._units(position, case):
            missing = []
            for platform in self.platforms:
                sample = self.engine.cached_sample(text, platform.name, seed)
                case.cached.append(sample)
                if sample is None:
                    missing.append(platform.name)
            if missing:
                batches.append(MeasureBatch(text=text, seed=seed,
                                            platforms=tuple(missing)))
        self._run(_measure_batch, _measure, batches,
                  partial(self._measured, case))

    @staticmethod
    def _measured(case: _Admitted, results: List[List[Sample]]) -> None:
        case.fresh = [sample for samples in results for sample in samples]

    def _assemble(self, position: int, case: _Admitted) -> ShaderResult:
        """Build the case's result, and have the engine store the record
        and the new samples (and count the work) in case order."""
        shader_case, record = self.cases[position], case.record
        if case.compiled:
            self.engine.prime_compiled(shader_case.source, record)
        shader_result = ShaderResult(
            name=shader_case.name, family=shader_case.family,
            loc=record.loc, arm_static_cycles=record.arm_static_cycles)
        cached, fresh = iter(case.cached), iter(case.fresh)
        indices_by_text = case.variant_set.indices_by_text
        for variant_id, text, seed in self._units(position, case):
            samples: Dict[str, Sample] = {}
            for platform in self.platforms:
                sample = next(cached)
                if sample is None:
                    sample = next(fresh)
                    self.engine.record_sample(text, platform.name, seed,
                                              sample)
                samples[platform.name] = sample
            times = {name: sample.mean_ns for name, sample in samples.items()}
            if variant_id < 0:
                shader_result.original_times_ns = times
                continue
            shader_result.variants.append(VariantRecord(
                variant_id=variant_id,
                flag_indices=indices_by_text[text],
                text_hash=source_digest(text)[:16],
                times_ns=times,
                static_ops={name: sample.static_ops
                            for name, sample in samples.items()},
                registers={name: sample.registers
                           for name, sample in samples.items()}))
        return shader_result


# The tasks.  In a pool each starts from an empty front-end memo, so its
# work, and every work counter of a traced run, is the same whichever
# worker runs it after whichever tasks, and a worker holds one task's
# entries, not the study's.  Run in the study's own process, a task keeps
# the memo: service threads share it, and a case measures its original on
# the front end its variant walk made.


def _compile_case_variants(source: str) -> SourceRecord:
    """Pool task: the source's record, from :func:`compile_source`
    (module-level so it pickles into process-pool workers)."""
    clear_frontend_memo()
    return compile_source(source)


def _measure_batch(batch: MeasureBatch) -> List[Sample]:
    """Pool task: :func:`_measure` from an empty front-end memo."""
    clear_frontend_memo()
    return _measure(batch)


def _measure(batch: MeasureBatch) -> List[Sample]:
    """Measure one shader text under its seed on each of the batch's
    platforms, in order.

    In a pool the text crosses the process boundary once per batch; the
    vendor JITs' shared front-end memo then parses it once for all
    platforms.
    """
    return [Sample.from_report(
                ShaderExecutionEnvironment(platform_by_name(name))
                .run(batch.text, batch.seed))
            for name in batch.platforms]


def _variant_seed(seed: int, case_index: int, variant_id: int) -> int:
    return seed * 7_919 + case_index * 257 + (variant_id + 2)
