"""Job execution on the shared engine: the service's warm core.

One :class:`JobRunner` owns the process-wide :class:`ResultCache` and a
small pool of :class:`EvaluationEngine` instances (one per measurement
seed — the engine's default seed is baked into its search-path cache
keys).  All engines share the one cache, and compiled variant sets are
persisted into it, so *any* overlap between jobs — across tenants, across
restarts — is a cache hit instead of a recompute or a re-measure.

The runner also enforces per-job cooperative cancellation: a single check
closure (client cancel + ``--timeout`` deadline) is installed thread-local
on the engine and on the job's scheduler for the duration of the run, so
one runaway study aborts at the next compile/measure boundary instead of
wedging its worker.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.flags import best_static_flags
from repro.analysis.speedups import average_speedups
from repro.gpu.platform import all_platforms
from repro.harness.study import StudyConfig, run_study
from repro.passes import OptimizationFlags
from repro.search.cache import ResultCache
from repro.search.engine import EvaluationEngine
from repro.search.scheduler import Scheduler
from repro.search.strategies import make_strategy
from repro.service.jobs import (
    DISPATCH_STRATEGY, Job, JobCancelled, STUDY_STRATEGY,
)

#: ``publish(event_dict)`` — the streaming sink a job's events land in.
Publish = Callable[[dict], None]


class JobRunner:
    """Execute :class:`JobSpec` work against the shared warm state."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 results_dir: Optional[Path] = None, job_workers: int = 1):
        self.cache = cache if cache is not None else ResultCache()
        self.results_dir = Path(results_dir) if results_dir else None
        self.job_workers = max(1, int(job_workers))
        self._engines: Dict[int, EvaluationEngine] = {}

    def engine_for(self, seed: int) -> EvaluationEngine:
        """The shared engine for *seed* (created on first use).

        Engines are keyed by seed because the search path keys cache
        entries on the engine's own seed; every engine shares the one
        :class:`ResultCache`, so measurements and compiled variant sets
        cross seeds and jobs freely.
        """
        engine = self._engines.get(seed)
        if engine is None:
            engine = EvaluationEngine(platforms=all_platforms(), seed=seed,
                                      cache=self.cache)
            self._engines[seed] = engine
        return engine

    def work_snapshot(self) -> Dict[str, int]:
        """Total engine/cache work counters across every seed engine.

        The server diffs snapshots around each job to attribute work —
        which is how the warm-resubmit tests assert "zero compiles, zero
        measurements" end to end.
        """
        totals = {"frontends": 0, "compiles": 0, "measures": 0,
                  "cache_hits": self.cache.hits,
                  "cache_misses": self.cache.misses}
        for engine in self._engines.values():
            totals["frontends"] += engine.frontend_count
            totals["compiles"] += engine.compile_count
            totals["measures"] += engine.measure_count
        return totals

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, job: Job, publish: Publish) -> dict:
        """Execute *job* to completion; returns its summary dict.

        Raises :class:`JobCancelled` on cancel/timeout and lets real
        errors propagate — lifecycle bookkeeping belongs to the caller.
        """
        spec = job.spec
        deadline = (None if spec.timeout is None
                    else time.monotonic() + spec.timeout)

        def check() -> None:
            if job.cancel_event.is_set():
                raise JobCancelled("cancelled by client")
            if deadline is not None and time.monotonic() > deadline:
                raise JobCancelled(
                    f"timeout after {spec.timeout:g}s", timed_out=True)

        engine = self.engine_for(spec.seed)
        engine.set_cancel_check(check)
        try:
            if spec.strategy == STUDY_STRATEGY:
                return self._run_study(job, engine, check, publish)
            if spec.strategy == DISPATCH_STRATEGY:
                return self._run_dispatch(job, check, publish)
            return self._run_search(job, engine, publish)
        finally:
            engine.set_cancel_check(None)
            self.cache.save()

    def _run_study(self, job: Job, engine: EvaluationEngine,
                   check: Callable[[], None], publish: Publish) -> dict:
        """The exhaustive per-variant study (paper protocol) as a job."""
        spec = job.spec
        platforms = spec.resolve_platforms()
        names = [p.name for p in platforms]

        def progress(position: int, total: int, shader_result) -> None:
            publish({
                "type": "case",
                "position": position,
                "total": total,
                "name": shader_result.name,
                "variants": shader_result.unique_variant_count,
                "best_pct": {
                    name: round(shader_result.best_speedup_pct(name), 4)
                    for name in names},
            })

        study = run_study(
            spec.cases(),
            StudyConfig(platforms=platforms, seed=spec.seed,
                        progress=progress),
            engine=engine,
            scheduler=Scheduler(self.job_workers, cancel_check=check))

        result_path = None
        if self.results_dir is not None:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            path = self.results_dir / f"{job.id}.study.json"
            path.write_text(study.to_json())
            result_path = str(path)
        job.result_path = result_path

        return {
            "kind": "study",
            "shaders": len(study.shaders),
            "platforms": names,
            "result_path": result_path,
            "speedups": [
                {"platform": row.platform,
                 "best_pct": round(row.best_possible, 4),
                 "best_static_pct": round(row.best_static, 4),
                 "default_pct": round(row.default_lunarglass, 4)}
                for row in average_speedups(study)],
            "best_static_flags": {
                name: str(best_static_flags(study, name)) for name in names},
        }

    def _run_dispatch(self, job: Job, check: Callable[[], None],
                      publish: Publish) -> dict:
        """A fault-tolerant sharded study (``repro.dispatch``) as a job.

        Shards run on the in-process thread transport sharing the
        process-wide warm cache, so a retried shard — or a resubmitted
        dispatch job — replays its already-measured work as cache hits.
        The job's cooperative cancel/timeout check is wired into the
        supervision loop, which kills in-flight shards on cancellation.
        """
        from repro.dispatch import ShardDispatcher, ThreadTransport

        spec = job.spec
        cases = spec.cases()
        if self.results_dir is None:
            raise ValueError("dispatch jobs need a service results_dir "
                             "for their shard state")
        state_dir = self.results_dir / f"{job.id}.dispatch"
        transport = ThreadTransport(cases,
                                    platforms=spec.resolve_platforms(),
                                    cache=self.cache)
        dispatcher = ShardDispatcher(
            cases=cases, shard_count=spec.shards, transport=transport,
            state_dir=state_dir, seed=spec.seed,
            output=self.results_dir / f"{job.id}.study.json",
            workers=max(1, self.job_workers), cancel_check=check,
            events=lambda event: publish(dict(event)))
        report = dispatcher.run()
        if not report.complete:
            raise RuntimeError(
                f"dispatch incomplete: missing shards "
                f"{report.missing_shards} after {report.retries} retries "
                f"(manifest: {report.manifest_path})")
        job.result_path = str(report.merged_path)
        return {
            "kind": "dispatch",
            "shards": spec.shards,
            "cases": len(cases),
            "retries": report.retries,
            "resumed": sorted(report.resumed),
            "result_path": job.result_path,
            "manifest_path": str(report.manifest_path),
        }

    def _run_search(self, job: Job, engine: EvaluationEngine,
                    publish: Publish) -> dict:
        """A budgeted flag-space search (the ``repro tune`` path) as a job.

        The seed engine outlives the job, so its environments' memoized
        protocol runs are dropped when the job ends; the measurements stay
        cached, and the points' texts stay in the front-end LRU.
        """
        spec = job.spec
        cases = spec.cases()
        strategy = make_strategy(spec.strategy, seed=spec.seed)
        rows: List[dict] = []
        try:
            for platform in spec.resolve_platforms():
                objective = engine.corpus_objective(cases, platform.name)
                outcome = strategy.search(objective, budget=spec.budget)
                row = {
                    "platform": platform.name,
                    "best_flags": str(
                        OptimizationFlags.from_index(outcome.best_index)),
                    "best_pct": round(outcome.best_score, 4),
                    "evaluated": outcome.points_evaluated,
                }
                rows.append(row)
                publish(dict(row, type="platform"))
        finally:
            engine.release_measurements()
        return {"kind": "search", "strategy": strategy.name,
                "budget": spec.budget, "shaders": len(cases),
                "platforms": [row["platform"] for row in rows],
                "search": rows}


def write_event_line(path: Path, event: dict) -> None:
    """Append one event to a per-job ``.jsonl`` stream (best effort).

    The on-disk event stream mirrors what ``tail`` serves from memory, so
    operators can follow a job with plain ``tail -f`` too.  Failures are
    swallowed: event persistence must never kill the job producing them.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", buffering=1) as handle:
            handle.write(json.dumps(event) + "\n")
    except OSError:
        pass
