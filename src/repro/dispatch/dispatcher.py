"""The shard dispatcher: supervise, retry, checkpoint, resume, merge.

One :class:`ShardDispatcher` turns a sharded study into a single reliable
command.  It stripes the corpus into ``shard_count`` slices, launches them
through a :class:`~repro.dispatch.transport.Transport` (at most ``workers``
in flight), and supervises every launch:

- **liveness** — a per-shard wall-clock ``timeout`` plus a heartbeat check
  (workers touch a per-shard file after every case; a worker whose last
  beat is older than ``heartbeat_timeout`` is presumed hung and killed);
- **validation** — a worker exiting 0 proves nothing: the shard's output
  file must parse, and its :class:`~repro.harness.results.ShardInfo` must
  name this corpus (content hash), this shard index, and exactly the
  expected global case indices.  Torn tails and corrupt output fail here;
- **retry** — failed or hung shards relaunch under the deterministic
  seeded :class:`~repro.dispatch.backoff.BackoffPolicy` until its attempt
  budget is exhausted;
- **checkpointing** — every validated shard is recorded in a result
  cache log (``checkpoints.jsonl``; key = corpus content hash + shard
  index, value = result path + file sha256).  A killed
  dispatcher re-validates checkpoints on restart and resumes exactly where
  it left off — a checkpoint whose file has since been damaged is
  discarded and re-run, never trusted;
- **completion** — all shards present merges byte-identically via
  :func:`~repro.harness.results.merge_study_results`.  A shard that
  exhausted its retries instead produces a *partial* merge plus an
  explicit missing-shard manifest (``manifest.json``), so a
  partially-failed run can never be mistaken for a complete one.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.dispatch.backoff import BackoffPolicy
from repro.dispatch.faults import FaultPlan
from repro.dispatch.transport import ShardHandle, ShardTask, Transport
from repro.harness.results import (
    ShaderCase, StudyResult, merge_study_results,
)
from repro.harness.study import ShardSpec, corpus_digest
from repro.search.cache import ResultCache, source_digest

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1


@dataclass
class _InFlight:
    """Book-keeping for one launched shard attempt."""

    handle: ShardHandle
    task: ShardTask
    attempt: int
    deadline: Optional[float]        # monotonic, None = no wall-clock limit
    started_wall: float              # wall clock, heartbeat baseline


@dataclass
class DispatchReport:
    """Everything one :meth:`ShardDispatcher.run` produced."""

    corpus_digest: str
    shard_count: int
    completed: Dict[int, Path] = field(default_factory=dict)
    failed: Dict[int, str] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)
    resumed: List[int] = field(default_factory=list)
    retries: int = 0
    interrupted: bool = False
    merged_path: Optional[Path] = None
    partial_path: Optional[Path] = None
    manifest_path: Optional[Path] = None

    @property
    def complete(self) -> bool:
        """True when every shard completed and the merge was written."""
        return (not self.failed and not self.interrupted
                and self.merged_path is not None)

    @property
    def missing_shards(self) -> List[int]:
        """Shard indices with no validated result, sorted."""
        return sorted(set(range(1, self.shard_count + 1))
                      - set(self.completed))


class ShardDispatcher:
    """Fan a sharded study out, survive failures, and merge the result.

    ``clock``/``sleep`` are injectable so tests drive the supervision loop
    without real waiting; ``events`` (when set) receives one dict per
    lifecycle transition — the hook the study service uses to stream
    dispatch progress to clients.
    """

    def __init__(self, cases: Sequence[ShaderCase], shard_count: int,
                 transport: Transport, state_dir: Union[str, Path],
                 seed: int = 2018,
                 policy: Optional[BackoffPolicy] = None,
                 timeout: Optional[float] = None,
                 heartbeat_timeout: Optional[float] = None,
                 workers: int = 2,
                 jobs: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 output: Optional[Union[str, Path]] = None,
                 fresh: bool = False,
                 poll_interval: float = 0.05,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 cancel_check: Optional[Callable[[], None]] = None,
                 events: Optional[Callable[[dict], None]] = None,
                 verbose: bool = False):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.cases = list(cases)
        self.shard_count = int(shard_count)
        self.transport = transport
        self.state_dir = Path(state_dir)
        self.seed = seed
        self.policy = policy or BackoffPolicy(seed=seed)
        self.timeout = timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.workers = max(1, int(workers))
        self.jobs = jobs
        self.faults = faults or FaultPlan()
        self.output = Path(output) if output else None
        self.fresh = fresh
        self.poll_interval = poll_interval
        self.clock = clock
        self.sleep = sleep
        self.cancel_check = cancel_check
        self.events = events
        self.verbose = verbose
        self._stop_requested = False
        self.digest = corpus_digest(self.cases)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the supervision loop to wind down (signal-handler safe).

        In-flight shards are killed and left un-checkpointed, so a
        subsequent run resumes them; completed shards stay checkpointed.
        """
        self._stop_requested = True

    def run(self) -> DispatchReport:
        """Dispatch every shard to completion (or exhaustion); see module
        docstring.  Returns the :class:`DispatchReport`; the caller owns
        exit codes."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        report = DispatchReport(corpus_digest=self.digest,
                                shard_count=self.shard_count)
        store = ResultCache(self.state_dir / "checkpoints.jsonl")
        pending = deque()
        for index in range(1, self.shard_count + 1):
            report.attempts[index] = 0
            if not self.fresh and self._resume_checkpoint(store, index,
                                                          report):
                continue
            pending.append(index)

        inflight: Dict[int, _InFlight] = {}
        waiting: List[tuple] = []   # (due at, shard index)
        try:
            while pending or inflight or waiting:
                if self.cancel_check is not None:
                    self.cancel_check()
                if self._stop_requested:
                    break
                now = self.clock()
                for due, index in list(waiting):
                    if due <= now:
                        waiting.remove((due, index))
                        pending.append(index)
                while pending and len(inflight) < self.workers:
                    index = pending.popleft()
                    inflight[index] = self._launch(index, report)
                progressed = self._poll_inflight(inflight, waiting, store,
                                                 report)
                if (inflight or waiting) and not progressed:
                    self.sleep(self.poll_interval)
        finally:
            if inflight:        # stop request, cancel, or a raised error
                for index, flight in inflight.items():
                    flight.handle.kill()
                    self._emit(report, {"type": "shard", "shard": index,
                                        "state": "killed",
                                        "attempt": flight.attempt})
            if pending or inflight or waiting:
                report.interrupted = True
            store.save()

        self._finalize(report)
        return report

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _launch(self, index: int, report: DispatchReport) -> _InFlight:
        report.attempts[index] += 1
        attempt = report.attempts[index]
        task = ShardTask(
            index=index, count=self.shard_count, seed=self.seed,
            output=self.state_dir / f"shard-{index:04d}.study.json",
            heartbeat=self.state_dir / "beats" / f"shard-{index:04d}.beat",
            log=self.state_dir / "logs" / f"shard-{index:04d}.{attempt}.log",
            fault=self.faults.fault_for(index, attempt),
            jobs=self.jobs)
        task.heartbeat.parent.mkdir(parents=True, exist_ok=True)
        # A stale beat from a previous attempt must not vouch for this one.
        try:
            task.heartbeat.unlink()
        except OSError:
            pass
        now = self.clock()
        self._emit(report, {"type": "shard", "shard": index,
                            "state": "launched", "attempt": attempt,
                            "transport": self.transport.name,
                            "fault": task.fault})
        self._log(f"shard {index}/{self.shard_count}: launch attempt "
                  f"{attempt}" + (f" (inject {task.fault})"
                                  if task.fault else ""))
        return _InFlight(
            handle=self.transport.launch(task), task=task, attempt=attempt,
            deadline=None if self.timeout is None else now + self.timeout,
            started_wall=time.time())

    def _poll_inflight(self, inflight: Dict[int, _InFlight],
                       waiting: List[tuple], store: ResultCache,
                       report: DispatchReport) -> bool:
        """One poll pass; returns True when any shard changed state."""
        progressed = False
        for index, flight in list(inflight.items()):
            code = flight.handle.poll()
            if code is None:
                error = self._liveness_error(flight)
                if error is None:
                    continue
                flight.handle.kill()
            elif code == 0:
                error = self._validate_and_checkpoint(index, flight, store,
                                                      report)
                if error is None:
                    del inflight[index]
                    progressed = True
                    continue
            else:
                detail = flight.handle.error_detail()
                error = f"worker exit code {code}" + (
                    f" ({detail})" if detail else "")
            del inflight[index]
            progressed = True
            self._handle_failure(index, flight.attempt, error, waiting,
                                 report)
        return progressed

    def _liveness_error(self, flight: _InFlight) -> Optional[str]:
        """Why a still-running shard must be presumed dead, or ``None``."""
        if flight.deadline is not None and self.clock() > flight.deadline:
            return f"timeout after {self.timeout:g}s"
        if self.heartbeat_timeout is not None:
            last_beat = flight.started_wall
            try:
                last_beat = max(last_beat,
                                flight.task.heartbeat.stat().st_mtime)
            except OSError:
                pass        # no beat yet; the launch time is the baseline
            stale = time.time() - last_beat
            if stale > self.heartbeat_timeout:
                return (f"no heartbeat for {stale:.1f}s "
                        f"(limit {self.heartbeat_timeout:g}s)")
        return None

    def _handle_failure(self, index: int, attempt: int, error: str,
                        waiting: List[tuple],
                        report: DispatchReport) -> None:
        if self.policy.allows(attempt + 1):
            delay = self.policy.delay(index, attempt)
            report.retries += 1
            waiting.append((self.clock() + delay, index))
            self._emit(report, {"type": "shard", "shard": index,
                                "state": "retry", "attempt": attempt,
                                "error": error, "delay": round(delay, 3)})
            self._log(f"shard {index}: attempt {attempt} failed ({error}); "
                      f"retrying in {delay:.2f}s")
        else:
            report.failed[index] = error
            self._emit(report, {"type": "shard", "shard": index,
                                "state": "exhausted", "attempt": attempt,
                                "error": error})
            self._log(f"shard {index}: attempt {attempt} failed ({error}); "
                      f"retry budget exhausted")

    # ------------------------------------------------------------------
    # Validation and checkpoints
    # ------------------------------------------------------------------

    def _checkpoint_key(self, index: int) -> str:
        return f"shard:{self.digest}:{index}"

    def _validate_shard_file(self, path: Path, index: int) -> str:
        """Validate one shard output file; returns its content sha256.

        Raises ``ValueError`` naming what is wrong — parse failures (torn
        or corrupt output), mismatched shard identity, or wrong coverage.
        """
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"missing output {path.name}: "
                             f"{exc.strerror or exc}") from None
        try:
            result = StudyResult.from_json(text)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"invalid shard output {path.name}: {exc}") from None
        shard = result.shard
        if shard is None:
            raise ValueError(f"{path.name} has no shard metadata")
        if (shard.index, shard.count) != (index, self.shard_count):
            raise ValueError(
                f"{path.name} is shard {shard.index}/{shard.count}, "
                f"expected {index}/{self.shard_count}")
        if shard.corpus_digest != self.digest:
            raise ValueError(
                f"{path.name} covers corpus {shard.corpus_digest[:12]}…, "
                f"expected {self.digest[:12]}…")
        expected = ShardSpec(index, self.shard_count).select(len(self.cases))
        if list(shard.case_indices) != expected:
            raise ValueError(
                f"{path.name} covers case indices {shard.case_indices}, "
                f"expected {expected}")
        if result.seed != self.seed:
            raise ValueError(f"{path.name} ran under seed {result.seed}, "
                             f"expected {self.seed}")
        return source_digest(text)

    def _validate_and_checkpoint(self, index: int, flight: _InFlight,
                                 store: ResultCache,
                                 report: DispatchReport) -> Optional[str]:
        """Validate a finished shard; checkpoint it or return the error."""
        try:
            sha = self._validate_shard_file(flight.task.output, index)
        except ValueError as exc:
            return str(exc)
        # The cache log appends this line immediately — the durable
        # checkpoint a killed dispatcher resumes from.
        store.put(self._checkpoint_key(index),
                  {"path": str(flight.task.output), "sha256": sha,
                   "attempts": report.attempts[index]})
        report.completed[index] = flight.task.output
        self._emit(report, {"type": "shard", "shard": index, "state": "done",
                            "attempt": flight.attempt,
                            "of": self.shard_count,
                            "completed": len(report.completed)})
        self._log(f"shard {index}: done "
                  f"({len(report.completed)}/{self.shard_count})")
        return None

    def _resume_checkpoint(self, store: ResultCache, index: int,
                           report: DispatchReport) -> bool:
        """Restore shard *index* from its checkpoint, if still valid."""
        entry = store.get(self._checkpoint_key(index))
        if not isinstance(entry, dict) or "path" not in entry:
            return False
        path = Path(str(entry["path"]))
        try:
            sha = self._validate_shard_file(path, index)
        except ValueError as exc:
            self._log(f"shard {index}: discarding stale checkpoint ({exc})")
            return False
        if sha != entry.get("sha256"):
            self._log(f"shard {index}: discarding checkpoint "
                      f"(result file changed since it was recorded)")
            return False
        report.completed[index] = path
        report.attempts[index] = int(entry.get("attempts") or 0)
        report.resumed.append(index)
        self._emit(report, {"type": "shard", "shard": index,
                            "state": "resumed",
                            "completed": len(report.completed)})
        self._log(f"shard {index}: resumed from checkpoint")
        return True

    # ------------------------------------------------------------------
    # Completion: merge, partial merge, manifest
    # ------------------------------------------------------------------

    def _finalize(self, report: DispatchReport) -> None:
        parts = [StudyResult.from_json(report.completed[i].read_text())
                 for i in sorted(report.completed)]
        if (not report.failed
                and len(report.completed) == self.shard_count):
            report.interrupted = False      # everything landed anyway
            merged = merge_study_results(parts)
            report.merged_path = self.output or (
                self.state_dir / "study.json")
            report.merged_path.parent.mkdir(parents=True, exist_ok=True)
            report.merged_path.write_text(merged.to_json())
            self._log(f"merged {self.shard_count} shards -> "
                      f"{len(merged.shaders)} shaders: {report.merged_path}")
        elif parts:
            partial = merge_study_results(parts, require_complete=False)
            report.partial_path = self.state_dir / "partial.study.json"
            report.partial_path.write_text(partial.to_json())
        report.manifest_path = self.state_dir / "manifest.json"
        report.manifest_path.write_text(json.dumps(
            self._manifest(report), indent=2, sort_keys=True) + "\n")
        self._emit(report, {
            "type": "dispatch", "state": (
                "complete" if report.complete
                else "interrupted" if report.interrupted else "incomplete"),
            "completed": len(report.completed),
            "missing": report.missing_shards, "retries": report.retries})

    def _manifest(self, report: DispatchReport) -> dict:
        """The explicit completeness record written beside the results."""
        return {
            "kind": "repro-dispatch-manifest",
            "version": MANIFEST_VERSION,
            "corpus_digest": self.digest,
            "corpus_cases": len(self.cases),
            "shard_count": self.shard_count,
            "seed": self.seed,
            "transport": self.transport.name,
            "complete": report.complete,
            "interrupted": report.interrupted,
            "retries": report.retries,
            "completed": [
                {"shard": index, "path": str(report.completed[index]),
                 "attempts": report.attempts[index]}
                for index in sorted(report.completed)],
            "missing": [
                {"shard": index,
                 "attempts": report.attempts.get(index, 0),
                 "error": report.failed.get(
                     index, "interrupted" if report.interrupted
                     else "not dispatched")}
                for index in report.missing_shards],
            "merged": None if report.merged_path is None
            else str(report.merged_path),
            "partial": None if report.partial_path is None
            else str(report.partial_path),
        }

    # ------------------------------------------------------------------
    # Reporting plumbing
    # ------------------------------------------------------------------

    def _emit(self, report: DispatchReport, event: dict) -> None:
        if self.events is not None:
            self.events(event)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[dispatch] {message}")
