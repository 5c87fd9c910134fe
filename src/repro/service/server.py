"""The long-running study service: ``repro serve``.

One :class:`StudyService` binds the whole subsystem together:

- a :class:`~repro.service.journal.JobJournal` (``jobs.jsonl``) that makes
  the queue durable — on start, jobs whose last journalled state is
  non-terminal are re-queued in submission order;
- a :class:`~repro.service.queue.JobQueue` + :class:`WorkerPool` draining
  it through the shared :class:`~repro.service.runner.JobRunner`, whose
  process-wide :class:`~repro.search.cache.ResultCache` (``cache.jsonl``)
  turns any cross-job/cross-tenant overlap into cache hits;
- a threaded Unix-socket server speaking the line-JSON protocol
  (:mod:`repro.service.protocol`), one request per connection.

File layout under the service directory::

    service.sock     the client socket (removed on clean shutdown)
    jobs.jsonl       the job journal
    cache.jsonl      the shared result cache
    events/<id>.jsonl   per-job progress stream (tail -f friendly)
    results/<id>.study.json   saved StudyResult of each study job
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.service.jobs import (
    CANCELLED, DONE, FAILED, Job, JobCancelled, JobSpec, PENDING, RUNNING,
    TERMINAL_STATES,
)
from repro.service.journal import JobJournal
from repro.service.protocol import (
    ProtocolError, encode_line, error_response, ok_response, read_message,
)
from repro.service.queue import JobQueue, WorkerPool
from repro.service.runner import JobRunner, write_event_line
from repro.search.cache import ResultCache


class _SocketServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    """Threaded Unix-stream server; one handler thread per connection."""

    daemon_threads = True
    allow_reuse_address = True


class _Handler(socketserver.StreamRequestHandler):
    """Read one request line, dispatch to the service, write one response."""

    def handle(self) -> None:  # noqa: D102 — socketserver hook
        service: "StudyService" = self.server.service  # type: ignore[attr-defined]
        try:
            request = read_message(self.rfile)
        except ProtocolError as exc:
            self.wfile.write(encode_line(error_response(str(exc))))
            return
        if request is None:
            return
        response = service.handle(request)
        self.wfile.write(encode_line(response))


class StudyService:
    """The orchestrator behind ``repro serve`` (see the module docstring)."""

    def __init__(self, root: Union[str, Path],
                 workers: int = 1,
                 socket_path: Optional[Union[str, Path]] = None,
                 cache_path: Optional[Union[str, Path]] = None,
                 job_workers: int = 1,
                 platforms: Optional[Sequence[str]] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.socket_path = Path(socket_path) if socket_path \
            else self.root / "service.sock"
        self.journal = JobJournal(self.root / "jobs.jsonl")
        self.cache = ResultCache(cache_path or self.root / "cache.jsonl")
        self.runner = JobRunner(cache=self.cache,
                                results_dir=self.root / "results")
        if job_workers > 1:
            self.runner.job_workers = int(job_workers)
        self.queue = JobQueue()
        self.pool = WorkerPool(self.queue, self._execute, workers=workers)
        self.platforms = tuple(platforms or ())
        self.recovered_jobs = 0
        self._seq = 0
        self._lock = threading.Lock()
        self._server: Optional[_SocketServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._shutdown = threading.Event()
        self._draining = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, start workers, bind and serve the socket."""
        if self._started:
            return
        self._started = True
        self._recover()
        self.pool.start()
        if self.socket_path.exists():
            # A stale socket from a killed daemon; this directory is ours.
            self.socket_path.unlink()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self._server = _SocketServer(str(self.socket_path), _Handler)
        self._server.service = self  # type: ignore[attr-defined]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-serve-accept")
        self._server_thread.start()

    def wait(self) -> None:
        """Block until a client ``shutdown`` (or KeyboardInterrupt)."""
        while not self._shutdown.wait(timeout=0.2):
            pass

    def request_stop(self) -> None:
        """Ask the service to stop (async-signal safe: only sets an event).

        This is what the ``repro serve`` SIGTERM handler calls — the
        blocked :meth:`wait` returns and the CLI's ``finally`` performs
        the actual :meth:`stop`, flushing journal and cache and exiting 0.
        """
        self._shutdown.set()

    def stop(self, requeue_running: bool = True) -> None:
        """Graceful stop: drain workers, checkpoint, unbind.

        With ``requeue_running`` (the default), jobs still running are
        cooperatively aborted at their next compile/measure boundary and
        journalled back to ``pending`` — explicitly re-queueable, so a
        restarted daemon resumes them warm instead of recording a spurious
        ``cancelled``/``failed`` terminal state for work nobody cancelled.
        """
        self._shutdown.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        if requeue_running:
            self._draining = True
            for job in self.queue.all_jobs():
                if job.state == RUNNING:
                    job.cancel_event.set()
        self.pool.stop()
        self._draining = False
        self.cache.save()
        self.journal.flush()
        self.journal.close()
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._started = False

    def serve_forever(self) -> None:
        """``start()`` + ``wait()`` + ``stop()`` — the ``repro serve`` loop."""
        self.start()
        try:
            self.wait()
        finally:
            self.stop()

    def _recover(self) -> None:
        """Re-queue every journalled job whose last state is non-terminal.

        Interrupted ``running`` jobs restart from scratch — their partial
        work is all in the shared cache, so the redo is warm, not wasted.
        Terminal jobs are registered (state only) so ``status`` still
        answers for them after a restart.
        """
        replayed = self.journal.replay_jobs()
        self._seq = len(replayed)
        for job_id, info in replayed.items():
            try:
                spec = JobSpec.from_dict(info["spec"])
            except ValueError as exc:
                self.journal.record_state(job_id, FAILED,
                                          error=f"unrecoverable spec: {exc}")
                continue
            if info["state"] in TERMINAL_STATES:
                job = Job(id=job_id, spec=spec, state=info["state"],
                          error=info["error"])
                self.queue.submit(job)      # registry only; next_job skips it
                continue
            job = Job(id=job_id, spec=spec, created=time.time())
            self.journal.record_state(job_id, PENDING)
            self.queue.submit(job)
            self.recovered_jobs += 1

    # ------------------------------------------------------------------
    # Job execution (worker-pool callback)
    # ------------------------------------------------------------------

    def _publish(self, job: Job, event: dict) -> None:
        job.events.append(event)
        write_event_line(self.root / "events" / f"{job.id}.jsonl", event)

    def _execute(self, job: Job) -> None:
        job.state = RUNNING
        job.started = time.time()
        self.journal.record_state(job.id, RUNNING)
        before = self.runner.work_snapshot()
        try:
            summary = self.runner.run(job, lambda e: self._publish(job, e))
        except JobCancelled as exc:
            if exc.timed_out:
                state = FAILED
                job.error = exc.reason
            elif self._draining:
                # A graceful shutdown aborted this job, not a client: it
                # goes back to pending (re-queueable), and its partial
                # work is already in the shared cache for the redo.
                state = PENDING
            else:
                state = CANCELLED
                job.error = exc.reason
        except Exception as exc:  # noqa: BLE001 — job errors are data
            state = FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            state = DONE
            job.summary = summary
        after = self.runner.work_snapshot()
        job.work = {key: after[key] - before[key] for key in after}
        job.finished = time.time()
        self.journal.record_state(job.id, state, error=job.error)
        self.journal.flush()
        self.cache.save()
        # Publish the final event before the state changes: a follower
        # stops at the first tail that reports a terminal state, so that
        # tail must already hold the event (``_op_tail`` reads the state
        # first).
        self._publish(job, {"type": "state", "state": state,
                            "error": job.error, "work": job.work})
        job.state = state

    # ------------------------------------------------------------------
    # Protocol dispatch
    # ------------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Dispatch one decoded protocol request to its operation."""
        op = request.get("op")
        handlers = {"ping": self._op_ping, "submit": self._op_submit,
                    "status": self._op_status, "tail": self._op_tail,
                    "cancel": self._op_cancel, "stats": self._op_stats,
                    "shutdown": self._op_shutdown}
        handler = handlers.get(op)
        if handler is None:
            return error_response(
                f"unknown op {op!r}; expected one of {sorted(handlers)}")
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 — protocol must answer
            return error_response(f"{type(exc).__name__}: {exc}")

    def _op_ping(self, request: dict) -> dict:
        return ok_response(service="repro-serve", pid=_pid())

    def _op_submit(self, request: dict) -> dict:
        try:
            spec = JobSpec.from_dict(request.get("spec"))
        except ValueError as exc:
            return error_response(f"invalid job spec: {exc}")
        with self._lock:
            self._seq += 1
            job_id = f"{spec.digest()[:12]}-{self._seq:04d}"
        job = Job(id=job_id, spec=spec, created=time.time())
        self.journal.record_submit(job_id, spec.to_dict())
        self.journal.flush()
        position = self.queue.submit(job)
        return ok_response(id=job_id, digest=spec.digest(),
                           state=job.state, position=position)

    def _job_or_error(self, request: dict):
        job_id = request.get("id")
        if not isinstance(job_id, str) or not job_id:
            return None, error_response("missing job 'id'")
        job = self.queue.get(job_id)
        if job is None:
            return None, error_response(f"unknown job {job_id!r}")
        return job, None

    def _op_status(self, request: dict) -> dict:
        if "id" not in request:
            return ok_response(jobs=[job.status()
                                     for job in self.queue.all_jobs()])
        job, failure = self._job_or_error(request)
        if failure is not None:
            return failure
        return ok_response(job=job.status())

    def _op_tail(self, request: dict) -> dict:
        job, failure = self._job_or_error(request)
        if failure is not None:
            return failure
        since = max(0, int(request.get("since") or 0))
        state = job.state
        events = job.events[since:]
        return ok_response(id=job.id, state=state, error=job.error,
                           events=events, next=since + len(events))

    def _op_cancel(self, request: dict) -> dict:
        job, failure = self._job_or_error(request)
        if failure is not None:
            return failure
        if job.terminal:
            return ok_response(id=job.id, state=job.state,
                               note="already terminal")
        # Set the cooperative flag first: if a worker claims the job in
        # the same instant, its first cancel check still fires.
        job.cancel_event.set()
        if self.queue.cancel_pending(job):
            self.journal.record_state(job.id, CANCELLED,
                                      error="cancelled before start")
            self.journal.flush()
            return ok_response(id=job.id, state=CANCELLED)
        return ok_response(id=job.id, state=job.state, note="cancelling")

    def _op_stats(self, request: dict) -> dict:
        states: Dict[str, int] = {}
        for job in self.queue.all_jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return ok_response(
            jobs=states, pending=self.queue.pending_count(),
            workers=self.pool.workers, recovered=self.recovered_jobs,
            work=self.runner.work_snapshot(),
            cache={"entries": len(self.cache), "hits": self.cache.hits,
                   "misses": self.cache.misses,
                   "path": str(self.cache.path)})

    def _op_shutdown(self, request: dict) -> dict:
        pending = self.queue.pending_count()
        # Flip the event from a helper thread so this handler can finish
        # writing its response before the accept loop is torn down.
        threading.Thread(target=self._shutdown.set, daemon=True).start()
        return ok_response(stopping=True, pending=pending)


def _pid() -> int:
    import os
    return os.getpid()


def socket_available() -> bool:
    """Whether this platform supports the service's Unix-socket transport."""
    return hasattr(socket, "AF_UNIX")
