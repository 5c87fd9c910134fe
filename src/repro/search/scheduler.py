"""Parallel work scheduler for the study's compile and measurement tasks.

Compiles are pure functions of the source, and measurements of (text,
platform, seed) — the execution environments are stateless and every RNG
is derived from the task's own seed — so tasks can run in any order on any
worker and give what a serial run gives.  A process pool runs the tasks
(the work is pure-Python and CPU-bound, so threads would serialize on the
GIL), which needs a picklable function and items.

A :meth:`Scheduler.session` holds one pool for a whole study: every
:meth:`Scheduler.map` inside it submits each item as its own task at once
and returns a :class:`Tasks` iterator over the results in input order, and
:meth:`Scheduler.finished` hands back each map once all its tasks are done,
so a caller can feed the pool as results arrive.  Outside a session, with
``max_workers <= 1`` or when the pool fails to start, ``map`` runs the
items here, one after another.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar,
)

T = TypeVar("T")
R = TypeVar("R")

#: Environment override for the default worker count (0/1 = serial).
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass(frozen=True)
class MeasureBatch:
    """Every pending measurement of one shader text, shipped as one task.

    A pool pickles the text once instead of once per platform, and the
    worker's shared JIT front-end memo parses it once for all of them.
    """

    text: str
    #: (platform name, measurement seed) per pending measurement.
    tasks: Tuple[Tuple[str, int], ...]


def default_workers() -> int:
    """Worker count from ``REPRO_JOBS`` (serial when unset or invalid)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))
    except ValueError:
        return 1


class Tasks(Generic[R]):
    """The results of one pooled :meth:`Scheduler.map`, in input order.

    Iterating blocks on each task in turn and re-raises a task's exception
    (``BrokenProcessPool`` when a worker died).  Once every task is done,
    the scheduler's :meth:`~Scheduler.finished` returns this object.
    """

    def __init__(self, futures: List[Future],
                 finished: "queue.SimpleQueue[Tasks]"):
        self._futures = iter(futures)
        self._finished = finished
        self._lock = threading.Lock()
        self._left = len(futures)
        if not futures:
            finished.put(self)
        for future in futures:
            future.add_done_callback(self._task_done)

    def _task_done(self, _future: Future) -> None:
        # Pool callbacks run on the executor's thread, or on the submitting
        # one for a task that finished before its callback was added.
        with self._lock:
            self._left -= 1
            if self._left:
                return
        self._finished.put(self)

    def __iter__(self) -> "Tasks[R]":
        return self

    def __next__(self) -> R:
        return next(self._futures).result()


class Scheduler:
    """Order-preserving map over work units, on one process pool per
    :meth:`session` when asked to be parallel.

    ``cancel_check`` is an optional zero-argument callable that cancels by
    raising: ``map`` runs it before it submits and before every serial
    unit, and :meth:`finished` before it waits.  The study service installs
    its per-job timeout/cancel hook here so one runaway study cannot wedge
    its thread on the pool.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 cancel_check: Optional[Callable[[], None]] = None):
        self.max_workers = (default_workers() if max_workers is None
                            else max(1, int(max_workers)))
        self.cancel_check = cancel_check
        self._pool: Optional[ProcessPoolExecutor] = None
        self._finished: "queue.SimpleQueue[Tasks]" = queue.SimpleQueue()

    @property
    def parallel(self) -> bool:
        return self.max_workers > 1

    def _check_cancelled(self) -> None:
        if self.cancel_check is not None:
            self.cancel_check()

    @contextmanager
    def session(self) -> Iterator[bool]:
        """Hold one process pool open for the block; yields whether it did.

        Serial schedulers, and pools that fail to start (constrained
        sandboxes), yield False and ``map`` runs here.  However the block
        exits — returning, raising, cancelled or interrupted by a signal
        handler — the pool drops its tasks that have not started and waits
        for its workers, so no process outlives the session.
        """
        if not self.parallel:
            yield False
            return
        try:
            pool = ProcessPoolExecutor(max_workers=self.max_workers)
        except (OSError, RuntimeError, NotImplementedError):
            yield False
            return
        self._pool, self._finished = pool, queue.SimpleQueue()
        try:
            yield True
        finally:
            self._pool = None
            pool.shutdown(wait=True, cancel_futures=True)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Apply *fn* to every item; an iterator over the results in input
        order.

        In a session each item is submitted now, as its own pool task, and
        the iterator is that map's :class:`Tasks`; a worker's exception is
        raised when its result is read.  Otherwise the items run here
        before ``map`` returns.
        """
        units = list(items)
        self._check_cancelled()
        if self._pool is None:
            return iter([self._checked(fn, unit) for unit in units])
        return Tasks([self._pool.submit(fn, unit) for unit in units],
                     self._finished)

    def finished(self, timeout: Optional[float] = None) -> Optional[Tasks]:
        """The next pooled map whose every task is done, each map once, in
        the order they finish; None when none finished within *timeout*."""
        self._check_cancelled()
        try:
            return self._finished.get(timeout=timeout)
        except queue.Empty:
            return None

    def _checked(self, fn: Callable[[T], R], unit: T) -> R:
        self._check_cancelled()
        return fn(unit)
