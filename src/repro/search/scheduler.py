"""Parallel work scheduler for the study's compile and measurement tasks.

Compiles are pure functions of the source, and measurements of (text,
platform, seed) — the execution environments are stateless and every RNG
is derived from the task's own seed — so tasks can run in any order on any
worker and the scheduler's outputs are order-preserving and identical to a
serial run.  A process pool shards the tasks (the work is pure-Python
and CPU-bound, so threads would serialize on the GIL), which needs a
picklable function and items; ``max_workers <= 1`` (the default) or a pool
that fails to start falls back to a plain serial loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment override for the default worker count (0/1 = serial).
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass(frozen=True)
class MeasureBatch:
    """Every pending measurement of one shader text, shipped as one unit.

    Batching per text means a process pool pickles each emitted shader once
    instead of once per (variant x platform) unit, and the worker's shared
    JIT front-end memo parses it once for all platforms in the batch.
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


class Scheduler:
    """Order-preserving map over work units, parallel when asked to be.

    ``cancel_check`` is an optional zero-argument callable that cancels an
    in-flight :meth:`map` by raising: the serial path runs it before every
    unit, the pool path before dispatch.  The study service installs its
    per-job timeout/cancel hook here so one runaway study cannot wedge a
    worker inside a long scheduler batch.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 cancel_check: Optional[Callable[[], None]] = None):
        self.max_workers = (default_workers() if max_workers is None
                            else max(1, int(max_workers)))
        self.cancel_check = cancel_check

    @property
    def parallel(self) -> bool:
        return self.max_workers > 1

    def _check_cancelled(self) -> None:
        if self.cancel_check is not None:
            self.cancel_check()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply *fn* to every item, results in input order."""
        units = list(items)
        if not self.parallel or len(units) <= 1:
            return [self._checked(fn, unit) for unit in units]
        workers = min(self.max_workers, len(units))
        self._check_cancelled()
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, RuntimeError, NotImplementedError):
            # Pool creation can fail in constrained sandboxes; the serial
            # path computes the same results.  Worker exceptions are NOT
            # swallowed here — they propagate from pool.map below.
            return [self._checked(fn, unit) for unit in units]
        try:
            with pool:
                chunk = max(1, len(units) // (workers * 4))
                return list(pool.map(fn, units, chunksize=chunk))
        except BrokenProcessPool:
            # The pool's workers were killed under us (sandbox policy, OOM
            # killer); no partial results are retrievable, so recompute.
            return [self._checked(fn, unit) for unit in units]

    def _checked(self, fn: Callable[[T], R], unit: T) -> R:
        self._check_cancelled()
        return fn(unit)
