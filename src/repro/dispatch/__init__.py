"""Fault-tolerant shard dispatch: one command for a many-shard study.

PR 4 made studies shardable (``repro study --shard I/N`` plus a
byte-identical ``repro merge-results``), but a human still launched every
shard, watched for failures, and re-ran stragglers by hand.  This package
closes that loop:

- :class:`~repro.dispatch.transport.Transport` — a small interface for
  *where* a shard runs: :class:`ThreadTransport` (in-process, shares the
  warm result cache) and :class:`SubprocessTransport` (launches
  ``repro study --shard I/N`` workers); the interface leaves room for an
  SSH transport later.
- :class:`~repro.dispatch.backoff.BackoffPolicy` — deterministic seeded
  exponential backoff with jitter and a bounded attempt budget.
- :class:`~repro.dispatch.dispatcher.ShardDispatcher` — supervises the
  in-flight shards (per-shard timeouts + heartbeat liveness), retries
  failures, checkpoints completed shards through a result cache log
  (shard identity = corpus content hash + shard index, so a killed
  dispatcher resumes exactly where it left off), and auto-merges
  via :func:`~repro.harness.results.merge_study_results` — or, when a
  shard exhausts its retries, emits a partial merge plus an explicit
  missing-shard manifest instead of pretending completeness.
- :mod:`~repro.dispatch.faults` — the fault-injection layer
  (``repro dispatch --inject``) that makes workers crash before write,
  crash mid-write (torn tail), hang past their timeout, or corrupt their
  output, so every recovery path above is exercised deterministically in
  tests and CI rather than trusted.
"""

from repro.dispatch.backoff import BackoffPolicy
from repro.dispatch.dispatcher import (
    DispatchReport, ShardDispatcher, corpus_digest,
)
from repro.dispatch.faults import (
    FaultPlan, FaultSpec, InjectedFault, fault_from_env, write_study_output,
)
from repro.dispatch.transport import (
    ShardTask, SubprocessTransport, ThreadTransport, Transport,
)

__all__ = [
    "BackoffPolicy", "DispatchReport", "FaultPlan", "FaultSpec",
    "InjectedFault", "ShardDispatcher", "ShardTask", "SubprocessTransport",
    "ThreadTransport", "Transport", "corpus_digest", "fault_from_env",
    "write_study_output",
]
