"""repro.search — flag-space exploration beyond the brute-force sweep.

The paper evaluates all 256 flag combinations of every shader on every
platform.  This subsystem generalizes that study into a tunable search:

- :mod:`repro.search.strategies` — ``Exhaustive`` (the paper's sweep),
  ``RandomSampling``, ``GreedyHillClimb`` and ``Genetic`` strategies over
  flag bitmasks, all deterministic under a fixed seed;
- :mod:`repro.search.engine` — ``evaluate(case, flags, platform)`` wrapping
  the compiler and the execution environments behind a content-addressed
  result cache;
- :mod:`repro.search.cache` — the cache itself, with an optional on-disk
  JSON store so repeated runs skip recompilation and re-measurement;
- :mod:`repro.search.scheduler` — shards the study's per-source compiles
  and per-text measurement batches across a ``concurrent.futures`` pool,
  with a serial fallback.
"""

from repro.search.cache import ResultCache, make_key, source_digest
from repro.search.engine import Evaluation, EvaluationEngine, Sample
from repro.search.scheduler import Scheduler, default_workers
from repro.search.strategies import (
    STRATEGIES, Exhaustive, Genetic, GreedyHillClimb, RandomSampling,
    SearchOutcome, SearchStrategy, make_strategy,
)

__all__ = [
    "ResultCache", "make_key", "source_digest",
    "Evaluation", "EvaluationEngine", "Sample",
    "Scheduler", "default_workers",
    "STRATEGIES", "SearchStrategy", "SearchOutcome", "make_strategy",
    "Exhaustive", "RandomSampling", "GreedyHillClimb", "Genetic",
]
