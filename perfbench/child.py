"""Run one ``repro`` command in this (fresh) interpreter and record it.

Usage: ``python3 -m perfbench.child SPEC.json``.  :mod:`perfbench.run`
writes the spec and reads back the result file.

The command runs through the real CLI entry point, ``repro.cli.main``,
with its standard output captured to a file.  Two hooks, installed from
outside ``src/`` on methods a command calls once or a few times, read
what the benchmark reports from public surfaces:

* every :class:`EvaluationEngine` the command builds, for its work and
  cache counters;
* ``CorpusSpec.build``, whose return marks the end of set-up.  A *probe*
  run stops the command right there.

Without ``"trace"`` the host-speed probe (:mod:`perfbench.speed`) runs
in this process from its start.  With ``"trace": true`` the layer tracer
(:mod:`perfbench.tracer`) is installed instead and its spans are written
into the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from perfbench import tracer
from perfbench.speed import SpeedProbe


class SetupReached(Exception):
    """Raised by a probe run once the corpus is built."""


class Hooks:
    """The untraced observation points (see the module docstring)."""

    def __init__(self, probe: bool):
        self.probe = probe
        self.engines: list = []
        self.setup_at = None
        #: process CPU seconds (since the process started) at ``setup_at``
        self.setup_cpu = None

    def install(self) -> None:
        from repro.corpus.generator import CorpusSpec
        from repro.search.engine import EvaluationEngine

        hooks = self
        original_init = EvaluationEngine.__init__

        def init(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            hooks.engines.append(engine)

        EvaluationEngine.__init__ = init

        original_build = CorpusSpec.build

        def build(spec):
            cases = original_build(spec)
            if hooks.setup_at is None:
                hooks.setup_at = time.perf_counter()
                hooks.setup_cpu = time.process_time()
            if hooks.probe:
                raise SetupReached
            return cases

        CorpusSpec.build = build

    def engine_counters(self) -> dict:
        keys = ("frontends", "compiles", "measures", "hits", "misses")
        totals = dict.fromkeys(keys, 0)
        for engine in self.engines:
            totals["frontends"] += engine.frontend_count
            totals["compiles"] += engine.compile_count
            totals["measures"] += engine.measure_count
            totals["hits"] += engine.cache.hits
            totals["misses"] += engine.cache.misses
        return totals


def _modes() -> dict:
    from repro.core.pipeline import compile_mode
    from repro.harness.environment import measure_mode
    from repro.search.scheduler import default_workers

    return {"compile": compile_mode(), "measure": measure_mode(),
            "default_jobs": default_workers()}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest (pool) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    # An untraced command times the speed loop all its life (speed.py); a
    # traced one leaves it out of its layer times.
    speed = SpeedProbe()
    if not spec["trace"]:
        speed.start()
    tracer.preload()
    import repro.cli
    from repro.gpu.jit import jit_pipeline_steps

    hooks = Hooks(probe=spec["probe"])
    hooks.install()
    if spec["trace"]:
        tracer.TRACER.install(spec["worker_dir"])

    with open(spec["stdout"], "w", encoding="utf-8") as handle, \
            redirect_stdout(handle):
        tracer.TRACER.start_root()
        cpu_started = time.process_time()
        try:
            rc = repro.cli.main(spec["argv"])
        except SetupReached:
            rc = 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # run.py counts it as a failed operation
            traceback.print_exc()
            rc = 1
        cpu = time.process_time() - cpu_started
        wall = tracer.TRACER.stop_root()
    speed.stop()

    started = tracer.TRACER.root_started
    setup_cpu = None
    if hooks.setup_at is not None:
        setup_cpu = hooks.setup_cpu - speed.cpu_between(0.0, hooks.setup_at)
    result = {
        "rc": rc,
        "wall_s": wall,
        # this process's CPU time in the command and, for set-up, from its
        # start to the end of set-up; the speed loop's own time left out.
        "cpu_s": cpu - speed.cpu_between(started, started + wall),
        "setup_cpu_s": setup_cpu,
        "speed_factor": speed.factor(),
        "setup_at": hooks.setup_at,
        "engine": hooks.engine_counters(),
        "jit_steps": jit_pipeline_steps(),
        "rss_mb": _peak_rss_mb(),
        "modes": _modes(),
        "trace": tracer.TRACER.snapshot() if spec["trace"] else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
