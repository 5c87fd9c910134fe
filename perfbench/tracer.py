"""Outside-in layer tracer for one ``repro`` command.

The tracer never edits ``src/``.  It replaces the public functions and
methods listed in :data:`LAYERS` with timing wrappers, in place, after the
command's modules are imported:

* a module-level function is rebound in *every* loaded ``repro`` module
  that holds it — ``from x import y`` copies the binding, so
  ``repro.passes.manager.run_cleanup`` and ``repro.gpu.jit.run_cleanup``
  are both wrapped (functions imported later read the already-wrapped
  attribute of the defining module);
* a method is replaced on its class, which every instance shares.

Each call is a span on one stack.  A span's self time is its duration
minus the durations of the spans nested directly inside it, so self times
add up to the traced wall time; what the root span (the command) keeps for
itself is the unattributed share.  Spans are aggregated in memory per
layer, and per (layer, parent layer) call edge, and written out once when
the command ends: recording every one of the million-odd spans of a study
would cost more than the work it measures.

Process-pool workers inherit the wrappers when they fork.  While tracing,
``Scheduler.map`` hands the pool a :class:`WorkerTask` around the real task
function; its first call in a worker resets the inherited aggregates and
registers a dump of the worker's own spans for when the worker exits.  In
a worker the root span is each task, so its wall time is the time the
worker was busy and its self time is what no layer covered.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer).  Several targets may share a layer.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.corpus.generator", "CorpusSpec.build", "corpus.build"),
    ("repro.corpus.synth", "synth_family", "corpus.synth"),
    ("repro.glsl.ingest", "ingest_source", "glsl.ingest"),
    ("repro.glsl.preprocessor", "preprocess", "glsl.preprocess"),
    ("repro.glsl.parser", "parse_shader", "glsl.parse"),
    ("repro.glsl.metrics", "lines_of_code", "glsl.loc"),
    ("repro.ir.lowering", "lower_shader", "ir.lower"),
    ("repro.ir.mem2reg", "promote_to_ssa", "ir.mem2reg"),
    ("repro.ir.clone", "clone_module", "ir.clone"),
    ("repro.ir.glsl_backend", "emit_glsl", "ir.emit"),
    ("repro.ir.fingerprint", "fingerprint_module", "ir.fingerprint"),
    ("repro.ir.interp", "Interpreter.run", "ir.interp"),
    ("repro.ir.interp_batch", "BatchedInterpreter.run", "ir.interp"),
    ("repro.passes.manager", "run_cleanup", "passes.cleanup"),
    ("repro.passes.manager", "apply_flag_pass", "passes.flag_pass"),
    ("repro.passes.manager", "run_passes", "passes.pipeline"),
    ("repro.core.trie", "VariantTrie.compile", "core.walk"),
    ("repro.core.pipeline", "ShaderCompiler.compile", "core.compile"),
    ("repro.core.pipeline", "ShaderCompiler.all_variants", "core.variants"),
    ("repro.gpu.jit", "shared_frontend", "gpu.frontend"),
    ("repro.gpu.jit", "VendorJIT.compile", "gpu.jit"),
    ("repro.gpu.jit", "VendorJIT.compile_cached", "gpu.jit_memo"),
    ("repro.gpu.cost", "estimate_kernel", "gpu.cost"),
    ("repro.gpu.cost", "draw_time_ns", "gpu.cost"),
    ("repro.harness.environment", "ShaderExecutionEnvironment.prepare",
     "harness.prepare"),
    ("repro.harness.environment", "ShaderExecutionEnvironment.profile",
     "harness.profile"),
    ("repro.harness.environment", "ShaderExecutionEnvironment.run",
     "harness.measure"),
    ("repro.harness.environment", "ShaderExecutionEnvironment.run_many",
     "harness.measure"),
    ("repro.harness.protocol", "run_protocol", "harness.timer"),
    ("repro.harness.study", "run_study", "harness.study"),
    ("repro.harness.results", "StudyResult.to_json", "harness.results_io"),
    ("repro.harness.results", "StudyResult.from_json", "harness.results_io"),
    ("repro.analysis.cycle_analyzer", "arm_static_cycles",
     "analysis.static_cycles"),
    ("repro.analysis.speedups", "average_speedups", "analysis.summary"),
    ("repro.analysis.flags", "best_static_flags", "analysis.summary"),
    ("repro.search.engine", "EvaluationEngine.variants_for",
     "search.variants"),
    ("repro.search.engine", "EvaluationEngine.measure_many",
     "search.measure"),
    ("repro.search.engine", "EvaluationEngine.evaluate", "search.evaluate"),
    ("repro.search.engine", "EvaluationEngine.text_for", "search.evaluate"),
    ("repro.search.strategies", "SearchStrategy.search", "search.strategy"),
    ("repro.search.scheduler", "Scheduler.map", "search.pool_map"),
    ("repro.search.cache", "ResultCache.__init__", "search.cache_load"),
    ("repro.search.cache", "ResultCache.get", "search.cache_get"),
    ("repro.search.cache", "ResultCache.get_variants", "search.cache_get"),
    ("repro.search.cache", "ResultCache.put", "search.cache_save"),
    ("repro.search.cache", "ResultCache.put_variants", "search.cache_save"),
    ("repro.search.cache", "ResultCache.save", "search.cache_save"),
    ("repro.search.cache", "make_key", "search.cache_key"),
    ("repro.search.cache", "source_digest", "search.cache_key"),
    ("repro.reporting.report", "ReportBuilder.build", "reporting.build"),
    ("repro.reporting.report", "Report.write", "reporting.write"),
)


ROOT = "command"


def preload() -> None:
    """Import the whole ``repro`` package up front, so that traced and plain
    commands alike import nothing inside the timed region."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":
            importlib.import_module(module.name)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) for a dotted target."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def rebind(original: Callable, replacement: Callable) -> int:
    """Point every loaded ``repro`` module binding of *original* at
    *replacement*; returns how many bindings changed."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                count += 1
    return count


def patch(module_name: str, path: str,
          make: Callable[[Callable], Callable]) -> None:
    """Replace one target with ``make(original)`` at every binding."""
    owner, name, raw = _resolve(module_name, path)
    if isinstance(owner, type):
        if isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))
        return
    if rebind(raw, make(raw)) == 0:
        raise RuntimeError(f"no binding of {module_name}.{path} found")


class Tracer:
    """Span stack plus per-layer aggregates for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # One frame per open span: [layer, time covered by child spans].
        self._stack: List[list] = [[ROOT, 0.0]]
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        #: (layer, parent layer) -> calls
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        #: work counters read from public surfaces after a call returns.
        self.counters: Dict[str, int] = defaultdict(int)
        self.root_started = 0.0
        #: summed wall time of every closed root span.
        self.wall_s = 0.0

    # -- spans ---------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             after: Optional[Callable] = None) -> Callable:
        stack, layers, edges = self._stack, self.layers, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                entry = layers[layer]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                edges[(layer, parent[0])] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def start_root(self) -> None:
        self._stack[0][1] = 0.0
        self.root_started = time.perf_counter()

    def stop_root(self) -> float:
        """Close the root span; returns its wall time."""
        wall = time.perf_counter() - self.root_started
        entry = self.layers[ROOT]
        entry[0] += 1
        entry[1] += wall - self._stack[0][1]
        self.wall_s += wall
        return wall

    def reset(self) -> None:
        """Forget inherited state (in place: wrappers hold these objects)."""
        del self._stack[:]
        self._stack.append([ROOT, 0.0])
        self.layers.clear()
        self.edges.clear()
        self.counters.clear()
        self.wall_s = 0.0
        self.pid = os.getpid()

    def snapshot(self) -> dict:
        return {"wall_s": self.wall_s,
                "layers": {k: list(v) for k, v in self.layers.items()},
                "edges": [[k[0], k[1], v] for k, v in self.edges.items()],
                "counters": dict(self.counters)}

    # -- installation --------------------------------------------------

    def install(self, worker_dir: str) -> None:
        """Wrap every :data:`LAYERS` target (call after :func:`preload`)."""
        for module_name, path, layer in LAYERS:
            after = None
            if path == "VariantTrie.compile":
                after = self._count_walk
            elif path == "Scheduler.map":
                continue  # wrapped below, with the worker hand-off
            patch(module_name, path,
                  lambda fn, layer=layer, after=after:
                  self.wrap(fn, layer, after))
        from repro.search.scheduler import Scheduler

        original_map = Scheduler.map

        def map_with_workers(scheduler, fn, items):
            return original_map(scheduler, WorkerTask(fn, worker_dir), items)

        Scheduler.map = self.wrap(functools.wraps(original_map)(
            map_with_workers), "search.pool_map")

    def _count_walk(self, args, result) -> None:
        stats = args[0].stats
        self.counters["core.walk_pass_runs"] += stats.pass_runs
        self.counters["core.walk_emits"] += stats.emits
        self.counters["core.walk_merges"] += stats.merges
        self.counters["core.unique_variants"] += len(set(result.values()))


#: The process's tracer; pool workers reach it through :class:`WorkerTask`.
TRACER = Tracer()


class WorkerTask:
    """Picklable pool task that traces the real task in the worker."""

    def __init__(self, fn: Callable, worker_dir: str):
        self.fn = fn
        self.worker_dir = worker_dir

    def __call__(self, item):
        if TRACER.pid != os.getpid():
            _enter_worker(self.worker_dir)
        TRACER.start_root()
        try:
            return self.fn(item)
        finally:
            TRACER.stop_root()


def _enter_worker(worker_dir: str) -> None:
    import multiprocessing.util

    from repro.gpu.jit import jit_pipeline_steps

    TRACER.reset()
    TRACER.counters["gpu.jit_steps_base"] = jit_pipeline_steps()
    path = Path(worker_dir) / f"worker-{os.getpid()}.json"
    multiprocessing.util.Finalize(TRACER, _dump_worker, args=(str(path),),
                                  exitpriority=100)


def _dump_worker(path: str) -> None:
    from repro.gpu.jit import jit_pipeline_steps

    TRACER.counters["gpu.jit_steps"] = (
        jit_pipeline_steps() - TRACER.counters.pop("gpu.jit_steps_base", 0))
    Path(path).write_text(json.dumps(TRACER.snapshot()))
