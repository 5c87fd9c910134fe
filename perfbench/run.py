"""End-to-end benchmark of the ``repro`` study/tune/report commands.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune_greedy --seed 1 --seconds 55 --trace 0

Every command runs through the real CLI entry point in a fresh
interpreter (:mod:`perfbench.child`), with its caches and outputs in a
scratch directory of its own and with the ``REPRO_*`` mode variables
scrubbed from its environment.  Outputs are checked byte for byte; the
last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  ``perfbench/README.md`` says why each workload exists
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
#: Set-up probes before each repetition of an untraced run; ``setup_s``
#: is the median of all of them.
SETUP_PROBES = 2
#: Rounds of warm replays per repetition.
WARM_ROUNDS = 3
#: A run kills whatever child is still running this long after it started
#: (a run must end within 180 s) and counts it as failed.
RUN_DEADLINE_S = 170

WORKLOADS = ("tune_greedy", "study_jobs2_replay")
#: Synth seed of the ``study_jobs2_replay`` corpus.
SYNTH_SEED = 2018
#: The study runs every third case of its corpus (see README.md).
SHARD = "1/3"

END_TO_END = {"cold_s": "s", "replay_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

#: Name of ``cold_s`` in the layer map of README.md, per workload.
COLD_ALIAS = {"tune_greedy": "tune_s", "study_jobs2_replay": "study_s"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from perfbench.tracer import LAYERS

    units = {f"{layer}_s": "s" for layer in sorted({l for _, _, l in LAYERS})}
    for name in ("gpu.jit_calls", "gpu.jit_steps", "glsl.parse_calls",
                 "passes.cleanup_calls", "passes.flag_pass_calls",
                 "passes.pipeline_calls", "ir.emit_calls",
                 "harness.prepare_calls", "core.walk_pass_runs",
                 "core.walk_emits", "core.walk_merges",
                 "core.unique_variants", "search.frontends",
                 "search.compiles", "search.measures"):
        units[name] = "count"
    for name in ("gpu.jit_memo_hit_ratio", "gpu.frontend_memo_hit_ratio",
                 "search.cache_hit_ratio", "trace.overhead_share",
                 "trace.unattributed_share",
                 "trace.worker_unattributed_share"):
        units[name] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.worker_busy_s"] = "s"
    return dict(sorted(units.items()))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation: its role, argv, and the file that is its output
    (``None``: its captured standard output)."""

    role: str
    argv: List[str]
    output: Optional[str] = None
    #: a warm replay must do no front-end, compile or measurement.
    warm: bool = False
    #: pool workers run beside it, so it is timed by the wall clock; a
    #: serial command is timed by its CPU time (see speed.py).
    pool: bool = False


def commands(workload: str, seed: int, work: Path) -> List[Command]:
    """The commands of one repetition of *workload*: the cold command, then
    the warm replays of what it wrote."""
    study, replay = str(work / "study.json"), str(work / "replay.json")
    report = ["--out-dir", str(work / "report")]
    report_md = str(work / "report" / "report.md")
    if workload == "tune_greedy":
        tune = ["tune", "--strategy", "greedy", "--budget", "9",
                "--platform", "all", "--no-reference", "--seed", str(seed),
                "--cache", str(work / "tune.json")]
        return [Command("tune", tune), Command("tune", tune, warm=True)]
    if workload == "study_jobs2_replay":
        corpus = jobs2_corpus(seed)
        cache = ["--cache", str(work / "cache.jsonl")]
        return [
            Command("study", ["study", *corpus, "--jobs", "2", *cache,
                              "--checkpoint-every", "10", "--output", study],
                    study, pool=True),
            Command("study", ["study", *corpus, "--jobs", "1", *cache,
                              "--output", replay], replay, warm=True),
            Command("report", ["report", "--study", replay, *report],
                    report_md, warm=True),
        ]
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def jobs2_corpus(seed: int) -> List[str]:
    """One shard of the 66-case corpus: default + 4 synth families +
    examples/wild.  The synth content is pinned (see README.md: a seed-drawn
    synth set moves the study time by half); the seed feeds the
    measurement seeds."""
    return ["--seed", str(seed), "--synth-seed", str(SYNTH_SEED),
            "--synth-count", "4", "--import-dir", "examples/wild",
            "--shard", SHARD]


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------


def child_env(root: Path) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` variable, so no
    stray mode switch selects another code path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    """What one child reported, plus its output digest."""

    command: Command
    result: dict
    digest: Optional[str]
    errors: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.result.get("wall_s", 0.0)

    @property
    def adjusted_s(self) -> float:
        """The command's time at reference host speed (see speed.py)."""
        taken = (self.wall_s if self.command.pool
                 else self.result.get("cpu_s", 0.0))
        return taken * self.result.get("speed_factor", 1.0)


class Runner:
    def __init__(self, root: Path, work: Path,
                 budget_s: Optional[float] = RUN_DEADLINE_S):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.spawned = 0
        #: children still running past this are killed (None: never).
        self.deadline = (None if budget_s is None
                         else time.perf_counter() + budget_s)

    def spawn(self, argv: List[str], *, trace: bool = False,
              probe: bool = False) -> dict:
        """Run ``repro <argv>`` in a fresh interpreter; returns its result
        (``rc`` -1 when it died without writing one).  A traced child's
        pool workers dump their spans into a directory of its own."""
        self.spawned += 1
        base = self.work / f"child-{self.spawned}"
        worker_dir = Path(f"{base}.workers")
        worker_dir.mkdir()
        spec = {"argv": argv, "trace": trace, "probe": probe,
                "stdout": f"{base}.out", "result": f"{base}.result.json",
                "worker_dir": str(worker_dir)}
        Path(f"{base}.spec.json").write_text(json.dumps(spec))
        with open(f"{base}.err", "w") as stderr:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.child", f"{base}.spec.json"],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=stderr)
            try:
                proc.wait(timeout=None if self.deadline is None
                          else max(1.0, self.deadline - started))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.is_file():
            tail = Path(f"{base}.err").read_text()[-2000:]
            print(f"child `repro {' '.join(argv)}` died "
                  f"(exit {proc.returncode}):\n{tail}", file=sys.stderr)
            return {"rc": -1, "stdout": ""}
        result = json.loads(result_path.read_text())
        result["stdout"] = Path(spec["stdout"]).read_text()
        result["workers"] = [json.loads(path.read_text())
                             for path in sorted(worker_dir.iterdir())]
        if result["rc"] != 0:
            tail = Path(f"{base}.err").read_text()[-2000:]
            print(f"`repro {' '.join(argv)}` exited {result['rc']}:\n{tail}",
                  file=sys.stderr)
        return result

    def run(self, command: Command, trace: bool = False) -> Outcome:
        result = self.spawn(command.argv, trace=trace)
        errors = []
        digest = None
        if result["rc"] != 0:
            errors.append(f"exit {result['rc']}")
        else:
            if command.output is None:
                digest = sha256(result["stdout"].encode())
            elif Path(command.output).is_file():
                digest = sha256(Path(command.output).read_bytes())
            else:
                errors.append(f"no output {command.output}")
            engine = result["engine"]
            if command.warm and any(engine[k] for k in
                                    ("frontends", "compiles", "measures")):
                errors.append(f"warm replay did work: {engine}")
        return Outcome(command, result, digest, errors)

    def probe_setup(self, command: Command) -> Optional[float]:
        """The CPU seconds from *command*'s process start to its first unit
        of work, at reference host speed."""
        result = self.spawn(command.argv, probe=True)
        if result["rc"] != 0 or result.get("setup_cpu_s") is None:
            return None
        return result["setup_cpu_s"] * result["speed_factor"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# One repetition and its checks
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """One cold command followed by rounds of the warm replay commands."""

    cold: Outcome
    rounds: List[List[Outcome]]

    @property
    def outcomes(self) -> List[Outcome]:
        return [self.cold] + [o for round_ in self.rounds for o in round_]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    def digests(self) -> Dict[str, str]:
        """role -> digest (the cold command's, for repeated roles)."""
        found: Dict[str, str] = {}
        for outcome in self.outcomes:
            if outcome.digest is not None:
                found.setdefault(outcome.command.role, outcome.digest)
        return found

    def counters(self) -> dict:
        """Work counts of the cold command that must repeat exactly."""
        result = self.cold.result
        if result["rc"] != 0:
            return {}
        return {**result["engine"], "jit_steps": result["jit_steps"]}


def run_rep(runner: Runner, workload: str, seed: int, index: int,
            rounds: int, trace: bool = False) -> Rep:
    """Run the cold command, then *rounds* rounds of the warm replays, each
    command in a fresh interpreter."""
    work = runner.work / f"rep-{index}"
    work.mkdir(parents=True)
    cold, *warm = commands(workload, seed, work)
    rep = Rep(runner.run(cold, trace),
              [[runner.run(command, trace) for command in warm]
               for _ in range(rounds)])
    # Same role, same bytes: the warm study replays the cold one, and the
    # warm tune prints the cold tune's table.
    first: Dict[str, Outcome] = {}
    for outcome in rep.outcomes:
        role = outcome.command.role
        if outcome.digest is None:
            continue
        if role in first and first[role].digest != outcome.digest:
            outcome.errors.append(f"{role} output differs from the cold run")
        first.setdefault(role, outcome)
    return rep


def check_reps(reps: List[Rep]) -> None:
    """Every repetition of one seed gives the same bytes and counts."""
    for rep in reps[1:]:
        if rep.digests() != reps[0].digests():
            rep.cold.errors.append("digests differ between repetitions")
        if rep.counters() != reps[0].counters():
            rep.cold.errors.append(
                f"work counters differ between repetitions: "
                f"{rep.counters()} vs {reps[0].counters()}")


def check_golden(workload: str, seed: int, rep: Rep) -> None:
    golden = json.loads((HERE / "golden.json").read_text())
    expected = golden.get(workload, {}).get(str(seed))
    if not expected:
        return
    for role, digest in rep.digests().items():
        if role in expected and expected[role] != digest:
            rep.cold.errors.append(
                f"{role} digest {digest[:12]} != golden {expected[role][:12]}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def samples(reps: List[Rep], setups: List[float]) -> Dict[str, List[float]]:
    """Every timing of the run at reference host speed, per metric."""
    return {
        "cold_s": [rep.cold.adjusted_s for rep in reps],
        "replay_s": [sum(o.adjusted_s for o in round_)
                     for rep in reps for round_ in rep.rounds],
        "setup_s": setups,
    }


def end_to_end(reps: List[Rep],
               timings: Dict[str, List[float]]) -> Dict[str, float]:
    """Each timing is the median of its adjusted samples; memory is the
    median over repetitions of the worst command's peak."""
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in timings.items()}
    metrics["peak_rss_mb"] = statistics.median(
        max(o.result.get("rss_mb", 0.0) for o in rep.outcomes)
        for rep in reps)
    return metrics


def layer_metrics(plain: Rep, traced: Rep) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition (main process and pool
    workers summed), with the overhead taken against the plain one.

    The unattributed shares are the root spans' self time over their wall
    time: the commands' own processes for ``trace.unattributed_share``,
    the pool workers' tasks for ``trace.worker_unattributed_share``."""
    layers: Dict[str, List[float]] = {}
    edges: Dict[tuple, int] = {}
    counters: Dict[str, int] = {}
    root_self = worker_self = worker_busy = 0.0
    for outcome in traced.outcomes:
        snapshots = [outcome.result["trace"], *outcome.result["workers"]]
        for snapshot in snapshots:
            for name, (calls, self_s) in snapshot["layers"].items():
                entry = layers.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
            for layer, parent, calls in snapshot["edges"]:
                edges[(layer, parent)] = edges.get((layer, parent), 0) + calls
            for name, value in snapshot["counters"].items():
                counters[name] = counters.get(name, 0) + value
        root_self += outcome.result["trace"]["layers"]["command"][1]
        for worker in outcome.result["workers"]:
            worker_self += worker["layers"]["command"][1]
            worker_busy += worker["wall_s"]
        counters["gpu.jit_steps"] = (counters.get("gpu.jit_steps", 0)
                                     + outcome.result["jit_steps"])
        for key, value in outcome.result["engine"].items():
            counters[f"engine.{key}"] = counters.get(f"engine.{key}", 0) + value

    def calls(layer: str) -> int:
        return int(layers.get(layer, [0])[0])

    def miss_ratio(child: str, parent: str) -> float:
        return edges.get((child, parent), 0) / calls(parent) if calls(parent) else 0.0

    units = per_layer_units()
    metrics: Dict[str, float] = {}
    for name in units:
        if name.endswith("_s") and name[:-2] in layers:
            metrics[name] = layers[name[:-2]][1]
    for layer in ("gpu.jit", "glsl.parse", "passes.cleanup", "passes.flag_pass",
                  "passes.pipeline", "ir.emit", "harness.prepare"):
        metrics[f"{layer}_calls"] = calls(layer)
    for name in ("core.walk_pass_runs", "core.walk_emits", "core.walk_merges",
                 "core.unique_variants", "gpu.jit_steps"):
        metrics[name] = counters.get(name, 0)
    metrics["gpu.jit_memo_hit_ratio"] = (
        1.0 - miss_ratio("gpu.jit", "gpu.jit_memo")
        if calls("gpu.jit_memo") else 0.0)
    metrics["gpu.frontend_memo_hit_ratio"] = (
        1.0 - miss_ratio("glsl.parse", "gpu.frontend")
        if calls("gpu.frontend") else 0.0)
    lookups = counters["engine.hits"] + counters["engine.misses"]
    metrics["search.cache_hit_ratio"] = (
        counters["engine.hits"] / lookups if lookups else 0.0)
    metrics["search.frontends"] = counters["engine.frontends"]
    metrics["search.compiles"] = counters["engine.compiles"]
    metrics["search.measures"] = counters["engine.measures"]
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_share"] = traced.wall_s / plain.wall_s - 1.0
    metrics["trace.unattributed_share"] = root_self / traced.wall_s
    metrics["trace.worker_busy_s"] = worker_busy
    metrics["trace.worker_unattributed_share"] = (
        worker_self / worker_busy if worker_busy else 0.0)
    return {name: metrics.get(name, 0.0) for name in units}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def timed_run(runner: Runner, workload: str, seed: int,
              seconds: float) -> dict:
    """Repetitions, each after a few set-up probes, until one more would
    exceed *seconds*."""
    started = time.perf_counter()
    cold = commands(workload, seed, runner.work / "probe")[0]
    setups: List[Optional[float]] = []
    reps: List[Rep] = []
    while True:
        rep_started = time.perf_counter()
        setups += [runner.probe_setup(cold) for _ in range(SETUP_PROBES)]
        reps.append(run_rep(runner, workload, seed, len(reps),
                            rounds=WARM_ROUNDS))
        took = time.perf_counter() - rep_started
        if time.perf_counter() - started + took > seconds:
            break
    check_reps(reps)
    check_golden(workload, seed, reps[0])
    operations = [o for rep in reps for o in rep.outcomes]
    timings = samples(reps, [s for s in setups if s is not None])
    metrics = end_to_end(reps, timings)
    failed = (sum(1 for o in operations if o.errors)
              + sum(1 for s in setups if s is None))
    attempted = len(operations) + len(setups)
    report(workload, seed, reps, operations, failed, attempted,
           f"{len(reps)} repetition(s), {len(setups)} set-up probes")
    for name, value in metrics.items():
        label = f"{name} ({COLD_ALIAS[workload]})" if name == "cold_s" else name
        print(f"  {label:<22} {value:12.4f} {END_TO_END[name]}")
    print("  adjusted samples: " + " | ".join(
        f"{name} " + " ".join(f"{v:.4f}" for v in values)
        for name, values in timings.items()))
    print("  wall samples: cold_s " + " ".join(
        f"{r.cold.wall_s:.4f}" for r in reps) + " | replay_s " + " ".join(
        f"{sum(o.wall_s for o in round_):.4f}"
        for r in reps for round_ in r.rounds))
    print("  speed factors of the cold commands: " + " ".join(
        f"{r.cold.result.get('speed_factor', 1.0):.3f}" for r in reps))
    return payload(failed, attempted, metrics, END_TO_END)


def traced_run(runner: Runner, workload: str, seed: int) -> dict:
    """One plain repetition, then the same one traced."""
    plain = run_rep(runner, workload, seed, 0, rounds=1)
    traced = run_rep(runner, workload, seed, 1, rounds=1, trace=True)
    check_reps([plain, traced])
    check_golden(workload, seed, plain)
    operations = plain.outcomes + traced.outcomes
    failed = sum(1 for o in operations if o.errors)
    report(workload, seed, [plain, traced], operations, failed,
           len(operations), "1 plain + 1 traced repetition")
    units = per_layer_units()
    if failed:
        metrics = dict.fromkeys(units, 0.0)
    else:
        metrics = layer_metrics(plain, traced)
    shares = {"command": (metrics["trace.unattributed_share"],
                          metrics["trace.wall_s"])}
    if metrics["trace.worker_busy_s"]:
        shares["pool worker"] = (metrics["trace.worker_unattributed_share"],
                                 metrics["trace.worker_busy_s"])
    for who, (share, wall) in shares.items():
        print(f"  stage sum: layers cover {100 * (1 - share):.1f}% of the "
              f"{who} wall time ({wall:.3f} s)")
        if share > 0.10:
            print(f"  warning: more than 10% of the {who} wall time is "
                  f"outside every traced layer", file=sys.stderr)
    print(f"  tracing overhead {100 * metrics['trace.overhead_share']:.1f}%")
    return payload(failed, len(operations), metrics, units)


def report(workload: str, seed: int, reps: List[Rep],
           operations: List[Outcome], failed: int, attempted: int,
           shape: str) -> None:
    for outcome in operations:
        for error in outcome.errors:
            print(f"FAILED `repro {' '.join(outcome.command.argv)}`: {error}",
                  file=sys.stderr)
    modes = reps[0].cold.result.get("modes", {})
    print(f"perfbench {workload} seed={seed}: {shape}")
    print("  modes: " + " ".join(f"{k}={v}" for k, v in modes.items())
          + " (REPRO_* scrubbed from every child)")
    digests = reps[0].digests()
    print("  digests: " + " ".join(f"{k}={v[:16]}" for k, v in
                                   sorted(digests.items())))
    counters = reps[0].counters()
    if counters:
        print("  work: " + " ".join(f"{k}={v}" for k, v in counters.items()))
    share = failed / attempted
    print(f"  failed_share {share:.4f} ({failed}/{attempted} operations)")


def payload(failed: int, attempted: int, metrics: Dict[str, float],
            units: Dict[str, str]) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2018,
                        help="workload seed: feeds the commands' --seed")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [path for path in ("src/repro/cli.py", "examples/wild")
               if not (root / path).exists()]
    if missing:
        print(f"error: run from the root of a repro checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        if args.trace:
            result = traced_run(runner, args.workload, args.seed)
        else:
            result = timed_run(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    sys.exit(main())
