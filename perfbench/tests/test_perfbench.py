"""Tests of the benchmark itself.

Run from the repository root (about two minutes on two cores)::

    python3 -m pytest perfbench/tests -q

They run the real workloads, so they are not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, speed

ROOT = Path(__file__).resolve().parents[2]
SEED = 1


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runner(tmp_path_factory) -> run.Runner:
    return run.Runner(ROOT, tmp_path_factory.mktemp("perfbench"),
                      budget_s=None)


@pytest.fixture(scope="module")
def reps(runner):
    """Per workload: one plain and two traced repetitions of one seed."""
    cache = {}

    def get(workload: str):
        if workload not in cache:
            cache[workload] = [
                run.run_rep(runner, workload, SEED, f"{workload}-{index}",
                            rounds=1, trace=index > 0)
                for index in range(3)]
        return cache[workload]

    return get


def test_benchmark_json_lists_every_metric_a_run_prints():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_gives_the_plain_bytes_and_counts(workload, reps):
    plain, traced, again = reps(workload)
    for rep in (plain, traced, again):
        assert not [o.errors for o in rep.outcomes if o.errors]
    assert plain.digests() == traced.digests() == again.digests()
    assert plain.counters() == traced.counters() == again.counters()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_counters_repeat_exactly(workload, reps):
    plain, traced, again = reps(workload)
    units = run.per_layer_units()
    first = run.layer_metrics(plain, traced)
    second = run.layer_metrics(plain, again)
    assert list(first) == list(units)
    counts = {name for name, unit in units.items() if unit == "count"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["search.measures"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_sum_to_the_traced_wall_time(workload, reps):
    plain, traced, _ = reps(workload)
    metrics = run.layer_metrics(plain, traced)
    assert metrics["trace.unattributed_share"] <= 0.10
    assert metrics["trace.worker_unattributed_share"] <= 0.10
    layer_sum = sum(value for name, value in metrics.items()
                    if name.endswith("_s") and not name.startswith("trace."))
    # Self times of the commands' processes and of the pool workers' tasks.
    wall = metrics["trace.wall_s"] + metrics["trace.worker_busy_s"]
    assert layer_sum == pytest.approx(wall, rel=0.10)


def test_every_binding_of_a_wrapped_function_is_traced(reps):
    _, traced, _ = reps("study_jobs2_replay")
    parents = {parent for worker in traced.cold.result["workers"]
               for layer, parent, _ in worker["edges"]
               if layer == "passes.cleanup"}
    # repro.gpu.jit and repro.passes.manager each hold their own binding
    # of run_cleanup; the trie imports apply_flag_pass the same way.
    assert {"gpu.jit", "passes.flag_pass", "core.walk"} <= parents


def test_pool_workers_report_their_spans(reps):
    _, traced, _ = reps("study_jobs2_replay")
    workers = traced.cold.result["workers"]
    assert len(workers) >= 2  # one pool per Scheduler.map call
    assert all(w["layers"]["passes.cleanup"][0] > 0 for w in workers)
    metrics = run.layer_metrics(*reps("study_jobs2_replay")[:2])
    assert metrics["search.pool_map_s"] > 0
    assert metrics["trace.worker_busy_s"] > 0
    assert metrics["core.walk_pass_runs"] > 0


def test_parallel_study_equals_a_serial_run(runner, reps):
    plain = reps("study_jobs2_replay")[0]
    output = runner.work / "serial.json"
    serial = runner.run(run.Command(
        "study", ["study", *run.jobs2_corpus(SEED), "--jobs", "1",
                  "--output", str(output)], str(output)))
    assert not serial.errors
    assert serial.digest == plain.digests()["study"]


def test_timed_run_prints_every_end_to_end_metric(runner, capsys):
    payload = run.timed_run(runner, "tune_greedy", SEED, seconds=0)
    printed = capsys.readouterr().out
    assert payload["correct"] and payload["failed"] == 0
    names = [m["name"] for m in benchmark_json()["end_to_end"]]
    assert list(payload["metrics"]) == names
    for name in names:
        assert name in printed
        assert payload["metrics"][name]["value"] > 0
    assert "failed_share" in printed and "modes: compile=trie" in printed


def test_speed_probe_scales_by_the_mean_loop_time():
    ref = speed.REFERENCE_S
    assert speed.SpeedProbe().factor() == 1.0  # no timing: left as measured
    probe = speed.SpeedProbe()
    # Loops at t=10 and t=20, on average twice as slow as the reference.
    probe.samples = [(10.0, ref), (10.2, 3 * ref), (20.0, 2 * ref)]
    assert probe.factor() == pytest.approx(0.5)
    assert probe.cpu_between(9.0, 10.5) == pytest.approx(4 * ref)
    probe.start()
    time.sleep(5 * speed.PERIOD_S)  # the handler runs during the sleep
    probe.stop()
    assert len(probe.samples) >= 2


def test_serial_commands_are_timed_by_cpu_and_the_pool_by_wall():
    result = {"wall_s": 2.0, "cpu_s": 1.5, "speed_factor": 2.0}
    serial = run.Outcome(run.Command("tune", []), result, None)
    pool = run.Outcome(run.Command("study", [], pool=True), result, None)
    assert serial.adjusted_s == 3.0
    assert pool.adjusted_s == 4.0


def test_the_seed_changes_the_digests_and_repeats_them(runner):
    def digest(seed: int) -> str:
        output = runner.work / f"small-{seed}.json"
        outcome = runner.run(run.Command(
            "study", ["study", "--max-shaders", "2", "--seed", str(seed),
                      "--output", str(output)], str(output)))
        assert not outcome.errors
        return outcome.digest

    assert digest(1) != digest(2)
    assert digest(1) == digest(1)


def test_the_synth_content_is_pinned_across_seeds():
    from repro.cli import build_parser, corpus_spec_from_args

    def corpus(seed: int):
        args = build_parser().parse_args(["study", *run.jobs2_corpus(seed)])
        return [case.source for case in corpus_spec_from_args(args).build()]

    first = corpus(1)
    assert len(first) == 66
    assert first == corpus(2)


def test_golden_digests_differ_between_seeds():
    golden = json.loads((run.HERE / "golden.json").read_text())
    for workload, seeds in golden.items():
        assert workload in run.WORKLOADS
        for role in ("study", "tune", "report"):
            digests = [d[role] for d in seeds.values() if role in d]
            assert len(set(digests)) == len(digests), (workload, role)


def test_without_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_greedy",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
