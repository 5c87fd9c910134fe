"""The fault-tolerant shard dispatcher: faults, retries, resume, merge.

The acceptance criterion threaded through these tests: with faults
injected (a worker killed mid-shard, a hang, a torn write), the dispatcher
retries and produces a merged study byte-identical to the unsharded run;
with retries exhausted it fails loudly with an explicit missing-shard
manifest; and a killed dispatcher resumes from its checkpoints.
"""

import json
import os

import pytest

from repro.corpus import CorpusSpec, default_corpus
from repro.dispatch import (
    BackoffPolicy, FaultPlan, FaultSpec, InjectedFault, ShardDispatcher,
    SubprocessTransport, ThreadTransport, fault_from_env, write_study_output,
)
from repro.gpu.vendors import INTEL
from repro.harness.study import StudyConfig, run_study
from repro.search.cache import ResultCache

CASES = default_corpus(max_shaders=4)
SEED = 9


@pytest.fixture(scope="module")
def baseline():
    """The unsharded study every merged result must byte-match."""
    return run_study(CASES, StudyConfig(platforms=[INTEL], seed=SEED))


def _dispatcher(tmp_path, **overrides):
    options = dict(
        cases=CASES, shard_count=2,
        transport=ThreadTransport(CASES, platforms=[INTEL],
                                  cache=ResultCache()),
        state_dir=tmp_path / "state", seed=SEED,
        policy=BackoffPolicy(base=0.01, cap=0.05, seed=SEED, max_attempts=3),
        poll_interval=0.005, workers=2)
    options.update(overrides)
    return ShardDispatcher(**options)


# ---------------------------------------------------------------------------
# Fault plans and the injection layer
# ---------------------------------------------------------------------------


def test_fault_plan_parses_the_full_grammar():
    plan = FaultPlan.parse("1:crash,2:hang@1, 3:torn@2 ,4:corrupt@*")
    assert plan.fault_for(1, 1) == "crash"
    assert plan.fault_for(1, 2) is None         # @1 is the default
    assert plan.fault_for(3, 2) == "torn"
    assert plan.fault_for(3, 1) is None
    assert plan.fault_for(4, 1) == "corrupt"
    assert plan.fault_for(4, 7) == "corrupt"    # @* = every attempt
    assert plan.fault_for(5, 1) is None
    assert FaultPlan.parse(str(plan)).fault_for(3, 2) == "torn"
    assert not FaultPlan.parse("")


@pytest.mark.parametrize("bad", ["1", "x:crash", "1:explode", "0:crash",
                                 "1:crash@0", "1:crash@x"])
def test_fault_plan_rejects_malformed(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


def test_worker_fault_from_env(monkeypatch):
    assert fault_from_env({}) is None
    assert fault_from_env({"REPRO_FAULT": "torn"}) == "torn"
    with pytest.raises(ValueError, match="REPRO_FAULT"):
        fault_from_env({"REPRO_FAULT": "explode"})


def test_write_study_output_fault_shapes(tmp_path):
    import threading

    text = json.dumps({"payload": "x" * 200})
    event = threading.Event()

    clean = tmp_path / "clean.json"
    write_study_output(clean, text)
    assert clean.read_text() == text            # production path untouched

    torn = tmp_path / "torn.json"
    with pytest.raises(InjectedFault):
        write_study_output(torn, text, fault="torn", cancel_event=event)
    assert 0 < len(torn.read_text()) < len(text)

    crash = tmp_path / "crash.json"
    with pytest.raises(InjectedFault):
        write_study_output(crash, text, fault="crash", cancel_event=event)
    assert not crash.exists()

    corrupt = tmp_path / "corrupt.json"
    write_study_output(corrupt, text, fault="corrupt", cancel_event=event)
    damaged = corrupt.read_text()               # full-length but damaged…
    assert len(damaged) == len(text)
    with pytest.raises(json.JSONDecodeError):   # …and no longer JSON
        json.loads(damaged)

    event.set()                                 # a cancelled hang raises
    with pytest.raises(InjectedFault):
        write_study_output(tmp_path / "h.json", text, fault="hang",
                           cancel_event=event, hang_seconds=0.01)


def test_fault_spec_validates():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(shard=1, kind="explode")
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec(shard=0, kind="crash")


# ---------------------------------------------------------------------------
# Thread transport end-to-end
# ---------------------------------------------------------------------------


def test_clean_dispatch_merges_byte_identical(tmp_path, baseline):
    report = _dispatcher(tmp_path).run()
    assert report.complete
    assert report.missing_shards == []
    assert report.retries == 0
    assert report.merged_path.read_text() == baseline.to_json()
    manifest = json.loads(report.manifest_path.read_text())
    assert manifest["complete"] is True
    assert manifest["missing"] == []
    assert manifest["shard_count"] == 2


def test_dispatch_recovers_from_crash_torn_and_corrupt(tmp_path, baseline):
    events = []
    report = _dispatcher(
        tmp_path, shard_count=3,
        faults=FaultPlan.parse("1:crash,2:torn,3:corrupt"),
        events=events.append).run()
    assert report.complete
    assert report.retries == 3
    assert report.attempts == {1: 2, 2: 2, 3: 2}
    assert report.merged_path.read_text() == baseline.to_json()
    retried = [e for e in events if e.get("state") == "retry"]
    assert sorted(e["shard"] for e in retried) == [1, 2, 3]
    errors = {e["shard"]: e["error"] for e in retried}
    assert "torn" in errors[2]
    # A corrupt output exits "successfully" — only validation catches it.
    assert "invalid shard output" in errors[3]


def test_dispatch_kills_and_retries_a_hung_shard(tmp_path, baseline):
    report = _dispatcher(
        tmp_path, faults=FaultPlan.parse("1:hang"),
        heartbeat_timeout=0.3).run()
    assert report.complete
    assert report.retries == 1
    assert report.attempts[1] == 2
    assert report.merged_path.read_text() == baseline.to_json()


def test_dispatch_timeout_kills_a_hung_shard(tmp_path, baseline):
    report = _dispatcher(
        tmp_path, faults=FaultPlan.parse("2:hang"), timeout=1.5).run()
    assert report.complete
    assert report.attempts[2] == 2
    assert report.merged_path.read_text() == baseline.to_json()


def test_exhausted_retries_fail_loudly_with_manifest(tmp_path):
    report = _dispatcher(
        tmp_path, faults=FaultPlan.parse("1:crash@*"),
        policy=BackoffPolicy(base=0.01, seed=SEED, max_attempts=2)).run()
    assert not report.complete
    assert report.missing_shards == [1]
    assert report.merged_path is None
    assert 1 in report.failed
    # Graceful degradation: the completed shard still merges partially…
    assert report.partial_path is not None and report.partial_path.exists()
    # …and the manifest records exactly what is missing and why.
    manifest = json.loads(report.manifest_path.read_text())
    assert manifest["complete"] is False
    assert manifest["missing"] == [
        {"shard": 1, "attempts": 2, "error": report.failed[1]}]
    assert manifest["partial"] == str(report.partial_path)
    assert manifest["merged"] is None


def test_killed_dispatcher_resumes_from_checkpoints(tmp_path, baseline):
    # Run 1: shard 1 fails every attempt — only shard 2 lands.
    first = _dispatcher(
        tmp_path, faults=FaultPlan.parse("1:crash@*"),
        policy=BackoffPolicy(base=0.01, seed=SEED, max_attempts=2)).run()
    assert sorted(first.completed) == [2]
    # Run 2 (a "restarted dispatcher"): shard 2 resumes from its
    # checkpoint without re-running; only shard 1 is dispatched.
    second = _dispatcher(tmp_path).run()
    assert second.resumed == [2]
    assert second.complete
    assert second.merged_path.read_text() == baseline.to_json()


def test_resume_discards_damaged_checkpoints(tmp_path, baseline):
    first = _dispatcher(tmp_path).run()
    assert first.complete
    # Damage shard 1's result file behind the checkpoint's back.
    shard_file = first.completed[1]
    shard_file.write_text(shard_file.read_text()[:-40])
    second = _dispatcher(tmp_path).run()
    assert second.resumed == [2]            # the intact checkpoint held
    assert second.attempts[1] == 1          # the damaged one re-ran
    assert second.complete
    assert second.merged_path.read_text() == baseline.to_json()


def test_fresh_ignores_checkpoints(tmp_path):
    assert _dispatcher(tmp_path).run().complete
    report = _dispatcher(tmp_path, fresh=True).run()
    assert report.resumed == []
    assert report.attempts == {1: 1, 2: 1}


def test_request_stop_interrupts_gracefully(tmp_path, baseline):
    dispatcher = _dispatcher(tmp_path, workers=1,
                             faults=FaultPlan.parse("1:hang@*"))
    events = []

    def watch(event):
        events.append(event)
        # Ask for a wind-down as soon as the first (hanging) shard is up.
        if event.get("state") == "launched":
            dispatcher.request_stop()

    dispatcher.events = watch
    report = dispatcher.run()
    assert report.interrupted
    assert not report.complete
    assert any(e.get("state") == "killed" for e in events)
    manifest = json.loads(report.manifest_path.read_text())
    assert manifest["interrupted"] is True
    # Nothing was lost: a rerun picks the work straight back up.
    rerun = _dispatcher(tmp_path).run()
    assert rerun.complete
    assert rerun.merged_path.read_text() == baseline.to_json()


def test_thread_transport_shares_the_warm_cache(tmp_path):
    cache = ResultCache()
    transport = ThreadTransport(CASES, platforms=[INTEL], cache=cache)
    report = _dispatcher(tmp_path, transport=transport,
                         faults=FaultPlan.parse("1:torn")).run()
    assert report.complete
    # The torn attempt's measurements were not wasted: the retry replayed
    # them from the shared cache.
    assert cache.hits > 0


# ---------------------------------------------------------------------------
# Subprocess transport
# ---------------------------------------------------------------------------


def test_subprocess_argv_carries_the_corpus_spec():
    from repro.dispatch.transport import ShardTask
    from pathlib import Path

    spec = CorpusSpec(max_shaders=6, synth_seed=3, synth_count=2)
    task = ShardTask(index=2, count=3, seed=11,
                     output=Path("out.json"), heartbeat=Path("beat"),
                     jobs=2)
    argv = SubprocessTransport(spec, python="python3").argv_for(task)
    assert argv[:4] == ["python3", "-m", "repro", "study"]
    for flag, value in (("--shard", "2/3"), ("--seed", "11"),
                        ("--output", "out.json"), ("--max-shaders", "6"),
                        ("--synth-seed", "3"), ("--synth-count", "2"),
                        ("--heartbeat", "beat"), ("--jobs", "2")):
        assert argv[argv.index(flag) + 1] == value


def test_subprocess_dispatch_survives_faults(tmp_path):
    """Real processes, real kills: a torn write and a crash, retried, then
    a merge byte-identical to the unsharded study."""
    spec = CorpusSpec(max_shaders=3)
    cases = spec.build()
    baseline = run_study(cases, StudyConfig())    # all platforms, seed 2018
    report = ShardDispatcher(
        cases=cases, shard_count=2, transport=SubprocessTransport(spec),
        state_dir=tmp_path / "state",
        policy=BackoffPolicy(base=0.01, cap=0.05, max_attempts=3),
        faults=FaultPlan.parse("1:crash,2:torn"),
        poll_interval=0.02, workers=2).run()
    assert report.complete
    assert report.retries == 2
    assert report.merged_path.read_text() == baseline.to_json()
    # The worker's own stderr survives for post-mortems.
    logs = os.listdir(tmp_path / "state" / "logs")
    assert any(name.startswith("shard-0001") for name in logs)
