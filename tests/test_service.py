"""The study service, end to end: job identity, journal recovery, the
socket protocol, warm-cache resubmission, cancellation, and timeouts.

The socket tests boot a real :class:`StudyService` (in-process, on a Unix
socket under a short /tmp path — AF_UNIX paths have a ~104-byte limit) and
drive it through :class:`ServiceClient`, exactly as ``repro client`` does.
"""

import json
import tempfile
import time
from pathlib import Path

import pytest

from repro.corpus import CorpusSpec
from repro.service import (
    JobJournal, JobSpec, ServiceClient, StudyService, socket_available,
)

TINY_SHADER = """\
#version 450
out vec4 fragColor;
in vec2 uv;
uniform vec4 ambient;

void main()
{
    float glow = uv.x * 0.5 + uv.y * uv.y;
    fragColor = vec4(glow, glow * 0.25, 0.75, 1.0) + ambient * 0.125;
}
"""

pytestmark = pytest.mark.skipif(
    not socket_available(), reason="no AF_UNIX support on this platform")


@pytest.fixture()
def service_root():
    """A short-lived service directory under /tmp (socket-path friendly)."""
    with tempfile.TemporaryDirectory(dir="/tmp", prefix="repro-svc-") as root:
        yield Path(root)


@pytest.fixture()
def service(service_root):
    """A running one-worker service plus a connected client."""
    svc = StudyService(service_root, workers=1)
    svc.start()
    client = ServiceClient(svc.socket_path)
    client.wait_ready()
    try:
        yield svc, client
    finally:
        svc.stop()


def _wait_terminal(client, job_id, timeout=120.0):
    """Follow *job_id* to completion; returns its final status dict."""
    deadline = time.monotonic() + timeout
    for _ in client.follow(job_id):
        assert time.monotonic() < deadline, "job did not finish in time"
    return client.status(job_id)["job"]


# ---------------------------------------------------------------------------
# Job identity
# ---------------------------------------------------------------------------


def test_job_spec_is_content_addressed():
    a = JobSpec(source=TINY_SHADER)
    b = JobSpec(source=TINY_SHADER)
    assert a.digest() == b.digest()
    # Operational knobs (timeout) do not change the content address ...
    assert JobSpec(source=TINY_SHADER, timeout=5.0).digest() == a.digest()
    # ... but the work content does.
    assert JobSpec(source=TINY_SHADER, seed=1).digest() != a.digest()
    assert JobSpec(corpus=CorpusSpec(max_shaders=2)).digest() != a.digest()
    assert (JobSpec(corpus=CorpusSpec(max_shaders=2)).digest()
            == JobSpec(corpus=CorpusSpec(max_shaders=2)).digest())


def test_job_spec_round_trips_and_validates():
    spec = JobSpec(corpus=CorpusSpec(max_shaders=3, synth_count=2),
                   strategy="genetic", budget=16, platforms=("ARM",),
                   seed=7, timeout=30.0)
    again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    with pytest.raises(ValueError):
        JobSpec().validate()                      # neither source nor corpus
    with pytest.raises(ValueError):
        JobSpec(source=TINY_SHADER, corpus=CorpusSpec()).validate()  # both
    with pytest.raises(ValueError):
        JobSpec(source=TINY_SHADER, strategy="nope").validate()
    with pytest.raises(ValueError):
        JobSpec(source=TINY_SHADER, platforms=("VAX",)).validate()
    with pytest.raises(ValueError):
        JobSpec(source=TINY_SHADER, timeout=0).validate()
    with pytest.raises(ValueError):
        JobSpec.from_dict({"source": TINY_SHADER, "bogus": 1})


def test_dispatch_job_spec_validation():
    spec = JobSpec(corpus=CorpusSpec(max_shaders=3), strategy="dispatch",
                   shards=2)
    spec.validate()
    # Shard count is part of the work content for dispatch jobs ...
    assert spec.digest() != JobSpec(corpus=CorpusSpec(max_shaders=3),
                                    strategy="dispatch", shards=3).digest()
    # ... and round-trips through the wire format.
    assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    with pytest.raises(ValueError, match="shards >= 1"):
        JobSpec(corpus=CorpusSpec(max_shaders=3),
                strategy="dispatch").validate()
    with pytest.raises(ValueError, match="shards only applies"):
        JobSpec(corpus=CorpusSpec(max_shaders=3), shards=2).validate()


def test_corpus_spec_matches_cli_corpus_selection():
    """JobSpec corpora and the CLI flags build through the same helper."""
    import argparse

    from repro.cli import build_parser, corpus_spec_from_args

    args = build_parser().parse_args(
        ["study", "--max-shaders", "4", "--synth-count", "2",
         "--synth-seed", "99"])
    spec = corpus_spec_from_args(args)
    assert spec == CorpusSpec(max_shaders=4, synth_seed=99, synth_count=2)
    cli_names = [case.name for case in spec.build()]
    job_names = [case.name
                 for case in JobSpec(corpus=spec).cases()]
    assert cli_names == job_names and len(cli_names) == 4
    assert isinstance(args, argparse.Namespace)


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


def test_journal_replays_in_submission_order(service_root):
    journal = JobJournal(service_root / "jobs.jsonl")
    journal.record_submit("a-1", {"source": TINY_SHADER})
    journal.record_submit("b-2", {"source": TINY_SHADER, "seed": 3})
    journal.record_state("a-1", "running")
    journal.record_state("a-1", "done")
    journal.close()

    jobs = JobJournal(service_root / "jobs.jsonl").replay_jobs()
    assert list(jobs) == ["a-1", "b-2"]
    assert jobs["a-1"]["state"] == "done"
    assert jobs["b-2"]["state"] == "pending"


def test_journal_tolerates_truncated_tail(service_root):
    path = service_root / "jobs.jsonl"
    journal = JobJournal(path)
    journal.record_submit("a-1", {"source": TINY_SHADER})
    journal.record_state("a-1", "running")
    journal.record_submit("b-2", {"source": TINY_SHADER, "seed": 3})
    journal.close()

    # Tear the final line mid-record, as a killed daemon would.
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])

    jobs = JobJournal(path).replay_jobs()
    assert list(jobs) == ["a-1"]          # the torn submit is dropped whole
    assert jobs["a-1"]["state"] == "running"

    # Appending after a torn tail must not corrupt the next record.
    journal = JobJournal(path)
    journal.record_state("a-1", "done")
    journal.close()
    assert JobJournal(path).replay_jobs()["a-1"]["state"] == "done"


def test_journal_warns_on_interior_corruption(service_root, caplog):
    """A corrupt record mid-journal (real damage, not a torn tail) is
    skipped with a logged warning; the records around it still replay."""
    path = service_root / "jobs.jsonl"
    journal = JobJournal(path)
    journal.record_submit("a-1", {"source": TINY_SHADER})
    journal.record_state("a-1", "running")
    journal.record_state("a-1", "done")
    journal.close()

    lines = path.read_text().splitlines()
    lines[2] = "#### corrupted interior record ####"   # the 'running' line
    path.write_text("\n".join(lines) + "\n")

    with caplog.at_level("WARNING", logger="repro.service.journal"):
        jobs = JobJournal(path).replay_jobs()
    assert jobs["a-1"]["state"] == "done"              # neighbours survive
    assert any("corrupt record on line 3" in rec.getMessage()
               for rec in caplog.records)

    # A torn tail alone stays silent — that is the expected kill trace.
    torn = service_root / "torn-only.jsonl"
    fresh = JobJournal(torn)
    fresh.record_submit("b-1", {"source": TINY_SHADER})
    fresh.close()
    with open(torn, "a") as handle:
        handle.write('{"t": "state", "id": "b-1"')
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.service.journal"):
        jobs = JobJournal(torn).replay_jobs()
    assert jobs["b-1"]["state"] == "pending"
    assert not caplog.records


def test_journal_discards_version_skew(service_root, caplog):
    path = service_root / "jobs.jsonl"
    path.write_text('{"version": 999}\n'
                    '{"t": "submit", "id": "x", "spec": {}}\n')
    journal = JobJournal(path)
    with caplog.at_level("WARNING"):
        assert journal.replay_jobs() == {}
    # One warning names the file and both headers.
    [warning] = [rec.getMessage() for rec in caplog.records]
    assert str(path) in warning and '{"version": 999}' in warning
    assert '"kind": "repro-service-journal"' in warning
    journal.record_submit("fresh-1", {"source": TINY_SHADER})
    journal.close()
    assert list(JobJournal(path).replay_jobs()) == ["fresh-1"]


# ---------------------------------------------------------------------------
# End-to-end over the socket
# ---------------------------------------------------------------------------


def test_submit_tail_status_end_to_end(service):
    _, client = service
    spec = JobSpec(source=TINY_SHADER, platforms=("ARM", "Intel"))
    response = client.submit(spec)
    assert response["state"] == "pending"
    assert response["digest"] == spec.digest()

    events = list(client.follow(response["id"]))
    kinds = [event["type"] for event in events]
    assert kinds.count("case") == 1
    assert kinds[-1] == "state" and events[-1]["state"] == "done"
    assert set(events[0]["best_pct"]) == {"ARM", "Intel"}

    status = _wait_terminal(client, response["id"])
    assert status["state"] == "done"
    assert status["summary"]["shaders"] == 1
    assert status["summary"]["platforms"] == ["ARM", "Intel"]
    assert status["work"]["compiles"] > 0
    assert status["work"]["measures"] > 0
    # The study result landed on disk, loadable as a StudyResult.
    from repro.harness.results import StudyResult

    saved = StudyResult.from_json(Path(status["result_path"]).read_text())
    assert [s.name for s in saved.shaders] == [events[0]["name"]]
    # Per-job event stream mirrors what tail served.
    event_lines = (Path(status["result_path"]).parents[1] / "events"
                   / f"{response['id']}.jsonl").read_text().splitlines()
    assert len(event_lines) == len(events)


def test_a_terminal_tail_carries_the_final_event(service_root):
    """A follower stops at the first tail that reports a terminal state,
    so every such tail must already hold the job's final ``state`` event,
    also one served while the worker is still saving the journal and the
    cache."""
    svc = StudyService(service_root, workers=1)
    job_id = svc.handle({"op": "submit", "spec": JobSpec(
        source=TINY_SHADER, platforms=("ARM",)).to_dict()})["id"]
    job, _ = svc._job_or_error({"id": job_id})
    tails = []
    real_save = svc.cache.save

    def tail_then_save():
        tails.append(svc.handle({"op": "tail", "id": job_id}))
        real_save()

    svc.cache.save = tail_then_save
    svc._execute(job)
    tails.append(svc.handle({"op": "tail", "id": job_id}))
    svc.journal.close()
    assert tails[-1]["state"] == "done"
    for tail in tails:
        if tail["state"] in ("done", "failed", "cancelled"):
            assert tail["events"][-1]["type"] == "state", tail


def test_second_identical_submission_is_pure_cache_hits(service):
    """The tentpole guarantee: a second tenant's identical submission
    completes with zero compiles and zero measurements."""
    _, client = service
    spec = JobSpec(source=TINY_SHADER)

    first = client.submit(spec)
    cold = _wait_terminal(client, first["id"])
    assert cold["state"] == "done"
    assert cold["work"]["compiles"] > 0 and cold["work"]["measures"] > 0

    # A "second tenant": a fresh client connection, same spec content.
    second_client = ServiceClient(client.socket_path)
    second = second_client.submit(JobSpec(source=TINY_SHADER))
    assert second["digest"] == first["digest"]
    assert second["id"] != first["id"]
    warm = _wait_terminal(second_client, second["id"])
    assert warm["state"] == "done"
    assert warm["work"]["frontends"] == 0
    assert warm["work"]["compiles"] == 0
    assert warm["work"]["measures"] == 0
    assert warm["work"]["cache_hits"] > 0
    # Same answers, served warm.
    assert warm["summary"]["speedups"] == cold["summary"]["speedups"]


def test_search_strategy_job(service):
    _, client = service
    spec = JobSpec(source=TINY_SHADER, strategy="greedy", budget=9,
                   platforms=("ARM",))
    response = client.submit(spec)
    events = list(client.follow(response["id"]))
    platform_events = [e for e in events if e["type"] == "platform"]
    assert [e["platform"] for e in platform_events] == ["ARM"]
    status = _wait_terminal(client, response["id"])
    assert status["state"] == "done"
    assert status["summary"]["kind"] == "search"
    assert status["summary"]["search"][0]["evaluated"] <= 9


def test_dispatch_strategy_job_matches_unsharded_study(service):
    """A dispatch job through the daemon: shards fan out on the warm-cache
    thread transport, merge, and byte-match the unsharded study."""
    from repro.harness.results import StudyResult
    from repro.harness.study import StudyConfig, run_study

    _, client = service
    spec = JobSpec(corpus=CorpusSpec(max_shaders=3), strategy="dispatch",
                   shards=2)
    response = client.submit(spec)
    events = list(client.follow(response["id"]))
    assert any(e.get("type") == "shard" for e in events)
    status = _wait_terminal(client, response["id"])
    assert status["state"] == "done"
    assert status["summary"]["kind"] == "dispatch"
    assert status["summary"]["shards"] == 2
    assert status["summary"]["retries"] == 0
    merged = StudyResult.from_json(Path(status["result_path"]).read_text())
    baseline = run_study(CorpusSpec(max_shaders=3).build(), StudyConfig())
    assert merged.to_json() == baseline.to_json()


def test_cancel_pending_job_never_runs(service_root):
    svc = StudyService(service_root, workers=1)
    # No start(): nothing is draining the queue, so the job stays pending.
    response = svc.handle({"op": "submit",
                           "spec": JobSpec(source=TINY_SHADER).to_dict()})
    cancelled = svc.handle({"op": "cancel", "id": response["id"]})
    assert cancelled == {"ok": True, "id": response["id"],
                         "state": "cancelled"}
    status = svc.handle({"op": "status", "id": response["id"]})
    assert status["job"]["state"] == "cancelled"
    assert status["job"]["work"] == {}
    svc.journal.close()


def test_cancel_running_job_lands_cancelled(service):
    _, client = service
    # Enough cases that the job is still running when the cancel lands.
    spec = JobSpec(corpus=CorpusSpec(max_shaders=6, synth_count=3))
    response = client.submit(spec)
    # Wait for the first sign of execution, then cancel.
    deadline = time.monotonic() + 60
    while client.status(response["id"])["job"]["state"] == "pending":
        assert time.monotonic() < deadline
        time.sleep(0.02)
    client.cancel(response["id"])
    status = _wait_terminal(client, response["id"])
    assert status["state"] == "cancelled"
    assert "cancelled" in status["error"]


def test_timeout_fails_job_without_wedging_worker(service):
    _, client = service
    doomed = client.submit(JobSpec(corpus=CorpusSpec(max_shaders=3),
                                   timeout=1e-4))
    status = _wait_terminal(client, doomed["id"])
    assert status["state"] == "failed"
    assert "timeout" in status["error"]
    # The worker survived: the next job on the same worker completes.
    healthy = client.submit(JobSpec(source=TINY_SHADER))
    assert _wait_terminal(client, healthy["id"])["state"] == "done"


def test_protocol_rejects_garbage_and_unknown_ops(service):
    svc, client = service
    import socket as socket_mod

    with socket_mod.socket(socket_mod.AF_UNIX,
                           socket_mod.SOCK_STREAM) as sock:
        sock.connect(str(svc.socket_path))
        sock.sendall(b"this is not json\n")
        response = json.loads(sock.recv(65536).decode())
    assert response["ok"] is False and "malformed" in response["error"]

    assert "unknown op" in svc.handle({"op": "frobnicate"})["error"]
    assert "invalid job spec" in svc.handle(
        {"op": "submit", "spec": {"strategy": "study"}})["error"]
    assert "unknown job" in svc.handle(
        {"op": "status", "id": "nope"})["error"]


def test_submit_rejects_negative_corpus_counts(service):
    """``CorpusSpec`` validates its counts, so a bad one is refused at
    submit time rather than failing the job when it builds its corpus."""
    svc, _ = service
    for corpus, field in (({"max_shaders": -1}, "max_shaders"),
                          ({"synth_count": -2}, "synth_count")):
        error = svc.handle({"op": "submit",
                            "spec": {"corpus": corpus}})["error"]
        assert error.startswith("invalid job spec: "), error
        assert f"{field} must be >= 0" in error, error


# ---------------------------------------------------------------------------
# Restart recovery
# ---------------------------------------------------------------------------


def test_killed_daemon_resumes_pending_queue(service_root):
    # Daemon 1 accepts two submissions but is "killed" before its workers
    # ever run them (no start()), with a torn final journal line.
    first = StudyService(service_root, workers=1)
    submitted = [
        first.handle({"op": "submit",
                      "spec": JobSpec(source=TINY_SHADER).to_dict()}),
        first.handle({"op": "submit",
                      "spec": JobSpec(source=TINY_SHADER,
                                      seed=3).to_dict()}),
    ]
    first.journal.close()
    journal_path = service_root / "jobs.jsonl"
    journal_path.write_bytes(journal_path.read_bytes()[:-5])

    # Daemon 2 recovers the intact prefix of the queue and executes it.
    second = StudyService(service_root, workers=1)
    second.start()
    try:
        assert second.recovered_jobs == 1      # the torn submit is lost
        client = ServiceClient(second.socket_path)
        client.wait_ready()
        status = _wait_terminal(client, submitted[0]["id"])
        assert status["state"] == "done"
        with pytest.raises(Exception):
            client.status(submitted[1]["id"])  # torn away entirely
    finally:
        second.stop()


def test_restart_after_completion_requeues_nothing(service_root):
    svc = StudyService(service_root, workers=1)
    svc.start()
    client = ServiceClient(svc.socket_path)
    client.wait_ready()
    done = client.submit(JobSpec(source=TINY_SHADER))
    assert _wait_terminal(client, done["id"])["state"] == "done"
    svc.stop()

    again = StudyService(service_root, workers=1)
    again.start()
    try:
        assert again.recovered_jobs == 0
        client = ServiceClient(again.socket_path)
        client.wait_ready()
        # The finished job is still visible (state only) after restart.
        assert client.status(done["id"])["job"]["state"] == "done"
        # And a resubmission of its spec is pure cache: the cache store
        # was journalled too (cache.jsonl), so warmth survives restarts.
        warm = client.submit(JobSpec(source=TINY_SHADER))
        status = _wait_terminal(client, warm["id"])
        assert status["state"] == "done"
        assert status["work"]["compiles"] == 0
        assert status["work"]["measures"] == 0
    finally:
        again.stop()


# ---------------------------------------------------------------------------
# Shutdown
# ---------------------------------------------------------------------------


def test_graceful_stop_requeues_running_jobs(service_root):
    """SIGTERM-style drain: stop() flushes state and journals an in-flight
    job back to pending, so a restarted daemon picks it straight up."""
    svc = StudyService(service_root, workers=1)
    svc.start()
    client = ServiceClient(svc.socket_path)
    client.wait_ready()
    # Enough cases that the job is still running when the stop lands.
    response = client.submit(
        JobSpec(corpus=CorpusSpec(max_shaders=6, synth_count=3)))
    deadline = time.monotonic() + 60
    while client.status(response["id"])["job"]["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.02)
    svc.stop()                               # requeue_running defaults True

    jobs = JobJournal(service_root / "jobs.jsonl").replay_jobs()
    assert jobs[response["id"]]["state"] == "pending"
    assert jobs[response["id"]]["error"] is None

    second = StudyService(service_root, workers=1)
    second.start()
    try:
        assert second.recovered_jobs == 1
        client = ServiceClient(second.socket_path)
        client.wait_ready()
        assert _wait_terminal(client, response["id"])["state"] == "done"
    finally:
        second.stop()


def test_client_shutdown_stops_the_wait_loop(service_root):
    svc = StudyService(service_root, workers=1)
    svc.start()
    client = ServiceClient(svc.socket_path)
    client.wait_ready()
    response = client.shutdown()
    assert response["stopping"] is True
    deadline = time.monotonic() + 5
    while not svc._shutdown.is_set():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    svc.stop()
    assert not svc.socket_path.exists()
