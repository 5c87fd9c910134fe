"""Sharded studies, the merge path, and the streaming result cache."""

import json
import multiprocessing
import os
import sys

import pytest

from helpers import assert_engine_keeps_no_store
from repro.cli import main
from repro.corpus import default_corpus
from repro.gpu.vendors import INTEL, NVIDIA
from repro.harness.results import (
    ShardInfo, StudyResult, merge_study_results,
)
from repro.harness.study import (
    ShardSpec, StudyConfig, _measure_batch, run_study,
)
from repro.search.cache import (
    CACHE_VERSION, ResultCache, SourceRecord, source_digest,
)


def _corpus():
    return default_corpus(families=["sprite", "fog", "flat"],
                          synth_seed=3, synth_count=2)


# ---------------------------------------------------------------------------
# ShardSpec
# ---------------------------------------------------------------------------


def test_shard_spec_parse_and_select():
    spec = ShardSpec.parse("2/3")
    assert (spec.index, spec.count) == (2, 3)
    assert spec.select(8) == [1, 4, 7]
    assert str(spec) == "2/3"
    covered = sorted(i for n in (1, 2, 3)
                     for i in ShardSpec(n, 3).select(10))
    assert covered == list(range(10))


@pytest.mark.parametrize("bad", ["", "3", "0/3", "4/3", "a/b", "1/0", "1/-2"])
def test_shard_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        ShardSpec.parse(bad)


def test_shard_spec_range_errors_are_precise():
    """Well-formed but out-of-range specs get the range message, not the
    format one."""
    with pytest.raises(ValueError, match="shard index must be in 1..3"):
        ShardSpec.parse("0/3")
    with pytest.raises(ValueError, match="must look like 'I/N'"):
        ShardSpec.parse("one/3")


# ---------------------------------------------------------------------------
# Shard determinism: the acceptance criterion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def whole_study():
    return run_study(_corpus(), StudyConfig(platforms=[INTEL, NVIDIA], seed=9))


def test_three_shard_merge_is_byte_identical(whole_study):
    parts = []
    for i in (1, 2, 3):
        part = run_study(_corpus(), StudyConfig(
            platforms=[INTEL, NVIDIA], seed=9, shard=ShardSpec(i, 3)))
        assert part.shard is not None
        # Round-trip through JSON, exactly as the CLI hands shards around.
        parts.append(StudyResult.from_json(part.to_json()))
    merged = merge_study_results(parts)
    assert merged.to_json() == whole_study.to_json()


def test_shard_json_roundtrips_shard_info(whole_study):
    part = run_study(_corpus(), StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(2, 3)))
    back = StudyResult.from_json(part.to_json())
    assert back.shard == part.shard
    assert back.shard.case_indices == ShardSpec(2, 3).select(len(_corpus()))
    # Unsharded results must serialize without a shard key at all.
    assert "shard" not in json.loads(whole_study.to_json())


def test_merge_rejects_incomplete_and_mismatched_shards(whole_study):
    p1 = run_study(_corpus(), StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(1, 3)))
    p2 = run_study(_corpus(), StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(2, 3)))
    with pytest.raises(ValueError, match="all 3 shards"):
        merge_study_results([p1, p2])
    with pytest.raises(ValueError, match="duplicate shard"):
        merge_study_results([p1, p1])
    with pytest.raises(ValueError, match="no shard metadata"):
        merge_study_results([whole_study])
    p2_other_seed = run_study(_corpus(), StudyConfig(
        platforms=[INTEL], seed=10, shard=ShardSpec(2, 3)))
    with pytest.raises(ValueError, match="seeds differ"):
        merge_study_results([p1, p2_other_seed])
    with pytest.raises(ValueError):
        merge_study_results([])


def test_partial_merge_relaxes_only_the_coverage_check():
    """require_complete=False is the dispatcher's graceful-degradation
    path: available shards merge, everything else still validates."""
    p1 = run_study(_corpus(), StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(1, 3)))
    p3 = run_study(_corpus(), StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(3, 3)))
    partial = merge_study_results([p1, p3], require_complete=False)
    assert len(partial.shaders) == len(p1.shaders) + len(p3.shaders)
    # Global-index order is preserved across the gap.
    full = run_study(_corpus(), StudyConfig(platforms=[INTEL], seed=9))
    covered = sorted(ShardSpec(1, 3).select(len(_corpus()))
                     + ShardSpec(3, 3).select(len(_corpus())))
    expected = [full.shaders[i] for i in covered]
    assert [s.name for s in partial.shaders] == [s.name for s in expected]
    # Duplicates are still rejected even in partial mode.
    with pytest.raises(ValueError, match="duplicate shard"):
        merge_study_results([p1, p1], require_complete=False)


def test_merge_rejects_shards_from_different_corpora():
    """Two shards over different --synth-seed corpora share names and
    indices but not content; the corpus digest must catch it."""
    picked = ["flat", "synth_00000", "synth_00001"]
    corpus_a = default_corpus(families=picked, synth_seed=1, synth_count=2)
    corpus_b = default_corpus(families=picked, synth_seed=99, synth_count=2)
    p1 = run_study(corpus_a, StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(1, 2)))
    p2 = run_study(corpus_b, StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(2, 2)))
    with pytest.raises(ValueError, match="different corpora"):
        merge_study_results([p1, p2])


def test_shard_info_validate():
    with pytest.raises(ValueError):
        ShardInfo(index=4, count=3, case_indices=[]).validate(0)
    with pytest.raises(ValueError):
        ShardInfo(index=1, count=3, case_indices=[0, 3]).validate(5)


# ---------------------------------------------------------------------------
# Cache log (every --cache path, whatever its suffix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suffix", [".json", ".jsonl"])
def test_put_reaches_disk_before_save(tmp_path, suffix):
    """A killed run keeps every entry it had put, whatever the suffix."""
    path = tmp_path / f"cache{suffix}"
    ResultCache(path).put("k1", {"mean_ns": 1.0})
    assert ResultCache(path).get("k1") == {"mean_ns": 1.0}


@pytest.mark.parametrize("name, old_layout", [
    ("cache.json", '{"version": 1, "entries": {"k1": {"mean_ns": 1.0}}}'),
    ("cache.jsonl", '{"version": 1}\n{"k": "k1", "v": {"mean_ns": 1.0}}\n'),
], ids=["blob", "v1-log"])
def test_old_layout_store_is_ignored_then_rewritten(tmp_path, caplog, name,
                                                    old_layout):
    """A store in an old layout serves no hits (one warning names the file
    and both headers), and the next put rewrites it under the new header."""
    path = tmp_path / name
    path.write_text(old_layout)
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert len(cache) == 0
    assert cache.get("k1") is None
    assert cache.hits == 0
    header = json.dumps({"version": CACHE_VERSION})
    [warning] = [rec.getMessage() for rec in caplog.records]
    assert str(path) in warning
    assert old_layout.partition("\n")[0][:40] in warning
    assert header in warning
    assert "ignored" in warning

    cache.put("k2", {"mean_ns": 2.0})
    assert path.read_text().splitlines() == [
        header, json.dumps(["k2", {"mean_ns": 2.0}])]


def test_cache_skips_malformed_records_with_a_warning(tmp_path, caplog):
    """Under the current header, each record that is not a [key, value]
    pair is skipped with a warning; the pairs around them still load."""
    path = tmp_path / "cache.json"
    path.write_text("\n".join([
        json.dumps({"version": CACHE_VERSION}),
        json.dumps(["k1", {"mean_ns": 1.0}]),
        "42",
        json.dumps({"k": "k2"}),
        json.dumps(["k3", {"mean_ns": 3.0}, "extra"]),
        json.dumps(["k4", {"mean_ns": 4.0}]),
    ]) + "\n")
    with caplog.at_level("WARNING"):
        cache = ResultCache(path)
    assert cache.get("k1") == {"mean_ns": 1.0}
    assert cache.get("k4") == {"mean_ns": 4.0}
    assert len(cache) == 2
    messages = [rec.getMessage() for rec in caplog.records]
    assert len(messages) == 3
    assert all("malformed cache record" in m for m in messages)



def test_jsonl_cache_appends_incrementally(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put("k1", {"mean_ns": 1.0})
    cache.save()
    first = path.read_text().splitlines()
    assert json.loads(first[0])["version"] >= 1
    assert len(first) == 2          # header + one record, already on disk
    cache.put("k2", {"mean_ns": 2.0})
    cache.save()
    assert len(path.read_text().splitlines()) == 3
    reloaded = ResultCache(path)
    assert reloaded.get("k1") == {"mean_ns": 1.0}
    assert reloaded.get("k2") == {"mean_ns": 2.0}


def test_jsonl_cache_tolerates_torn_tail(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put("k1", {"mean_ns": 1.0})
    cache.save()
    with open(path, "a") as handle:
        handle.write('{"k": "k2", "v": {"mean_ns"')     # killed mid-write
    reloaded = ResultCache(path)
    assert reloaded.get("k1") == {"mean_ns": 1.0}
    assert reloaded.get("k2") is None


def test_jsonl_cache_appends_safely_after_torn_tail(tmp_path):
    """A resumed writer must not glue its first record onto the torn
    fragment — that would silently lose the new record on every reload."""
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put("k1", {"mean_ns": 1.0})
    cache.save()
    with open(path, "a") as handle:
        handle.write('{"k": "k2", "v": {"mean_ns"')     # killed mid-write
    resumed = ResultCache(path)
    resumed.put("k3", {"mean_ns": 3.0})
    resumed.save()
    reloaded = ResultCache(path)
    assert reloaded.get("k1") == {"mean_ns": 1.0}
    assert reloaded.get("k3") == {"mean_ns": 3.0}


def test_jsonl_cache_discards_wrong_version(tmp_path, caplog):
    """A store of another layout (a foreign version, or version 2, which
    kept static cycle counts apart) replays nothing, with one warning
    naming both headers, and the next append rewrites it in this one."""
    stores = {
        "future.jsonl": ('{"version": 999}\n'
                         '{"k": "k1", "v": {"mean_ns": 1.0}}\n'),
        "v2.jsonl": ('{"version": 2}\n'
                     '["static_cycles:k1", {"cycles": 7.5}]\n'),
    }
    for name, text in stores.items():
        path = tmp_path / name
        path.write_text(text)
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.jsonlog"):
            cache = ResultCache(path)
        assert len(cache) == 0
        [warning] = [record.getMessage() for record in caplog.records]
        assert text.split("\n")[0] in warning
        assert '{"version": 3}' in warning
        cache.put("k2", {"mean_ns": 2.0})
        cache.save()
        lines = path.read_text().splitlines()
        assert lines == ['{"version": 3}', '["k2", {"mean_ns": 2.0}]']
        assert ResultCache(path).get("k1") is None


def test_jsonl_cache_persists_variant_sets(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    record = SourceRecord({0: "a", 1: "a", 2: "b"}, 7.5, 3)
    cache.put_variants("digest", record)
    cache.release_variants("digest")                    # evicted from memory…
    assert cache.get_variants("digest") is None
    assert len(cache) == 0
    reloaded = ResultCache(path)                        # …but on disk
    assert reloaded.get_variants("digest") == record


@pytest.mark.parametrize("field", ["cycles", "loc"])
def test_a_source_record_missing_a_field_is_a_miss(tmp_path, field):
    """A record without a valid count or LOC is compiled again, never
    read with a field missing."""
    path = tmp_path / "cache.jsonl"
    ResultCache(path).put_variants(
        "digest", SourceRecord({0: "a", 1: "b"}, 7.5, 3))
    header, line = path.read_text().splitlines()
    key, value = json.loads(line)
    del value[field]
    path.write_text(f"{header}\n{json.dumps([key, value])}\n")
    assert ResultCache(path).get_variants("digest") is None
    value[field] = "many"
    path.write_text(f"{header}\n{json.dumps([key, value])}\n")
    assert ResultCache(path).get_variants("digest") is None


def test_cache_merge_from_unions_and_detects_conflicts(tmp_path):
    a = ResultCache(tmp_path / "a.jsonl")
    a.put("k1", {"mean_ns": 1.0})
    a.save()
    b = ResultCache(tmp_path / "b.json")
    b.put("k1", {"mean_ns": 1.0})
    b.put("k2", {"mean_ns": 2.0})
    b.save()
    merged = ResultCache(tmp_path / "m.json")
    assert merged.merge_from(tmp_path / "a.jsonl") == 1
    assert merged.merge_from(tmp_path / "b.json") == 1  # k1 already present
    assert len(merged) == 2
    conflicting = ResultCache()
    conflicting.put("k1", {"mean_ns": 999.0})
    with pytest.raises(ValueError, match="conflict"):
        merged.merge_from(conflicting)


def test_cache_merge_conflict_names_key_and_both_digests(tmp_path):
    """The conflict error must carry enough to debug the damaged store:
    the offending key and a content digest of each side's value."""
    import hashlib

    mine = ResultCache()
    mine.put("k-damaged", {"mean_ns": 1.0})
    theirs = ResultCache()
    theirs.put("k-damaged", {"mean_ns": 2.0})

    def digest(value):
        blob = json.dumps(value, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    with pytest.raises(ValueError) as excinfo:
        mine.merge_from(theirs)
    message = str(excinfo.value)
    assert "'k-damaged'" in message
    assert digest({"mean_ns": 1.0}) in message
    assert digest({"mean_ns": 2.0}) in message


def test_jsonl_cache_warns_on_interior_corruption(tmp_path, caplog):
    """A corrupt record *mid-file* (real damage, not a torn tail) is
    skipped with a logged warning; everything around it still loads."""
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    cache.put("k1", {"mean_ns": 1.0})
    cache.put("k2", {"mean_ns": 2.0})
    cache.save()
    lines = path.read_text().splitlines()
    lines[2] = "#### corrupted interior record ####"         # damage k2
    path.write_text("\n".join(lines) + "\n")

    with caplog.at_level("WARNING", logger="repro.search.cache"):
        reloaded = ResultCache(path)
    assert reloaded.get("k1") == {"mean_ns": 1.0}
    assert reloaded.get("k2") is None
    assert any("corrupt record on line 3" in rec.getMessage()
               for rec in caplog.records)

    # The torn *tail* path stays silent — it is expected, not damage.
    clean = tmp_path / "torn-only.jsonl"
    torn_cache = ResultCache(clean)
    torn_cache.put("k1", {"mean_ns": 1.0})
    torn_cache.save()
    with open(clean, "a") as handle:
        handle.write('{"k": "k3", "v": {"mean')
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.search.cache"):
        ResultCache(clean)
    assert not caplog.records


# ---------------------------------------------------------------------------
# Streaming study: checkpoints, memo release, warm replay
# ---------------------------------------------------------------------------


def test_streaming_study_checkpoints_and_replays(tmp_path):
    path = tmp_path / "stream.jsonl"
    corpus = _corpus()
    from repro.search.engine import EvaluationEngine
    engine = EvaluationEngine(platforms=[INTEL], seed=9, cache=ResultCache(path))
    cold = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9,
                                         checkpoint_every=2),
                     engine=engine)
    # Per-case release leaves no compiled variant set in the cache's memory
    # (its log holds them), and the engine keeps no copy of its own.
    assert not any(engine.cache.has_variants(source_digest(case.source))
                   for case in corpus)
    assert_engine_keeps_no_store(engine)
    assert engine.compile_count == 256 * len(corpus)

    warm_engine = EvaluationEngine(platforms=[INTEL], seed=9,
                                   cache=ResultCache(path))
    warm = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9),
                     engine=warm_engine)
    assert warm.to_json() == cold.to_json()
    assert warm_engine.compile_count == 0
    assert warm_engine.measure_count == 0


def test_memory_only_streaming_study_releases_variants():
    """Without a cache file, streaming still drops each finished case's
    variant set: memory holds one case, and the result is unchanged."""
    from repro.search.engine import EvaluationEngine
    corpus = _corpus()[:3]
    engine = EvaluationEngine(platforms=[INTEL], seed=9, cache=ResultCache())
    streamed = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9,
                                             checkpoint_every=1),
                         engine=engine)
    assert not any(engine.cache.has_variants(source_digest(case.source))
                   for case in corpus)
    # Nothing but measurements is left in memory.
    assert len(engine.cache) == engine.measure_count
    plain = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9))
    assert streamed.to_json() == plain.to_json()


def test_parallel_streaming_bounds_the_variant_sets_in_memory(tmp_path):
    """Parallel + checkpoint_every keeps at most checkpoint_every x
    max_workers cases compiled but not yet assembled, and never more
    variant sets than that in the cache's memory; the result equals the
    serial run's, and every set is released at the end."""
    import repro.harness.study as study_mod
    from repro.search.engine import EvaluationEngine
    from repro.search.scheduler import Scheduler

    corpus = _corpus()
    digests = [source_digest(case.source) for case in corpus]
    serial = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9))

    window = 1 * 2                          # checkpoint_every x workers
    assembled, in_flight, held = [], [], []

    class Cache(ResultCache):
        def put_variants(self, digest, record):
            super().put_variants(digest, record)
            held.append(sum(map(self.has_variants, digests)))

    class CountingScheduler(Scheduler):
        def map(self, fn, items):
            items = list(items)
            if fn is study_mod._compile_case_variants:
                in_flight.append(len(in_flight) + 1 - len(assembled))
            return super().map(fn, items)

    engine = EvaluationEngine(platforms=[INTEL], seed=9,
                              cache=Cache(tmp_path / "s.jsonl"))
    parallel = run_study(corpus, StudyConfig(
        platforms=[INTEL], seed=9, max_workers=2, checkpoint_every=1,
        progress=lambda position, *_: assembled.append(position)),
        engine=engine, scheduler=CountingScheduler(2))
    assert parallel.to_json() == serial.to_json()
    assert len(in_flight) == len(corpus)    # one compile per source
    assert max(in_flight) == window
    assert held and max(held) <= window
    # Released from the cache's memory as cases finish: nothing but
    # measurements is left.
    assert not any(map(engine.cache.has_variants, digests))
    assert len(engine.cache) == engine.measure_count


@pytest.mark.parametrize("workers", [1, 2])
def test_streaming_keeps_a_recurring_source_until_its_last_case(tmp_path,
                                                                workers):
    """A source's record leaves the cache's memory after the last case
    that reads it, so the engine counts one compile of a source that
    recurs and logs its record once, streaming or not, serially or on a
    pool."""
    from repro.harness.results import ShaderCase
    from repro.search.engine import EvaluationEngine

    corpus = _corpus()[:2]
    corpus.append(ShaderCase(name="again", family=corpus[0].family,
                             source=corpus[0].source))
    digests = {source_digest(case.source) for case in corpus}
    results, logs = [], []
    for every in (0, 1):
        path = tmp_path / f"every{every}.jsonl"
        engine = EvaluationEngine(platforms=[INTEL], seed=9,
                                  cache=ResultCache(path))
        results.append(run_study(corpus, StudyConfig(
            platforms=[INTEL], seed=9, max_workers=workers,
            checkpoint_every=every), engine=engine).to_json())
        assert engine.compile_count == 2 * 256
        assert any(map(engine.cache.has_variants, digests)) == (every == 0)
        logs.append(path.read_bytes())
    assert results[0] == results[1]
    assert logs[0] == logs[1]
    keys = [json.loads(line)[0] for line in logs[1].splitlines()[1:]]
    assert sum(key.startswith("variants:") for key in keys) == 2


# ---------------------------------------------------------------------------
# The parallel study's one pool
# ---------------------------------------------------------------------------

#: Set by the tests below before a pool forks, so workers inherit them.
_TEST_PID = None
_PID_LOG = None


def _logging(function):
    """*function*, logging the pid of every process that calls it."""
    def logged(source):
        with open(_PID_LOG, "a") as log:
            log.write(f"{os.getpid()}\n")
        return function(source)
    return logged


def _dying_measure_batch(batch):
    """A worker dies measuring the third case's original text."""
    if os.getpid() != _TEST_PID and batch.text == _corpus()[2].source:
        os._exit(3)
    return _measure_batch(batch)


def test_a_parallel_study_runs_on_one_pool(monkeypatch):
    import repro.search.scheduler as scheduler_mod

    pools = []

    class CountingPool(scheduler_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scheduler_mod, "ProcessPoolExecutor", CountingPool)
    corpus = _corpus()
    parallel = run_study(corpus, StudyConfig(
        platforms=[INTEL], seed=9, max_workers=2, checkpoint_every=2))
    assert len(pools) == 1
    assert parallel.to_json() == run_study(
        corpus, StudyConfig(platforms=[INTEL], seed=9)).to_json()
    assert not multiprocessing.active_children()


def test_a_cold_parallel_study_counts_static_cycles_in_the_workers(
        tmp_path, monkeypatch):
    """A source's record (its static cycle count and lines of code
    included) compiles in a pool worker, never here: cold, and again when
    the stored record lacks its count or its lines of code."""
    import repro.search.engine as engine_mod
    from repro.search.engine import EvaluationEngine

    pid_log = tmp_path / "pids"
    monkeypatch.setattr(sys.modules[__name__], "_PID_LOG", str(pid_log))
    for name in ("arm_static_cycles", "lines_of_code"):
        monkeypatch.setattr(engine_mod, name,
                            _logging(getattr(engine_mod, name)))
    corpus = _corpus()
    store = tmp_path / "c.jsonl"
    config = StudyConfig(platforms=[INTEL], seed=9, max_workers=2,
                         cache_path=str(store))
    parallel = run_study(corpus, config)
    pids = pid_log.read_text().split()
    assert len(pids) == 2 * len(corpus)
    assert str(os.getpid()) not in pids

    header, *lines = store.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    damaged = [record for record in records
               if record[0].startswith("variants:")][:2]
    del damaged[0][1]["cycles"]
    del damaged[1][1]["loc"]
    store.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")
    pid_log.unlink()
    engine = EvaluationEngine(platforms=[INTEL], seed=9,
                              cache=ResultCache(store))
    again = run_study(corpus, config, engine=engine)
    pids = pid_log.read_text().split()
    assert len(pids) == 2 * 2 and str(os.getpid()) not in pids
    assert engine.compile_count == 2 * 256
    assert engine.measure_count == 0
    monkeypatch.undo()
    serial = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9))
    assert parallel.to_json() == again.to_json() == serial.to_json()


def test_parallel_studies_write_the_serial_cache_log(tmp_path):
    """Cases store their results in case order whatever order the pool
    returns them in: every run writes the same log bytes, streaming or
    not.  A source's compiled facts are its one ``variants:`` record;
    every other entry is a measurement."""
    corpus = _corpus()
    logs = []
    for name, workers, every in (("a", 2, 0), ("b", 2, 1), ("serial", 1, 0)):
        path = tmp_path / f"{name}.jsonl"
        run_study(corpus, StudyConfig(platforms=[INTEL], seed=9,
                                      max_workers=workers,
                                      checkpoint_every=every,
                                      cache_path=str(path)))
        logs.append(path.read_bytes())
    assert logs[0] == logs[1] == logs[2]
    keys = [json.loads(line)[0] for line in logs[2].splitlines()[1:]]
    assert [key for key in keys if key.startswith("variants:")] == [
        f"variants:{source_digest(case.source)}" for case in corpus]
    assert all(key.startswith("variants:") or key.split(":")[1] == "-1"
               for key in keys)


def test_a_parallel_study_submits_only_missing_work(tmp_path):
    """A repeated source compiles once while its compile runs, and a warm
    cache leaves nothing to submit."""
    import repro.harness.study as study_mod
    from repro.harness.results import ShaderCase
    from repro.search.engine import EvaluationEngine
    from repro.search.scheduler import Scheduler

    maps = []

    class CountingScheduler(Scheduler):
        def map(self, fn, items):
            maps.append(fn)
            return super().map(fn, items)

    corpus = _corpus()[:3]
    corpus.append(ShaderCase(name="again", family=corpus[0].family,
                             source=corpus[0].source))
    serial = run_study(corpus, StudyConfig(platforms=[INTEL], seed=9))
    runs, compiles = [], []
    for _ in range(2):
        maps.clear()
        engine = EvaluationEngine(platforms=[INTEL], seed=9,
                                  cache=ResultCache(tmp_path / "c.jsonl"))
        runs.append(run_study(corpus, StudyConfig(
            platforms=[INTEL], seed=9, max_workers=2), engine=engine,
            scheduler=CountingScheduler(2)).to_json())
        compiles.append(maps.count(study_mod._compile_case_variants))
    assert runs == [serial.to_json()] * 2
    assert compiles == [3, 0]
    assert maps == []                       # the warm run
    assert engine.compile_count == engine.measure_count == 0


def test_a_pool_task_does_the_same_work_whatever_ran_before():
    """A persistent worker's earlier tasks leave it nothing to reuse, so
    the pool's work counts repeat whichever worker runs which task."""
    from repro.gpu.jit import jit_pipeline_steps
    from repro.harness.study import _compile_case_variants
    from repro.search.scheduler import MeasureBatch

    source = _corpus()[0].source
    batch = MeasureBatch(text=source, seed=1, platforms=("Intel", "NVIDIA"))

    def steps(task, item):
        before = jit_pipeline_steps()
        task(item)
        return jit_pipeline_steps() - before

    alone = steps(_measure_batch, batch)
    again = steps(_measure_batch, batch)
    steps(_compile_case_variants, source)
    assert alone == again == steps(_measure_batch, batch) > 0


def test_a_dead_pool_worker_leaves_the_serial_result(monkeypatch, capsys):
    import repro.harness.study as study_mod
    from repro.search.engine import EvaluationEngine

    monkeypatch.setattr(sys.modules[__name__], "_TEST_PID", os.getpid())
    monkeypatch.setattr(study_mod, "_measure_batch", _dying_measure_batch)
    corpus = _corpus()
    engine = EvaluationEngine(platforms=[INTEL, NVIDIA], seed=9)
    parallel = run_study(corpus, StudyConfig(platforms=[INTEL, NVIDIA],
                                             seed=9, max_workers=2,
                                             verbose=True),
                         engine=engine)
    assert "a pool worker died" in capsys.readouterr().out
    assert not multiprocessing.active_children()
    monkeypatch.undo()
    serial = run_study(corpus, StudyConfig(platforms=[INTEL, NVIDIA], seed=9))
    assert parallel.to_json() == serial.to_json()
    # The cases the pool left unfinished ran here, on the same engine.
    assert engine.measure_count == sum(
        (1 + len(shader.variants)) * 2 for shader in serial.shaders)


def test_sharded_streaming_caches_merge_warm(tmp_path):
    """Shard caches merged into one store replay the whole study for free."""
    corpus = _corpus()
    from repro.search.engine import EvaluationEngine
    for i in (1, 2, 3):
        run_study(corpus, StudyConfig(
            platforms=[INTEL], seed=9, shard=ShardSpec(i, 3),
            cache_path=str(tmp_path / f"s{i}.jsonl"), checkpoint_every=1))
    merged = ResultCache(tmp_path / "merged.json")
    for i in (1, 2, 3):
        merged.merge_from(tmp_path / f"s{i}.jsonl")
    merged.save()
    engine = EvaluationEngine(platforms=[INTEL], seed=9,
                              cache=ResultCache(tmp_path / "merged.json"))
    run_study(corpus, StudyConfig(platforms=[INTEL], seed=9), engine=engine)
    assert engine.compile_count == 0
    assert engine.measure_count == 0


def test_merge_results_refuses_a_cache_of_another_layout(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    """A --caches file with another header (a store written before the
    current layout) fails before anything is written, instead of merging
    as empty."""
    monkeypatch.chdir(tmp_path)
    part = run_study(_corpus()[:1], StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(1, 1)))
    (tmp_path / "s1.json").write_text(part.to_json())
    ResultCache("good.jsonl").put("k1", {"mean_ns": 1.0})
    (tmp_path / "old.jsonl").write_text(
        '{"version": 2}\n["static_cycles:digest", {"cycles": 7.5}]\n')
    with pytest.raises(SystemExit) as exited:
        main(["merge-results", "s1.json", "--output", "merged.json",
              "--caches", "good.jsonl", "old.jsonl",
              "--cache-out", "merged-cache.json"])
    assert exited.value.code == 2
    error = capsys.readouterr().err
    assert "'old.jsonl'" in error
    assert '{"version": 2}' in error and '{"version": 3}' in error
    assert not (tmp_path / "merged.json").exists()
    assert not (tmp_path / "merged-cache.json").exists()


def test_merge_from_refuses_a_store_of_another_layout(tmp_path):
    """ResultCache.merge_from raises, naming the file and both headers,
    instead of merging a store of another layout as empty."""
    old = tmp_path / "old.jsonl"
    old.write_text(
        '{"version": 2}\n["static_cycles:digest", {"cycles": 7.5}]\n')
    merged = ResultCache(tmp_path / "merged.jsonl")
    with pytest.raises(ValueError) as excinfo:
        merged.merge_from(old)
    message = str(excinfo.value)
    assert repr(str(old)) in message
    assert '{"version": 2}' in message
    assert f'{{"version": {CACHE_VERSION}}}' in message
    assert len(merged) == 0
    assert not (tmp_path / "merged.jsonl").exists()


@pytest.mark.parametrize("bad_cache", ["typo.jsonl", "a-directory"])
def test_merge_results_rejects_an_unreadable_cache(tmp_path, monkeypatch,
                                                   bad_cache):
    """A --caches path that cannot be read fails before anything is
    written, as an unreadable shard does, instead of merging as empty."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    part = run_study(_corpus()[:1], StudyConfig(
        platforms=[INTEL], seed=9, shard=ShardSpec(1, 1)))
    (tmp_path / "s1.json").write_text(part.to_json())
    ResultCache("good.jsonl").put("k1", {"mean_ns": 1.0})
    with pytest.raises(SystemExit,
                       match=f"error: cannot read cache '{bad_cache}'"):
        main(["merge-results", "s1.json", "--output", "merged.json",
              "--caches", "good.jsonl", bad_cache,
              "--cache-out", "merged-cache.json"])
    assert not (tmp_path / "merged.json").exists()
    assert not (tmp_path / "merged-cache.json").exists()
