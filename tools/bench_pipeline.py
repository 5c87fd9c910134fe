#!/usr/bin/env python3
"""Record the variant-compilation perf trajectory into BENCH_pipeline.json.

Times the 256-combination variant explosion on the motivating shader (and a
corpus aggregate) through the compilation trie and through a naive baseline
that runs the full pass pipeline once per combination, asserts the trie is
byte-identical to the baseline and at least ``--min-speedup`` times faster,
and writes the numbers as JSON.  Also boots an in-process ``StudyService``
and times a cold corpus-study submission against a warm resubmission of the
same spec, asserting the warm path does zero engine work.  CI runs this
after the pytest-benchmark suite; the committed BENCH_pipeline.json seeds
the repo's recorded perf baseline.

Usage:
    PYTHONPATH=src python tools/bench_pipeline.py [--out BENCH_pipeline.json]
        [--min-speedup 3.0] [--corpus-shaders 8] [--repeats 3]
        [--service-shaders 2]
"""

from __future__ import annotations

import argparse
import json
import platform as platform_mod
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import ShaderCompiler  # noqa: E402
from repro.core.trie import VariantTrie  # noqa: E402
from repro.corpus import MOTIVATING_SHADER, default_corpus  # noqa: E402
from repro.ir import emit_glsl  # noqa: E402
from repro.ir.clone import clone_module  # noqa: E402
from repro.passes import OptimizationFlags, run_passes  # noqa: E402


def _best_of(repeats: int, fn):
    best, result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _naive_variants(compiler: ShaderCompiler) -> dict:
    """The baseline: a full pass-pipeline run per flag combination, the
    reference path that shares nothing between combinations: a
    name-preserving clone of the cleaned module, ``run_passes`` and
    emission.  (``compiler.compile`` would answer repeated states from
    the source's memo.)"""
    texts = {}
    for flags in OptimizationFlags.all_combinations():
        module = clone_module(compiler._module, preserve_names=True)
        run_passes(module, flags)
        texts[flags.index] = emit_glsl(module)
    return texts


def bench_shader(source: str, repeats: int) -> dict:
    compiler = ShaderCompiler(source)
    naive_s, naive = _best_of(repeats, lambda: _naive_variants(compiler))
    trie_s, trie = _best_of(repeats, compiler.all_variants)
    if trie.index_to_text != naive:
        raise SystemExit("FATAL: trie output is not byte-identical to naive")
    walk = VariantTrie(compiler._module)
    walk.compile()
    return {
        "naive_seconds": round(naive_s, 6),
        "trie_seconds": round(trie_s, 6),
        "speedup": round(naive_s / trie_s, 2),
        "unique_variants": trie.unique_count,
        "trie_pass_runs": walk.stats.pass_runs,
        "trie_emits": walk.stats.emits,
        "trie_merges": walk.stats.merges,
        "naive_pass_runs": 1024,   # sum of popcounts over 256 combinations
        "naive_emits": 256,
    }


def bench_service(max_shaders: int) -> dict:
    """Cold submit vs warm resubmit of one corpus study through the service.

    Runs the real service objects (journal, queue, worker pool, shared
    engine) in-process — the socket transport is the only piece skipped,
    so the numbers isolate the warm-cache win from connection overhead.
    """
    from repro.service.server import StudyService

    def submit_and_wait(svc):
        start = time.perf_counter()
        response = svc.handle(
            {"op": "submit", "spec": {"corpus": {"max_shaders": max_shaders}}})
        if not response.get("ok"):
            raise SystemExit(f"FATAL: service submit failed: {response}")
        job = svc.queue.get(response["id"])
        deadline = time.monotonic() + 300.0
        while not job.terminal:
            if time.monotonic() > deadline:
                raise SystemExit(f"FATAL: service job {job.id} never finished")
            time.sleep(0.01)
        elapsed = time.perf_counter() - start
        if job.state != "done":
            raise SystemExit(
                f"FATAL: service job ended {job.state}: {job.error}")
        return elapsed, job

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        svc = StudyService(tmp, workers=1)
        svc.pool.start()
        try:
            cold_s, cold = submit_and_wait(svc)
            warm_s, warm = submit_and_wait(svc)
        finally:
            svc.stop()
    if any(warm.work.get(key) for key in ("frontends", "compiles",
                                          "measures")):
        raise SystemExit(f"FATAL: warm resubmit did engine work: {warm.work}")
    return {
        "shaders": max_shaders,
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2),
        "cold_work": cold.work,
        "warm_work": warm.work,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pipeline.json")
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--corpus-shaders", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--service-shaders", type=int, default=2)
    args = parser.parse_args(argv)

    motivating = bench_shader(MOTIVATING_SHADER, args.repeats)

    corpus = default_corpus(max_shaders=args.corpus_shaders)
    naive_total = trie_total = 0.0
    for case in corpus:
        numbers = bench_shader(case.source, 1)
        naive_total += numbers["naive_seconds"]
        trie_total += numbers["trie_seconds"]

    payload = {
        "benchmark": "pipeline_variant_compilation",
        "unit": "seconds (best of N, perf_counter)",
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
        "bench_all_256_variants": motivating,
        "corpus_aggregate": {
            "shaders": len(corpus),
            "naive_seconds": round(naive_total, 6),
            "trie_seconds": round(trie_total, 6),
            "speedup": round(naive_total / trie_total, 2),
        },
        "service_warm_resubmit": bench_service(args.service_shaders),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    speedup = motivating["speedup"]
    print(f"motivating shader: naive {motivating['naive_seconds']:.3f}s, "
          f"trie {motivating['trie_seconds']:.3f}s -> {speedup:.1f}x "
          f"({motivating['trie_pass_runs']} vs 1024 pass runs, "
          f"{motivating['trie_emits']} vs 256 emissions)")
    print(f"corpus x{len(corpus)}: naive {naive_total:.2f}s, "
          f"trie {trie_total:.2f}s -> {naive_total / trie_total:.1f}x")
    service = payload["service_warm_resubmit"]
    print(f"service x{service['shaders']}: cold {service['cold_seconds']:.2f}s, "
          f"warm resubmit {service['warm_seconds']:.3f}s -> "
          f"{service['speedup']:.0f}x (warm work: 0/0/0)")
    print(f"wrote {args.out}")
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"{args.min_speedup:.1f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
