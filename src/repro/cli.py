"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

- ``optimize``  — run the offline optimizer over a GLSL file.
- ``variants``  — count/list the unique variants of a shader (Fig. 4c).
- ``import``    — ingest wild real-world GLSL into the studied subset
                  (widened grammar + normalization); failing inputs can be
                  auto-minimized into committed reproducer test cases.
- ``time``      — time a shader on one or all simulated platforms.
- ``study``     — run the exhaustive study over the corpus (optionally one
                  shard of it) and print the Fig. 5 / Table I summaries.
- ``tune``      — search the flag space with a budgeted strategy and report
                  the best-found flags against the exhaustive optimum.
- ``report``    — regenerate every registered paper artifact from a study
                  run (or saved study JSON) as report.md / report.html.
- ``merge-results`` — reassemble ``--shard`` study runs (and their caches)
                  into one complete study, byte-identical to an unsharded
                  run.
- ``dispatch``  — the fault-tolerant one-command version of the shard
                  workflow: fan the corpus out over supervised workers,
                  retry/resume failures, and auto-merge (see
                  ``docs/dispatch.md``).
- ``serve``     — run the long-running study service: a job queue, a worker
                  pool, and one process-wide warm result cache shared across
                  every submitted job (see ``docs/service.md``).
- ``client``    — submit/status/tail/cancel/shutdown against a running
                  ``repro serve`` daemon, over its local socket.

``study``, ``tune``, and ``report`` all accept ``--synth-seed`` /
``--synth-count`` to extend the corpus with procedurally synthesized
übershader families (see ``repro.corpus.synth`` and ``docs/corpus.md``),
and ``--import-dir`` to merge ingested wild shaders in as the ``imported``
family (see ``docs/import.md``).
See ``docs/cli.md`` for copy-pasteable examples of each command and
``docs/tutorial.md`` for a ten-minute walkthrough.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.flags import best_static_flags
from repro.analysis.speedups import average_speedups
from repro.core import ShaderCompiler, optimize_source
from repro.corpus import CorpusSpec
from repro.gpu.platform import all_platforms, platform_by_name
from repro.harness.environment import ShaderExecutionEnvironment
from repro.harness.results import StudyResult, merge_study_results
from repro.harness.study import ShardSpec, StudyConfig, run_study
from repro.passes import ALL_FLAG_NAMES, DEFAULT_LUNARGLASS, OptimizationFlags
from repro.passes.flags import SPACE_SIZE
from repro.reporting import ReportBuilder, all_artifacts, render_table
from repro.search import (
    STRATEGIES, EvaluationEngine, Exhaustive, ResultCache, make_strategy,
)


def parse_flags(text: str) -> OptimizationFlags:
    """Parse "unroll,fp_reassociate" / "default" / "all" / "none"."""
    if text == "default":
        return DEFAULT_LUNARGLASS
    if text == "all":
        return OptimizationFlags.all()
    if text == "none" or not text:
        return OptimizationFlags.none()
    flags = OptimizationFlags.none()
    for name in text.split(","):
        name = name.strip()
        if name not in ALL_FLAG_NAMES:
            raise SystemExit(
                f"unknown flag {name!r}; choose from {', '.join(ALL_FLAG_NAMES)}")
        flags = flags.with_flag(name, True)
    return flags


def _platforms_for(name: str):
    """Resolve --platform into a platform list, with a clean CLI error."""
    if name == "all":
        return all_platforms()
    try:
        return [platform_by_name(name)]
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _cmd_optimize(args: argparse.Namespace) -> int:
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    print(optimize_source(source, parse_flags(args.flags), es=args.es), end="")
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    variants = ShaderCompiler(source).all_variants()
    print(f"{variants.unique_count} unique variants from 256 combinations")
    for index, (text, combos) in enumerate(variants.items()):
        smallest = min(combos, key=lambda f: f.index)
        print(f"  variant {index}: {len(combos):3d} combos, "
              f"e.g. [{smallest}] ({len(text.splitlines())} lines)")
    return 0


def _cmd_time(args: argparse.Namespace) -> int:
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    flags = parse_flags(args.flags)
    optimized = optimize_source(source, flags)
    platforms = _platforms_for(args.platform)
    rows = []
    for platform in platforms:
        env = ShaderExecutionEnvironment(platform)
        base = env.run(source, seed=args.seed).measurement.mean_us
        opt = env.run(optimized, seed=args.seed + 1).measurement.mean_us
        rows.append((platform.name, base, opt, (base / opt - 1.0) * 100.0))
    print(render_table(["platform", "original us", "optimized us", "speed-up %"],
                       rows, title=f"flags: {flags}"))
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.glsl.ingest import ingest_file, iter_shader_files
    from repro.glsl.introspect import interface_summary
    from repro.glsl.minimize import minimize_source, write_reproducer

    paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            found = iter_shader_files(path)
            if not found:
                print(f"note: no shader files under {path}", file=sys.stderr)
            paths.extend(found)
        elif path.is_file():
            paths.append(path)
        else:
            raise SystemExit(f"error: no such file or directory: {raw}")

    imported = 0
    failed = 0
    for path in paths:
        try:
            result = ingest_file(path)
        except ReproError as exc:
            failed += 1
            print(f"FAIL {path}: {type(exc).__name__}: {exc}")
            if args.minimize:
                shrunk = minimize_source(path.read_text())
                assert shrunk is not None  # it just failed above
                frag, test = write_reproducer(
                    shrunk, args.repro_dir, path.stem)
                print(f"  minimized {shrunk.original_lines} -> "
                      f"{shrunk.minimized_lines} lines "
                      f"({shrunk.probes} probes)")
                print(f"  reproducer: {frag}")
                print(f"  regression test: {test}")
            continue
        imported += 1
        print(f"ok   {path}: {result.loc_before} -> {result.loc_after} loc")
        if args.verbose:
            print(interface_summary(result.shader))
        if args.emit_dir:
            out_dir = Path(args.emit_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_path = out_dir / f"{result.name}.frag"
            out_path.write_text(result.canonical)
            print(f"  canonical: {out_path}")

    print(f"\nimported {imported}/{len(paths)} shaders"
          + (f", {failed} failed" if failed else ""))
    return 1 if failed else 0


def corpus_spec_from_args(args: argparse.Namespace) -> CorpusSpec:
    """The :class:`CorpusSpec` behind the shared corpus-selection flags.

    ``study``/``tune``/``report`` *and* ``client submit`` all funnel their
    ``--max-shaders``/``--synth-seed``/``--synth-count`` flags through this
    one helper, so the CLI surface and the service's :class:`JobSpec`
    cannot drift apart: both build the corpus via ``CorpusSpec.build()``.
    """
    return CorpusSpec(max_shaders=args.max_shaders or None,
                      synth_seed=args.synth_seed,
                      synth_count=args.synth_count,
                      import_dir=args.import_dir or None)


def _synth_corpus(args: argparse.Namespace):
    """The corpus selected by the shared --max-shaders/--synth-* flags."""
    return corpus_spec_from_args(args).build()


class _Terminated(Exception):
    """Raised by a SIGTERM handler to unwind to a graceful exit."""


def _on_signals(callback, *signums) -> bool:
    """Install *callback* as the handler for *signums* (main thread only).

    Signal handlers can only be installed from the main thread; tests and
    library callers driving commands from worker threads simply run
    without one.  Returns True when installed.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return False
    for signum in signums:
        signal.signal(signum, lambda _signum, _frame: callback())
    return True


def _cmd_study(args: argparse.Namespace) -> int:
    import signal

    from repro.dispatch import fault_from_env, write_study_output

    shard = None
    if args.shard:
        try:
            shard = ShardSpec.parse(args.shard)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        if not args.output:
            print("note: --shard without --output; the shard result is "
                  "needed by `repro merge-results`", file=sys.stderr)
    try:
        # Resolved before the work: a bad injection directive must fail
        # loudly up front, not after minutes of measuring.
        fault = fault_from_env()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    corpus = _synth_corpus(args)
    engine = EvaluationEngine(seed=args.seed,
                              cache=ResultCache(args.cache or None))

    def _terminate() -> None:
        raise _Terminated()

    _on_signals(_terminate, signal.SIGTERM)
    try:
        study = run_study(corpus, StudyConfig(
            seed=args.seed, verbose=True, max_workers=args.jobs,
            shard=shard, checkpoint_every=args.checkpoint_every,
            heartbeat_path=args.heartbeat or None), engine=engine)
    except _Terminated:
        # Graceful drain for a dispatched worker: flush what we measured
        # (the redo replays it warm), write no output (the shard stays
        # re-queueable — the dispatcher retries it), and exit 0.
        engine.cache.save()
        print("repro study: terminated; result cache flushed, no output "
              "written (the shard stays re-queueable)", file=sys.stderr)
        return 0
    if shard is not None:
        print(f"\nshard {shard}: {len(study.shaders)} of {len(corpus)} "
              "cases (summaries cover this shard only)")
    print()
    rows = [(r.platform, r.best_possible, r.best_static, r.default_lunarglass)
            for r in average_speedups(study)]
    print(render_table(
        ["platform", "best %", "best static %", "default %"], rows,
        title="Average speed-ups (Fig. 5)"))
    print()
    rows = [(p, str(best_static_flags(study, p))) for p in study.platforms]
    print(render_table(["platform", "best static flags"], rows,
                       title="Best static flags (Table I)"))
    if args.output:
        write_study_output(args.output, study.to_json(), fault=fault)
        print(f"\nstudy saved to {args.output}")
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    import signal

    from repro.dispatch import (
        BackoffPolicy, FaultPlan, ShardDispatcher, SubprocessTransport,
        ThreadTransport,
    )

    if args.shards < 1:
        raise SystemExit(f"error: --shards must be >= 1, got {args.shards}")
    spec = corpus_spec_from_args(args)
    cases = spec.build()
    if not cases:
        raise SystemExit("error: the selected corpus is empty")
    try:
        faults = FaultPlan.parse(args.inject)
        policy = BackoffPolicy(base=args.backoff_base, seed=args.seed,
                               max_attempts=args.retries)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.transport == "thread":
        # One shared in-memory cache: a retried shard replays the work its
        # failed attempt already measured as cache hits.
        transport = ThreadTransport(cases, cache=ResultCache())
    else:
        transport = SubprocessTransport(spec)
    dispatcher = ShardDispatcher(
        cases=cases, shard_count=args.shards, transport=transport,
        state_dir=args.dir, seed=args.seed, policy=policy,
        timeout=args.timeout, heartbeat_timeout=args.heartbeat_timeout,
        workers=args.workers, jobs=args.jobs, faults=faults,
        output=args.output or None, fresh=args.fresh, verbose=True)
    # SIGTERM/SIGINT wind the supervision loop down gracefully: in-flight
    # shards are killed (and stay re-queueable), completed shards stay
    # checkpointed, and the manifest records the interruption.
    _on_signals(dispatcher.request_stop, signal.SIGTERM, signal.SIGINT)
    report = dispatcher.run()

    print(f"\ndispatch: {len(report.completed)}/{args.shards} shards "
          f"complete ({len(report.resumed)} resumed from checkpoint, "
          f"{report.retries} retries)")
    print(f"manifest: {report.manifest_path}")
    if report.complete:
        print(f"merged study: {report.merged_path}")
        return 0
    if report.interrupted and not report.failed:
        print("dispatch: interrupted — re-run the same command to resume "
              "from the checkpoints", file=sys.stderr)
        return 0
    print(f"error: shards {report.missing_shards} missing after "
          f"{report.retries} retries", file=sys.stderr)
    for index in sorted(report.failed):
        print(f"  shard {index}: {report.failed[index]}", file=sys.stderr)
    if report.partial_path is not None:
        print(f"partial merge (completed shards only): "
              f"{report.partial_path}", file=sys.stderr)
    return 1


def _cmd_merge_results(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.search.cache import CACHE_VERSION

    if bool(args.caches) != bool(args.cache_out):
        raise SystemExit("error: --caches and --cache-out go together")
    header = json.dumps({"version": CACHE_VERSION})
    for path in args.caches:
        # A cache that cannot be opened, or is of another layout, would
        # otherwise merge as empty.
        try:
            with open(path, "rb") as handle:
                head = handle.readline().decode(errors="replace").rstrip("\n")
        except OSError as exc:
            raise SystemExit(f"error: cannot read cache {path!r}: "
                             f"{exc.strerror or exc}") from None
        if head and head != header:
            print(f"error: cache {path!r} has header {head:.80}, not this "
                  f"version's header {header}", file=sys.stderr)
            raise SystemExit(2)
    parts = []
    for path in args.shards:
        try:
            parts.append(StudyResult.from_json(Path(path).read_text()))
        except OSError as exc:
            raise SystemExit(f"error: cannot read shard {path!r}: "
                             f"{exc.strerror or exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"error: {path!r} is not a saved study JSON ({exc})") from None
    try:
        merged = merge_study_results(parts)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    Path(args.output).write_text(merged.to_json())
    print(f"merged {len(parts)} shards -> {len(merged.shaders)} shaders "
          f"x {len(merged.platforms)} platforms: {args.output}")

    if args.cache_out:
        merged_cache = ResultCache(args.cache_out)
        for path in args.caches:
            try:
                added = merged_cache.merge_from(path)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}") from None
            print(f"cache {path}: {added} new entries")
        merged_cache.save()
        print(f"merged cache ({len(merged_cache)} entries): {args.cache_out}")

    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise SystemExit(f"error: --budget must be >= 1, got {args.budget}")
    corpus = _synth_corpus(args)
    platforms = _platforms_for(args.platform)
    engine = EvaluationEngine(platforms=platforms, seed=args.seed,
                              cache=ResultCache(args.cache or None))
    strategy = make_strategy(args.strategy, seed=args.seed)

    rows = []
    worst_gap = 0.0
    for platform in platforms:
        objective = engine.corpus_objective(corpus, platform.name)
        outcome = strategy.search(objective, budget=args.budget)
        found_flags = OptimizationFlags.from_index(outcome.best_index)
        if args.no_reference:
            rows.append((platform.name, str(found_flags),
                         f"{outcome.best_score:.2f}", "-", "-", "-",
                         outcome.points_evaluated,
                         f"{100.0 * outcome.fraction_of_space:.1f}%"))
            continue
        # Exhaustive reference shares the engine, so the strategy's points
        # are cache hits and only the remainder of the space is measured.
        reference = Exhaustive(seed=args.seed).search(objective)
        optimum_flags = OptimizationFlags.from_index(reference.best_index)
        # Gap as a time ratio: how much slower is the found set than the
        # optimum?  Within 1% means gap <= 1.0.
        found_factor = 1.0 + outcome.best_score / 100.0
        optimum_factor = 1.0 + reference.best_score / 100.0
        gap = (optimum_factor / found_factor - 1.0) * 100.0
        worst_gap = max(worst_gap, gap)
        rows.append((platform.name, str(found_flags),
                     f"{outcome.best_score:.2f}", str(optimum_flags),
                     f"{reference.best_score:.2f}", f"{gap:.2f}",
                     outcome.points_evaluated,
                     f"{100.0 * outcome.fraction_of_space:.1f}%"))

    print(render_table(
        ["platform", "best found", "mean %", "exhaustive optimum", "opt %",
         "gap %", "evaluated", "of space"],
        rows,
        title=(f"tune: strategy={strategy.name} budget={args.budget} "
               f"seed={args.seed} shaders={len(corpus)}")))
    if not args.no_reference:
        print(f"\nworst-platform gap to exhaustive optimum: {worst_gap:.2f}%")
        budget_fraction = 100.0 * min(args.budget, SPACE_SIZE) / SPACE_SIZE
        print(f"search budget: {args.budget}/{SPACE_SIZE} points "
              f"({budget_fraction:.1f}% of the space)")
    engine.cache.save()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.list:
        rows = [(a.name, a.paper_ref, a.title) for a in all_artifacts()]
        print(render_table(["artifact", "paper", "title"], rows,
                           title="Registered paper artifacts"))
        return 0

    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        known = {a.name for a in all_artifacts()}
        unknown = [name for name in only if name not in known]
        if unknown:
            raise SystemExit(
                f"error: unknown artifact(s) {', '.join(unknown)}; "
                f"see `repro report --list`")

    builder = ReportBuilder(config=StudyConfig(
        seed=args.seed, verbose=args.verbose, max_workers=args.jobs,
        cache_path=args.cache or None))
    if args.study:
        from pathlib import Path
        ignored = [flag for flag, on in
                   [("--max-shaders", args.max_shaders),
                    ("--seed", args.seed != 2018),
                    ("--jobs", args.jobs is not None),
                    ("--synth-count", args.synth_count),
                    ("--synth-seed", args.synth_seed is not None),
                    ("--import-dir", args.import_dir),
                    ("--cache", args.cache),
                    ("--verbose", args.verbose)] if on]
        if ignored:
            print(f"note: {', '.join(ignored)} ignored with --study "
                  "(the saved study's corpus and seed are used)",
                  file=sys.stderr)
        try:
            study = StudyResult.from_json(Path(args.study).read_text())
        except OSError as exc:
            raise SystemExit(f"error: cannot read study {args.study!r}: "
                             f"{exc.strerror or exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"error: {args.study!r} is not a saved study JSON ({exc})") \
                from None
    else:
        corpus = _synth_corpus(args)
        study = builder.run_study(corpus)
    report = builder.build(study, only=only)
    paths = report.write(args.out_dir)

    engine = builder.engine
    print(f"rendered {len(report.sections)} artifacts over "
          f"{report.shader_count} shaders x {len(report.platforms)} "
          f"platforms (seed {report.seed})")
    print(f"engine work: {engine.frontend_count} front-ends, "
          f"{engine.compile_count} pass-pipeline compiles, "
          f"{engine.measure_count} measurements "
          f"(cache: {engine.cache.hits} hits / {engine.cache.misses} misses)")
    for kind, path in sorted(paths.items()):
        print(f"report.{kind}: {path}")
    return 0


# ---------------------------------------------------------------------------
# The study service: `repro serve` + the `repro client` command group
# ---------------------------------------------------------------------------

#: Default service directory; the socket lives at <dir>/service.sock.
DEFAULT_SERVICE_DIR = ".repro-service"


def _default_socket() -> str:
    import os
    return os.path.join(DEFAULT_SERVICE_DIR, "service.sock")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import StudyService, socket_available

    if not socket_available():
        raise SystemExit("error: repro serve needs AF_UNIX socket support")
    service = StudyService(args.dir, workers=args.workers,
                           socket_path=args.socket or None,
                           cache_path=args.cache or None,
                           job_workers=args.job_workers)
    # SIGTERM = graceful drain: wait() returns, the finally below stops the
    # service (running jobs re-queue as pending, journal + cache flushed),
    # and we exit 0 — what an init system or the chaos harness expects.
    _on_signals(service.request_stop, signal.SIGTERM)
    service.start()
    print(f"repro serve: listening on {service.socket_path}")
    print(f"  journal: {service.journal.path} "
          f"({service.recovered_jobs} jobs recovered)")
    print(f"  cache:   {service.cache.path} "
          f"({len(service.cache)} warm entries)")
    print(f"  workers: {service.pool.workers} "
          f"(x{service.runner.job_workers} job processes); stop with "
          f"`repro client shutdown` or ctrl-c")
    try:
        service.wait()
    except KeyboardInterrupt:
        print("\nrepro serve: interrupted, draining "
              "(running jobs re-queue as pending)")
    finally:
        service.stop()
    print("repro serve: stopped (pending jobs remain journalled)")
    return 0


def _client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.socket)


def _client_request(fn):
    """Run one client call, mapping connection/service errors to exit 1."""
    from repro.service import ServiceError

    try:
        return fn()
    except (ConnectionError, ServiceError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _client_job_spec(args: argparse.Namespace):
    """Build the JobSpec a `repro client submit` invocation describes."""
    from repro.service import JobSpec

    source = None
    corpus = None
    if args.file:
        source = (sys.stdin.read() if args.file == "-"
                  else open(args.file).read())
    else:
        corpus = corpus_spec_from_args(args)
    platforms = () if args.platform == "all" else (args.platform,)
    spec = JobSpec(source=source, corpus=corpus, strategy=args.strategy,
                   budget=args.budget, platforms=platforms, seed=args.seed,
                   timeout=args.timeout, shards=args.shards)
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    return spec


def _print_event(event: dict) -> None:
    kind = event.get("type")
    if kind == "case":
        best = ", ".join(f"{name} {pct:+.1f}%"
                         for name, pct in sorted(event["best_pct"].items()))
        print(f"[{event['position']}/{event['total']}] {event['name']}: "
              f"{event['variants']} variants; best {best}")
    elif kind == "shard":
        detail = f": {event['error']}" if event.get("error") else ""
        if event.get("delay") is not None:
            detail += f" (retry in {event['delay']}s)"
        attempt = (f" attempt {event['attempt']}"
                   if event.get("attempt") else "")
        print(f"[shard {event['shard']}] {event['state']}{attempt}{detail}")
    elif kind == "dispatch":
        print(f"dispatch {event['state']}: {event['completed']} shards "
              f"complete, missing {event['missing'] or 'none'} "
              f"({event['retries']} retries)")
    elif kind == "platform":
        print(f"[{event['platform']}] best {event['best_flags']} "
              f"-> {event['best_pct']:+.2f}% "
              f"({event['evaluated']} points evaluated)")
    elif kind == "state":
        suffix = f": {event['error']}" if event.get("error") else ""
        work = event.get("work") or {}
        print(f"job {event['state']}{suffix} "
              f"(work: {work.get('frontends', 0)} front-ends, "
              f"{work.get('compiles', 0)} compiles, "
              f"{work.get('measures', 0)} measures, "
              f"{work.get('cache_hits', 0)} cache hits)")
    else:
        import json
        print(json.dumps(event))


def _follow_job(client, job_id: str, since: int = 0) -> int:
    from repro.service import ServiceError

    final_state = None
    try:
        # Stream: print each event the moment the poll returns it.
        for event in client.follow(job_id, since=since):
            _print_event(event)
            if event.get("type") == "state":
                final_state = event.get("state")
    except (ConnectionError, ServiceError) as exc:
        raise SystemExit(f"error: {exc}") from None
    return 0 if final_state == "done" else 1


def _cmd_client_submit(args: argparse.Namespace) -> int:
    spec = _client_job_spec(args)
    client = _client(args)
    response = _client_request(lambda: client.submit(spec))
    print(f"submitted {response['id']} (digest {response['digest'][:12]}, "
          f"queue position {response['position']})")
    if args.wait:
        return _follow_job(client, response["id"])
    print(f"follow with: repro client tail {response['id']}")
    return 0


def _cmd_client_status(args: argparse.Namespace) -> int:
    import json

    response = _client_request(
        lambda: _client(args).status(args.id or None))
    if args.id:
        print(json.dumps(response["job"], indent=2))
        return 0
    rows = [(job["id"], job["strategy"], job["state"],
             job["events"], job["error"] or "-")
            for job in response["jobs"]]
    print(render_table(["job", "strategy", "state", "events", "error"],
                       rows, title=f"{len(rows)} jobs"))
    return 0


def _cmd_client_tail(args: argparse.Namespace) -> int:
    return _follow_job(_client(args), args.id, since=args.since)


def _cmd_client_cancel(args: argparse.Namespace) -> int:
    response = _client_request(lambda: _client(args).cancel(args.id))
    note = f" ({response['note']})" if response.get("note") else ""
    print(f"{response['id']}: {response['state']}{note}")
    return 0


def _cmd_client_stats(args: argparse.Namespace) -> int:
    import json

    response = _client_request(lambda: _client(args).stats())
    response.pop("ok", None)
    print(json.dumps(response, indent=2))
    return 0


def _cmd_client_ping(args: argparse.Namespace) -> int:
    response = _client_request(lambda: _client(args).ping())
    print(f"ok: {response['service']} (pid {response['pid']})")
    return 0


def _cmd_client_shutdown(args: argparse.Namespace) -> int:
    response = _client_request(lambda: _client(args).shutdown())
    print(f"stopping ({response['pending']} pending jobs stay journalled)")
    return 0


def _non_negative_int(text: str) -> int:
    """argparse type of a count flag: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    """The corpus-selection flags shared by study/tune/report."""
    p.add_argument("--max-shaders", type=_non_negative_int, default=0,
                   help="truncate the corpus (0 = everything); truncation "
                        "is lazy, so huge synth corpora stay cheap")
    p.add_argument("--synth-count", type=_non_negative_int, default=0,
                   help="append N procedurally synthesized übershader "
                        "families (repro.corpus.synth)")
    p.add_argument("--synth-seed", type=int, default=None,
                   help="seed for the synthesized families (default: 2018); "
                        "changes their content, never their names/order")
    p.add_argument("--import-dir", default="",
                   help="ingest every wild shader file under this directory "
                        "(via `repro import` normalization) as the "
                        "'imported' corpus family")


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argparse tree (one sub-parser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ISPASS 2018 shader compiler optimization reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="offline-optimize a GLSL file")
    p.add_argument("file", help="fragment shader path, or - for stdin")
    p.add_argument("--flags", default="default",
                   help="comma list / 'default' / 'all' / 'none'")
    p.add_argument("--es", action="store_true", help="emit the GLES dialect")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("variants", help="enumerate unique variants (Fig. 4c)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_variants)

    p = sub.add_parser("time", help="time a shader on the simulated GPUs")
    p.add_argument("file")
    p.add_argument("--flags", default="default")
    p.add_argument("--platform", default="all",
                   help="Intel|AMD|NVIDIA|ARM|Qualcomm|all")
    p.add_argument("--seed", type=int, default=2018)
    p.set_defaults(fn=_cmd_time)

    p = sub.add_parser(
        "import",
        help="ingest wild GLSL into the studied subset (preprocess, parse "
             "the widened grammar, normalize structs/do-while/switch); "
             "failures can auto-minimize into committed reproducers")
    p.add_argument("paths", nargs="+",
                   help="shader files and/or directories to ingest")
    p.add_argument("--minimize", action="store_true",
                   help="on failure, delta-debug the input down to a "
                        "1-minimal reproducer plus a ready-to-commit "
                        "pytest regression test")
    p.add_argument("--repro-dir", default="reproducers",
                   help="directory for --minimize artifacts "
                        "(default: reproducers/)")
    p.add_argument("--emit-dir", default="",
                   help="also write each shader's canonical normalized "
                        "form here as <name>.frag")
    p.add_argument("--verbose", action="store_true",
                   help="print each imported shader's uniform/in/out "
                        "interface")
    p.set_defaults(fn=_cmd_import)

    p = sub.add_parser("study", help="run the exhaustive corpus study")
    _add_corpus_args(p)
    p.add_argument("--seed", type=int, default=2018)
    p.add_argument("--output", default="", help="save study JSON here")
    p.add_argument("--jobs", type=int, default=None,
                   help="measurement worker processes "
                        "(default: $REPRO_JOBS or serial)")
    p.add_argument("--cache", default="",
                   help="persist the result cache to this append-only log; "
                        "each case's entries are on disk once it finishes")
    p.add_argument("--shard", default="",
                   help="run one shard, e.g. 1/3; merge the saved outputs "
                        "with `repro merge-results`")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="stream results: persist the cache and release "
                        "compiled variants every N cases (0 = off)")
    p.add_argument("--heartbeat", default="",
                   help="touch this file after every case — the liveness "
                        "signal `repro dispatch` supervision watches")
    p.set_defaults(fn=_cmd_study)

    p = sub.add_parser(
        "dispatch",
        help="fault-tolerant sharded study: supervise shard workers, "
             "retry failures, resume from checkpoints, auto-merge")
    _add_corpus_args(p)
    p.add_argument("--shards", type=int, default=4,
                   help="how many shards to stripe the corpus into "
                        "(default: 4)")
    p.add_argument("--seed", type=int, default=2018)
    p.add_argument("--dir", default=".repro-dispatch",
                   help="state directory: shard outputs, checkpoints, "
                        "heartbeats, worker logs, manifest.json "
                        "(default: .repro-dispatch)")
    p.add_argument("--output", default="",
                   help="write the merged StudyResult JSON here "
                        "(default: <dir>/study.json); byte-identical to "
                        "an unsharded `repro study`")
    p.add_argument("--transport", default="subprocess",
                   choices=["subprocess", "thread"],
                   help="where shards run: `repro study` child processes "
                        "(default) or in-process threads sharing one warm "
                        "cache")
    p.add_argument("--workers", type=int, default=2,
                   help="shards in flight at once (default: 2)")
    p.add_argument("--jobs", type=int, default=None,
                   help="measurement worker processes inside each shard")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-shard wall-clock limit in seconds; an "
                        "over-limit shard is killed and retried")
    p.add_argument("--heartbeat-timeout", type=float, default=None,
                   help="kill (and retry) a shard whose last heartbeat is "
                        "older than this many seconds")
    p.add_argument("--retries", type=int, default=3,
                   help="max attempts per shard before it is declared "
                        "missing (default: 3)")
    p.add_argument("--backoff-base", type=float, default=0.5,
                   help="first retry delay in seconds; doubles per attempt "
                        "with deterministic seeded jitter (default: 0.5)")
    p.add_argument("--inject", default="",
                   help="fault-injection plan, e.g. "
                        "'1:crash,2:hang@1,3:corrupt@*'; see docs/dispatch.md")
    p.add_argument("--fresh", action="store_true",
                   help="ignore existing checkpoints and re-run every shard")
    p.set_defaults(fn=_cmd_dispatch)

    p = sub.add_parser(
        "merge-results",
        help="merge --shard study outputs (and caches) into one study")
    p.add_argument("shards", nargs="+",
                   help="the shard study JSON files, in any order")
    p.add_argument("--output", required=True,
                   help="write the merged StudyResult JSON here "
                        "(byte-identical to an unsharded run)")
    p.add_argument("--caches", nargs="*", default=[],
                   help="shard result-cache files to union")
    p.add_argument("--cache-out", default="",
                   help="write the merged result cache here")
    p.set_defaults(fn=_cmd_merge_results)

    p = sub.add_parser(
        "tune", help="search the flag space under an evaluation budget")
    p.add_argument("--strategy", default="genetic",
                   choices=sorted(STRATEGIES),
                   help="search strategy (default: genetic)")
    p.add_argument("--budget", type=int, default=64,
                   help="max unique flag combinations to evaluate")
    p.add_argument("--platform", default="all",
                   help="Intel|AMD|NVIDIA|ARM|Qualcomm|all")
    _add_corpus_args(p)
    p.add_argument("--seed", type=int, default=2018)
    p.add_argument("--cache", default="",
                   help="persist the result cache to this append-only log")
    p.add_argument("--no-reference", action="store_true",
                   help="skip the exhaustive-optimum comparison run")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser(
        "report",
        help="regenerate the paper's figures/tables as report.md + "
             "report.html")
    p.add_argument("--list", action="store_true",
                   help="list registered artifacts and exit")
    p.add_argument("--only", default="",
                   help="comma-separated artifact names (default: all)")
    p.add_argument("--study", default="",
                   help="load a saved study JSON instead of running one")
    p.add_argument("--out-dir", default="reports",
                   help="directory for report.md / report.html "
                        "(default: reports/)")
    _add_corpus_args(p)
    p.add_argument("--seed", type=int, default=2018)
    p.add_argument("--jobs", type=int, default=None,
                   help="measurement worker processes "
                        "(default: $REPRO_JOBS or serial)")
    p.add_argument("--cache", default="",
                   help="persist the result cache to this append-only log; "
                        "a warm cache re-renders with zero "
                        "compiles/measurements")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the long-running study service (queue + worker pool + "
             "process-wide warm cache)")
    p.add_argument("--dir", default=DEFAULT_SERVICE_DIR,
                   help="service state directory: journal, cache, results, "
                        f"socket (default: {DEFAULT_SERVICE_DIR})")
    p.add_argument("--socket", default="",
                   help="socket path (default: <dir>/service.sock)")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent jobs (worker threads sharing one warm "
                        "engine; default: 1)")
    p.add_argument("--job-workers", type=int, default=1,
                   help="process-pool size each study job may use "
                        "internally (default: serial)")
    p.add_argument("--cache", default="",
                   help="shared result cache path (default: "
                        "<dir>/cache.jsonl)")
    p.set_defaults(fn=_cmd_serve)

    client = sub.add_parser(
        "client", help="talk to a running `repro serve` daemon")
    csub = client.add_subparsers(dest="client_command", required=True)

    def _socket_arg(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--socket", default=_default_socket(),
                        help="daemon socket path (default: "
                             f"{_default_socket()})")

    cp = csub.add_parser("submit", help="submit a study/tune job")
    cp.add_argument("file", nargs="?", default="",
                    help="fragment shader path or - for stdin (omit to "
                         "submit a corpus job)")
    _add_corpus_args(cp)
    cp.add_argument("--strategy", default="study",
                    choices=["study", "dispatch"] + sorted(STRATEGIES),
                    help="'study' = the exhaustive per-variant study; "
                         "'dispatch' = the same study sharded over the "
                         "fault-tolerant dispatcher (needs --shards); "
                         "anything else = a budgeted flag-space search")
    cp.add_argument("--budget", type=int, default=64,
                    help="evaluation budget for search strategies")
    cp.add_argument("--shards", type=int, default=0,
                    help="shard fan-out for --strategy dispatch jobs")
    cp.add_argument("--platform", default="all",
                    help="Intel|AMD|NVIDIA|ARM|Qualcomm|all")
    cp.add_argument("--seed", type=int, default=2018)
    cp.add_argument("--timeout", type=float, default=None,
                    help="per-job wall-clock limit in seconds; a job over "
                         "its deadline fails instead of wedging a worker")
    cp.add_argument("--wait", action="store_true",
                    help="follow the job's events until it finishes")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_submit)

    cp = csub.add_parser("status", help="one job's status, or all jobs")
    cp.add_argument("id", nargs="?", default="")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_status)

    cp = csub.add_parser(
        "tail", help="follow a job's results as they land")
    cp.add_argument("id")
    cp.add_argument("--since", type=int, default=0,
                    help="resume from this event index")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_tail)

    cp = csub.add_parser("cancel", help="cancel a pending or running job")
    cp.add_argument("id")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_cancel)

    cp = csub.add_parser("stats", help="service-wide queue/cache stats")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_stats)

    cp = csub.add_parser("ping", help="liveness check")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_ping)

    cp = csub.add_parser("shutdown", help="stop the daemon gracefully")
    _socket_arg(cp)
    cp.set_defaults(fn=_cmd_client_shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv* (default: ``sys.argv``) and dispatch to the sub-command."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
