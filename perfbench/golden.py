"""Record the golden output digests of each workload in ``golden.json``.

Run from the root of a checkout, with the seeds to record::

    python3 -m perfbench.golden 0 1 2 2018

Every digest comes from a serial run: the ``--jobs 2`` study of
``study_jobs2_replay`` is recorded from the same command with ``--jobs 1``.
A benchmark run on a recorded seed must reproduce these bytes, so on those
seeds the parallel study is checked against a serial one.  Re-record only
when a change is meant to alter the outputs, and say so in its description.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List

from perfbench.run import HERE, WORKLOADS, Command, Runner, commands

GOLDEN = HERE / "golden.json"


def serial(command: Command) -> Command:
    argv = list(command.argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return Command(command.role, argv, command.output, command.warm)


def record(runner: Runner, workload: str, seed: int) -> Dict[str, str]:
    work = runner.work / f"{workload}-{seed}"
    work.mkdir()
    digests: Dict[str, str] = {}
    for command in map(serial, commands(workload, seed, work)):
        outcome = runner.run(command)
        if outcome.errors:
            raise SystemExit(f"{workload} seed {seed}: {outcome.errors}")
        digests.setdefault(command.role, outcome.digest)
    return digests


def main(argv: List[str]) -> int:
    seeds = [int(arg) for arg in argv]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    work = Path.cwd() / ".perfbench_work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(Path.cwd(), work, budget_s=None)
        for workload in WORKLOADS:
            for seed in seeds:
                golden.setdefault(workload, {})[str(seed)] = record(
                    runner, workload, seed)
                print(f"{workload} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = {workload: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
              for workload, by_seed in sorted(golden.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
