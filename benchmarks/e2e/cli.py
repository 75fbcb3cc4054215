"""Command line: run workloads, print every metric, check every output.

    python3 benchmarks/e2e/run.py --workload step_full --seed 1 \\
        [--seconds 20] [--trace 0|1]
    PYTHONPATH=src python -m benchmarks.e2e --seed 1 [--workload NAME] \\
        [--traced]

Prints one line per metric (name, value, unit), the run's notes and any
failed check, and as the last line one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1`` (``--traced``).  Without ``--workload`` every workload runs
in turn and each prints its own JSON line.  Exit status 1 when any check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from . import metrics
from .server import Env
from .workloads import FULL, WORKLOADS, Run, Scale

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_one(spec: dict, env: Env, workload: str, seed: int, seconds: float,
            trace: bool, scale: Scale = FULL, stream=sys.stdout) -> dict:
    """Run one workload; print its report; return its result line."""
    started = time.perf_counter()
    outcome = WORKLOADS[workload](Run(workload, seed, seconds, trace, env,
                                      scale))
    kind = "per_layer" if trace else "end_to_end"
    line = metrics.result_line(spec, kind, outcome.values, outcome.correct,
                               outcome.attempted, outcome.failed)
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace "
          f"{int(trace)}): {time.perf_counter() - started:.1f} s wall",
          file=stream)
    for note in outcome.notes:
        print(note, file=stream)
    for name, metric in line["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}",
              file=stream)
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} "
          f"failed", file=stream)
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=stream)
    return line


def main(argv=None) -> int:
    spec = metrics.load_spec(ROOT)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the RISC-V simulator.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    work = os.path.join(ROOT, ".e2e-work", str(os.getpid()))
    env = Env(ROOT, work)
    tempfile.tempdir = work
    correct = True
    try:
        for workload in workloads:
            line = run_one(spec, env, workload, args.seed, args.seconds,
                           bool(args.trace))
            correct = correct and line["correct"]
            print(json.dumps(line), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return 0 if correct else 1
