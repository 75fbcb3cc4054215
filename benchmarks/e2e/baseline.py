"""Measure the benchmark's own run-to-run spread and record a baseline.

    python3 benchmarks/e2e/baseline.py

Runs ``run.py`` once per (set, workload, seed): two sets of ten seeds,
each set on its own seeds (set ``k`` uses seeds ``100 k + 1 ...``), then
one traced run per workload.  For every end-to-end metric it reports
each set's median, quartiles and spread ((Q3 - Q1) / median, by
``statistics.quantiles``) and checks the rule a bound must meet: every
spread but ``setup_s``'s stays below a third of the metric's bound, and
no later set's median is worse than the first set's by more than the
bound.  The result, with a
fingerprint of the host, is written to ``baseline.json`` beside this
file.  Exit status 1 when a run failed or a bound does not hold.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("benchmarks", "e2e", "run.py")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "baseline.json")
SETS = 2
SEEDS = 10


def host() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def run(workload: str, seed: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {}
    line.update(seed=seed, code=proc.returncode,
                wall_s=round(time.perf_counter() - started, 2))
    if trace:
        line["report"] = lines[:-1]
    print(f"{workload:<18} seed {seed:<4} trace {trace} exit "
          f"{proc.returncode} {line['wall_s']:6.1f} s", file=sys.stderr,
          flush=True)
    return line


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for index in range(SETS):
        seeds = [100 * index + 1 + k for k in range(SEEDS)]
        sets.append({"seeds": seeds, "workloads": {
            w: {"runs": [run(w, seed, 0) for seed in seeds]}
            for w in workloads}})
    ok, verdicts = True, []
    for workload in workloads:
        for name, metric in bounds.items():
            bound, lower = metric["bound"], metric["better"] == "lower"
            medians = []
            for one in sets:
                entry = one["workloads"][workload]
                runs = entry["runs"]
                if any(r["code"] or not r.get("correct") for r in runs):
                    ok = False
                values = [r["metrics"][name]["value"] for r in runs
                          if "metrics" in r]
                if len(values) < 2:
                    ok = False
                    continue
                stats = summary(values)
                entry.setdefault("summary", {})[name] = stats
                medians.append(stats["median"])
                if name != "setup_s" and stats["spread"] > bound / 3:
                    ok = False
                    verdicts.append(f"{workload} {name}: spread "
                                    f"{stats['spread']:.4f} > bound/3")
            for later in medians[1:] if len(medians) == len(sets) else []:
                worse = (later - medians[0]) / medians[0]
                if (worse if lower else -worse) > bound:
                    ok = False
                    verdicts.append(f"{workload} {name}: median moved "
                                    f"{100 * worse:+.2f} % > bound")
    traced = {w: run(w, 1, 1) for w in workloads}
    ok = ok and all(t["code"] == 0 and t.get("correct")
                    for t in traced.values())
    result = {"host": host(), "run_seconds": spec["run_seconds"],
              "sets": sets, "traced": traced, "verdicts": verdicts,
              "ok": ok}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"{'workload':<18} {'metric':<18} "
          + " ".join(f"{'set ' + str(k + 1) + ' median':>16} {'spread':>7}"
                     for k in range(len(sets))))
    for workload in workloads:
        for name in bounds:
            cells = []
            for one in sets:
                stats = one["workloads"][workload].get("summary", {}).get(
                    name, {"median": float("nan"), "spread": float("nan")})
                cells.append(f"{stats['median']:16.5g} "
                             f"{stats['spread']:7.4f}")
            print(f"{workload:<18} {name:<18} " + " ".join(cells))
    for verdict in verdicts:
        print("BOUND NOT MET:", verdict)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
