#!/usr/bin/env python3
"""Design-space sweeps with the experiment engine (repro.explore).

The paper's evaluation is an ablation study — issue width, cache geometry,
predictor type, optimization level.  This example declares such a study as
a JSON sweep spec, runs it on the worker pool, and reads the comparison
report: the per-run metric table, the best-config ranking, and the
pairwise speedup matrix.  The same spec file drives `repro-sim explore
spec.json` and the server's /explore endpoints.
"""

import json
import os
import sys
import tempfile

from repro.explore import (SweepSpec, load_records, ResultStore, run_sweep)

# ---------------------------------------------------------------------------
# 1. declare the study: one C workload x (width x cache-geometry) grid
# ---------------------------------------------------------------------------
C_KERNEL = """
extern int data[96];
int checksum(void) {
    int acc = 0;
    for (int r = 0; r < 6; r++)
        for (int i = 0; i < 96; i++)
            acc += data[i] * (i + r);
    return acc;
}
int main(void) { return checksum(); }
"""

SPEC_JSON = {
    "name": "width-x-cache",
    "programs": [{
        "name": "checksum",
        "c": C_KERNEL,
        "optimizeLevel": 2,
        "entry": "main",
        "memory": [{"name": "data", "dtype": "word",
                    "values": [(31 * i + 7) % 64 for i in range(96)]}],
    }],
    "axes": [
        {"name": "width", "values": [
            {"config.buffers.fetchWidth": 1,
             "config.buffers.commitWidth": 1},
            {"config.buffers.fetchWidth": 4,
             "config.buffers.commitWidth": 4,
             "config.buffers.issueWindowSize": 16}],
         "labels": ["narrow", "wide"]},
        {"name": "cache", "values": [
            {"config.cache.lineCount": 4, "config.cache.associativity": 1},
            {"config.cache.lineCount": 32, "config.cache.associativity": 4}],
         "labels": ["tiny", "big"]},
    ],
}

spec = SweepSpec.from_json(SPEC_JSON)
print(f"sweep '{spec.name}': {spec.grid_size()} design points")

# ---------------------------------------------------------------------------
# 2. run it — workers=2 uses the process pool (crash-isolated, per-job
#    timeouts); workers=0 would be the plain serial loop, with
#    bit-identical per-run statistics either way
# ---------------------------------------------------------------------------
records_path = os.path.join(tempfile.mkdtemp(prefix="repro-sweep-"),
                            "records.jsonl")
with ResultStore(records_path) as store:
    run = run_sweep(spec, workers=2, store=store)
print(f"ran {len(run.records)} jobs on {run.workers} workers "
      f"in {run.elapsed_s:.2f}s "
      f"({len(run.failures)} failures)")

# ---------------------------------------------------------------------------
# 3. the comparison report: table, ranking, pairwise speedups
# ---------------------------------------------------------------------------
report = run.report(metric="cycles")
print()
print(report.render_text())

best = report.best()
print(f"best configuration: {best['label']} "
      f"at {best['stats']['cycles']} cycles")

# energy tells a different story than raw speed:
energy_ranking = report.ranking(metric="energy")
print(f"most energy-frugal: {energy_ranking[0]['label']}")

# ---------------------------------------------------------------------------
# 4. records are plain JSONL on disk — greppable, reloadable, diffable
# ---------------------------------------------------------------------------
reloaded = load_records(records_path)
assert reloaded == run.records
print(f"\n{len(reloaded)} records round-tripped through {records_path}")
print("one record's stats keys:",
      ", ".join(sorted(reloaded[0]["stats"])[:8]), "...")

# the same spec drives the CLI and the server:
#   repro-sim explore spec.json --workers 4 --metric ipc
#   POST /explore/submit {"spec": {...}} -> /explore/status -> /explore/result
print("\nspec JSON for the CLI/server (excerpt):")
print(json.dumps(spec.to_json(), indent=2)[:400], "...")


# ---------------------------------------------------------------------------
# 5. distributed sweeps — run me with `--backend remote` to fan the same
#    spec out over a locally spawned fleet of sweep workers (in production
#    each worker is `repro-sim worker` on its own machine).  Records are
#    byte-identical to the pool run above: the backend is invisible in
#    the results, by design.
# ---------------------------------------------------------------------------
def spawn_server(*args) -> tuple:
    """Start ``repro-sim worker``/``repro-server`` and parse its port."""
    import re
    import subprocess
    import sys as _sys

    process = subprocess.Popen(
        [_sys.executable, "-m", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for _ in range(8):                     # interpreter warnings may lead
        line = process.stdout.readline()
        found = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
        if found:
            return process, f"127.0.0.1:{found.group(1)}"
    process.terminate()
    process.wait(timeout=10)
    raise RuntimeError(f"{args[0]} did not start")


def run_remote_fleet() -> None:
    from repro.explore import RemoteBackend

    fleet = []
    try:
        for _ in range(2):                 # incremental: a failed second
            fleet.append(spawn_server(     # spawn still cleans up the first
                "repro.cli.main", "worker", "--port", "0"))
        urls = [url for _process, url in fleet]
        print(f"\nspawned worker fleet: {', '.join(urls)}")
        remote_run = run_sweep(spec, backend=RemoteBackend(
            urls, job_timeout_s=120.0))
    finally:
        for process, _url in fleet:
            process.terminate()
            process.wait(timeout=10)
    assert remote_run.records == run.records, \
        "remote records must be byte-identical to the pool run"
    print(f"remote fleet ran {len(remote_run.records)} jobs in "
          f"{remote_run.elapsed_s:.2f}s — records identical to the "
          f"local pool run")
    for worker_row in remote_run.execution["remoteWorkers"]:
        print(f"  worker {worker_row['url']}: "
              f"{worker_row['ok']} ok, {worker_row['failures']} failures")


# ---------------------------------------------------------------------------
# 6. fleet orchestration — run me with `--backend fleet` for the
#    server-owned version: workers *register themselves* with a frontend
#    (`repro-sim worker --register HOST:PORT`, periodic heartbeats), the
#    frontend schedules `"backend": "fleet"` sweeps onto whoever is
#    currently alive, streams per-job progress, and can cancel in-flight
#    jobs cooperatively.  No --worker-url bookkeeping on the client.
# ---------------------------------------------------------------------------
def worker_jobs_counted(url: str) -> int:
    """``repro_worker_jobs_total{kind="ok"}`` on the server at *url*."""
    from repro.server.client import SimClient

    host, port = url.split(":")
    client = SimClient(host, int(port))
    try:
        family = next(f for f in client.metrics()["metrics"]
                      if f["name"] == "repro_worker_jobs_total")
    finally:
        client.close()
    return int(sum(cell["value"] for cell in family["values"]
                   if cell["labels"].get("kind") == "ok"))


def run_server_fleet() -> None:
    import time

    from repro.server.client import SimClient

    frontend = None
    workers = []
    try:
        frontend, frontend_url = spawn_server(
            "repro.server.httpd", "--port", "0", "--quiet")
        for _ in range(2):                 # incremental: a failed second
            workers.append(spawn_server(   # spawn still cleans up the first
                "repro.cli.main", "worker", "--port", "0",
                "--register", frontend_url, "--quiet"))
        host, port = frontend_url.split(":")
        client = SimClient(host, int(port))
        try:
            # wait for both workers' first heartbeat to land
            for _ in range(100):
                if client.health()["fleet"]["live"] >= 2:
                    break
                time.sleep(0.1)
            fleet_rows = client.health()["fleet"]
            print(f"\nfleet frontend {frontend_url}: "
                  f"{fleet_rows['live']} workers registered")
            submitted = client.explore_submit(spec.to_json(),
                                              backend="fleet")
            sweep_id = submitted["sweepId"]
            finishes = 0
            for event in client.explore_stream(sweep_id):
                if event["event"] == "finish":
                    finishes += 1
                    print(f"  [{event['job']}] {event['label']} "
                          f"{event['kind']} on {event['worker']}")
            result = client.explore_result(sweep_id)
            assert result["success"], result.get("error")
            assert result["records"] == run.records, \
                "fleet records must be byte-identical to the pool run"
            print(f"fleet ran {len(result['records'])} jobs "
                  f"({finishes} streamed finish events) — records "
                  f"identical to the local pool run")
            # each process counts the jobs it ran on its own /metrics:
            # the workers' counts sum to the sweep, the frontend's is 0
            per_worker = [worker_jobs_counted(url)
                          for _process, url in workers]
            print(f"worker jobs on the workers' own /metrics: "
                  f"{sum(per_worker)} ({' + '.join(map(str, per_worker))}"
                  f"); on the frontend's: "
                  f"{worker_jobs_counted(frontend_url)}")
        finally:
            client.close()
    finally:
        for process in ([frontend] if frontend else []) \
                + [p for p, _url in workers]:
            process.terminate()
            process.wait(timeout=10)


# ---------------------------------------------------------------------------
# 6. the cross-run result warehouse — run me with `--warehouse` to feed
#    the run above (plus a synthetic "nightly" rerun with one planted
#    slowdown) into repro.explore.ResultWarehouse: bulk import, a pinned
#    baseline, the regression sentinel, and a cross-run Pareto frontier.
#    The CLI equivalent against the same store file:
#        repro-sim warehouse ingest records.jsonl --store wh.jsonl
#        repro-sim warehouse baseline <sweep-id> --store wh.jsonl
#        repro-sim warehouse diff --store wh.jsonl     # exit 1 on flags
# ---------------------------------------------------------------------------
def run_warehouse_tour() -> None:
    import copy

    from repro.explore import ResultWarehouse
    from repro.viz import render_pareto_frontier, render_regression_report

    store_path = os.path.join(os.path.dirname(records_path),
                              "warehouse.jsonl")
    with ResultWarehouse(store_path) as warehouse:
        ack = warehouse.import_file(records_path, name="width-x-cache")
        warehouse.set_baseline(ack["sweepId"])
        print(f"\nimported {ack['ingested']} records as baseline sweep "
              f"{ack['sweepId']} (content-hash id: re-importing the "
              f"same file is a no-op)")

        nightly = copy.deepcopy(run.records)
        nightly[0]["stats"]["cycles"] = \
            int(nightly[0]["stats"]["cycles"] * 1.25)
        ack = warehouse.ingest(nightly, "nightly", name="nightly")
        print(f"nightly rerun ingested: {ack['regressions']} config(s) "
              f"flagged by the sentinel at ingest time\n")
        print(render_regression_report(warehouse.regressions()), end="")
        print()
        print(render_pareto_frontier(
            warehouse.pareto(x="cycles", y="energy")), end="")
    # the store file (including the baseline pin) survives reopening:
    with ResultWarehouse(store_path) as warehouse:
        assert warehouse.baseline() is not None
        print(f"\nwarehouse persisted to {store_path} "
              f"({len(warehouse)} rows, baseline pin included)")


if "--warehouse" in sys.argv[1:]:
    run_warehouse_tour()

if "--backend" in sys.argv[1:]:
    backend_name = sys.argv[sys.argv.index("--backend") + 1:][:1]
    if backend_name == ["remote"]:
        run_remote_fleet()
    elif backend_name == ["fleet"]:
        run_server_fleet()
    else:
        raise SystemExit(f"unknown --backend {backend_name}; this demo "
                         f"adds 'remote' (client-assembled fleet) and "
                         f"'fleet' (server-owned registry) — the "
                         f"sections above are the serial/process tour)")
