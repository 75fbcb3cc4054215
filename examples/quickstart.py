#!/usr/bin/env python3
"""Quickstart: assemble, simulate, inspect — the 5-minute tour.

Covers the core public API: building a simulation from assembly, stepping
forward and *backward*, reading registers/memory, compiling C, and printing
the runtime-statistics page the paper's GUI shows (Fig. 10).
"""

from repro import CpuConfig, Simulation
from repro.compiler import compile_c
from repro.viz import render_processor, render_statistics

# ---------------------------------------------------------------------------
# 1. simulate a small assembly program
# ---------------------------------------------------------------------------
SOURCE = """
# sum of 1..100 in a0
    li  a0, 0
    li  t0, 1
    li  t1, 100
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

sim = Simulation.from_source(SOURCE)
sim.run()
print(f"sum(1..100) = {sim.register_value('a0')}")
print(f"cycles = {sim.stats.cycles}, IPC = {sim.stats.ipc:.3f}, "
      f"branch accuracy = {sim.stats.branch_prediction_accuracy:.3f}")

# ---------------------------------------------------------------------------
# 2. step-by-step simulation, forward and backward (Sec. II of the paper)
#
# Backward stepping is checkpointed: every `checkpoint_interval` cycles
# (default 128) the complete processor state is saved into an LRU-bounded
# ring (`sim.checkpoints`), so `step_back`/`seek` restore the nearest
# checkpoint and deterministically replay at most one interval — O(K)
# instead of the paper's O(t) re-run from cycle 0.  Replay is bit-exact
# (pinned by the golden determinism suite), and `sim.last_replay_cycles`
# tells you how much was actually re-run.
# ---------------------------------------------------------------------------
sim = Simulation.from_source(SOURCE, checkpoint_interval=16)
sim.step(25)
print(f"\nafter 25 cycles: committed={sim.cpu.committed}")
sim.step_back(10)        # restore the nearest checkpoint, replay the rest
print(f"after stepping back 10: cycle={sim.cycle}, "
      f"committed={sim.cpu.committed} "
      f"(replayed only {sim.last_replay_cycles} cycles)")
sim.seek(24)             # absolute jumps use the same checkpoint ring
print(f"after seek(24): cycle={sim.cycle} "
      f"(replayed {sim.last_replay_cycles} from checkpoint @16)")

# ---------------------------------------------------------------------------
# 2b. one definition per pipeline stage, two programs (the trace tier)
#
# Each pipeline stage (commit, memory, execute, issue, dispatch, fetch,
# busy accounting, end detection) is written once, as an emitter in
# repro/core/tracegen.py that writes the stage's Python source.  The
# emitters produce two programs from the same lines:
#
#   * the interpreter — `Cpu.step` and its stage methods, which read the
#     configuration at run time; stepped simulation (`sim.step`,
#     observers, the debugger) runs it;
#   * the *trace tier* — one function per processor configuration with
#     every stage inlined into a single loop body, widths, buffer sizes
#     and unit latencies folded into literals and the per-unit code
#     unrolled.  Uninstrumented runs (`sim.run()` with no observers, and
#     the fast-forward leg of far-forward `seek`s) use it.  It is
#     compiled once per configuration (a bounded LRU cache) and
#     specializes on the configuration only, never on the program, so
#     stores into the code image need no special handling.
#
# So a timing-model change is made once and both programs get it; the
# golden determinism suite and generated-program parity properties pin
# that they agree.  `tracegen.build_interpreter_source()` and
# `tracegen.build_step_source(cpu)` return the generated text.
#
# Far-forward seeks run uninstrumented to the last checkpoint boundary
# below the target, drop the checkpoint there, and step only the tail
# interval — `sim.last_fast_forward` reports the fast-forwarded share.
# When bisecting a timing bug you can rule the tier out with
# `config.trace = False`.
#
# `repro-sim run --verbosity 2` names the tier that ran after the
# checkpoint-ring line.
# ---------------------------------------------------------------------------
sim = Simulation.from_source(SOURCE, checkpoint_interval=16)
sim.seek(90)             # far-forward: uninstrumented to cycle 80, step 10
engaged = sim.cpu._step_loop is not None
print(f"\nseek(90): fast-forwarded {sim.last_fast_forward} cycles"
      + (" through the step loop" if engaged
         else " (trace tier disabled)"))

# ---------------------------------------------------------------------------
# 3. compile C and watch the optimizer work
# ---------------------------------------------------------------------------
C_SOURCE = """
int dot(int *a, int *b, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += a[i] * b[i];
    return s;
}

int main(void) {
    int a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int b[8] = {8, 7, 6, 5, 4, 3, 2, 1};
    return dot(a, b, 8);
}
"""

print("\nC compilation at four optimization levels:")
for level in range(4):
    result = compile_c(C_SOURCE, level)
    run = Simulation.from_source(result.assembly, entry="main")
    run.run()
    print(f"  O{level}: result={run.register_value('a0'):>4}  "
          f"cycles={run.stats.cycles:>6}  IPC={run.stats.ipc:.3f}")

# ---------------------------------------------------------------------------
# 4. customize the architecture (Fig. 9 settings window)
# ---------------------------------------------------------------------------
wide = CpuConfig.preset("wide")
sim = Simulation.from_source(SOURCE, config=wide)
sim.run()
print(f"\non the 4-wide preset: cycles={sim.stats.cycles}, "
      f"IPC={sim.stats.ipc:.3f}")

# ---------------------------------------------------------------------------
# 5. the GUI views as text (Figs. 10 and 12)
# ---------------------------------------------------------------------------
sim = Simulation.from_source(SOURCE)
sim.step(8)
print("\n--- main window (Fig. 12), cycle 8 ---")
print(render_processor(sim.cpu))
sim.run()
print("\n--- statistics page (Fig. 10) ---")
print(render_statistics(sim.stats))

# ---------------------------------------------------------------------------
# 6. design-space sweeps (the experiment engine, repro.explore)
#
# Ablations like the paper's evaluation — width, cache geometry, predictor,
# optimization level — are declarative sweep specs run on a worker pool
# (workers=0 is the plain serial loop; parallel runs are bit-identical).
# See examples/design_sweep.py for the full tour, `repro-sim explore` for
# the CLI mode, and /explore/* for the server endpoints.
# ---------------------------------------------------------------------------
from repro.explore import SweepSpec, run_sweep

sweep = run_sweep(SweepSpec.from_json({
    "name": "fetch-width",
    "programs": [{"name": "sum", "source": SOURCE}],
    "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
              "values": [1, 2, 4]}],
}), workers=0)
print("\n--- a 3-point sweep through the experiment engine ---")
for entry in sweep.report(metric="cycles").ranking():
    print(f"  #{entry['rank']} {entry['label']}: {entry['value']} cycles")

# ---------------------------------------------------------------------------
# 7. distributed sweeps (remote execution backends)
#
# Sweep execution is pluggable: the same spec runs on the in-process
# serial loop, the local process pool, or an HTTP fleet of sweep workers
# — with byte-identical records on every backend.  Start workers (one
# per machine/core you want to throw at the grid):
#
#     repro-sim worker --port 8046      # on each worker host
#
# then fan the sweep out over them:
#
#     repro-sim explore spec.json --backend remote \
#         --worker-url hostA:8046 --worker-url hostB:8046
#
# or programmatically:
#
#     from repro.explore import RemoteBackend
#     run = run_sweep(spec, backend=RemoteBackend(
#         ["hostA:8046", "hostB:8046"], job_timeout_s=120))
#
# Jobs are dispatched over a bounded in-flight window with per-job
# timeout and at-most-one re-dispatch; a dead worker is excluded while
# the sweep completes on the rest (`run.execution` holds the per-worker
# health rows).  Repeated-program grids are cheap everywhere: per-job
# setup (C compile, assembly) hits a content-addressed artifact cache —
# shared on disk across local pool workers, in memory per remote worker
# (size-bounded on disk: LRU GC, REPRO_ARTIFACT_MAX_BYTES override).
# See examples/design_sweep.py --backend remote for a runnable demo.
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# 8. fleet orchestration (server-owned distributed sweeps, repro.fleet)
#
# The remote backend above is client-assembled: whoever runs the sweep
# must know every worker URL.  Fleet mode inverts the ownership — the
# *server* owns a worker registry, and workers announce themselves:
#
#     repro-server --port 8045                          # the frontend
#     repro-sim worker --register frontend:8045         # on each machine
#
# Workers heartbeat (POST /fleet/register, TTL-expired, flap-excluded
# when they bounce; `GET /health` shows the fleet rows), and a sweep
# submitted with `"backend": "fleet"` runs on whoever is alive — jobs
# rebalance when workers join or leave mid-sweep, records stay
# byte-identical to serial throughout:
#
#     repro-sim explore spec.json --host frontend --backend fleet --follow
#
# --follow streams live per-job events (chunked GET /explore/stream;
# SimClient.explore_stream programmatically) instead of polling.  Sweeps
# are cancellable end to end: POST /explore/cancel drains undispatched
# jobs and propagates /worker/cancel to in-flight ones, where a cancel
# token is checked inside the simulation hot loop every ~5k cycles — an
# abandoned job stops within one check interval (milliseconds) instead
# of burning its cycle budget.  Worker cache health is one poll away on
# GET /worker/status.  See examples/design_sweep.py --backend fleet for
# a runnable two-worker demo against a locally spawned frontend.
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# 8b. one compile per sweep: the dispatcher ships assembly
#
# Remote and fleet workers never compile a sweep's C programs.  Just
# before a job goes out, RemoteBackend compiles its program through the
# dispatcher's content-addressed artifact cache — the frontend's for a
# fleet sweep, the process default for `--backend remote` — and sends
# {"source": <assembly>} with the program's name, entry and memory
# unchanged.  The compile is single-flighted, so a sweep compiles each
# (C source, opt level) once however many workers run it:
# `compile.misses` reads 1 on the dispatcher and 0 on every worker
# (GET /worker/status).  A program that does not compile settles its
# jobs with the serial loop's error record and never reaches a worker.
# benchmarks/test_dataplane.py gates the cold-fleet setup this saves
# (>= 3x with 6 workers) and serial = remote = fleet record identity.
# The saving needs repeated programs: distinct programs compile one
# after another on the dispatcher, not in parallel on the workers.
# ---------------------------------------------------------------------------
from repro.explore.artifacts import ArtifactCache

store = ArtifactCache()
assembly = store.compiled_assembly(C_SOURCE, 1)          # the one compile
assert store.compiled_assembly(C_SOURCE, 1) == assembly  # every later job
print(f"\none compile per sweep: {len(assembly)} characters of assembly "
      f"shipped to every worker, dispatcher compile stats "
      f"{store.stats()['compile']}")

# ---------------------------------------------------------------------------
# 9. repro-lint (the invariant checker, repro.analyze)
#
# Several of the guarantees above are *conventions*, not things the type
# system enforces: records must be byte-identical across backends, every
# save_state component must bump its dirty version so snapshot caches
# notice mutations, shared fields in the threaded modules must only be
# touched under their lock, and every protocol route needs a client
# wrapper plus a test.  `repro-sim lint` parses src/repro with the ast
# module and machine-checks all four families:
#
#   SC001/SC002  state contracts   save_state <-> restore_state pairing;
#                                  mutators of persisted attrs bump the
#                                  version counter (stale-cache guard)
#   LD001/LD002  lock discipline   lock-guarded attrs never touched
#                                  outside the lock; no lock-order
#                                  inversions or self-deadlocks
#   DT001-DT005  determinism       no wall clocks, unseeded random,
#                                  id()-keyed maps, set-iteration
#                                  ordering, or non-REPRO_* env reads
#                                  anywhere a sweep job can execute
#                                  (the byte-identical-records bar)
#   PC001-PC003  protocol surface  every route has a SimClient wrapper
#                                  + a test; PROTOCOL_VERSION bumps
#                                  when the route set changes
#
# Verified-harmless findings live in lint-baseline.json with an inline
# justification; anything new fails CI (and tier-1, via the self-check
# test).  To accept a finding intentionally, run
# `repro-sim lint --update-baseline` and add a justification string to
# the new entry.  `--format json` emits a stable machine-readable report.
# ---------------------------------------------------------------------------
from repro.analyze import LintEngine, Project
from repro.analyze.baseline import Baseline
from repro.analyze.project import discover_root

root = discover_root()
baseline = Baseline.load(root / "lint-baseline.json")
new, baselined = baseline.split(
    LintEngine(Project.load(root), baseline=baseline).run())
print(f"\nrepro-lint: {len(new)} new findings, "
      f"{len(baselined)} baselined (verified harmless)")
assert not new, [f.render() for f in new]

# ---------------------------------------------------------------------------
# 10. observability (the telemetry plane, repro.obs — protocol v7)
#
# Everything the server does is observable without touching the
# simulated machine:
#
#   * GET /metrics scrapes a process-wide registry — request counters,
#     session/queue/fleet gauges, wall-time histograms with shared
#     nearest-rank p50/p90 summaries.  Counters increment lock-free
#     (per-thread shards, merged on scrape) and are monotone for the
#     process lifetime; `curl ':8045/metrics?format=prometheus'` serves
#     the same scrape in Prometheus text exposition format.
#   * Every sweep (unless submitted with "trace": false) collects a span
#     tree: one root sweep span, queue wait, and per-job spans wrapping
#     the worker-side compile/simulate/record phases — on the serial
#     and fleet backends alike (the local process pool records the job
#     envelopes only; trace context rides in job payloads, and span
#     times never enter records, which stay byte-identical).
#     GET /trace/<sweepId> returns it; `repro-sim explore --trace-out
#     FILE` exports it as NDJSON; --follow prints a live top-style
#     summary line per finished job.
#   * The overhead contract is gated by benchmarks/test_obs_overhead.py:
#     uninstrumented Simulation.run() throughput is unchanged with the
#     telemetry plane compiled in (no hooks on the hot loop), one
#     counter bump costs well under a microsecond, and the sampled
#     profilers below attach from *outside* the CPU — detached, they
#     cost nothing, not even a branch.
# ---------------------------------------------------------------------------
from repro.server.protocol import Api
from repro.viz import render_span_waterfall

api = Api()
submitted = api.handle("POST", "/explore/submit",
                       {"spec": {"name": "obs-tour",
                                 "programs": [{"name": "sum",
                                               "source": SOURCE}],
                                 "axes": [{"name": "width",
                                           "path": "config.buffers.fetchWidth",
                                           "values": [1, 2]}]},
                        "workers": 0})
while api.handle("POST", "/explore/status",
                 {"sweepId": submitted["sweepId"]})["state"] \
        not in ("done", "failed", "cancelled"):
    import time
    time.sleep(0.02)
trace = api.handle("GET", f"/trace/{submitted['sweepId']}", None)
print("\n--- one sweep = one span tree (GET /trace/<sweepId>) ---")
print(render_span_waterfall(trace["spans"]), end="")
scrape = api.handle("GET", "/metrics", None)["metrics"]
jobs = next(f for f in scrape if f["name"] == "repro_sweep_jobs_total")
print(f"/metrics: {len(scrape)} families; sweep jobs by backend/kind: "
      + ", ".join(f"{cell['labels']['backend']}/{cell['labels']['kind']}"
                  f"={cell['value']}" for cell in jobs["values"]))
api.close()

# Hot-loop profiling is opt-in and sampled: PipelineProfiler wraps the
# six generated stage methods `Cpu.step` calls on one Cpu *instance*
# (interpreter path), timing every Nth call; ResidencyProfiler slices an
# uninstrumented run into chunks and reports cycles/sec and the tier that
# served each one (in the step loop the same stages run inlined).
from repro.obs.profile import PipelineProfiler

sim = Simulation.from_source(SOURCE)
sim.cpu.config.trace = False           # profile the interpreter path
with PipelineProfiler(sim.cpu, stride=16) as profiler:
    sim.run()
report = profiler.report()
top = max(report["stages"], key=lambda stage: stage["share"])
print(f"sampled pipeline profile (stride {report['stride']}): "
      f"hottest stage '{top['stage']}' at {top['share']:.0%} "
      f"of sampled time")

# ---------------------------------------------------------------------------
# 11. the result warehouse (cross-run observability, protocol v9)
#
# One sweep answers "which config wins today"; the warehouse answers the
# longitudinal questions: how does this week's frontier compare with
# last week's, and which config regressed between two runs.  A server's
# warehouse ingests every finished sweep automatically (query it over
# GET /warehouse/query|pareto|regressions, pin a baseline with
# POST /warehouse/baseline); `repro-sim warehouse` is the same console
# against a local append-only store file.  Everything it returns is
# canonically ordered, so query/frontier/diff payloads are
# byte-deterministic and independent of ingest order.
# ---------------------------------------------------------------------------
import copy

from repro.explore import ResultWarehouse
from repro.viz import render_pareto_frontier, render_regression_report

warehouse = ResultWarehouse()           # ResultWarehouse("wh.jsonl") persists
warehouse.ingest(sweep.records, "week0", name="fetch-width")
warehouse.set_baseline("week0")

# a later run of the same grid where one config got slower (say a
# scheduling change landed): same labels, one planted regression
nightly = copy.deepcopy(sweep.records)
nightly[0]["stats"]["cycles"] = int(nightly[0]["stats"]["cycles"] * 1.3)
ack = warehouse.ingest(nightly, "week1", name="fetch-width-nightly")
print("\n--- regression sentinel (flagged at ingest: "
      f"{ack['regressions']} config(s)) ---")
print(render_regression_report(warehouse.regressions()), end="")

print("\n--- cross-run Pareto frontier, cycles vs energy ---")
print(render_pareto_frontier(warehouse.pareto(x="cycles", y="energy")),
      end="")
