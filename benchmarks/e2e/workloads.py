"""The four workloads.

Each ``run_<workload>(run)`` returns an :class:`Outcome` whose ``values``
hold every end-to-end metric (untraced run) or every per-layer metric
(traced run) of ``BENCHMARK.json``.  The e2e metrics share one meaning
across workloads:

* ``latency_p50_ms`` / ``latency_p90_ms`` -- one user operation: a
  session move (``step_*``), a compile + simulate pair (edit), one sweep
  job, as its median over the run's repeated sweeps (sweep);
* ``throughput_per_s`` -- completed operations per second at saturation:
  closed-loop requests (``step_*``), edit pairs, sweep jobs;
* ``setup_s`` -- median of repeated set-ups (server spawn -> first
  ``/health``; sweep: backend + plan -> first dispatch);
* ``peak_rss_mb`` -- the server's ``VmHWM`` (sweep: largest worker's).

A traced run measures the same workload twice, each half as long: once
untraced and once with spans recorded (server bootstrap wrappers plus
client-side wrappers), and reports the per-layer breakdown of the traced
half with the difference as tracing overhead.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.sim.state as sim_state
from repro.core.config import CpuConfig
from repro.server.loadtest import DEFAULT_PROGRAMS

from . import inputs, metrics
from .loadgen import CONNECTIONS, ClientTracer, LoopResult, closed_loop, \
    open_loop
from .server import Env, ServerProcess, child_pids, proc_hwm_mb
from .serverboot import wrap_toolchain
from .spans import Recorder, durations

#: share of a step workload's seconds spent in the open loop (the rest is
#: the closed-loop capacity phase, whose rate settles within seconds)
OPEN_SHARE = 0.8
#: nearest-rank percentile reported beside the median (Table I's p90)
TAIL = 0.9
#: sweep worker processes: the reference host's two vCPUs share one
#: core's throughput, so a second worker added ~8 % jobs/s but raised the
#: run-to-run spread of job times from ~3 % to ~11 %
SWEEP_WORKERS = 1
#: the edit loop's model counts cover this prefix of its program stream
#: (one balanced block: both kernels at every level), which every run
#: completes
EDIT_MODEL_PREFIX = 8

MOVES = ("session_step",)
TRAVEL_MOVES = ("session_step", "session_back", "session_seek")


@dataclass(frozen=True)
class Scale:
    """How big a run is: the CLI runs ``FULL``, the smoke test ``TINY``."""

    setups: int = 5
    warmup_s: float = 3.0
    edit_warmup_s: float = 2.0
    sessions: int = inputs.SESSIONS
    life: int = inputs.STEPS_PER_LIFE
    #: matrix side and quicksort length of the compiled C programs
    side: int = 16
    sweep_widths: Tuple[int, ...] = inputs.SWEEP_WIDTHS


FULL = Scale()
TINY = Scale(setups=1, warmup_s=0.1, edit_warmup_s=0.0, sessions=2, life=4,
             side=4, sweep_widths=(2,))


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    env: Env
    scale: Scale = FULL


@dataclass
class Outcome:
    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def tally(self, result: LoopResult) -> None:
        self.attempted += len(result.samples)
        for sample in result.samples:
            if not sample.ok:
                self.fail(f"{sample.op}: {sample.error}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


class CheckFailed(AssertionError):
    """A response was not what the generated input implies."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def model_row(stats: dict) -> dict:
    """Model counts from a statistics panel (sessions) or page (runs)."""
    cache = stats.get("cache") or {}
    predictor = stats.get("branchPredictor") or {}
    return {"cycles": stats["cycles"],
            "committed": stats["committedInstructions"],
            "ipc": stats["ipc"],
            "hit": stats.get("cacheHitRate", cache.get("hitRatio")),
            "accuracy": stats.get("branchAccuracy",
                                  predictor.get("accuracy"))}


def big_stack_config() -> dict:
    config = CpuConfig().to_json()
    # an O0 quicksort frame is ~0.5 KiB, and the recursion runs 10 deep
    config["memory"]["callStackSize"] = 16384
    return config


# -- session actors (one per session slot) --------------------------------
class FullActor:
    """``step_full`` slot: new, N one-cycle full-state steps (what
    ``run_load_test`` sends), close.

    ``rows`` collects the model counts of every session the slot ends,
    including the one still open when the load stops, so they depend on
    the arrival schedule alone."""

    def __init__(self, program: str, life: int):
        self.program, self.life = program, life
        self.sid: Optional[str] = None
        self.pending = "session_new"
        self.steps = 0
        self.view: Optional[dict] = None
        self.rows: List[dict] = []
        self.moved = self.moves = self.ff = 0
        self.delta_requests = self.fallbacks = 0

    def act(self, client) -> str:
        if self.sid is None:
            self.pending = "session_new"
            self.sid, self.steps, self.view = \
                client.session_new(self.program), 0, None
            return self.pending
        if self.steps == self.life:
            return self._close(client)
        self.pending = "session_step"
        out = client.session_step(self.sid, 1)
        expect(out.get("success") is True and out.get("stateFormat") == "full",
               f"session/step answered {sorted(out)}")
        cycle = out["state"]["cycle"]
        expect(cycle == self.steps + 1,
               f"step to cycle {self.steps + 1} answered cycle {cycle}")
        self.steps, self.view = self.steps + 1, out["state"]
        self.moved, self.moves = self.moved + 1, self.moves + 1
        return self.pending

    def _close(self, client) -> str:
        self.pending = "session_close"
        out, self.sid = client.session_close(self.sid), None
        expect(out.get("success") is True, "session/close failed")
        if self.view is not None:
            self.rows.append(model_row(self.view["statistics"]))
        return self.pending

    def close(self, client) -> None:
        """End the open session after the load stopped."""
        if self.sid is not None:
            self._close(client)


class TravelActor(FullActor):
    """``step_travel`` slot: new, N seeded moves (forward / back / seek)
    with encoded deltas applied client-side, a ``/session/state`` check of
    the delta chain, close."""

    def __init__(self, program: dict, plans: Callable[[int], list],
                 life: int):
        super().__init__(program["assembly"], life)
        self.spec, self.plans = program, plans
        self.lives = 0
        self.cycle = 0
        self.plan: list = []
        self.checked = False

    def act(self, client) -> str:
        if self.sid is None:
            self.pending = "session_new"
            self.sid = client.session_new(
                self.spec["assembly"], entry=self.spec["entry"],
                memory=self.spec["memory"], config=self.spec["config"])
            self.plan, self.lives = self.plans(self.lives), self.lives + 1
            self.steps, self.cycle, self.view = 0, 0, None
            self.checked = False
            return self.pending
        if self.steps < len(self.plan):
            return self._move(client, *self.plan[self.steps])
        if not self.checked:
            return self._check(client)
        return self._close(client)

    def close(self, client) -> None:
        if self.sid is not None and self.view is not None \
                and not self.checked:
            self._check(client)
        super().close(client)

    def _check(self, client) -> str:
        self.pending = "session_state"
        out = client.session_state(self.sid)
        served = json.dumps(out["state"], sort_keys=True)
        held = json.dumps(self.view, sort_keys=True)
        expect(served == held, f"delta chain diverged from /session/state "
               f"at cycle {self.cycle}")
        self.checked = True
        return self.pending

    def _move(self, client, kind: str, amount) -> str:
        halt = self.spec["halt_cycle"]
        if kind == "seek":
            self.pending = "session_seek"
            target = int(amount * self.cycle)
            out = client.session_seek(self.sid, target)
            expect(out.get("success") is True, "session/seek failed")
            self.view = out["state"]
            self.ff += out.get("fastForward", 0)
        else:
            self.pending = "session_step" if kind == "step" else \
                "session_back"
            cycles = amount if kind == "step" else -amount
            target = min(self.cycle + cycles, halt) if kind == "step" \
                else max(0, self.cycle + cycles)
            out = client.session_step(self.sid, cycles, delta=True)
            expect(out.get("success") is True, "session/step failed")
            delta = out["stateDelta"]
            self.delta_requests += 1
            self.fallbacks += delta.get("format") == "full"
            self.view = sim_state.apply_snapshot_delta(self.view or {}, delta)
        expect(self.view["cycle"] == target,
               f"{kind} to cycle {target} answered cycle {self.view['cycle']}")
        self.moved += abs(target - self.cycle)
        self.moves += 1
        self.cycle = target
        self.steps += 1
        return self.pending


def step_full_actors(run: Run, server: ServerProcess) -> Callable[[], list]:
    choice = inputs.session_programs(
        inputs.rng_for(run.workload, run.seed, "programs"),
        run.scale.sessions, len(DEFAULT_PROGRAMS))
    return lambda: [FullActor(DEFAULT_PROGRAMS[c], run.scale.life)
                    for c in choice]


def step_travel_actors(run: Run, server: ServerProcess) -> Callable[[], list]:
    """Compile the two C programs once, simulate each seeded variant once
    (its answer and halt cycle), and hand slots round-robin over them."""
    variants = inputs.travel_programs(
        inputs.rng_for(run.workload, run.seed, "programs"), run.scale.side)
    config = big_stack_config()
    client = server.client()
    programs = []
    try:
        assembly: Dict[tuple, str] = {}
        for variant, level in variants:
            key = (variant["c"], level)
            if key not in assembly:
                compiled = client.compile(variant["c"], level)
                expect(compiled.get("success") is True,
                       f"set-up compile failed: {compiled.get('errors')}")
                assembly[key] = compiled["assembly"]
            program = dict(variant, assembly=assembly[key], config=config)
            result = client.simulate(program["assembly"],
                                     entry=program["entry"],
                                     memory=program["memory"],
                                     config=config, fullState=True)
            a0 = result["state"]["registers"]["int"][10]
            expect(a0 == variant["expected"],
                   f"set-up run answered a0={a0}, expected "
                   f"{variant['expected']}")
            program["halt_cycle"] = result["result"]["cycles"]
            programs.append(program)
    finally:
        client.close()

    def plans_for(slot: int) -> Callable[[int], list]:
        return lambda life: inputs.travel_moves(
            inputs.rng_for(run.workload, run.seed, "moves", slot, life),
            run.scale.life)

    return lambda: [TravelActor(programs[slot % len(programs)],
                                plans_for(slot), run.scale.life)
                    for slot in range(run.scale.sessions)]


# -- interactive workloads -------------------------------------------------
def _setups(run: Run, count: int) -> List[float]:
    """Set-up seconds of *count* servers started and stopped in turn."""
    times = []
    for _ in range(count):
        server = ServerProcess(run.env)
        times.append(server.start())
        server.stop()
    return times


def with_server(run: Run, body: Callable[[ServerProcess], object]):
    """``body(server)`` on a fresh server; returns its result, the median
    set-up time and the server's peak RSS.  Set-up is also timed on
    servers started before and after (``scale.setups`` in all), so the
    median samples both ends of the run."""
    setups = _setups(run, run.scale.setups // 2)
    server = ServerProcess(run.env)
    setups.append(server.start())
    try:
        result = body(server)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += _setups(run, run.scale.setups // 2)
    return result, statistics.median(setups), rss


def _open_phase(run: Run, server: ServerProcess, actors: list, seconds: float,
                tracer: Optional[ClientTracer] = None):
    arrivals = inputs.poisson_arrivals(
        inputs.rng_for(run.workload, run.seed, "arrivals"),
        run.scale.warmup_s + seconds, run.scale.sessions, CONNECTIONS)
    clients = [server.client() for _ in range(CONNECTIONS)]
    try:
        result = open_loop(clients, actors, arrivals, run.scale.warmup_s,
                           tracer)
        return result, clients
    except BaseException:
        for client in clients:
            client.close()
        raise


def _close_sessions(actors: list, clients: list, out: Outcome) -> None:
    for slot, actor in enumerate(actors):
        try:
            actor.close(clients[slot % len(clients)])
        except Exception as exc:  # noqa: BLE001 - report, keep closing
            out.fail(f"closing session: {type(exc).__name__}: {exc}")
    for client in clients:
        client.close()


def interactive(run: Run, make_actors, moves) -> Outcome:
    out = Outcome()
    if run.trace:
        return traced_interactive(run, make_actors, moves, out)
    open_s = run.seconds * OPEN_SHARE

    def body(server):
        actors = make_actors(run, server)()
        opened, clients = _open_phase(run, server, actors, open_s)
        groups = [actors[i::CONNECTIONS] for i in range(CONNECTIONS)]
        capacity = closed_loop(clients, groups, run.seconds - open_s)
        _close_sessions(actors, clients, out)
        return opened, capacity

    (opened, capacity), setup_s, rss = with_server(run, body)
    out.tally(opened)
    out.tally(capacity)
    latencies = [s.latency_ms for s in opened.measured(moves)]
    if not latencies:
        out.fail("no measured moves")
        latencies = [0.0]
    out.values.update({
        "setup_s": setup_s,
        "latency_p50_ms": metrics.percentile(latencies, 0.5),
        "latency_p90_ms": metrics.percentile(latencies, TAIL),
        "throughput_per_s": sum(1 for s in capacity.samples
                                if s.measured and s.ok) / capacity.wall_s,
        "peak_rss_mb": rss,
    })
    out.notes.append(f"open loop: {len(latencies)} measured moves at "
                     f"{inputs.ARRIVAL_RATE:g} rps over {open_s:g} s; "
                     f"capacity: {len(capacity.samples)} requests in "
                     f"{capacity.wall_s:.1f} s on {CONNECTIONS} connections")
    return out


def _traced_server_phase(run: Run, traced: bool, drive):
    """One half of a traced run: a server (span-recording when *traced*),
    ``drive(server, tracer)`` with the client wrappers installed, then the
    server's span records."""
    server = ServerProcess(run.env,
                           run.env.path("spans.json") if traced else None)
    server.start()
    tracer = ClientTracer() if traced else None
    try:
        result = drive(server, tracer)
    finally:
        records = server.stop()
    return result, records, tracer


def _request_layers(out: Outcome, tracer: ClientTracer,
                    server_records: List[dict], untraced_p50: float,
                    traced_p50: float) -> None:
    """Join client and server spans of the traced half and fill the
    request-path per-layer metrics and the report notes."""
    client_records = [r for r in tracer.recorder.records if r.get("measured")]
    pairs = metrics.join(client_records, server_records)
    if len(pairs) < len(client_records):
        out.fail(f"joined {len(pairs)} of {len(client_records)} traced "
                 f"requests to server spans")
    server_side = [server for _, server in pairs]
    values = out.values
    values.update(metrics.layer_metrics(server_side, "httpd.request"))
    values.update(metrics.client_metrics(pairs))
    values["trace.overhead_ratio"] = metrics.ratio(traced_p50,
                                                   untraced_p50) - 1.0
    values.update({"engine.plan_share": 0.0, "artifacts.hit_ratio": 0.0,
                   "backend.overhead_ratio": 0.0})
    waits = metrics.transport_waits(pairs)
    out.notes += layer_notes(values, server_side, "httpd.request",
                             untraced_p50, traced_p50)
    out.notes.append("Api.handle wall per route (calls, mean ms):")
    for route, calls, ms in metrics.route_table(server_side):
        out.notes.append(f"  {route:<24} {calls:6d} {ms:9.3f}")
    if waits:
        out.notes.append(
            f"transport.wait (client rtt - decode - httpd.request): mean "
            f"{1e3 * metrics.mean(waits):.3f} ms, p95 "
            f"{1e3 * metrics.percentile(waits, 0.95):.3f} ms, share of the "
            f"client operation {values['transport.wait_share']:.3f}")


def traced_interactive(run: Run, make_actors, moves, out: Outcome) -> Outcome:
    factory: List[Callable[[], list]] = []

    def drive(server, tracer):
        if not factory:  # set up once, on the first half's server
            factory.append(make_actors(run, server))
        actors = factory[0]()
        if tracer is not None:
            tracer.install()
        try:
            opened, clients = _open_phase(run, server, actors,
                                          run.seconds / 2, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        _close_sessions(actors, clients, out)
        out.tally(opened)
        return opened, actors

    (untraced, actors), _, _ = _traced_server_phase(run, False, drive)
    (traced, traced_actors), records, tracer = \
        _traced_server_phase(run, True, drive)
    rows = [row for actor in actors for row in actor.rows]
    if rows != [row for actor in traced_actors for row in actor.rows]:
        out.fail("traced and untraced runs simulated different states")
    base = metrics.percentile(
        [s.latency_ms for s in untraced.measured(moves)], 0.5)
    traced_p50 = metrics.percentile(
        [s.latency_ms for s in traced.measured(moves)], 0.5)
    values = out.values
    values.update(metrics.model_metrics(rows))
    values["loadgen.late_share"] = metrics.ratio(metrics.percentile(
        [s.late_ms for s in untraced.samples if s.measured], 0.99), base)
    values["simulation.cycles_per_request"] = metrics.ratio(
        sum(a.moved for a in actors), sum(a.moves for a in actors))
    values["simulation.fast_forward_ratio"] = metrics.ratio(
        sum(a.ff for a in actors), sum(a.moved for a in actors))
    values["session.delta_fallback_ratio"] = metrics.ratio(
        sum(a.fallbacks for a in actors),
        sum(a.delta_requests for a in actors))
    values["simulation.run_instr_per_s"] = 0.0
    _request_layers(out, tracer, records, base, traced_p50)
    return out


def layer_notes(values: Dict[str, float], records: List[dict], root: str,
                untraced_p50: float, traced_p50: float) -> List[str]:
    lines = [f"traced {root}: {len(records)} records, mean "
             f"{values['trace.op_ms']:.3f} ms; layer self time "
             f"(ms per record, share of {root}):"]
    for name, ms, share in metrics.self_table(records, root):
        lines.append(f"  {name:<24} {ms:9.4f}  {100 * share:5.1f} %")
    lines.append(f"coverage by named layers: "
                 f"{100 * values['trace.coverage_ratio']:.1f} %")
    lines.append(f"state.json_share: {values['state.json_share']:.3f}")
    lines.append(f"tracing overhead: {untraced_p50:.3f} ms untraced -> "
                 f"{traced_p50:.3f} ms traced "
                 f"({100 * values['trace.overhead_ratio']:+.1f} %)")
    return lines


def run_step_full(run: Run) -> Outcome:
    return interactive(run, step_full_actors, MOVES)


def run_step_travel(run: Run) -> Outcome:
    return interactive(run, step_travel_actors, TRAVEL_MOVES)


# -- edit loop ---------------------------------------------------------------
class EditActor:
    """One editor: compile a fresh variant, then simulate it (two
    requests, so two operations; a pair is one user-visible edit)."""

    def __init__(self, run: Run):
        self.stream = inputs.edit_stream(
            inputs.rng_for(run.workload, run.seed, "programs"))
        self.config = big_stack_config()
        self.pending = "compile"
        self.program: Optional[dict] = None
        self.assembly: Optional[str] = None
        self.index = -1
        self.rows: List[dict] = []
        self.committed = 0

    def act(self, client) -> str:
        if self.assembly is None:
            self.pending = "compile"
            self.program, self.index = next(self.stream), self.index + 1
            out = client.compile(self.program["c"], self.program["level"])
            expect(out.get("success") is True,
                   f"compile failed: {out.get('errors')}")
            self.assembly = out["assembly"]
            return self.pending
        self.pending = "simulate"
        program, assembly, self.assembly = self.program, self.assembly, None
        out = client.simulate(assembly, entry=program["entry"],
                              memory=program["memory"], config=self.config,
                              fullState=True)
        expect(out.get("success") is True, "simulate failed")
        a0 = out["state"]["registers"]["int"][10]
        expect(a0 == program["expected"],
               f"program {self.index} (O{program['level']}) answered "
               f"a0={a0}, expected {program['expected']}")
        if self.index < EDIT_MODEL_PREFIX:
            self.rows.append(model_row(out["result"]["statistics"]))
        self.committed += out["result"]["committedInstructions"]
        return self.pending


def _pairs(result: LoopResult) -> List[float]:
    """Compile + simulate latencies of fully measured, successful pairs."""
    out = []
    for first, second in zip(result.samples, result.samples[1:]):
        if (first.op, second.op) == ("compile", "simulate") \
                and first.measured and first.ok and second.ok:
            out.append(first.latency_ms + second.latency_ms)
    return out


def _edit_loop(run: Run, server: ServerProcess, seconds: float,
               tracer: Optional[ClientTracer] = None):
    actor = EditActor(run)
    client = server.client()
    if tracer is not None:
        tracer.install()
    try:
        result = closed_loop([client], [[actor]], seconds,
                             run.scale.edit_warmup_s, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        client.close()
    return result, actor


def run_edit_compile_run(run: Run) -> Outcome:
    out = Outcome()
    if run.trace:
        return traced_edit(run, out)
    (result, _actor), setup_s, rss = with_server(
        run, lambda server: _edit_loop(run, server, run.seconds))
    out.tally(result)
    pairs = _pairs(result)
    if not pairs:
        out.fail("no measured edit pair")
        pairs = [0.0]
    out.values.update({
        "setup_s": setup_s,
        "latency_p50_ms": metrics.percentile(pairs, 0.5),
        "latency_p90_ms": metrics.percentile(pairs, TAIL),
        "throughput_per_s": len(pairs) / result.wall_s,
        "peak_rss_mb": rss,
    })
    out.notes.append(f"closed loop: {len(pairs)} compile+simulate pairs in "
                     f"{result.wall_s:.1f} s on 1 connection")
    return out


def traced_edit(run: Run, out: Outcome) -> Outcome:
    def drive(server, tracer):
        result, actor = _edit_loop(run, server, run.seconds / 2, tracer)
        out.tally(result)
        return result, actor

    (untraced, actor), _, _ = _traced_server_phase(run, False, drive)
    (traced, traced_actor), records, tracer = \
        _traced_server_phase(run, True, drive)
    # a full-length half completes the whole model prefix; a short one
    # compares what both halves completed
    rows = actor.rows[:len(traced_actor.rows)]
    if rows != traced_actor.rows[:len(rows)]:
        out.fail("traced and untraced runs simulated different states")
    base = metrics.percentile(_pairs(untraced) or [0.0], 0.5)
    traced_p50 = metrics.percentile(_pairs(traced) or [0.0], 0.5)
    values = out.values
    values.update(metrics.model_metrics(rows))
    values["loadgen.late_share"] = 0.0
    # every /simulate of the traced half, warm-up included, on both sides
    run_s = sum(durations(r)[0].get("simulation.run", 0.0)
                for r in records if r.get("route") == "/simulate")
    values["simulation.run_instr_per_s"] = metrics.ratio(
        traced_actor.committed, run_s)
    values["simulation.cycles_per_request"] = metrics.ratio(
        sum(r["cycles"] for r in rows), len(rows))
    values["simulation.fast_forward_ratio"] = 0.0
    values["session.delta_fallback_ratio"] = 0.0
    _request_layers(out, tracer, records, base, traced_p50)
    return out


# -- co-design sweep -------------------------------------------------------
class _JobTracer:
    """``execute_payload(tracer=)`` adapter: its compile / simulate /
    record phases become ``runner.*`` spans of the current record."""

    NAMES = {"compile": "runner.build", "simulate": "runner.simulate",
             "record": "runner.record"}

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def span(self, name: str, **_tags):
        return self.recorder.span(self.NAMES[name])


def _sweep_inputs(run: Run):
    from repro.explore import SweepSpec
    rng = inputs.rng_for(run.workload, run.seed, "programs")
    spec, expected = inputs.sweep_spec(rng, run.scale.side,
                                       run.scale.sweep_widths)
    return SweepSpec.from_json(spec), expected


def _check_records(records: List[dict], expected: Dict[str, int],
                   out: Outcome) -> None:
    for record in records:
        program = record["point"]["program"]
        if not record.get("ok"):
            out.fail(f"{record['label']}: {record.get('kind')}: "
                     f"{record.get('error')}")
            continue
        a0 = record["stats"]["intRegisters"][10]
        if a0 != expected[program]:
            out.fail(f"{record['label']}: a0={a0}, expected "
                     f"{expected[program]}")


def _process_sweep(run: Run, spec, tag: str) -> dict:
    """One sweep on a fresh process backend with a cold, fresh artifact
    directory; returns timings, records and worker memory."""
    from repro.explore import ProcessBackend, run_sweep
    from repro.explore.artifacts import ARTIFACT_DIR_ENV, reset_default_cache
    from repro.explore.plan import plan_jobs
    directory = run.env.path(f"artifacts-{tag}")
    previous = os.environ.get(ARTIFACT_DIR_ENV)
    os.environ[ARTIFACT_DIR_ENV] = directory
    # forked workers must build their cache from the fresh directory, not
    # inherit one this process already built
    reset_default_cache()
    first: List[float] = []
    before = set(child_pids())
    started = time.perf_counter()
    backend = ProcessBackend(workers=SWEEP_WORKERS)
    try:
        planned = time.perf_counter()
        jobs = plan_jobs(spec)
        plan_s = time.perf_counter() - planned
        sweep = run_sweep(spec, jobs=jobs, backend=backend,
                          on_dispatch=lambda _i, _w: first or
                          first.append(time.perf_counter()))
        # the workers are still alive until close(): read their peaks
        hwm = max(proc_hwm_mb(pid) for pid in child_pids()
                  if pid not in before)
    finally:
        backend.close()
        if previous is None:
            os.environ.pop(ARTIFACT_DIR_ENV, None)
        else:
            os.environ[ARTIFACT_DIR_ENV] = previous
        reset_default_cache()
        shutil.rmtree(directory, ignore_errors=True)
    return {"setup_s": first[0] - started, "plan_s": plan_s,
            "wall_s": sweep.elapsed_s, "records": sweep.records,
            "timings": sweep.timings, "jobs": jobs, "hwm_mb": hwm}


def _canonical(records: List[dict]) -> List[str]:
    return [json.dumps(record, sort_keys=True) for record in records]


def run_sweep_codesign(run: Run) -> Outcome:
    out = Outcome()
    spec, expected = _sweep_inputs(run)
    if run.trace:
        return traced_sweep(run, spec, expected, out)
    sweeps: List[dict] = []
    started = time.perf_counter()
    while True:
        sweep = _process_sweep(run, spec, str(len(sweeps)))
        out.attempted += len(sweep["records"])
        _check_records(sweep["records"], expected, out)
        if sweeps and _canonical(sweep["records"]) != \
                _canonical(sweeps[0]["records"]):
            out.fail("a repeated sweep produced different records")
        sweeps.append(sweep)
        elapsed = time.perf_counter() - started
        if len(sweeps) >= run.scale.setups and \
                elapsed + sweep["wall_s"] + sweep["setup_s"] > run.seconds:
            break
    # a job's latency is its median over the repeated sweeps, so one slow
    # second of the host moves one sample of each job, not the percentile
    by_job: Dict[int, List[float]] = {}
    for sweep in sweeps:
        for timing in sweep["timings"]:
            by_job.setdefault(timing["index"], []).append(
                timing["elapsedS"] * 1e3)
    jobs_ms = [statistics.median(times) for times in by_job.values()]
    walls = [s["wall_s"] for s in sweeps]
    out.values.update({
        "setup_s": statistics.median(s["setup_s"] for s in sweeps),
        "latency_p50_ms": metrics.percentile(jobs_ms, 0.5),
        "latency_p90_ms": metrics.percentile(jobs_ms, TAIL),
        "throughput_per_s": statistics.median(
            len(s["records"]) / s["wall_s"] for s in sweeps),
        "peak_rss_mb": statistics.median(s["hwm_mb"] for s in sweeps),
    })
    out.notes.append(f"{len(sweeps)} sweeps of {len(spec.points())} jobs on "
                     f"{SWEEP_WORKERS} workers; sweep wall median "
                     f"{statistics.median(walls):.2f} s")
    return out


def traced_sweep(run: Run, spec, expected, out: Outcome) -> Outcome:
    """Per-layer numbers from the same payloads run serially in-process:
    once plain, once through ``execute_payload(tracer=...)`` with the
    layer wrappers bound; the process-backend run gives the backend's
    overhead and the records both serial passes must reproduce."""
    import repro.compiler.driver as driver
    from repro.explore.artifacts import ArtifactCache
    from repro.explore.runner import execute_payload

    sweep = _process_sweep(run, spec, "traced")
    out.attempted += len(sweep["records"])
    _check_records(sweep["records"], expected, out)
    jobs = sweep["jobs"]
    reference = _canonical(sweep["records"])

    def serial_pass(tracer: Optional[Recorder], tag: str):
        directory = run.env.path(f"artifacts-{tag}")
        cache = ArtifactCache(directory=directory)
        records, walls = [], []
        for job in jobs:
            started = time.perf_counter()
            if tracer is None:
                value = execute_payload(job.payload, cache=cache)
            else:
                with tracer.record("runner.job", index=job.index):
                    value = execute_payload(job.payload, cache=cache,
                                            tracer=_JobTracer(tracer))
            walls.append(time.perf_counter() - started)
            records.append({"index": job.index, "label": job.label,
                            "point": dict(job.point), "ok": True, **value})
        shutil.rmtree(directory, ignore_errors=True)
        return records, walls, cache.stats()

    plain, plain_walls, _ = serial_pass(None, "plain")
    recorder = Recorder()
    recorder.wrap(driver, "compile_c", "artifacts.compile")
    wrap_toolchain(recorder)
    try:
        traced, traced_walls, stats = serial_pass(recorder, "spans")
    finally:
        recorder.restore()
    out.attempted += 2 * len(jobs)
    for name, records in (("plain", plain), ("traced", traced)):
        if _canonical(records) != reference:
            out.fail(f"{name} serial records differ from the process "
                     f"backend's")
    records = recorder.records
    totals = {}
    for record in records:
        for key, value in durations(record)[0].items():
            totals[key] = totals.get(key, 0.0) + value
    values = out.values
    values.update(metrics.layer_metrics(records, "runner.job"))
    values.update(metrics.client_metrics([]))
    lookups = [stats[kind] for kind in ("compile", "assemble")]
    values["artifacts.hit_ratio"] = metrics.ratio(
        sum(k["hits"] for k in lookups),
        sum(k["hits"] + k["misses"] for k in lookups))
    values["engine.plan_share"] = metrics.ratio(sweep["plan_s"],
                                                sweep["setup_s"])
    busy = sum(t["elapsedS"] for t in sweep["timings"])
    values["backend.overhead_ratio"] = 1.0 - metrics.ratio(
        busy, sweep["wall_s"] * SWEEP_WORKERS)
    values["simulation.run_instr_per_s"] = metrics.ratio(
        sum(r["stats"]["committedInstructions"] for r in traced),
        totals.get("simulation.run", 0.0))
    values["simulation.cycles_per_request"] = metrics.ratio(
        sum(r["stats"]["cycles"] for r in traced), len(records))
    values.update(metrics.model_metrics([
        {"cycles": r["stats"]["cycles"],
         "committed": r["stats"]["committedInstructions"],
         "ipc": r["stats"]["ipc"],
         "hit": (r["stats"].get("cache") or {}).get("hitRatio"),
         "accuracy": r["stats"]["branchAccuracy"]} for r in traced]))
    values["trace.overhead_ratio"] = metrics.ratio(
        sum(traced_walls), sum(plain_walls)) - 1.0
    values.update({"loadgen.late_share": 0.0,
                   "simulation.fast_forward_ratio": 0.0,
                   "session.delta_fallback_ratio": 0.0})
    out.notes += [f"process backend: {len(jobs)} jobs, wall "
                  f"{sweep['wall_s']:.2f} s, backend overhead "
                  f"{values['backend.overhead_ratio']:.3f}, plan "
                  f"{1e3 * sweep['plan_s']:.3f} ms of "
                  f"{1e3 * sweep['setup_s']:.3f} ms set-up",
                  f"traced serial pass: {len(records)} jobs, mean "
                  f"{values['trace.op_ms']:.3f} ms; layer self time "
                  f"(ms per job, share of job wall):"]
    for name, ms, share in metrics.self_table(records, "runner.job"):
        out.notes.append(f"  {name:<24} {ms:9.3f}  {100 * share:5.1f} %")
    out.notes.append(f"coverage by named layers: "
                     f"{100 * values['trace.coverage_ratio']:.1f} %")
    out.notes.append(f"tracing overhead: serial job wall "
                     f"{sum(plain_walls):.2f} s untraced -> "
                     f"{sum(traced_walls):.2f} s traced "
                     f"({100 * values['trace.overhead_ratio']:+.1f} %)")
    return out


WORKLOADS = {
    "step_full": run_step_full,
    "step_travel": run_step_travel,
    "sweep_codesign": run_sweep_codesign,
    "edit_compile_run": run_edit_compile_run,
}
