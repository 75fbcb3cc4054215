"""Server-side sweep orchestration (the ``/explore/*`` endpoints' engine).

Submitted sweeps queue up and execute **one at a time** on a background
thread that drives the execution backend — one sweep already saturates
its workers, so running sweeps concurrently would only thrash the
machine and blur every wall-clock number.  Status is cheap to poll;
results are kept for a bounded number of finished sweeps (oldest evicted
first).

Three fleet-era capabilities live here:

* **backend selection** — a submit may name its execution backend:
  ``"serial"``, ``"process"`` (the historical ``workers`` inference
  picks between these two), or ``"fleet"`` — a
  :class:`repro.explore.backend.RemoteBackend` over the attached worker
  registry, built at submit so an empty registry refuses the sweep.
* **cancellation** — every sweep carries a
  :class:`repro.fleet.cancel.CancelToken`; :meth:`ExploreManager.cancel`
  dequeues a queued sweep outright and fires the token of a running one
  (the backend drains, in-flight fleet jobs get ``/worker/cancel``).
* **progress events** — every lifecycle transition and per-job
  dispatch/finish appends to the sweep's ordered event log;
  :meth:`ExploreManager.stream` follows it live (the chunked
  ``GET /explore/stream`` generator) and ``/explore/events`` serves it
  in one poll.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import uuid
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FleetError
from repro.explore.backend import RemoteBackend
from repro.explore.engine import run_sweep
from repro.explore.plan import plan_jobs
from repro.explore.pool import default_worker_count
from repro.explore.report import METRICS, MetricError, SweepReport
from repro.explore.spec import SweepSpec, SweepSpecError
from repro.fleet.cancel import CancelToken
# nearest_rank is re-exported: the one percentile rule lives with the
# metrics registry now, but `from repro.explore.service import
# nearest_rank` keeps working for every historical caller
from repro.obs.metrics import default_registry, nearest_rank
from repro.obs.trace import make_span, rebase

__all__ = ["ExploreManager", "SweepState", "nearest_rank",
           "SERVER_BACKENDS"]

_SWEEPS_SUBMITTED = default_registry().counter(
    "repro_sweeps_submitted_total", "Sweeps accepted by /explore/submit")
_SWEEPS_FINISHED = default_registry().counter(
    "repro_sweeps_finished_total", "Sweeps reaching a terminal state")

#: backend names ``/explore/submit`` accepts (``None`` keeps the
#: historical inference: ``workers == 0`` serial, otherwise process)
SERVER_BACKENDS = ("serial", "process", "fleet")

#: sweep states that accept no further work
TERMINAL_STATES = ("done", "failed", "cancelled")


class SweepState:
    """Lifecycle record of one submitted sweep."""

    __slots__ = ("id", "spec", "jobs", "workers", "job_timeout_s", "state",
                 "total", "completed", "failed", "records", "error",
                 "submitted", "started", "finished", "elapsed_s",
                 "backend", "running", "dispatched", "elapsed_jobs",
                 "cancel", "events", "execution", "fleet_backend",
                 "trace_enabled", "spans", "job_starts")

    def __init__(self, spec: SweepSpec, jobs: list, workers: int,
                 job_timeout_s: Optional[float] = None,
                 backend: Optional[str] = None):
        self.id = uuid.uuid4().hex[:16]
        self.spec = spec
        self.jobs = jobs                  #: planned once, at submit time
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.state = "queued"             #: queued/running + TERMINAL_STATES
        self.total = len(jobs)
        self.completed = 0
        self.failed = 0
        self.records: List[dict] = []
        self.error: Optional[str] = None
        self.submitted = time.monotonic()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.elapsed_s = 0.0
        self.backend = backend if backend is not None \
            else ("serial" if workers == 0 else "process")
        #: job indices currently on a worker (dispatched, not finished)
        self.running: set = set()
        #: every job index ever handed to a worker
        self.dispatched: set = set()
        #: host-side wall time of each finished job, completion order
        self.elapsed_jobs: List[float] = []
        #: fired by /explore/cancel; checked by the executing backend
        self.cancel = CancelToken()
        #: ordered progress events (seq-stamped; see ExploreManager)
        self.events: List[dict] = []
        #: backend.describe() after the run (while running, a fleet
        #: sweep's rows come live from fleet_backend)
        self.execution: Optional[dict] = None
        #: the RemoteBackend a "fleet" sweep runs on (built at submit)
        self.fleet_backend: Optional[RemoteBackend] = None
        #: span tree bookkeeping (GET /trace/<sweepId>); job/worker
        #: spans accumulate here, the root and queueWait spans are
        #: synthesized at read time so a mid-run trace is still a tree
        self.trace_enabled = True
        self.spans: List[dict] = []
        #: job index -> dispatch offset on the sweep timeline (seconds
        #: since submit) — worker spans are re-based by this
        self.job_starts: Dict[int, float] = {}

    def wall_time_json(self) -> Optional[dict]:
        if not self.elapsed_jobs:
            return None
        ordered = sorted(self.elapsed_jobs)
        return {
            "minS": round(ordered[0], 4),
            "p50S": round(nearest_rank(ordered, 0.5), 4),
            "p90S": round(nearest_rank(ordered, 0.9), 4),
            "maxS": round(ordered[-1], 4),
        }

    def status_json(self) -> dict:
        """Progress payload — enriched so a long sweep is observable
        without pulling the full ``/explore/result``: the per-job
        wall-time distribution (min/p50/p90/max, :func:`nearest_rank`),
        which job ids are in flight and which still queue, plus the
        backend's per-worker execution rows (health, exclusion reasons)
        once it is running."""
        data = {
            "sweepId": self.id,
            "name": self.spec.name,
            "state": self.state,
            "jobs": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "backend": self.backend,
            "workers": self.workers,
            "runningJobs": sorted(self.running),
            "queuedJobs": [index for index in range(self.total)
                           if index not in self.dispatched],
            "events": len(self.events),
        }
        wall = self.wall_time_json()
        if wall is not None:
            data["jobWallTime"] = wall
        if self.execution is not None:
            data["execution"] = self.execution
        elif self.state == "running" and self.fleet_backend is not None:
            data["execution"] = self.fleet_backend.describe()
        if self.state in ("done", "failed", "cancelled"):
            data["elapsedS"] = round(self.elapsed_s, 4)
        if self.cancel.cancelled():
            data["cancelRequested"] = True
        if self.error is not None:
            data["error"] = self.error
        return data

    def trace_json(self) -> dict:
        """The sweep's span tree (``GET /trace/<sweepId>``).

        The root ``sweep`` span and its ``queueWait`` child are built
        from the lifecycle timestamps at read time, so the tree is
        connected whether the sweep is queued, mid-run, or finished;
        job and worker spans are whatever has accumulated so far."""
        now = time.monotonic()
        end = (self.finished if self.finished is not None else now) \
            - self.submitted
        queue_end = (self.started if self.started is not None
                     else (self.finished if self.finished is not None
                           else now)) - self.submitted
        spans = [
            make_span(self.id, self.id, None, "sweep", 0.0, end,
                      {"name": self.spec.name, "state": self.state,
                       "backend": self.backend, "jobs": self.total}),
            make_span(self.id, f"{self.id}.queue", self.id, "queueWait",
                      0.0, queue_end, {}),
        ]
        spans.extend(self.spans)
        return {"sweepId": self.id, "state": self.state,
                "traceEnabled": self.trace_enabled, "spans": spans}


class ExploreManager:
    """Bounded queue + registry of design-space sweeps.

    The server's :class:`repro.server.protocol.Api` attaches its worker
    registry (``fleet``) and artifact store (``artifacts``); a
    ``"backend": "fleet"`` sweep runs on a :class:`RemoteBackend` over
    that registry, which compiles each C program once through that store
    and ships the assembly to the workers.
    """

    def __init__(self, workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = 300.0,
                 max_pending: int = 8, max_finished: int = 32,
                 max_jobs: int = 4096):
        self.workers = workers if workers is not None \
            else min(4, default_worker_count())
        self.job_timeout_s = job_timeout_s
        self.max_pending = max_pending
        self.max_finished = max_finished
        #: largest sweep a single submit may expand to — checked *before*
        #: planning, so a pathological grid (64^5 points) cannot OOM the
        #: submitting thread
        self.max_jobs = max_jobs
        #: hard cap on client-requested worker processes per sweep
        self.max_workers = max(4, default_worker_count())
        #: fork-free start method: the manager forks workers from inside a
        #: threaded server process, where plain fork can deadlock the
        #: child mid-import (the dotted RUNNER_TASK makes any method work)
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "forkserver" if "forkserver" in methods \
            else "spawn"
        #: fleet sweeps: the worker registry, and the artifact store
        #: their dispatcher compiles through (None: the process default)
        self.fleet = None
        self.artifacts = None
        #: attached cross-run result warehouse
        #: (:class:`repro.explore.warehouse.ResultWarehouse`); when set,
        #: the runner thread ingests every sweep that finishes ``done``
        self.warehouse = None
        self._lock = threading.Lock()
        self._sweeps: "OrderedDict[str, SweepState]" = OrderedDict()
        self._queue: List[SweepState] = []
        self._wake = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- events ---------------------------------------------------------
    def _emit_locked(self, state: SweepState, event_kind: str,
                     **data) -> None:
        event = {"seq": len(state.events), "event": event_kind,
                 "sweepId": state.id,
                 "tS": round(time.monotonic() - state.submitted, 4)}
        event.update(data)
        state.events.append(event)
        self._wake.notify_all()

    def _emit(self, state: SweepState, event_kind: str, **data) -> None:
        with self._lock:
            self._emit_locked(state, event_kind, **data)

    # ------------------------------------------------------------------
    def submit(self, spec_data: dict, workers: Optional[int] = None,
               metric: str = "cycles",
               job_timeout_s: Optional[float] = None,
               backend: Optional[str] = None,
               trace: bool = True) -> SweepState:
        """Validate, plan, and enqueue a sweep; returns its state handle.

        Planning happens exactly once, here: the job list is carried on
        the state and reused by the runner thread, so a bad spec fails the
        submit (not the sweep) and a big grid is never expanded twice.
        Raises :class:`repro.explore.spec.SweepSpecError` on a bad spec,
        :class:`MetricError` on a bad metric,
        :class:`repro.errors.FleetError` on a fleet submit with no
        registered workers, and :class:`OverflowError` when the queue
        is full — the protocol layer maps each to an HTTP error without
        this module knowing about transports.
        """
        if metric not in METRICS:
            raise MetricError(f"unknown ranking metric {metric!r} "
                              f"(one of {sorted(METRICS)})")
        if backend is not None and backend not in SERVER_BACKENDS:
            raise SweepSpecError(
                f"unknown backend {backend!r} "
                f"(one of {list(SERVER_BACKENDS)})")
        if job_timeout_s is None:
            job_timeout_s = self.job_timeout_s
        fleet_backend = None
        if backend == "fleet":
            if self.fleet is None:
                raise FleetError("this server has no worker registry")
            fleet_backend = RemoteBackend(
                self.fleet, job_timeout_s=job_timeout_s,
                artifact_store=self.artifacts)
        spec = SweepSpec.from_json(spec_data)
        planned = spec.samples if spec.sampling == "random" \
            else spec.grid_size()
        if planned > self.max_jobs:
            raise SweepSpecError(
                f"sweep expands to {planned} jobs, over this server's "
                f"limit of {self.max_jobs}; shrink the grid or use "
                f"random sampling")
        jobs = plan_jobs(spec)            # deterministic; also validates
        sweep_workers = self.workers if workers is None \
            else min(max(0, int(workers)), self.max_workers)
        if backend == "serial":
            sweep_workers = 0
        elif backend == "process":
            # an explicit process request must not fall through the
            # historical workers==0 inference into the serial loop
            sweep_workers = max(1, sweep_workers)
        state = SweepState(spec, jobs, sweep_workers,
                           job_timeout_s=job_timeout_s, backend=backend)
        state.fleet_backend = fleet_backend
        state.trace_enabled = bool(trace)
        if state.trace_enabled:
            # trace context rides in the job payload (the one channel
            # that reaches every backend, local or HTTP); records never
            # echo the payload, so the byte-identity pin is untouched
            for index, job in enumerate(jobs):
                job.payload["trace"] = {
                    "traceId": state.id,
                    "parentId": f"{state.id}.j{index}",
                }
        _SWEEPS_SUBMITTED.inc(backend=state.backend)
        with self._lock:
            if self._closed:
                raise RuntimeError("explore manager is closed")
            pending = sum(1 for s in self._sweeps.values()
                          if s.state in ("queued", "running"))
            if pending >= self.max_pending:
                raise OverflowError(
                    f"too many pending sweeps ({pending}); retry later")
            self._sweeps[state.id] = state
            self._queue.append(state)
            self._evict_finished_locked()
            self._emit_locked(state, "queued", jobs=state.total,
                              backend=state.backend)
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run_loop, daemon=True, name="explore-runner")
                self._thread.start()
            self._wake.notify()
        return state

    def get(self, sweep_id: str) -> Optional[SweepState]:
        with self._lock:
            return self._sweeps.get(sweep_id)

    def result_json(self, state: SweepState, metric: str = "cycles") -> dict:
        """Records + comparison report of a finished sweep."""
        report = SweepReport(state.records, name=state.spec.name,
                             metric=metric)
        data = state.status_json()
        data["records"] = list(state.records)
        data["report"] = report.to_json()
        data["reportText"] = report.render_text()
        return data

    # -- cancellation ---------------------------------------------------
    def cancel(self, sweep_id: str,
               reason: str = "client request") -> dict:
        """Cancel a sweep: dequeue it if still queued, fire its token if
        running (the backend drains and stops in-flight jobs), no-op on
        a finished one.  Returns ``{"cancelled": bool, "state": ...}``;
        raises :class:`KeyError` for an unknown id."""
        with self._lock:
            state = self._sweeps.get(sweep_id)
            if state is None:
                raise KeyError(sweep_id)
            if state.state in TERMINAL_STATES:
                return {"cancelled": False, "state": state.state}
            if state.state == "queued":
                self._queue = [s for s in self._queue if s.id != sweep_id]
                state.state = "cancelled"
                state.finished = time.monotonic()
                state.cancel.cancel(reason)
                self._emit_locked(state, "cancelled", where="queue",
                                  reason=reason)
                _SWEEPS_FINISHED.inc(state="cancelled")
                return {"cancelled": True, "state": "cancelled"}
            # running: fire the token; the backend does the rest
            state.cancel.cancel(reason)
            self._emit_locked(state, "cancelling", reason=reason)
            return {"cancelled": True, "state": "running"}

    # -- event streaming ------------------------------------------------
    def events_since(self, sweep_id: str,
                     from_seq: int = 0) -> Tuple[List[dict], str]:
        """One poll: ``(events[from_seq:], current state)``.

        Raises :class:`KeyError` for an unknown sweep id."""
        with self._lock:
            state = self._sweeps.get(sweep_id)
            if state is None:
                raise KeyError(sweep_id)
            return list(state.events[from_seq:]), state.state

    def stream(self, sweep_id: str, from_seq: int = 0,
               poll_s: float = 0.25) -> Iterator[dict]:
        """Follow a sweep's event log live; ends after the terminal
        event (or when the sweep is evicted mid-stream).  Raises
        :class:`KeyError` immediately for an unknown sweep id."""
        with self._lock:
            if sweep_id not in self._sweeps:
                raise KeyError(sweep_id)
        seq = max(0, int(from_seq))
        while True:
            with self._lock:
                state = self._sweeps.get(sweep_id)
                if state is None:
                    return                 # evicted mid-stream
                events = list(state.events[seq:])
                terminal = state.state in TERMINAL_STATES
                if not events and not terminal:
                    self._wake.wait(poll_s)
                    continue
            for event in events:
                yield event
            seq += len(events)
            if terminal:
                with self._lock:
                    state = self._sweeps.get(sweep_id)
                    drained = state is None or seq >= len(state.events)
                if drained:
                    return

    # ------------------------------------------------------------------
    def _evict_finished_locked(self) -> None:
        finished = [sid for sid, s in self._sweeps.items()
                    if s.state in TERMINAL_STATES]
        while len(finished) > self.max_finished:
            del self._sweeps[finished.pop(0)]

    def _run_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if self._closed and not self._queue:
                    return
                state = self._queue.pop(0)
                state.state = "running"
                state.started = time.monotonic()

            def on_dispatch(index: int, worker: object,
                            state: SweepState = state) -> None:
                with self._lock:
                    state.dispatched.add(index)
                    state.running.add(index)
                    state.job_starts[index] = round(
                        time.monotonic() - state.submitted, 6)
                    self._emit_locked(state, "dispatch", job=index,
                                      label=state.jobs[index].label,
                                      worker=worker)

            def on_result(result, state: SweepState = state) -> None:
                with self._lock:
                    now = time.monotonic() - state.submitted
                    state.running.discard(result.index)
                    state.completed += 1
                    if not result.ok:
                        state.failed += 1
                    state.elapsed_jobs.append(result.elapsed_s)
                    if state.trace_enabled:
                        # close the job span on the sweep timeline and
                        # graft the backend's interior spans under it
                        start = state.job_starts.get(result.index, now)
                        state.spans.append(make_span(
                            state.id, f"{state.id}.j{result.index}",
                            state.id, "job", start, now,
                            {"index": result.index,
                             "label": state.jobs[result.index].label,
                             "kind": result.kind,
                             "worker": result.worker}))
                        if result.spans:
                            state.spans.extend(rebase(result.spans, start))
                    self._emit_locked(
                        state, "finish", job=result.index,
                        label=state.jobs[result.index].label,
                        kind=result.kind, worker=result.worker,
                        elapsedS=round(result.elapsed_s, 6),
                        **({} if result.ok else {"error": result.error}))

            # fleet sweeps carry their backend; serial/process keep the
            # historical ``workers`` resolution inside run_sweep
            backend = state.fleet_backend
            try:
                self._emit(state, "started", backend=state.backend,
                           workers=(backend.workers if backend is not None
                                    else state.workers))
                run = run_sweep(state.spec, workers=state.workers,
                                job_timeout_s=state.job_timeout_s,
                                jobs=state.jobs,
                                on_dispatch=on_dispatch,
                                on_result=on_result,
                                start_method=self.start_method,
                                backend=backend,
                                cancel=state.cancel)
                with self._lock:
                    state.records = run.records
                    state.completed = len(run.records)
                    state.failed = len(run.failures)
                    state.elapsed_s = run.elapsed_s
                    state.execution = run.execution
                    state.running.clear()
                    state.finished = time.monotonic()
                    if state.cancel.cancelled():
                        state.state = "cancelled"
                        self._emit_locked(
                            state, "cancelled", where="run",
                            reason=state.cancel.reason,
                            completed=state.completed,
                            elapsedS=round(state.elapsed_s, 4))
                    else:
                        state.state = "done"
                        self._emit_locked(
                            state, "done", ok=state.completed - state.failed,
                            failed=state.failed,
                            elapsedS=round(state.elapsed_s, 4),
                            jobWallTime=state.wall_time_json())
                if state.state == "done" and self.warehouse is not None:
                    # warehouse ingest is best-effort bookkeeping on top
                    # of a finished sweep: it must never flip the sweep
                    # to failed, so it gets its own exception scope
                    try:
                        self.warehouse.ingest(
                            state.records, sweep_id=state.id,
                            name=state.spec.name,
                            ingested_at=time.time())
                    except Exception:  # noqa: BLE001 - bookkeeping only
                        pass
            except Exception as exc:  # noqa: BLE001 - keep serving
                with self._lock:
                    state.error = f"{type(exc).__name__}: {exc}"
                    state.running.clear()
                    state.state = "failed"
                    state.finished = time.monotonic()
                    state.elapsed_s = state.finished - (state.started
                                                        or state.finished)
                    self._emit_locked(state, "failed", error=state.error)
            finally:
                _SWEEPS_FINISHED.inc(state=state.state)

    # ------------------------------------------------------------------
    def queue_depth(self) -> dict:
        """Scrape-time queue gauges: queued / running / known sweeps."""
        with self._lock:
            return {
                "queued": len(self._queue),
                "running": sum(1 for s in self._sweeps.values()
                               if s.state == "running"),
                "known": len(self._sweeps),
            }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sweeps)
