"""Pluggable sweep execution backends.

One protocol, three ways to burn CPU on a design-space sweep:

* :class:`SerialBackend` — every job in-process, in order.  The baseline
  every other backend is pinned bit-identical against.
* :class:`ProcessBackend` — the :class:`repro.explore.pool.ProcessWorkerPool`
  (W local processes, per-job timeouts, crash isolation) behind the
  backend interface.
* :class:`RemoteBackend` — jobs fan out over HTTP to repro-server sweep
  workers (the protocol-v4 ``/worker/execute`` endpoint): a bounded
  in-flight window per worker, per-job timeout/retry with **at most one
  re-dispatch**, and worker health tracking that excludes a dead worker
  while the sweep completes on the rest.  Its membership is either a
  fixed ``--worker-url`` list, which never changes, or the server's live
  :class:`repro.fleet.registry.WorkerRegistry` (``"backend": "fleet"``),
  which workers join and leave mid-sweep.  Workers get assembly only:
  the dispatcher compiles each C program once, through its artifact
  cache, and ships the result inline.

The invariant that makes the plurality safe is inherited from the pool
and extended: every backend runs the *same* worker function
(:func:`repro.explore.runner.execute_payload`) on the *same* planned
payloads, and results carry no host-side timing — so serial, process and
remote sweeps produce **byte-identical JSONL records** for the same
spec.  Failure records follow the same discipline: a job that raises is
``kind="error"`` with the identical ``TypeName: message`` string on
every backend; a worker that dies mid-job is ``kind="crash"`` and a job
that overruns its budget is ``kind="timeout"``, with matching messages
on the process and remote backends.

Cooperative cancellation extends the same discipline: ``run`` accepts an
optional cancel token (any object with a ``cancelled() -> bool`` method,
canonically :class:`repro.fleet.cancel.CancelToken`); once it fires, no
further job is dispatched, undispatched jobs report ``kind="cancelled"``
with the identical message on every backend, and in-flight jobs are
stopped as fast as the backend can manage — the serial loop via the
simulation's stride check, the process pool by killing the worker, the
remote backend by propagating ``/worker/cancel`` so the worker's own
stride check halts the job within one interval.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.errors import FleetError
from repro.explore.artifacts import default_cache
from repro.explore.pool import (CANCELLED_MESSAGE, CancelLike, JobResult,
                                ProcessWorkerPool)
from repro.obs.metrics import default_registry
from repro.obs.trace import rebase

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "RemoteBackend",
    "BACKEND_NAMES",
    "resolve_backend",
]

#: names accepted by the CLI / ``resolve_backend``.  The server-side
#: ``/explore/submit`` additionally accepts ``"fleet"`` — a
#: :class:`RemoteBackend` over the server's worker registry, never built
#: from CLI arguments.
BACKEND_NAMES = ("serial", "process", "remote")

#: spawn-safe dotted reference of the worker task (shared with the
#: engine; re-declared here so the backend layer has no engine import)
_RUNNER_TASK = "repro.explore.runner:execute_payload"

#: message used for a worker lost mid-job, byte-identical across the
#: process and remote backends so crash records compare equal
_CRASH_MESSAGE = "worker process died mid-job"

#: exclusion reason of a registry worker that dropped out of the live set
_LEFT_REASON = "left the fleet (heartbeat expired)"

OnResult = Optional[Callable[[JobResult], None]]
OnDispatch = Optional[Callable[[int, object], None]]

# every backend reports finished jobs into the same two series, labelled
# by backend name — the substrate /metrics exposes for placement logic
_JOBS_TOTAL = default_registry().counter(
    "repro_sweep_jobs_total", "Sweep jobs finished, by backend and kind")
_JOB_WALL = default_registry().histogram(
    "repro_job_wall_seconds", "Per-job wall time, by backend")


def _observe_result(backend_name: str, result: JobResult) -> None:
    _JOBS_TOTAL.inc(backend=backend_name, kind=result.kind)
    if result.elapsed_s:
        _JOB_WALL.observe(result.elapsed_s, backend=backend_name)


def _job_tracer(payload: dict):
    """Build a :class:`repro.obs.trace.JobTracer` from a payload's
    ``trace`` context (``None`` when the sweep is untraced)."""
    context = payload.get("trace")
    if not context:
        return None
    from repro.obs.trace import JobTracer
    return JobTracer(context["traceId"], context["parentId"])


def _is_cancelled(cancel: CancelLike) -> bool:
    return cancel is not None and cancel.cancelled()


class ExecutionBackend:
    """How a planned job list turns into ordered :class:`JobResult`\\ s.

    ``run`` executes every payload and returns results ordered by
    submission index; ``on_result`` fires in completion order,
    ``on_dispatch`` fires with ``(index, worker)`` when a job is handed
    to a worker, and ``cancel`` (an object with ``cancelled()``) stops
    dispatch and drains the queue as ``kind="cancelled"`` results once
    fired.  ``workers`` is the backend's parallelism (0 = serial),
    ``describe()`` its JSON-shaped execution metadata (per-worker rows
    for the sweep report's execution summary).
    """

    name = "?"
    workers = 0

    def run(self, payloads: Sequence[dict], on_result: OnResult = None,
            on_dispatch: OnDispatch = None,
            cancel: CancelLike = None) -> List[JobResult]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"backend": self.name, "workers": self.workers}

    def close(self) -> None:
        """Release workers (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The in-process, in-order baseline (the old ``workers=0`` loop)."""

    name = "serial"
    workers = 0

    def run(self, payloads: Sequence[dict], on_result: OnResult = None,
            on_dispatch: OnDispatch = None,
            cancel: CancelLike = None) -> List[JobResult]:
        from repro.explore.runner import JobCancelled, execute_payload
        results: List[JobResult] = []
        for index, payload in enumerate(payloads):
            if _is_cancelled(cancel):
                result = JobResult(index=index, kind="cancelled",
                                   error=CANCELLED_MESSAGE, worker=0)
            else:
                if on_dispatch is not None:
                    on_dispatch(index, 0)
                tracer = _job_tracer(payload)
                spans = (lambda: tracer.export()) if tracer \
                    else (lambda: None)
                t0 = time.monotonic()
                try:
                    value = execute_payload(payload, cancel=cancel,
                                            tracer=tracer)
                    result = JobResult(index=index, kind="ok", value=value,
                                       worker=0,
                                       elapsed_s=time.monotonic() - t0,
                                       spans=spans())
                except JobCancelled:
                    result = JobResult(index=index, kind="cancelled",
                                       error=CANCELLED_MESSAGE, worker=0,
                                       elapsed_s=time.monotonic() - t0,
                                       spans=spans())
                except Exception as exc:  # noqa: BLE001 - per-job isolation
                    result = JobResult(index=index, kind="error",
                                       error=f"{type(exc).__name__}: {exc}",
                                       worker=0,
                                       elapsed_s=time.monotonic() - t0,
                                       spans=spans())
            _observe_result(self.name, result)
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results


class ProcessBackend(ExecutionBackend):
    """The local :class:`ProcessWorkerPool` behind the backend protocol."""

    name = "process"

    def __init__(self, workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = None,
                 start_method: Optional[str] = None):
        self._pool = ProcessWorkerPool(_RUNNER_TASK, workers=workers,
                                       job_timeout_s=job_timeout_s,
                                       start_method=start_method)
        self.workers = self._pool.workers
        self.job_timeout_s = job_timeout_s

    def run(self, payloads: Sequence[dict], on_result: OnResult = None,
            on_dispatch: OnDispatch = None,
            cancel: CancelLike = None) -> List[JobResult]:
        def observed(result: JobResult) -> None:
            _observe_result(self.name, result)
            if on_result is not None:
                on_result(result)
        return self._pool.map(payloads, on_result=observed,
                              on_dispatch=on_dispatch, cancel=cancel)

    def close(self) -> None:
        self._pool.close()


class _RemoteWorker:
    """Parent-side health record of one sweep-worker server."""

    __slots__ = ("url", "host", "port", "dispatched", "ok", "failures",
                 "consecutive_failures", "excluded", "excluded_reason")

    def __init__(self, url: str):
        self.url = url
        self.host, self.port = _parse_worker_url(url)
        self.dispatched = 0
        self.ok = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.excluded = False
        #: human-readable *why* (debuggability of mid-sweep exclusions;
        #: surfaced on describe() rows and /explore/status)
        self.excluded_reason: Optional[str] = None

    def exclude(self, reason: str) -> None:
        self.excluded = True
        if self.excluded_reason is None:
            self.excluded_reason = reason

    def readmit(self) -> None:
        """Clear exclusion state (a registry worker re-joining mid-sweep)."""
        self.excluded = False
        self.excluded_reason = None
        self.consecutive_failures = 0

    def to_json(self) -> dict:
        row = {"url": self.url, "dispatched": self.dispatched,
               "ok": self.ok, "failures": self.failures,
               "excluded": self.excluded}
        if self.excluded_reason is not None:
            row["excludedReason"] = self.excluded_reason
        return row


def _parse_worker_url(url: str) -> tuple:
    """``host:port`` or ``http://host:port`` -> ``(host, port)``."""
    text = url.strip()
    if "//" in text:
        text = text.split("//", 1)[1]
    text = text.rstrip("/")
    host, _, port_text = text.partition(":")
    if not host or not port_text or not port_text.isdigit():
        raise ValueError(f"worker URL must look like 'host:port' "
                         f"(or 'http://host:port'), got {url!r}")
    return host, int(port_text)


class _PendingJob:
    __slots__ = ("index", "attempts", "excluded_url")

    def __init__(self, index: int):
        self.index = index
        self.attempts = 0          #: dispatches so far (0 or 1)
        self.excluded_url: Optional[str] = None


class RemoteBackend(ExecutionBackend):
    """HTTP fan-out over repro-server sweep workers.

    Parameters
    ----------
    members:
        The workers.  A list of ``host:port`` (or ``http://host:port``)
        URLs of servers exposing the protocol-v4 ``/worker/execute``
        endpoint (``repro-sim worker`` / ``repro-server``) is a
        membership that never changes: backend ``"remote"``.  A
        :class:`repro.fleet.registry.WorkerRegistry` is one that does:
        backend ``"fleet"``, raising :class:`repro.errors.FleetError`
        while the registry has no live worker.  Every *poll_s* the run
        reconciles with the registry's live set — a worker that joins
        starts pulling pending jobs, one whose heartbeat expired is
        excluded as ``left the fleet``, and one that re-registers as a
        new generation (a restart) is readmitted even after a
        transport-failure exclusion.  Membership decides only *where*
        jobs run, so records stay byte-identical through any churn.
    job_timeout_s:
        Per-job wall-clock budget, enforced client-side: the dispatcher
        compile spends from it, and what is left is the HTTP request
        timeout.  A compile is not interrupted, so one that overruns the
        budget settles the job when it returns, without a send.  On
        expiry the job reports ``kind="timeout"`` with the same message
        the process pool produces; it is *not* re-dispatched (matching
        the pool's timeout semantics — a slow job would only time out
        twice), and its worker is sent ``/worker/cancel`` so the job
        stops there too.
    inflight_per_worker:
        In-flight window per worker: each slot is one connection thread,
        so at most ``workers x inflight_per_worker`` jobs are on the
        wire at once.
    fail_threshold:
        Consecutive transport failures after which a worker is excluded
        from the rest of the sweep.
    poll_s:
        Registry reconciliation period.
    no_worker_grace_s:
        How long a run whose every worker is gone, with jobs unfinished,
        waits for a replacement to register before the rest report
        ``kind="crash"``.  A fixed list stops at once: nothing can join.
    artifact_store:
        The :class:`repro.explore.artifacts.ArtifactCache` a C program
        is compiled through just before its job goes out (default: the
        process :func:`repro.explore.artifacts.default_cache`).  Every
        ``/worker/execute`` body carries assembly, and the compile is
        single-flighted, so a sweep compiles each (source, level) once
        however many workers run it, though distinct programs compile
        one after another here rather than in parallel on the workers.
        A program that does not compile settles its job with the serial
        loop's ``kind="error"`` record and never reaches a worker.

    Every dispatch carries a ``cancelId``: a fired cancel token is
    propagated to the owning worker via ``POST /worker/cancel``, whose
    stride check then stops the job within one interval.

    A job lost to a transport failure (connection refused/reset — the
    worker died) is re-dispatched **at most once**, preferably to a
    different worker; a second loss reports ``kind="crash"`` with the
    same message the process pool uses, so crash records compare equal
    across backends.  Job-level errors returned by the worker
    (``ok: false`` — the program is broken) are final on first answer:
    they are deterministic, so retrying could only waste a machine.
    """

    name = "remote"

    def __init__(self, members,
                 job_timeout_s: Optional[float] = None,
                 inflight_per_worker: int = 2,
                 fail_threshold: int = 2,
                 poll_s: float = 0.25,
                 no_worker_grace_s: float = 5.0,
                 artifact_store=None):
        #: the live membership source, or None for a fixed URL list
        self.registry = members if hasattr(members, "live") else None
        if self.registry is not None:
            self.name = "fleet"
            members = self._live()
            if not members:
                raise FleetError(
                    "no registered fleet workers (start workers with "
                    "'repro-sim worker --register HOST:PORT' and wait for "
                    "their first heartbeat)")
        elif not members:
            raise ValueError("remote backend needs at least one worker URL")
        if inflight_per_worker < 1:
            raise ValueError("inflight_per_worker must be >= 1")
        if fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        self._workers = [_RemoteWorker(url) for url in members]
        addresses = [(w.host, w.port) for w in self._workers]
        if len(set(addresses)) != len(addresses):
            raise ValueError(f"duplicate worker URLs: "
                             f"{[w.url for w in self._workers]}")
        #: registry generation last seen per URL — a *bumped* generation
        #: means the worker re-registered after expiring (restart /
        #: recovery), which is the readmission signal that clears even a
        #: transport-failure exclusion: the process we failed against is
        #: gone, so its failure streak says nothing about its successor
        self._seen_generation = dict(members) \
            if self.registry is not None else {}
        self.workers = len(self._workers)
        self.job_timeout_s = job_timeout_s
        self.inflight_per_worker = inflight_per_worker
        self.fail_threshold = fail_threshold
        self.poll_s = poll_s
        self.no_worker_grace_s = no_worker_grace_s
        self.artifact_store = artifact_store if artifact_store is not None \
            else default_cache()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)

    #: socket timeout when no per-job budget is set: generous enough for
    #: any sane job, small enough that a hung (open but dead) worker
    #: socket cannot stall a sweep forever
    DEFAULT_SOCKET_TIMEOUT_S = 600.0

    #: supervision tick: how often the run loop checks thread liveness
    #: and the cancel token
    SUPERVISE_TICK_S = 0.05

    def _client(self, worker: _RemoteWorker):
        from repro.server.client import SimClient
        timeout = self.job_timeout_s if self.job_timeout_s is not None \
            else self.DEFAULT_SOCKET_TIMEOUT_S
        return SimClient(worker.host, worker.port, timeout=timeout)

    def _live(self) -> Dict[str, int]:
        """The registry's live members, ``url -> generation``."""
        return {member.url: member.generation
                for member in self.registry.live()}

    def _shipped(self, payload: dict) -> dict:
        """*payload* as it goes on the wire: a ``c`` program becomes
        ``{"source": <assembly>}`` compiled through the artifact store,
        with ``name``, ``entry`` and ``memory`` unchanged.  Raises what
        the serial loop raises for a program that does not compile."""
        from repro.explore.runner import program_assembly
        spec = payload.get("program") or {}
        if spec.get("source") is not None:
            return payload
        program = {key: value for key, value in spec.items()
                   if key not in ("c", "optimizeLevel")}
        program["source"] = program_assembly(payload, self.artifact_store)
        return {**payload, "program": program}

    # ------------------------------------------------------------------
    def run(self, payloads: Sequence[dict], on_result: OnResult = None,
            on_dispatch: OnDispatch = None,
            cancel: CancelLike = None) -> List[JobResult]:
        total = len(payloads)
        if total == 0:
            return []
        state = _RemoteRun(self, payloads, on_result, on_dispatch, cancel)
        with self._lock:
            for worker in self._workers:
                worker.readmit()
        if self.registry is not None:
            # members may have come or gone since construction (a server
            # builds the backend at submit, then queues the sweep)
            self._reconcile()
        with self._lock:
            starting = [w for w in self._workers if not w.excluded]
        for worker in starting:
            self._start_worker(state, worker)
        self._supervise(state)
        # jobs no healthy worker could take (every worker excluded),
        # unless the run was cancelled — then they are cancellations
        tail_kind = "cancelled" if state.cancel_fired else "crash"
        tail_error = CANCELLED_MESSAGE if state.cancel_fired \
            else "no healthy remote workers remain"
        for index in range(total):
            if index not in state.results:
                state.finish(JobResult(index=index, kind=tail_kind,
                                       error=tail_error))
        return [state.results[index] for index in range(total)]

    def _start_worker(self, state: "_RemoteRun",
                      worker: _RemoteWorker) -> None:
        """Spawn the serve threads of one worker for this run."""
        for slot in range(self.inflight_per_worker):
            thread = threading.Thread(
                target=state.serve, args=(worker,), daemon=True,
                name=f"remote-sweep-{worker.url}-{slot}")
            state.threads.append(thread)
            thread.start()

    def _supervise(self, state: "_RemoteRun") -> None:
        """Babysit the serve threads until the run settles.

        Each tick checks the cancel token (draining + propagating on the
        first fire); every ``poll_s`` a registry membership is
        reconciled and joined or readmitted workers get serve threads.
        Returns once every thread is done and the jobs are settled, the
        run was cancelled, or no worker can still join: a fixed list
        never gains one, a registry gets ``no_worker_grace_s``.
        """
        next_poll = 0.0
        idle_since: Optional[float] = None
        while True:
            if _is_cancelled(state.cancel):
                state.handle_cancel()
            now = time.monotonic()
            if self.registry is not None and now >= next_poll:
                next_poll = now + self.poll_s
                for worker in self._reconcile():
                    idle_since = None
                    self._start_worker(state, worker)
            alive = False
            for thread in list(state.threads):
                thread.join(timeout=self.SUPERVISE_TICK_S)
                if thread.is_alive():
                    alive = True
                    break
            if alive:
                continue
            with self._lock:
                settled = len(state.results) == len(state.payloads)
            if settled or state.cancel_fired or self.registry is None:
                return
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if now - idle_since > self.no_worker_grace_s:
                return
            next_poll = 0.0               # poll eagerly while stranded
            time.sleep(self.SUPERVISE_TICK_S)

    def _reconcile(self) -> List[_RemoteWorker]:
        """Match the worker rows to the registry's live set; returns the
        workers that joined or were readmitted."""
        live = self._live()
        joined = []
        with self._lock:
            for worker in self._workers:
                if worker.url in live:
                    generation = live[worker.url]
                    seen = self._seen_generation.get(worker.url,
                                                     generation)
                    self._seen_generation[worker.url] = max(generation,
                                                            seen)
                    # a new generation (restarted worker) clears any
                    # exclusion; a same-generation return only clears a
                    # membership one — a worker we excluded for transport
                    # failures that never restarted is still the same
                    # broken process
                    if worker.excluded and (
                            generation > seen
                            or worker.excluded_reason == _LEFT_REASON):
                        worker.readmit()
                        joined.append(worker)
                elif not worker.excluded:
                    worker.exclude(_LEFT_REASON)
                    self._wake.notify_all()
            known = {worker.url for worker in self._workers}
            for url, generation in live.items():
                if url not in known:
                    worker = _RemoteWorker(url)
                    self._workers.append(worker)
                    self._seen_generation[url] = generation
                    joined.append(worker)
            self.workers = sum(1 for w in self._workers if not w.excluded)
        return joined

    def describe(self) -> dict:
        with self._lock:
            data = {"backend": self.name, "workers": self.workers,
                    "inflightPerWorker": self.inflight_per_worker,
                    "remoteWorkers": [w.to_json() for w in self._workers]}
        if self.registry is not None:
            data["membership"] = "registry"
            data["pollS"] = self.poll_s
        return data


class _RemoteRun:
    """Shared state of one :meth:`RemoteBackend.run` invocation."""

    def __init__(self, backend: RemoteBackend, payloads: Sequence[dict],
                 on_result: OnResult, on_dispatch: OnDispatch,
                 cancel: CancelLike = None):
        self.backend = backend
        self.payloads = payloads
        self.on_result = on_result
        self.on_dispatch = on_dispatch
        self.cancel = cancel
        self.cancel_fired = False         #: handle_cancel ran
        self.run_id = uuid.uuid4().hex[:12]
        self.pending: Deque[_PendingJob] = deque(
            _PendingJob(index) for index in range(len(payloads)))
        self.results: Dict[int, JobResult] = {}
        self.outstanding = 0
        #: job index -> worker currently executing it (cancel targets)
        self.inflight: Dict[int, _RemoteWorker] = {}
        #: every serve thread of this run (supervision; grows mid-run
        #: when a registry worker joins — mutated only by the supervisor
        #: and the initial spawn, both on the run's calling thread)
        self.threads: List[threading.Thread] = []

    def cancel_id(self, index: int) -> str:
        return f"{self.run_id}:{index}"

    # -- locked helpers ------------------------------------------------
    def finish(self, result: JobResult) -> None:
        with self.backend._lock:
            self.results[result.index] = result
            self.backend._wake.notify_all()
        # every settle path funnels through here, so the counter sees
        # drained cancellations and crash tails too (labelled "fleet"
        # for a registry membership via backend.name)
        _observe_result(self.backend.name, result)
        if self.on_result is not None:
            self.on_result(result)

    def _take_locked(self, worker: _RemoteWorker) -> Optional[_PendingJob]:
        """Next pending job this worker may run (its own past failure
        excludes it — unless it is the only worker left standing)."""
        alone = all(w.excluded or w is worker
                    for w in self.backend._workers)
        for position, job in enumerate(self.pending):
            if job.excluded_url == worker.url and not alone:
                continue
            del self.pending[position]
            return job
        return None

    # -- cancellation --------------------------------------------------
    def handle_cancel(self) -> None:
        """First-fire cancel handling: drain undispatched jobs as
        ``cancelled`` results and propagate ``/worker/cancel`` for every
        in-flight job."""
        with self.backend._lock:
            if self.cancel_fired:
                return
            self.cancel_fired = True
            drained = []
            while self.pending:
                job = self.pending.popleft()
                if job.index not in self.results:
                    drained.append(job.index)
            inflight = dict(self.inflight)
            self.backend._wake.notify_all()
        for index in drained:
            self.finish(JobResult(index=index, kind="cancelled",
                                  error=CANCELLED_MESSAGE))
        reason = getattr(self.cancel, "reason", None) or "cancelled"
        for index, worker in inflight.items():
            self._send_worker_cancel(worker, self.cancel_id(index), reason)

    def _send_worker_cancel(self, worker: _RemoteWorker, cancel_id: str,
                            reason: str) -> None:
        """Best-effort ``POST /worker/cancel`` (the job is also bounded
        by its timeout/cycle budget, so a lost cancel only wastes CPU)."""
        from repro.server.client import SimClient
        client = SimClient(worker.host, worker.port, timeout=5.0)
        try:
            client.worker_cancel(cancel_id, reason=reason)
        except Exception:  # noqa: BLE001 - worker gone: nothing to stop
            pass
        finally:
            client.close()

    # -- worker thread -------------------------------------------------
    def serve(self, worker: _RemoteWorker) -> None:
        backend = self.backend
        client = backend._client(worker)
        try:
            while True:
                with backend._lock:
                    job = None
                    while job is None:
                        if worker.excluded:
                            return
                        if self.cancel_fired:
                            return
                        if _is_cancelled(self.cancel):
                            # fired but not yet drained by the
                            # supervisor: stop taking work immediately
                            return
                        if len(self.results) == len(self.payloads):
                            return
                        job = self._take_locked(worker)
                        if job is None:
                            if self.outstanding == 0 and not self.pending:
                                return
                            # a retry may be requeued for us: wait, bounded
                            backend._wake.wait(0.05)
                    job.attempts += 1
                    self.outstanding += 1
                    worker.dispatched += 1
                    self.inflight[job.index] = worker
                if self.on_dispatch is not None:
                    self.on_dispatch(job.index, worker.url)
                self._execute(client, worker, job)
        finally:
            client.close()

    def _execute(self, client, worker: _RemoteWorker,
                 job: _PendingJob) -> None:
        backend = self.backend
        started = time.monotonic()
        try:
            body = backend._shipped(self.payloads[job.index])
        except Exception as exc:  # noqa: BLE001 - the serial loop's record
            self._settle(worker, job, JobResult(
                index=job.index, kind="error",
                error=f"{type(exc).__name__}: {exc}", worker=worker.url,
                elapsed_s=time.monotonic() - started),
                transport_failure=False)
            return
        # the dispatcher compile is part of the job, as a worker compile
        # is on the process pool: it spends the job's budget, and what
        # the worker did starts when the body goes out
        sent = time.monotonic() - started
        if backend.job_timeout_s is not None:
            if sent >= backend.job_timeout_s:
                self._timed_out(worker, job, started)
                return
            client.timeout = backend.job_timeout_s - sent
        try:
            reply = client.worker_execute(
                body, cancel_id=self.cancel_id(job.index))
        except TimeoutError:
            if backend.job_timeout_s is None:
                # no job budget configured: a socket timeout is just a
                # slow/dead transport — retry like any other failure
                self._retry_or_crash(worker, job, started)
                return
            # stop the abandoned job on its worker, as the process pool
            # kills its worker on a timeout
            self._send_worker_cancel(worker, self.cancel_id(job.index),
                                     "timeout")
            self._timed_out(worker, job, started)
            return
        except Exception as exc:  # noqa: BLE001 - refused/reset/rejected
            from repro.server.protocol import ApiError
            if isinstance(exc, ApiError):
                # an HTTP error reply is deterministic (bad payload, not
                # a bad worker): final on first answer, like ok=False
                self._settle(worker, job, JobResult(
                    index=job.index, kind="error",
                    error=f"worker rejected job: {exc}", worker=worker.url,
                    elapsed_s=time.monotonic() - started),
                    transport_failure=False)
                return
            self._retry_or_crash(worker, job, started)
            return
        elapsed = time.monotonic() - started
        spans = reply.get("spans")   # worker-side trace spans (protocol v7)
        if spans:
            spans = rebase(spans, sent)
        if reply.get("ok"):
            result = JobResult(index=job.index, kind="ok",
                               value=reply.get("value"), worker=worker.url,
                               elapsed_s=elapsed, spans=spans)
        else:
            result = JobResult(index=job.index,
                               kind=str(reply.get("kind", "error")),
                               error=str(reply.get("error", "?")),
                               worker=worker.url, elapsed_s=elapsed,
                               spans=spans)
        self._settle(worker, job, result, transport_failure=False)

    def _timed_out(self, worker: _RemoteWorker, job: _PendingJob,
                   started: float) -> None:
        """Settle a job that overran its budget.  Enforced client-side;
        the process pool's message, so timeout records are identical
        across backends.  No retry."""
        self._settle(worker, job, JobResult(
            index=job.index, kind="timeout",
            error=f"job exceeded {self.backend.job_timeout_s:g}s timeout",
            worker=worker.url, elapsed_s=time.monotonic() - started),
            transport_failure=False)

    def _settle(self, worker: _RemoteWorker, job: _PendingJob,
                result: JobResult, transport_failure: bool) -> None:
        with self.backend._lock:
            self.outstanding -= 1
            self.inflight.pop(job.index, None)
            if transport_failure:
                self._note_failure_locked(worker)
            else:
                worker.consecutive_failures = 0
                if result.ok:
                    worker.ok += 1
        self.finish(result)

    def _retry_or_crash(self, worker: _RemoteWorker, job: _PendingJob,
                        started: float) -> None:
        """Transport failure mid-job: re-dispatch once, then give up."""
        with self.backend._lock:
            self.outstanding -= 1
            self.inflight.pop(job.index, None)
            self._note_failure_locked(worker)
            if job.attempts <= 1 and not self.cancel_fired:
                job.excluded_url = worker.url
                self.pending.append(job)
                self.backend._wake.notify_all()
                return
            cancelled = self.cancel_fired
        if cancelled:
            self.finish(JobResult(index=job.index, kind="cancelled",
                                  error=CANCELLED_MESSAGE, worker=worker.url,
                                  elapsed_s=time.monotonic() - started))
            return
        self.finish(JobResult(index=job.index, kind="crash",
                              error=_CRASH_MESSAGE, worker=worker.url,
                              elapsed_s=time.monotonic() - started))

    def _note_failure_locked(self, worker: _RemoteWorker) -> None:
        worker.failures += 1
        worker.consecutive_failures += 1
        if worker.consecutive_failures >= self.backend.fail_threshold:
            worker.exclude(f"{worker.consecutive_failures} consecutive "
                           f"transport failures")
            self.backend._wake.notify_all()


def resolve_backend(name: Optional[str], workers: Optional[int] = None,
                    job_timeout_s: Optional[float] = None,
                    start_method: Optional[str] = None,
                    worker_urls: Sequence[str] = ()) -> ExecutionBackend:
    """Build a backend from CLI-shaped arguments.

    ``name=None`` keeps the historical inference: ``workers == 0`` is
    serial, anything else the process pool.  ``"fleet"`` is deliberately
    absent: the fleet backend belongs to a server's worker registry
    (submit the sweep with ``--host`` / ``"backend": "fleet"`` instead).
    """
    if name is None:
        name = "serial" if workers == 0 else "process"
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(workers=workers or None,
                              job_timeout_s=job_timeout_s,
                              start_method=start_method)
    if name == "remote":
        return RemoteBackend(worker_urls, job_timeout_s=job_timeout_s)
    raise ValueError(f"unknown backend {name!r} "
                     f"(one of {list(BACKEND_NAMES)})")
