"""Shared worker-pool layer of the experiment engine.

Two executors built on one idea — *work is queued, workers are expendable,
callers get ordered results*:

* :class:`ProcessWorkerPool` — W OS processes for CPU-bound batch jobs
  (design-space sweep points).  Each worker owns a private pipe; the parent
  dispatches one job at a time per worker, enforces a per-job wall-clock
  timeout, and survives worker *crashes* (``os._exit``, segfaults, OOM
  kills): the dead worker is reaped, the job is reported as ``crash``, and
  a replacement process is spawned so the rest of the sweep continues.
  Results are collected as they complete but returned ordered by job index,
  so a parallel sweep is record-for-record comparable with the serial loop.

* :class:`KeyedThreadPool` — W threads with **per-key FIFO queues**: all
  work for one key runs in submit order on at most one worker at a time,
  so a heavy key can never occupy more than one executor while other keys
  proceed on the rest.  Threads are started lazily, keys are scheduled
  round-robin, and errors propagate through the returned :class:`Future`.

Both are transport-free (no repro imports).  ``repro.explore.engine``
drives sweeps on the process pool; the keyed pool is a public building
block with no caller in the package: the simulation server runs each
``session/*`` request on its connection's thread under the session's
lock instead.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

__all__ = [
    "JobResult",
    "ProcessWorkerPool",
    "Future",
    "KeyedThreadPool",
    "default_worker_count",
    "CANCELLED_MESSAGE",
]

TaskRef = Union[str, Callable[[object], object]]

#: duck type of a cancellation token (``repro.fleet.cancel.CancelToken``
#: canonically): anything with a ``cancelled() -> bool`` method.  Typed
#: loosely so this transport-free layer needs no fleet import.
CancelLike = Optional[object]

#: error string of a job stopped by cancellation — byte-identical on
#: every backend, like the crash/timeout messages
CANCELLED_MESSAGE = "job cancelled"


def default_worker_count(jobs: Optional[int] = None) -> int:
    """Worker count matched to the machine (and optionally the job count)."""
    cpus = os.cpu_count() or 1
    if jobs is not None:
        return max(1, min(cpus, jobs))
    return max(1, cpus)


@dataclass
class JobResult:
    """Outcome of one pool job, in the caller's submission order.

    ``kind`` is one of ``ok`` / ``error`` (the task raised) / ``crash``
    (the worker process died) / ``timeout`` (the per-job deadline passed
    and the worker was killed) / ``cancelled`` (a cancel token fired
    before or during the job).  Only ``ok`` results carry a ``value``.

    ``spans`` (optional) carries the job's trace spans when the backend
    ran it under a tracer — host-side telemetry, like ``elapsed_s`` and
    ``worker``, that the sweep engine keeps out of the records.
    """

    index: int
    kind: str
    value: Optional[object] = None
    error: Optional[str] = None
    worker: int = -1
    elapsed_s: float = 0.0
    spans: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


def _resolve_task(task: TaskRef) -> Callable[[object], object]:
    """Resolve a ``module:function`` dotted reference (or pass a callable
    through).  Dotted references keep the pool spawn-safe: the worker
    imports the function instead of unpickling a closure."""
    if callable(task):
        return task
    module_name, _, attr = str(task).partition(":")
    if not module_name or not attr:
        raise ValueError(f"task reference must look like "
                         f"'package.module:function', got {task!r}")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr)
    if not callable(fn):
        raise TypeError(f"{task!r} does not resolve to a callable")
    return fn


def _worker_main(conn_, task: TaskRef) -> None:  # pragma: no cover - child
    """Worker process loop: receive ``(index, payload)``, run, reply."""
    try:
        fn = _resolve_task(task)
    except BaseException as exc:  # noqa: BLE001 - report then die
        try:
            conn_.send((-1, "error", f"task resolution failed: {exc}"))
        finally:
            return
    while True:
        try:
            message = conn_.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, payload = message
        try:
            value = fn(payload)
            reply = (index, "ok", value)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - isolate the job
            reply = (index, "error", f"{type(exc).__name__}: {exc}")
        try:
            conn_.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("conn", "process", "wid", "job_index", "deadline", "started")

    def __init__(self, ctx, task: TaskRef, wid: int):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child, task),
                                   daemon=True, name=f"explore-worker-{wid}")
        self.process.start()
        child.close()
        self.wid = wid
        self.job_index: Optional[int] = None
        self.deadline: Optional[float] = None
        self.started = 0.0

    @property
    def idle(self) -> bool:
        return self.job_index is None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck in kernel
            self.process.kill()
            self.process.join(timeout=5.0)


class ProcessWorkerPool:
    """W-process pool with per-job timeouts and crash isolation.

    Parameters
    ----------
    task:
        ``"package.module:function"`` (spawn-safe) or a callable (fork
        only).  The function receives one picklable payload and returns a
        picklable value.
    workers:
        Process count (default: one per CPU).
    job_timeout_s:
        Wall-clock budget per job; on expiry the worker is terminated, the
        job reports ``kind="timeout"`` and a fresh worker takes over the
        remaining queue.  ``None`` disables the deadline.
    """

    def __init__(self, task: TaskRef, workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = None,
                 start_method: Optional[str] = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        _resolve_task(task)               # fail fast on a bad reference
        self.task = task
        self.workers = workers or default_worker_count()
        self.job_timeout_s = job_timeout_s
        self._ctx = get_context(start_method) if start_method \
            else get_context()
        self._pool: List[_Worker] = []
        self._next_wid = 0
        self._closed = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self.task, self._next_wid)
        self._next_wid += 1
        return worker

    def _ensure_pool(self, jobs: int) -> None:
        want = min(self.workers, max(1, jobs))
        while len(self._pool) < want:
            self._pool.append(self._spawn())

    # ------------------------------------------------------------------
    def map(self, payloads: Sequence[object],
            on_result: Optional[Callable[[JobResult], None]] = None,
            on_dispatch: Optional[Callable[[int, object], None]] = None,
            cancel: CancelLike = None) -> List[JobResult]:
        """Run every payload; return results ordered by submission index.

        ``on_result`` (optional) fires in *completion* order as each job
        finishes — progress reporting for long sweeps.  ``on_dispatch``
        (optional) fires with ``(index, worker_id)`` the moment a job is
        handed to a worker — live queued/running introspection.
        ``cancel`` (optional, any object with ``cancelled() -> bool``)
        stops the run once fired: undispatched jobs report
        ``kind="cancelled"`` and in-flight workers are killed and
        respawned, the same mechanics as a per-job timeout.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        total = len(payloads)
        if total == 0:
            return []
        self._ensure_pool(total)
        pending: Deque[int] = deque(range(total))
        results: Dict[int, JobResult] = {}

        def finish(result: JobResult) -> None:
            results[result.index] = result
            if on_result is not None:
                on_result(result)

        def fail_running(worker: _Worker, kind: str, message: str) -> None:
            index = worker.job_index
            if index is not None:
                finish(JobResult(index=index, kind=kind, error=message,
                                 worker=worker.wid,
                                 elapsed_s=time.monotonic() - worker.started))
            worker.job_index = None
            worker.deadline = None
            worker.kill()
            self._pool[self._pool.index(worker)] = self._spawn()

        while len(results) < total:
            if cancel is not None and cancel.cancelled():
                # drain the queue, then stop in-flight jobs the way a
                # timeout does (kill + respawn keeps the pool reusable)
                while pending:
                    finish(JobResult(index=pending.popleft(),
                                     kind="cancelled",
                                     error=CANCELLED_MESSAGE))
                for worker in self._pool:
                    if not worker.idle:
                        fail_running(worker, "cancelled", CANCELLED_MESSAGE)
                continue
            # dispatch to every idle worker
            for slot, worker in enumerate(self._pool):
                if not worker.idle or not pending:
                    continue
                index = pending.popleft()
                try:
                    worker.conn.send((index, payloads[index]))
                except (BrokenPipeError, OSError):
                    # worker died before accepting work: respawn, requeue
                    pending.appendleft(index)
                    worker.kill()
                    self._pool[slot] = self._spawn()
                    continue
                worker.job_index = index
                worker.started = time.monotonic()
                worker.deadline = (worker.started + self.job_timeout_s
                                   if self.job_timeout_s else None)
                if on_dispatch is not None:
                    on_dispatch(index, worker.wid)
            busy = [w for w in self._pool if not w.idle]
            if not busy:  # pragma: no cover - defensive (dispatch failed)
                continue
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            wait_s: Optional[float] = None
            if deadlines:
                wait_s = max(0.0, min(deadlines) - time.monotonic())
            if cancel is not None:
                # wake periodically so a cancel is honored promptly even
                # while every worker is deep in a long job
                wait_s = 0.1 if wait_s is None else min(wait_s, 0.1)
            ready = connection.wait([w.conn for w in busy], timeout=wait_s)
            now = time.monotonic()
            for conn_ in ready:
                worker = next(w for w in busy if w.conn is conn_)
                try:
                    index, kind, value = worker.conn.recv()
                except (EOFError, OSError):
                    fail_running(worker, "crash",
                                 "worker process died mid-job")
                    continue
                if index != worker.job_index:
                    # out-of-protocol reply (e.g. startup failure sentinel):
                    # the worker is not trustworthy — fail its job, respawn
                    fail_running(worker, "error",
                                 f"worker protocol error: {value}")
                    continue
                finish(JobResult(
                    index=index, kind=kind,
                    value=value if kind == "ok" else None,
                    error=None if kind == "ok" else str(value),
                    worker=worker.wid, elapsed_s=now - worker.started))
                worker.job_index = None
                worker.deadline = None
            for worker in busy:
                if (not worker.idle and worker.deadline is not None
                        and now >= worker.deadline):
                    fail_running(
                        worker, "timeout",
                        f"job exceeded {self.job_timeout_s:g}s timeout")
        return [results[i] for i in range(total)]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._pool:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._pool:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.kill()
            else:
                worker.conn.close()
        self._pool.clear()


# ---------------------------------------------------------------------------
# keyed thread pool
# ---------------------------------------------------------------------------
class Future:
    """Minimal completion handle for :class:`KeyedThreadPool` work."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: object = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: object, error: Optional[BaseException]) -> None:
        self._value = value
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> object:
        """Block for the outcome; re-raises the task's exception."""
        if not self._event.wait(timeout):
            raise TimeoutError("pool task did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class _KeyQueue:
    tasks: Deque = field(default_factory=deque)
    active: bool = False


class KeyedThreadPool:
    """W worker threads with per-key FIFO ordering and key isolation.

    * All tasks of one key run **in submission order**, never concurrently
      with each other.
    * A key occupies at most one worker, so a key submitting heavy tasks
      cannot starve other keys: ready keys are scheduled round-robin over
      the remaining workers.
    * Threads are daemonic and started lazily — an idle server costs
      nothing; a closed pool rejects new work.
    """

    def __init__(self, workers: Optional[int] = None,
                 name: str = "keyed-pool"):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or default_worker_count()
        self.name = name
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._queues: Dict[object, _KeyQueue] = {}
        self._ready: Deque[object] = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0
        self._closed = False

    # ------------------------------------------------------------------
    def submit(self, key: object, fn: Callable, *args, **kwargs) -> Future:
        """Queue ``fn(*args, **kwargs)`` under *key*; returns a Future."""
        future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            entry = self._queues.get(key)
            if entry is None:
                entry = self._queues[key] = _KeyQueue()
            entry.tasks.append((future, fn, args, kwargs))
            if not entry.active and len(entry.tasks) == 1:
                self._ready.append(key)
            # spawn whenever ready keys outnumber idle workers: an idle
            # thread that was *notified* for an earlier key but has not
            # resumed yet still counts as idle, so comparing against the
            # ready backlog (not just _idle == 0) is what guarantees a
            # second session never queues behind a busy worker while
            # capacity remains
            if len(self._ready) > self._idle \
                    and len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=self._worker_loop, daemon=True,
                    name=f"{self.name}-{len(self._threads)}")
                self._threads.append(thread)
                thread.start()
            else:
                self._work_ready.notify()
        return future

    def run(self, key: object, fn: Callable, *args, **kwargs) -> object:
        """Submit and wait; the synchronous request path of the server."""
        return self.submit(key, fn, *args, **kwargs).result()

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._ready and not self._closed:
                    self._idle += 1
                    self._work_ready.wait()
                    self._idle -= 1
                if self._closed and not self._ready:
                    return
                key = self._ready.popleft()
                entry = self._queues[key]
                future, fn, args, kwargs = entry.tasks.popleft()
                entry.active = True
            try:
                value, error = fn(*args, **kwargs), None
            except BaseException as exc:  # noqa: BLE001 - deliver to caller
                value, error = None, exc
            future._resolve(value, error)
            with self._lock:
                entry.active = False
                if entry.tasks:
                    self._ready.append(key)
                    self._work_ready.notify()
                elif not self._closed:
                    # drop empty idle queues so dead session keys don't leak
                    self._queues.pop(key, None)

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Queued-but-unfinished task count (diagnostics)."""
        with self._lock:
            return sum(len(q.tasks) + (1 if q.active else 0)
                       for q in self._queues.values())

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; optionally wait for queued tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work_ready.notify_all()
            # snapshot under the lock: submit() may be growing the list
            # concurrently right up to the _closed flip above
            threads = list(self._threads)
        if drain:
            for thread in threads:
                thread.join(timeout=10.0)

    def __enter__(self) -> "KeyedThreadPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
