"""Worker-pool tests: ordered results, crash isolation, per-job timeouts
(process pool) and per-key FIFO ordering / key isolation (thread pool)."""

import os
import threading
import time

import pytest

from repro.explore.pool import (KeyedThreadPool, ProcessWorkerPool,
                                default_worker_count)


def pool_task(payload):
    """Module-level task (picklable under any start method)."""
    if payload == "crash":
        os._exit(41)
    if payload == "raise":
        raise ValueError("task exploded")
    if isinstance(payload, dict) and "sleep" in payload:
        time.sleep(payload["sleep"])
        return "slept"
    return payload * 10


class TestProcessWorkerPool:
    def test_results_ordered_by_submission_index(self):
        with ProcessWorkerPool(pool_task, workers=3) as pool:
            results = pool.map(list(range(7)))
        assert [r.index for r in results] == list(range(7))
        assert [r.value for r in results] == [i * 10 for i in range(7)]
        assert all(r.ok for r in results)

    def test_task_error_is_isolated_per_job(self):
        with ProcessWorkerPool(pool_task, workers=2) as pool:
            results = pool.map([1, "raise", 2])
        assert results[0].ok and results[2].ok
        assert results[1].kind == "error"
        assert "task exploded" in results[1].error

    def test_worker_crash_does_not_kill_the_sweep(self):
        """os._exit in a worker: the job reports 'crash', a replacement
        worker finishes the remaining queue."""
        with ProcessWorkerPool(pool_task, workers=2) as pool:
            results = pool.map([1, "crash", 2, 3, 4])
        assert results[1].kind == "crash"
        done = [r for r in results if r.ok]
        assert [r.value for r in done] == [10, 20, 30, 40]

    def test_job_timeout_kills_only_the_slow_job(self):
        with ProcessWorkerPool(pool_task, workers=2,
                               job_timeout_s=1.0) as pool:
            results = pool.map([{"sleep": 30}, 1, 2])
        assert results[0].kind == "timeout"
        assert results[1].ok and results[2].ok

    def test_on_result_progress_callback(self):
        seen = []
        with ProcessWorkerPool(pool_task, workers=2) as pool:
            pool.map([1, 2, 3], on_result=lambda r: seen.append(r.index))
        assert sorted(seen) == [0, 1, 2]

    def test_empty_and_closed(self):
        pool = ProcessWorkerPool(pool_task, workers=1)
        assert pool.map([]) == []
        pool.close()
        pool.close()                       # idempotent
        with pytest.raises(RuntimeError):
            pool.map([1])

    def test_dotted_task_reference(self):
        """Spawn-safe reference form: the worker imports the function."""
        with ProcessWorkerPool("builtins:len", workers=1) as pool:
            results = pool.map(["hello"])
        assert results[0].value == 5

    def test_bad_task_reference_rejected(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool("not-a-dotted-ref", workers=1).map([1])

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(pool_task, workers=0)
        with pytest.raises(ValueError):
            ProcessWorkerPool(pool_task, job_timeout_s=0)

    def test_default_worker_count(self):
        assert default_worker_count() >= 1
        assert default_worker_count(jobs=1) == 1


class TestKeyedThreadPool:
    def test_per_key_fifo_order(self):
        pool = KeyedThreadPool(workers=4)
        order = []
        futures = [pool.submit("k", lambda i=i: order.append(i) or i)
                   for i in range(8)]
        assert [f.result(timeout=5) for f in futures] == list(range(8))
        assert order == list(range(8))
        pool.close()

    def test_key_never_runs_concurrently_with_itself(self):
        pool = KeyedThreadPool(workers=4)
        active = []
        overlap = []
        lock = threading.Lock()

        def task():
            with lock:
                active.append(1)
                overlap.append(len(active))
            time.sleep(0.01)
            with lock:
                active.pop()

        futures = [pool.submit("session", task) for _ in range(10)]
        for future in futures:
            future.result(timeout=5)
        assert max(overlap) == 1
        pool.close()

    def test_light_key_never_queues_behind_heavy_after_idle(self):
        """Regression: with one idle thread left over, a heavy submit
        followed by a light one under another key must spawn capacity
        instead of losing the notify and serializing both on one
        thread."""
        pool = KeyedThreadPool(workers=4)
        pool.submit("warm", lambda: None).result(timeout=5)
        time.sleep(0.05)                   # let the thread go idle
        t0 = time.monotonic()
        heavy = pool.submit("heavy", time.sleep, 1.0)
        light = pool.submit("light", lambda: "done")
        assert light.result(timeout=5) == "done"
        assert time.monotonic() - t0 < 0.5
        heavy.result(timeout=5)
        pool.close()

    def test_keys_run_in_parallel(self):
        """Two keys on two workers overlap in time: a busy key does not
        block another."""
        pool = KeyedThreadPool(workers=2)
        barrier = threading.Barrier(2, timeout=5)
        futures = [pool.submit(key, barrier.wait) for key in ("a", "b")]
        for future in futures:
            future.result(timeout=5)       # would deadlock if serialized
        pool.close()

    def test_error_propagates_to_future(self):
        pool = KeyedThreadPool(workers=1)

        def boom():
            raise RuntimeError("pool error propagation")

        with pytest.raises(RuntimeError, match="pool error propagation"):
            pool.submit("k", boom).result(timeout=5)
        # the worker survives the error
        assert pool.submit("k", lambda: 7).result(timeout=5) == 7
        pool.close()

    def test_close_rejects_new_work_and_drains(self):
        pool = KeyedThreadPool(workers=2)
        future = pool.submit("k", lambda: 3)
        pool.close()
        assert future.result(timeout=5) == 3
        with pytest.raises(RuntimeError):
            pool.submit("k", lambda: 4)

    def test_future_timeout(self):
        pool = KeyedThreadPool(workers=1)
        future = pool.submit("k", time.sleep, 2.0)
        with pytest.raises(TimeoutError):
            future.result(timeout=0.05)
        assert future.result(timeout=10) is None
        pool.close()

    def test_idle_key_queues_are_dropped(self):
        pool = KeyedThreadPool(workers=2)
        for key in range(20):
            pool.submit(key, lambda: None).result(timeout=5)
        assert pool.pending() == 0
        assert len(pool._queues) == 0
        pool.close()
