"""One way a sweep worker gets its program: the dispatching backend
compiles each C program once, through its artifact cache, and ships the
assembly.  Also the cache's single-flight miss storms and disk-GC races."""

import json
import threading
import time
import types

import pytest

from repro.explore.artifacts import ArtifactCache
from repro.explore.backend import RemoteBackend, SerialBackend
from repro.explore.plan import plan_jobs
from repro.explore.runner import execute_payload
from repro.explore.spec import SweepSpec
from repro.server.client import SimClient
from repro.server.httpd import SimServer

C_KERNEL = ("int main(void) { int s = 0; "
            "for (int i = 1; i <= 9; i++) s += i; return s; }")

BAD_C = "int main(void) { return undefined_symbol; }"


def c_grid_spec(programs=None, points=3):
    return SweepSpec.from_json({
        "name": "dataplane-grid",
        "programs": programs or [
            {"name": "sum", "c": C_KERNEL, "entry": "main",
             "memory": [{"name": "data", "dtype": "word",
                         "values": [1, 2, 3]}]}],
        "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
                  "values": [1, 2, 4][:points]}],
    })


def record_bytes(results):
    return [(r.kind, r.error, json.dumps(r.value, sort_keys=True))
            for r in results]


def counting_compile(monkeypatch):
    """Wrap the real compiler with a call counter (thread-safe)."""
    import repro.compiler.driver as driver
    real = driver.compile_c
    lock = threading.Lock()
    calls = []

    def counted(source, opt_level=1, **kw):
        with lock:
            calls.append((source, opt_level))
        return real(source, opt_level, **kw)

    monkeypatch.setattr(driver, "compile_c", counted)
    return calls


class TestSingleFlight:
    def test_miss_storm_compiles_exactly_once(self, monkeypatch):
        """N threads racing one cold key must cost one compile: the
        first caller builds, the rest wait on the flight and take the
        memory tier (a remote sweep's serve threads all ask the
        dispatcher's cache for the same program at once)."""
        calls = counting_compile(monkeypatch)
        cache = ArtifactCache()
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def storm(slot):
            barrier.wait()
            results[slot] = cache.compiled_assembly(C_KERNEL, 1)

        threads = [threading.Thread(target=storm, args=(slot,))
                   for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1 and results[0]
        assert len(calls) == 1
        stats = cache.stats()["compile"]
        assert stats["misses"] == 1
        assert stats["hits"] == len(results) - 1

    def test_waiter_takes_over_after_builder_failure(self):
        """A failing build is signalled to waiters, who re-check the
        tiers and retry themselves — failures are never cached, so
        every storm participant sees the compile error."""
        from repro.explore.runner import JobError
        cache = ArtifactCache()
        errors = []
        barrier = threading.Barrier(4)

        def storm():
            barrier.wait()
            try:
                cache.compiled_assembly(BAD_C, 1)
            except JobError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=storm) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 4
        assert len(set(errors)) == 1          # identical message each time
        assert cache.stats()["compile"]["entries"] == 0


class TestDiskGcRace:
    def test_gc_racing_reads_never_serves_partial_artifacts(
            self, tmp_path, monkeypatch):
        """Aggressive eviction concurrent with cold reads: every read
        returns the full artifact bytes or degrades to a (identical)
        rebuild — never a torn file.  Writes are atomic (temp +
        os.replace) and corrupt/missing entries read as misses."""
        import repro.compiler.driver as driver
        fake = types.SimpleNamespace
        monkeypatch.setattr(
            driver, "compile_c",
            lambda source, opt_level=1, **kw: fake(
                success=True, assembly=f"# asm for {hash(source)}\n",
                errors=[]))
        expected = f"# asm for {hash('hot')}\n"
        stop = threading.Event()
        mismatches = []

        def reader():
            while not stop.is_set():
                cache = ArtifactCache(directory=str(tmp_path),
                                      max_disk_bytes=None)
                if cache.compiled_assembly("hot", 0) != expected:
                    mismatches.append("torn read")
                    return

        def churn():
            evictor = ArtifactCache(directory=str(tmp_path),
                                    max_disk_bytes=1)
            index = 0
            while not stop.is_set():
                evictor.compiled_assembly(f"cold-{index}", 0)
                evictor._disk_gc_locked()
                index += 1

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=churn))
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert mismatches == []


class TestDispatchCompile:
    def test_c_program_ships_as_assembly(self):
        store = ArtifactCache()
        backend = RemoteBackend(["127.0.0.1:1"], artifact_store=store)
        payload = plan_jobs(c_grid_spec())[0].payload
        original = json.dumps(payload, sort_keys=True)
        shipped = backend._shipped(payload)
        program = shipped["program"]
        assert program["source"] == store.compiled_assembly(C_KERNEL, 1)
        assert "c" not in program and "optimizeLevel" not in program
        for key in ("name", "entry", "memory"):
            assert program[key] == payload["program"][key]
        assert json.dumps(payload, sort_keys=True) == original
        # assembly programs go out as they are
        assert backend._shipped(shipped) is shipped

    def test_shipped_payload_runs_to_the_serial_record(self):
        backend = RemoteBackend(["127.0.0.1:1"],
                                artifact_store=ArtifactCache())
        for job in plan_jobs(c_grid_spec()):
            inline = execute_payload(job.payload, cache=ArtifactCache())
            shipped = execute_payload(backend._shipped(job.payload),
                                      cache=ArtifactCache())
            assert json.dumps(shipped, sort_keys=True) \
                == json.dumps(inline, sort_keys=True)

    def test_one_compile_and_only_assembly_on_the_wire(self, monkeypatch):
        """A sweep of one good and one broken C program over a live
        worker: the dispatcher compiles each once, every body it sends
        carries assembly, the broken program's jobs settle with the
        serial record without reaching the worker, and the worker never
        compiles."""
        spec = c_grid_spec([{"name": "sum", "c": C_KERNEL, "entry": "main"},
                            {"name": "bad", "c": BAD_C, "entry": "main"}])
        payloads = [job.payload for job in plan_jobs(spec)]
        serial = SerialBackend().run(payloads)
        sent = []
        real = SimClient.worker_execute

        def recorded(client, body, cancel_id=None):
            sent.append(body)
            return real(client, body, cancel_id=cancel_id)

        monkeypatch.setattr(SimClient, "worker_execute", recorded)
        calls = counting_compile(monkeypatch)
        worker = SimServer(("127.0.0.1", 0))
        worker.start_background()
        try:
            store = ArtifactCache()
            remote = RemoteBackend([f"127.0.0.1:{worker.port}"],
                                   artifact_store=store).run(payloads)
            worker_stats = worker.api.artifacts.stats()
        finally:
            worker.shutdown()
            worker.server_close()
        assert record_bytes(remote) == record_bytes(serial)
        assert [r.kind for r in remote].count("error") == 3
        assert all(r.error.startswith("JobError: C compilation failed at O1")
                   for r in remote if not r.ok)
        assert len(sent) == 3
        assert all(isinstance(body["program"]["source"], str)
                   and "c" not in body["program"] for body in sent)
        assert worker_stats["compile"] == {"hits": 0, "misses": 0,
                                           "entries": 0}
        assert store.stats()["compile"]["misses"] == 1 + 3
        # one compile of the good program; a failure is never cached, so
        # each broken job compiles again, exactly as the serial loop does
        assert calls.count((C_KERNEL, 1)) == 1

    def test_dispatch_compile_spends_the_job_budget(self, monkeypatch):
        """The dispatcher compile is part of the job: one that outlasts
        the budget settles the timeout record without a send; a shorter
        one leaves the rest of the budget as the request timeout, and the
        worker's spans start from when the body went out."""
        class SlowStore(ArtifactCache):
            def compiled_assembly(self, c_source, opt_level):
                time.sleep(0.2)
                return super().compiled_assembly(c_source, opt_level)

        payloads = [job.payload for job in plan_jobs(c_grid_spec(points=2))]
        for index, payload in enumerate(payloads):
            payload["trace"] = {"traceId": "t", "parentId": f"t.j{index}"}
        # nothing listens on port 1: a send would crash, not time out
        over = RemoteBackend(["127.0.0.1:1"], job_timeout_s=0.1,
                             artifact_store=SlowStore()).run(payloads)
        assert [(r.kind, r.error) for r in over] \
            == [("timeout", "job exceeded 0.1s timeout")] * 2

        timeouts = []
        real = SimClient.worker_execute

        def recorded(client, body, cancel_id=None):
            reply = real(client, body, cancel_id=cancel_id)
            timeouts.append((client.timeout, client._conn.sock.gettimeout()))
            return reply

        monkeypatch.setattr(SimClient, "worker_execute", recorded)
        worker = SimServer(("127.0.0.1", 0))
        worker.start_background()
        try:
            under = RemoteBackend([f"127.0.0.1:{worker.port}"],
                                  job_timeout_s=30.0, inflight_per_worker=1,
                                  artifact_store=SlowStore()).run(payloads)
        finally:
            worker.shutdown()
            worker.server_close()
        assert all(r.ok for r in under)
        # one keep-alive connection carries both jobs, re-armed for each
        assert len(timeouts) == 2
        for budget, socket_timeout in timeouts:
            assert socket_timeout == pytest.approx(budget, abs=1e-6)
            assert budget <= 30.0 - 0.2
        for result in under:
            assert min(span["startS"] for span in result.spans) >= 0.2
