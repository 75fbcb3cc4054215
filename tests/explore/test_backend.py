"""Execution-backend tests: serial / process / remote bit-identity, and
the uniform failure semantics the distributed refactor pins — error
records identical on every backend, at-most-one re-dispatch, dead remote
workers excluded while the sweep completes."""

import json
import socket
import threading
import time

import pytest

from repro.explore import (ProcessBackend, RemoteBackend, SerialBackend,
                           SweepSpec, plan_jobs, resolve_backend, run_sweep)
from repro.explore.backend import _parse_worker_url
from repro.server.httpd import SimServer

SUM_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 50
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

SPIN = "spin:\n    j spin\n"


def grid_spec(name="backend-test", source=SUM_LOOP, **extra):
    spec = {
        "name": name,
        "programs": [{"name": "prog", "source": source}],
        "axes": [
            {"name": "width", "path": "config.buffers.fetchWidth",
             "values": [1, 2]},
            {"name": "lines", "path": "config.cache.lineCount",
             "values": [8, 32]},
        ],
    }
    spec.update(extra)
    return SweepSpec.from_json(spec)


def record_bytes(run):
    return [json.dumps(r, sort_keys=True) for r in run.records]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="module")
def worker_servers():
    """Two in-process sweep-worker servers (the remote fleet)."""
    servers = [SimServer(("127.0.0.1", 0)) for _ in range(2)]
    for server in servers:
        server.start_background()
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="module")
def worker_urls(worker_servers):
    return [f"127.0.0.1:{s.port}" for s in worker_servers]


@pytest.fixture(scope="module")
def serial_run():
    return run_sweep(grid_spec(), workers=0)


class TestBackendIdentity:
    def test_all_three_backends_produce_identical_records(
            self, serial_run, worker_urls):
        """The tentpole invariant: scheduling/transport must never change
        a record byte."""
        with ProcessBackend(workers=2) as pool:
            process = run_sweep(grid_spec(), backend=pool)
        remote = run_sweep(grid_spec(),
                           backend=RemoteBackend(worker_urls))
        assert record_bytes(process) == record_bytes(serial_run)
        assert record_bytes(remote) == record_bytes(serial_run)
        assert serial_run.backend == "serial"
        assert process.backend == "process"
        assert remote.backend == "remote"

    def test_error_failure_records_identical_across_backends(
            self, worker_urls):
        """A broken program fails with the same kind and the same
        ``TypeName: message`` string on every backend."""
        spec = grid_spec("broken", source="    nosuchop x0\n")
        with ProcessBackend(workers=2) as pool:
            runs = [run_sweep(spec, backend=SerialBackend()),
                    run_sweep(spec, backend=pool),
                    run_sweep(spec, backend=RemoteBackend(worker_urls))]
        baseline = record_bytes(runs[0])
        assert all(not r["ok"] and r["kind"] == "error"
                   for r in runs[0].records)
        for run in runs[1:]:
            assert record_bytes(run) == baseline

    def test_timeout_records_identical_process_vs_remote(
            self, worker_servers, worker_urls):
        """A job over budget reports kind=timeout with the identical
        message on the process pool and the remote fleet (the serial
        loop deliberately has no timeout), and stops on its worker as
        the pool's does."""
        spec = grid_spec("slow", source=SPIN, maxCycles=2_000_000)
        spec.axes = spec.axes[:1]          # 2 jobs are enough
        with ProcessBackend(workers=2, job_timeout_s=0.3) as pool:
            process = run_sweep(spec, backend=pool)
        remote = run_sweep(spec, backend=RemoteBackend(
            worker_urls, job_timeout_s=0.3))
        assert record_bytes(process) == record_bytes(remote)
        for record in process.records:
            assert record["kind"] == "timeout"
            assert record["error"] == "job exceeded 0.3s timeout"
        deadline = time.monotonic() + 2.0
        while any(s.api.cancels.active() for s in worker_servers):
            assert time.monotonic() < deadline, "timed-out jobs still run"
            time.sleep(0.01)

    def test_run_metadata_carries_backend_and_timings(self, serial_run):
        assert serial_run.execution["backend"] == "serial"
        assert [t["index"] for t in serial_run.timings] == [0, 1, 2, 3]
        assert all(t["elapsedS"] >= 0 for t in serial_run.timings)
        payload = serial_run.to_json()
        assert payload["backend"] == "serial"
        assert len(payload["timings"]) == 4


class TestRemoteSemantics:
    def test_dead_worker_excluded_sweep_completes(self, worker_urls):
        """One live worker + one dead URL: jobs lost to the dead worker
        are re-dispatched (at most once) and the sweep finishes clean."""
        dead = f"127.0.0.1:{free_port()}"
        backend = RemoteBackend([worker_urls[0], dead],
                                inflight_per_worker=1)
        dispatches = []
        run = run_sweep(grid_spec(), backend=backend,
                        on_dispatch=lambda i, w: dispatches.append((i, w)))
        assert not run.failures
        workers = {w["url"]: w
                   for w in run.execution["remoteWorkers"]}
        assert workers[dead]["excluded"]
        assert workers[worker_urls[0]]["ok"] == 4
        counts = {}
        for index, _worker in dispatches:
            counts[index] = counts.get(index, 0) + 1
        assert all(count <= 2 for count in counts.values()), counts

    def test_all_workers_dead_fails_every_job(self):
        backend = RemoteBackend([f"127.0.0.1:{free_port()}"],
                                fail_threshold=2)
        started = time.monotonic()
        run = run_sweep(grid_spec(), backend=backend)
        # a fixed list cannot gain a worker: no grace period is waited
        # out for a replacement, as a registry membership would
        assert time.monotonic() - started < 2.0
        assert len(run.failures) == 4
        assert all(r["kind"] == "crash" for r in run.records)
        assert run.execution["remoteWorkers"][0]["excluded"]

    def test_worker_killed_mid_sweep_is_survivable(self, worker_urls):
        """A worker dying *between* jobs mid-sweep: its in-flight job is
        re-dispatched once and everything completes on the survivor."""
        victim = SimServer(("127.0.0.1", 0))
        victim.start_background()
        victim_url = f"127.0.0.1:{victim.port}"
        spec = grid_spec("mid-kill")
        backend = RemoteBackend([worker_urls[0], victim_url],
                                inflight_per_worker=1)
        seen = threading.Event()

        def kill_on_first_victim_dispatch(index, worker):
            if worker == victim_url and not seen.is_set():
                seen.set()
                threading.Thread(target=lambda: (victim.shutdown(),
                                                 victim.server_close()),
                                 daemon=True).start()

        run = run_sweep(spec, backend=backend,
                        on_dispatch=kill_on_first_victim_dispatch)
        # every job either succeeded on the survivor or on the victim
        # before it died; none may be lost
        assert len(run.records) == 4
        assert not run.failures
        if not seen.is_set():  # pragma: no cover - scheduling-dependent
            victim.shutdown()
            victim.server_close()

    def test_per_worker_cache_warms_across_jobs(self, worker_servers):
        """Repeated-program jobs on one worker hit its artifact cache."""
        server = worker_servers[0]
        before = server.api.artifacts.stats()["assemble"]
        url = f"127.0.0.1:{server.port}"
        run = run_sweep(grid_spec("cache-warm"),
                        backend=RemoteBackend([url]))
        assert not run.failures
        after = server.api.artifacts.stats()["assemble"]
        assert after["hits"] > before["hits"]

    def test_worker_url_validation(self):
        assert _parse_worker_url("http://host:8045/") == ("host", 8045)
        assert _parse_worker_url("host:1") == ("host", 1)
        for bad in ("host", "host:", ":8045", "host:port"):
            with pytest.raises(ValueError):
                _parse_worker_url(bad)
        with pytest.raises(ValueError, match="at least one"):
            RemoteBackend([])
        with pytest.raises(ValueError, match="duplicate"):
            RemoteBackend(["a:1", "http://a:1"])


class TestExecutionSummary:
    def test_renders_per_worker_rows_and_wall_time(self, serial_run):
        from repro.viz.sweep import render_execution_summary
        text = render_execution_summary(serial_run.to_json())
        assert "execution (serial backend" in text
        assert "per-job wall time: min" in text and "p90" in text
        assert "worker 0: 4 jobs (0 failed)" in text

    def test_remote_health_rows_surface_exclusion(self):
        from repro.viz.sweep import render_execution_summary
        text = render_execution_summary({
            "backend": "remote", "workers": 2, "elapsedS": 1.0,
            "timings": [{"index": 0, "kind": "ok", "worker": "a:1",
                         "elapsedS": 0.5}],
            "execution": {"remoteWorkers": [
                {"url": "a:1", "dispatched": 1, "ok": 1, "failures": 0,
                 "excluded": False},
                {"url": "b:2", "dispatched": 1, "ok": 0, "failures": 2,
                 "excluded": True}]},
        })
        assert "worker a:1: 1 jobs" in text
        assert "worker b:2: 0 jobs, transport failures 2, EXCLUDED" in text

    def test_empty_run_renders_nothing(self):
        from repro.viz.sweep import render_execution_summary
        assert render_execution_summary({"timings": []}) == ""


class TestCancellation:
    """Uniform cancelled-record discipline: once a token fires, every
    backend reports the identical ``kind="cancelled"`` / ``job
    cancelled`` for work it never dispatched or had to stop."""

    def test_prefired_token_drains_all_backends_identically(
            self, worker_urls):
        from repro.fleet.cancel import CancelToken
        token = CancelToken()
        token.cancel("before the sweep")
        spec = grid_spec("pre-cancelled")
        with ProcessBackend(workers=2) as pool:
            runs = [run_sweep(spec, backend=SerialBackend(), cancel=token),
                    run_sweep(spec, backend=pool, cancel=token),
                    run_sweep(spec, backend=RemoteBackend(worker_urls),
                              cancel=token)]
        baseline = record_bytes(runs[0])
        for run in runs:
            assert record_bytes(run) == baseline
            assert all(r["kind"] == "cancelled" for r in run.records)
            assert all(r["error"] == "job cancelled" for r in run.records)

    def test_serial_cancel_mid_sweep_stops_in_flight_job(self):
        """Token fired during job 1: job 0 finished, the in-flight job
        stops at its stride check, the rest never dispatch."""
        from repro.fleet.cancel import CancelToken
        spec = grid_spec("serial-cancel", source=SPIN,
                         maxCycles=50_000_000)
        token = CancelToken()

        def fire_on_dispatch(index, _worker):
            token.cancel()

        started = time.time()
        run = run_sweep(spec, backend=SerialBackend(), cancel=token,
                        on_dispatch=fire_on_dispatch)
        assert time.time() - started < 30.0      # not 4 x 50M cycles
        assert all(r["kind"] == "cancelled" for r in run.records)

    def test_remote_cancel_stops_the_job_on_its_worker(self, worker_urls):
        """A fixed-list sweep sends a ``cancelId`` with every dispatch:
        the token fired on the first dispatch reaches the spinning job
        through ``/worker/cancel``, which stops it within a stride
        instead of at its timeout."""
        from repro.fleet.cancel import CancelToken
        spec = grid_spec("remote-cancel", source=SPIN,
                         maxCycles=50_000_000)
        token = CancelToken()
        backend = RemoteBackend(worker_urls[:1], job_timeout_s=30.0,
                                inflight_per_worker=1)
        started = time.monotonic()
        run = run_sweep(spec, backend=backend, cancel=token,
                        on_dispatch=lambda _i, _w: token.cancel("test"))
        elapsed = time.monotonic() - started
        assert all(r["kind"] == "cancelled" for r in run.records)
        # the one dispatched job answered "cancelled" from its worker
        on_worker = [t["kind"] for t in run.timings
                     if t["worker"] == worker_urls[0]]
        assert on_worker == ["cancelled"]
        assert elapsed < 10.0, elapsed

    def test_process_cancel_kills_in_flight_workers(self):
        from repro.fleet.cancel import CancelToken
        spec = grid_spec("pool-cancel", source=SPIN,
                         maxCycles=50_000_000)
        token = CancelToken()

        def fire_on_dispatch(index, _worker):
            token.cancel()

        with ProcessBackend(workers=2) as pool:
            started = time.time()
            run = run_sweep(spec, backend=pool, cancel=token,
                            on_dispatch=fire_on_dispatch)
            assert time.time() - started < 30.0
        assert all(r["kind"] == "cancelled" for r in run.records)
        assert all(r["error"] == "job cancelled" for r in run.records)


class TestResolveBackend:
    def test_inference_matches_the_historical_workers_contract(self):
        serial = resolve_backend(None, workers=0)
        assert isinstance(serial, SerialBackend)
        process = resolve_backend(None, workers=3)
        assert isinstance(process, ProcessBackend)
        assert process.workers == 3
        process.close()

    def test_explicit_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        remote = resolve_backend("remote", worker_urls=["h:1"])
        assert isinstance(remote, RemoteBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")
