"""Fleet scheduling: a RemoteBackend whose membership is a live
WorkerRegistry, with the remote identity pin intact — records
byte-identical to serial through joins, leaves, and restarts mid-sweep."""

import json
import socket
import threading
import time

import pytest

from repro.explore import RemoteBackend, SweepSpec, run_sweep
from repro.fleet import CancelToken, FleetError, WorkerRegistry
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

#: a few hundred iterations: slow enough (~100k cycles) that a sweep is
#: observably in flight while membership changes, fast enough for CI
MEDIUM_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 4000
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


def grid_spec(name="fleet-test", source=SUM_LOOP, points=4, **extra):
    axes = [{"name": "width", "path": "config.buffers.fetchWidth",
             "values": [1, 2]}]
    if points == 4:
        axes.append({"name": "lines", "path": "config.cache.lineCount",
                     "values": [8, 32]})
    spec = {"name": name,
            "programs": [{"name": "prog", "source": source}],
            "axes": axes}
    spec.update(extra)
    return SweepSpec.from_json(spec)


def record_bytes(run):
    return [json.dumps(r, sort_keys=True) for r in run.records]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def worker_server():
    server = SimServer(("127.0.0.1", 0))
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def second_server():
    server = SimServer(("127.0.0.1", 0))
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


def url_of(server) -> str:
    return f"127.0.0.1:{server.port}"


class TestFleetBackendBasics:
    def test_empty_registry_raises_fleet_error(self):
        registry = WorkerRegistry()
        with pytest.raises(FleetError, match="no registered fleet workers"):
            RemoteBackend(registry)
        assert len(registry.live_urls()) == 0

    def test_fleet_records_byte_identical_to_serial(self, worker_server,
                                                    second_server):
        registry = WorkerRegistry()
        registry.register(url_of(worker_server))
        registry.register(url_of(second_server))
        assert len(registry.live_urls()) == 2
        serial = run_sweep(grid_spec(), workers=0)
        fleet = run_sweep(grid_spec(), backend=RemoteBackend(registry))
        assert record_bytes(fleet) == record_bytes(serial)
        assert fleet.backend == "fleet"
        assert fleet.execution["membership"] == "registry"
        assert len(fleet.execution["remoteWorkers"]) == 2

    def test_describe_surfaces_registry(self, worker_server):
        registry = WorkerRegistry()
        registry.register(url_of(worker_server), capacity=3)
        description = RemoteBackend(registry).describe()
        assert description["backend"] == "fleet"
        assert description["membership"] == "registry"
        # the registry rows themselves are /fleet/status's snapshot
        assert registry.snapshot()["live"] == 1
        assert registry.snapshot()["rows"][0]["capacity"] == 3

    def test_fleet_submit_threads_the_store_into_its_backend(self):
        """A server's fleet sweep compiles through the server's store."""
        from repro.explore.artifacts import ArtifactCache
        from repro.explore.service import ExploreManager
        registry = WorkerRegistry()
        registry.register(f"127.0.0.1:{free_port()}")
        store = ArtifactCache()
        manager = ExploreManager()
        manager.fleet = registry
        manager.artifacts = store
        spec = {"name": "store",
                "programs": [{"name": "prog", "source": SUM_LOOP}]}
        state = manager.submit(spec, backend="fleet")
        manager.cancel(state.id)
        manager.close()
        assert state.fleet_backend.artifact_store is store


class TestMembershipChurn:
    def test_worker_joining_mid_sweep_serves_jobs(self, worker_server,
                                                  second_server):
        """A sweep started on a 1-worker fleet picks up a second worker
        that registers mid-flight; records stay byte-identical."""
        registry = WorkerRegistry()
        registry.register(url_of(worker_server))
        backend = RemoteBackend(registry, poll_s=0.02,
                                inflight_per_worker=1)
        spec = grid_spec("join", source=MEDIUM_LOOP, points=4)
        serial = run_sweep(spec, workers=0)
        dispatched = []
        joined = threading.Event()

        def register_late(index, worker):
            dispatched.append((index, worker))
            if not joined.is_set():
                joined.set()
                registry.register(url_of(second_server))

        fleet = run_sweep(spec, backend=backend,
                          on_dispatch=register_late)
        assert record_bytes(fleet) == record_bytes(serial)
        assert not fleet.failures
        urls = {row["url"] for row in fleet.execution["remoteWorkers"]}
        assert urls == {url_of(worker_server), url_of(second_server)}

    def test_worker_leaving_mid_sweep_is_excluded_with_reason(
            self, worker_server):
        """A registered-but-dead worker expires mid-sweep: the fleet
        excludes it with the membership reason and the survivor finishes
        the sweep byte-identically."""
        registry = WorkerRegistry(ttl_s=0.2)
        registry.register(url_of(worker_server))
        dead_url = f"127.0.0.1:{free_port()}"
        registry.register(dead_url)
        backend = RemoteBackend(registry, poll_s=0.05,
                                inflight_per_worker=1, fail_threshold=100)
        # keep heartbeating only the live worker while the sweep runs
        stop = threading.Event()

        def heartbeat():
            while not stop.is_set():
                registry.register(url_of(worker_server))
                stop.wait(0.05)

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()
        try:
            spec = grid_spec("leave", source=MEDIUM_LOOP, points=4)
            serial = run_sweep(spec, workers=0)
            fleet = run_sweep(spec, backend=backend)
        finally:
            stop.set()
            beat.join(timeout=2.0)
        assert record_bytes(fleet) == record_bytes(serial)
        assert not fleet.failures
        rows = {row["url"]: row
                for row in fleet.execution["remoteWorkers"]}
        assert rows[dead_url]["excluded"]
        assert "left the fleet" in rows[dead_url]["excludedReason"] \
            or "transport failures" in rows[dead_url]["excludedReason"]

    def test_run_starts_on_the_members_live_at_run_time(self, worker_server,
                                                        second_server):
        """A server builds the backend at submit and may queue the sweep:
        a worker that left before the run gets no dispatch, and workers
        that joined meanwhile serve from the first job."""
        registry = WorkerRegistry()
        dead_url = f"127.0.0.1:{free_port()}"
        registry.register(dead_url)
        backend = RemoteBackend(registry, fail_threshold=1)
        registry.forget(dead_url)
        registry.register(url_of(worker_server))
        registry.register(url_of(second_server))
        serial = run_sweep(grid_spec("queued"), workers=0)
        fleet = run_sweep(grid_spec("queued"), backend=backend)
        assert record_bytes(fleet) == record_bytes(serial)
        rows = {row["url"]: row
                for row in fleet.execution["remoteWorkers"]}
        assert rows[dead_url]["dispatched"] == 0
        assert rows[dead_url]["excludedReason"] \
            == "left the fleet (heartbeat expired)"
        assert rows[url_of(worker_server)]["dispatched"] \
            + rows[url_of(second_server)]["dispatched"] == 4

    def test_restart_mid_sweep_readmits_transport_excluded_worker(self):
        """Regression: a single-worker fleet whose worker crashes
        mid-sweep gets transport-excluded within milliseconds — long
        before the registry TTL notices.  When the worker restarts and
        re-registers (generation bump), the backend must readmit it and
        finish the sweep instead of crashing every remaining job."""
        registry = WorkerRegistry(ttl_s=0.25)
        first = SimServer(("127.0.0.1", 0))
        first.start_background()
        port = first.port
        url = f"127.0.0.1:{port}"
        registry.register(url)
        backend = RemoteBackend(registry, poll_s=0.05, fail_threshold=1,
                                inflight_per_worker=1,
                                no_worker_grace_s=20.0)
        server_alive = threading.Event()
        server_alive.set()
        stop = threading.Event()
        restarted = {}

        def heartbeat():
            while not stop.is_set():
                if server_alive.is_set():
                    registry.register(url)
                stop.wait(0.05)

        def crash_and_restart():
            server_alive.clear()
            first.shutdown()
            first.server_close()
            time.sleep(0.5)               # > ttl: registry expires it
            second = SimServer(("127.0.0.1", port))
            second.start_background()
            restarted["server"] = second
            server_alive.set()            # heartbeats resume: gen bump

        crashed = threading.Event()

        def on_dispatch(index, worker):
            if not crashed.is_set():
                crashed.set()
                threading.Thread(target=crash_and_restart,
                                 daemon=True).start()

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()
        try:
            spec = grid_spec("restart-mid", source=MEDIUM_LOOP, points=4)
            run = run_sweep(spec, backend=backend,
                            on_dispatch=on_dispatch)
        finally:
            stop.set()
            beat.join(timeout=2.0)
            server = restarted.get("server")
            if server is not None:
                server.shutdown()
                server.server_close()
        # at most the job in flight at crash time may be lost (one
        # retry against the dying process); everything else must have
        # completed on the restarted worker — not crash-failed
        ok = [r for r in run.records if r["ok"]]
        assert len(ok) >= 3, run.records
        assert all(r["kind"] == "crash" for r in run.failures)
        row = run.execution["remoteWorkers"][0]
        assert not row["excluded"], row    # readmitted after the restart

    def test_reregistration_after_restart_keeps_records_identical(self):
        """Worker restarts between two sweeps (same URL, fresh process):
        both sweeps' records are byte-identical to serial."""
        registry = WorkerRegistry()
        serial = run_sweep(grid_spec("restart"), workers=0)

        first = SimServer(("127.0.0.1", 0))
        first.start_background()
        port = first.port
        registry.register(f"127.0.0.1:{port}")
        try:
            before = run_sweep(grid_spec("restart"),
                               backend=RemoteBackend(registry))
        finally:
            first.shutdown()
            first.server_close()

        # same URL, new process (allow_reuse_address lets us rebind)
        second = SimServer(("127.0.0.1", port))
        second.start_background()
        registry.register(f"127.0.0.1:{port}")      # re-registration
        try:
            after = run_sweep(grid_spec("restart"),
                              backend=RemoteBackend(registry))
        finally:
            second.shutdown()
            second.server_close()

        assert record_bytes(before) == record_bytes(serial)
        assert record_bytes(after) == record_bytes(serial)


class TestFleetCancellation:
    def test_cancel_drains_and_stops_inflight_jobs(self, worker_server):
        """Firing the token mid-sweep: undispatched jobs drain as
        ``cancelled`` and the in-flight job is stopped on the worker via
        /worker/cancel well before its cycle budget."""
        registry = WorkerRegistry()
        registry.register(url_of(worker_server))
        backend = RemoteBackend(registry, poll_s=0.05,
                                inflight_per_worker=1)
        spec = grid_spec("cancel", source="spin:\n    j spin\n",
                         points=4, maxCycles=50_000_000)
        token = CancelToken()

        def fire_on_first_dispatch(index, worker):
            token.cancel("test cancel")

        started = time.monotonic()
        run = run_sweep(spec, backend=backend, cancel=token,
                        on_dispatch=fire_on_first_dispatch)
        elapsed = time.monotonic() - started
        assert len(run.records) == 4
        assert all(r["kind"] == "cancelled" for r in run.records)
        assert all(r["error"] == "job cancelled" for r in run.records)
        # 50M spin cycles would take minutes; cancellation must stop the
        # in-flight job within (stride + propagation) — seconds at most
        assert elapsed < 30.0
