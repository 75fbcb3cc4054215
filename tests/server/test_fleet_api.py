"""Protocol-v5 fleet surface: /fleet/register + health rows, the
server-owned "fleet" sweep backend on /explore/submit, cooperative
cancellation (/explore/cancel -> /worker/cancel), and progress events
(/explore/events + the chunked /explore/stream over real HTTP)."""

import json
import threading
import time

import pytest

from repro.explore.plan import plan_jobs
from repro.explore.spec import SweepSpec
from repro.server.client import SimClient
from repro.server.httpd import SimServer
from repro.server.protocol import Api, ApiError

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


def sweep_spec(source=SUM_LOOP, **extra):
    spec = {
        "name": "fleet-api",
        "programs": [{"name": "prog", "source": source}],
        "axes": [
            {"name": "width", "path": "config.buffers.fetchWidth",
             "values": [1, 2]},
            {"name": "lines", "path": "config.cache.lineCount",
             "values": [8, 32]},
        ],
    }
    spec.update(extra)
    return spec


def wait_state(api, sweep_id, states=("done", "failed", "cancelled"),
               timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = api.handle("POST", "/explore/status", {"sweepId": sweep_id})
        if status["state"] in states:
            return status
        time.sleep(0.05)
    raise AssertionError(f"sweep stuck: {status}")


@pytest.fixture
def api():
    instance = Api()
    yield instance
    instance.close()


@pytest.fixture
def worker_servers():
    servers = [SimServer(("127.0.0.1", 0)) for _ in range(2)]
    for server in servers:
        server.start_background()
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()


def register_fleet(api, servers):
    for server in servers:
        out = api.handle("POST", "/fleet/register",
                         {"url": f"127.0.0.1:{server.port}"})
        assert out["success"] and out["registered"]
    return [f"127.0.0.1:{s.port}" for s in servers]


class TestFleetRegister:
    def test_register_heartbeat_and_health_rows(self, api):
        out = api.handle("POST", "/fleet/register",
                         {"url": "127.0.0.1:9009", "capacity": 2,
                          "cache": {"diskHits": 7}})
        assert out["success"] and out["workers"] == 1
        assert out["heartbeatS"] > 0
        health = api.handle("GET", "/health", None)
        assert health["fleet"]["live"] == 1
        row = health["fleet"]["rows"][0]
        assert row["url"] == "127.0.0.1:9009"
        assert row["capacity"] == 2
        assert row["cache"] == {"diskHits": 7}
        status = api.handle("GET", "/fleet/status", None)
        assert status["fleet"]["live"] == 1

    def test_bad_registrations_are_400(self, api):
        for body in ({}, {"url": 3}, {"url": "no-port"},
                     {"url": "h:1", "capacity": 0},
                     {"url": "h:1", "cache": "not-a-dict"}):
            with pytest.raises(ApiError) as info:
                api.handle("POST", "/fleet/register", body)
            assert info.value.status == 400

    def test_protocol_version_is_5(self, api):
        schema = api.handle("GET", "/schema", None)
        assert schema["protocolVersion"] >= 5
        paths = [e["path"] for e in schema["endpoints"]]
        for path in ("/fleet/register", "/fleet/status", "/explore/cancel",
                     "/explore/events", "/explore/stream", "/worker/cancel",
                     "/worker/status"):
            assert path in paths


class TestWorkerCancelEndpoints:
    def test_worker_status_shape(self, api):
        out = api.handle("GET", "/worker/status", None)
        assert out["success"]
        assert out["activeJobs"] == 0
        assert out["cancelStride"] > 0
        assert "disk" in out["artifactCache"]

    def test_cancel_unknown_id_is_pre_cancel(self, api):
        out = api.handle("POST", "/worker/cancel", {"cancelId": "nope"})
        assert out["success"] and out["cancelled"] is False

    def test_execute_with_cancel_id_stops_within_stride(self, api):
        """The acceptance pin at the endpoint level: a spinning job with
        a 50M-cycle budget dies within one cancel-check stride of the
        /worker/cancel arriving, not at its budget."""
        spec = SweepSpec.from_json(sweep_spec(source=SPIN,
                                              maxCycles=50_000_000))
        job = plan_jobs(spec)[0]
        reply = {}

        def execute():
            reply.update(api.handle("POST", "/worker/execute",
                                    {"payload": job.payload,
                                     "cancelId": "stride-test"}))

        thread = threading.Thread(target=execute)
        thread.start()
        deadline = time.monotonic() + 10.0
        while api.cancels.active() == 0:
            assert time.monotonic() < deadline, "job never registered"
            time.sleep(0.01)
        cancelled_at = time.monotonic()
        out = api.handle("POST", "/worker/cancel",
                         {"cancelId": "stride-test", "reason": "test"})
        assert out["cancelled"] is True
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        latency = time.monotonic() - cancelled_at
        assert reply["ok"] is False
        assert reply["kind"] == "cancelled"
        assert reply["error"] == "job cancelled"
        # one stride is ~5k cycles (< 1s of simulation); generous bound
        # for CI noise, still far below the 50M-cycle budget
        assert latency < 10.0

    def test_pre_cancel_before_execute_stops_the_job(self, api):
        spec = SweepSpec.from_json(sweep_spec(source=SPIN,
                                              maxCycles=50_000_000))
        job = plan_jobs(spec)[0]
        api.handle("POST", "/worker/cancel", {"cancelId": "raced"})
        out = api.handle("POST", "/worker/execute",
                         {"payload": job.payload, "cancelId": "raced"})
        assert out["ok"] is False and out["kind"] == "cancelled"


class TestFleetSweeps:
    def test_fleet_submit_without_workers_is_503(self, api):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/explore/submit",
                       {"spec": sweep_spec(), "backend": "fleet"})
        assert info.value.status == 503

    def test_unknown_backend_is_400(self, api):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/explore/submit",
                       {"spec": sweep_spec(), "backend": "quantum"})
        assert info.value.status == 400

    def test_explicit_backend_names_override_worker_inference(self, api):
        serial = api.handle("POST", "/explore/submit",
                            {"spec": sweep_spec(), "backend": "serial",
                             "workers": 4})
        assert serial["backend"] == "serial" and serial["workers"] == 0
        process = api.handle("POST", "/explore/submit",
                             {"spec": sweep_spec(), "backend": "process",
                              "workers": 0})
        assert process["backend"] == "process" and process["workers"] >= 1
        for out in (serial, process):
            status = wait_state(api, out["sweepId"])
            assert status["state"] == "done"
            assert status["backend"] == out["backend"]

    def test_fleet_sweep_records_identical_to_serial(self, api,
                                                     worker_servers):
        urls = register_fleet(api, worker_servers)
        serial = api.handle("POST", "/explore/submit",
                            {"spec": sweep_spec(), "backend": "serial"})
        wait_state(api, serial["sweepId"])
        fleet = api.handle("POST", "/explore/submit",
                           {"spec": sweep_spec(), "backend": "fleet"})
        assert fleet["backend"] == "fleet"
        status = wait_state(api, fleet["sweepId"])
        assert status["state"] == "done"
        assert status["backend"] == "fleet"
        assert {row["url"] for row
                in status["execution"]["remoteWorkers"]} == set(urls)
        serial_result = api.handle("POST", "/explore/result",
                                   {"sweepId": serial["sweepId"]})
        fleet_result = api.handle("POST", "/explore/result",
                                  {"sweepId": fleet["sweepId"]})
        assert json.dumps(fleet_result["records"], sort_keys=True) \
            == json.dumps(serial_result["records"], sort_keys=True)

    def test_status_execution_rows_carry_exclusion_reasons(
            self, api, worker_servers):
        """The satellite fix: /explore/status reports the *reason* a
        fleet worker was excluded, not just a count."""
        live = worker_servers[0]
        register_fleet(api, [live])
        # a worker that registered then immediately died
        dead_url = "127.0.0.1:1"
        api.handle("POST", "/fleet/register", {"url": dead_url})
        sweep = {}

        def dead_excluded():
            if "id" not in sweep:
                return False
            status = api.handle("POST", "/explore/status",
                                {"sweepId": sweep["id"]})
            rows = status.get("execution", {}).get("remoteWorkers", [])
            return any(row["url"] == dead_url and row["excluded"]
                       for row in rows)

        answer = live.api.handle

        def held(method, path, payload):
            # The dead worker is excluded after two failed jobs.  Were the
            # live worker to answer at once, its two serve threads could
            # finish all four jobs before the dead worker failed twice, so
            # it holds its replies until the dead one is excluded.
            if path.startswith("/worker/execute"):
                deadline = time.monotonic() + 30.0
                while not dead_excluded() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return answer(method, path, payload)

        live.api.handle = held
        out = api.handle("POST", "/explore/submit",
                         {"spec": sweep_spec(), "backend": "fleet"})
        sweep["id"] = out["sweepId"]
        status = wait_state(api, out["sweepId"])
        assert status["state"] == "done"
        rows = {row["url"]: row
                for row in status["execution"]["remoteWorkers"]}
        dead = rows[dead_url]
        assert dead["excluded"]
        assert dead["excludedReason"]        # a string, not just a flag


class TestExploreCancel:
    def test_cancel_running_sweep(self, api, worker_servers):
        register_fleet(api, worker_servers)
        out = api.handle("POST", "/explore/submit",
                         {"spec": sweep_spec(source=SPIN,
                                             maxCycles=50_000_000),
                          "backend": "fleet"})
        sweep_id = out["sweepId"]
        deadline = time.monotonic() + 10.0
        while True:
            status = api.handle("POST", "/explore/status",
                                {"sweepId": sweep_id})
            if status["state"] == "running" and status["runningJobs"]:
                break
            assert time.monotonic() < deadline, status
            time.sleep(0.02)
        cancelled_at = time.monotonic()
        reply = api.handle("POST", "/explore/cancel",
                           {"sweepId": sweep_id, "reason": "test"})
        assert reply["success"] and reply["cancelled"]
        status = wait_state(api, sweep_id, timeout=30.0)
        latency = time.monotonic() - cancelled_at
        assert status["state"] == "cancelled"
        assert latency < 20.0                # vs minutes for 50M cycles
        result = api.handle("POST", "/explore/result",
                            {"sweepId": sweep_id})
        assert result["success"] is False
        assert all(r["kind"] == "cancelled" for r in result["records"])

    def test_cancel_finished_sweep_is_noop(self, api):
        out = api.handle("POST", "/explore/submit",
                         {"spec": sweep_spec(), "workers": 0})
        wait_state(api, out["sweepId"])
        reply = api.handle("POST", "/explore/cancel",
                           {"sweepId": out["sweepId"]})
        assert reply["cancelled"] is False and reply["state"] == "done"

    def test_cancel_unknown_sweep_is_404(self, api):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/explore/cancel", {"sweepId": "nope"})
        assert info.value.status == 404


class TestProgressEvents:
    def test_event_log_covers_the_lifecycle(self, api):
        out = api.handle("POST", "/explore/submit",
                         {"spec": sweep_spec(), "workers": 0})
        wait_state(api, out["sweepId"])
        events = api.handle("POST", "/explore/events",
                            {"sweepId": out["sweepId"]})
        kinds = [e["event"] for e in events["events"]]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds.count("dispatch") == 4
        assert kinds.count("finish") == 4
        assert kinds[-1] == "done"
        assert events["state"] == "done"
        assert [e["seq"] for e in events["events"]] \
            == list(range(len(kinds)))
        # fromSeq pagination
        tail = api.handle("POST", "/explore/events",
                          {"sweepId": out["sweepId"],
                           "fromSeq": events["nextSeq"] - 1})
        assert [e["event"] for e in tail["events"]] == ["done"]

    def test_finish_events_carry_labels_and_kinds(self, api):
        out = api.handle("POST", "/explore/submit",
                         {"spec": sweep_spec(source="    bogus x0\n"),
                          "workers": 0})
        wait_state(api, out["sweepId"])
        events = api.handle("POST", "/explore/events",
                            {"sweepId": out["sweepId"]})
        finishes = [e for e in events["events"] if e["event"] == "finish"]
        assert all(e["kind"] == "error" and e["label"] for e in finishes)


class TestStreamOverHttp:
    @pytest.fixture
    def server(self):
        srv = SimServer(("127.0.0.1", 0))
        srv.start_background()
        yield srv
        srv.shutdown()
        srv.server_close()

    def test_stream_follows_to_the_terminal_event(self, server):
        client = SimClient("127.0.0.1", server.port)
        try:
            out = client.explore_submit(sweep_spec(), workers=0)
            events = list(client.explore_stream(out["sweepId"]))
        finally:
            client.close()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert kinds.count("finish") == 4

    def test_stream_from_seq_resumes(self, server):
        client = SimClient("127.0.0.1", server.port)
        try:
            out = client.explore_submit(sweep_spec(), workers=0)
            first = list(client.explore_stream(out["sweepId"]))
            resumed = list(client.explore_stream(out["sweepId"],
                                                 from_seq=len(first) - 1))
        finally:
            client.close()
        assert [e["event"] for e in resumed] == ["done"]
        assert resumed[0]["seq"] == len(first) - 1

    def test_stream_unknown_sweep_is_404(self, server):
        client = SimClient("127.0.0.1", server.port)
        try:
            with pytest.raises(ApiError) as info:
                list(client.explore_stream("nope"))
        finally:
            client.close()
        assert info.value.status == 404

    def test_stream_route_over_plain_post_is_400(self, server):
        client = SimClient("127.0.0.1", server.port)
        try:
            with pytest.raises(ApiError) as info:
                client.request("POST", "/explore/stream", {"sweepId": "x"})
        finally:
            client.close()
        assert info.value.status == 400
