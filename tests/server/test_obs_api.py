"""Telemetry plane (protocol v7): /metrics, /trace/<sweepId>, and the
client wrappers — over the in-process Api and over real HTTP."""

import http.client
import time

import pytest

from repro.obs.metrics import default_registry
from repro.obs.trace import validate_tree
from repro.server.client import SimClient
from repro.server.httpd import SimServer
from repro.server.protocol import PROTOCOL_VERSION, Api, ApiError

PROGRAM = """
    li a0, 0
    li t0, 1
    li t1, 20
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


def tiny_spec(name="obs-sweep"):
    return {
        "name": name,
        "programs": [{"name": "sum", "source": PROGRAM}],
        "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
                  "values": [1, 2]}],
    }


def wait_done(status_fn, sweep_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = status_fn(sweep_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError("sweep did not finish in time")


def family(scrape, name):
    for entry in scrape:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"family {name} missing from scrape")


@pytest.fixture
def api():
    instance = Api()
    yield instance
    instance.close()


class TestMetricsEndpoint:
    def test_scrape_shape_and_version(self, api):
        out = api.handle("GET", "/metrics", None)
        assert out["success"]
        assert out["protocolVersion"] == PROTOCOL_VERSION
        names = {entry["name"] for entry in out["metrics"]}
        assert {"repro_requests_total", "repro_sessions_live",
                "repro_sweep_queue_depth",
                "repro_worker_execute_seconds"} <= names

    def test_request_counter_counts_this_route(self, api):
        def requests_to_metrics():
            scrape = api.handle("GET", "/metrics", None)["metrics"]
            for cell in family(scrape, "repro_requests_total")["values"]:
                if cell["labels"] == {"method": "GET",
                                      "route": "/metrics"}:
                    return cell["value"]
            return 0

        first = requests_to_metrics()
        second = requests_to_metrics()
        assert second == first + 1          # counters are monotone

    def test_unknown_route_collapses_to_other(self, api):
        with pytest.raises(ApiError):
            api.handle("GET", "/no/such/endpoint-1", None)
        with pytest.raises(ApiError):
            api.handle("GET", "/no/such/endpoint-2", None)
        scrape = api.handle("GET", "/metrics", None)["metrics"]
        routes = {cell["labels"]["route"]
                  for cell in family(scrape, "repro_requests_total")["values"]}
        assert "other" in routes
        assert not any(route.startswith("/no/such") for route in routes)

    def test_session_gauge_tracks_open_sessions(self, api):
        out = api.handle("POST", "/session/new", {"code": PROGRAM})
        scrape = api.handle("GET", "/metrics", None)["metrics"]
        live = family(scrape, "repro_sessions_live")["values"][0]["value"]
        assert live == 1
        api.handle("POST", "/session/close",
                   {"sessionId": out["sessionId"]})
        scrape = api.handle("GET", "/metrics", None)["metrics"]
        live = family(scrape, "repro_sessions_live")["values"][0]["value"]
        assert live == 0

    def test_fleet_staleness_gauge(self, api):
        api.handle("POST", "/fleet/register", {"url": "127.0.0.1:9321"})
        scrape = api.handle("GET", "/metrics", None)["metrics"]
        ages = family(scrape, "repro_fleet_worker_heartbeat_age_seconds")
        cells = {cell["labels"]["url"]: cell["value"]
                 for cell in ages["values"]}
        assert "127.0.0.1:9321" in cells
        assert cells["127.0.0.1:9321"] >= 0
        # and the fleet row itself carries the same staleness field
        fleet = api.handle("GET", "/fleet/status", None)["fleet"]
        assert fleet["rows"][0]["lastHeartbeatAgeS"] \
            == fleet["rows"][0]["ageS"]


class TestTraceEndpoint:
    def test_bare_trace_is_a_400(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/trace", None)
        assert err.value.status == 400

    def test_unknown_sweep_is_a_404(self, api):
        with pytest.raises(ApiError) as err:
            api.handle("GET", "/trace/nope", None)
        assert err.value.status == 404

    def test_serial_sweep_tree_is_connected(self, api):
        out = api.handle("POST", "/explore/submit",
                         {"spec": tiny_spec(), "workers": 0})
        wait_done(lambda sid: api.handle("POST", "/explore/status",
                                         {"sweepId": sid}),
                  out["sweepId"])
        trace = api.handle("GET", f"/trace/{out['sweepId']}", None)
        assert trace["success"] and trace["traceEnabled"]
        spans = trace["spans"]
        assert validate_tree(spans) == []
        names = [span["name"] for span in spans]
        # the full lifecycle: root, queue wait, per-job envelope, and the
        # worker-interior compile/simulate/record phases
        assert names.count("sweep") == 1
        assert names.count("queueWait") == 1
        assert names.count("job") == 2
        assert names.count("compile") == 2
        assert names.count("simulate") == 2
        assert names.count("record") == 2
        root = spans[0]
        assert root["spanId"] == trace["sweepId"]
        assert root["parentId"] is None

    def test_trace_opt_out(self, api):
        out = api.handle("POST", "/explore/submit",
                         {"spec": tiny_spec(), "workers": 0,
                          "trace": False})
        wait_done(lambda sid: api.handle("POST", "/explore/status",
                                         {"sweepId": sid}),
                  out["sweepId"])
        trace = api.handle("GET", f"/trace/{out['sweepId']}", None)
        assert trace["traceEnabled"] is False
        # root + queueWait are synthesized either way; no job spans
        assert [span["name"] for span in trace["spans"]] \
            == ["sweep", "queueWait"]

    def test_trace_payload_never_reaches_records(self, api):
        """The trace context rides in job payloads; records are built
        from result values only, so traced and untraced runs of the same
        sweep must produce byte-identical records."""
        import json
        ids = []
        for trace in (True, False):
            out = api.handle("POST", "/explore/submit",
                             {"spec": tiny_spec(), "workers": 0,
                              "trace": trace})
            wait_done(lambda sid: api.handle("POST", "/explore/status",
                                             {"sweepId": sid}),
                      out["sweepId"])
            ids.append(out["sweepId"])
        results = [api.handle("POST", "/explore/result", {"sweepId": sid})
                   for sid in ids]
        assert json.dumps(results[0]["records"], sort_keys=True) \
            == json.dumps(results[1]["records"], sort_keys=True)


class TestOverHttp:
    def test_client_wrappers_and_prometheus_text(self):
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        client = SimClient("127.0.0.1", server.port)
        try:
            out = client.explore_submit(tiny_spec("http-obs"), workers=0)
            wait_done(client.explore_status, out["sweepId"])

            trace = client.trace(out["sweepId"])
            assert validate_tree(trace["spans"]) == []
            assert len(trace["spans"]) >= 4

            scrape = client.metrics()["metrics"]
            jobs = family(scrape, "repro_sweep_jobs_total")
            counted = sum(cell["value"] for cell in jobs["values"]
                          if cell["labels"].get("backend") == "serial")
            assert counted >= 2

            text = client.metrics_text()
            assert "# TYPE repro_requests_total counter" in text
            assert 'repro_requests_total{method="GET",route="/metrics"}' \
                in text
            # histogram exposition: buckets are cumulative and end at
            # +Inf (the serial jobs above populated the wall histogram)
            assert 'repro_job_wall_seconds_bucket{backend="serial",' \
                   'le="+Inf"}' in text
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_fresh_connections_reuse_metric_shards(self):
        """Each connection runs on a new thread that counts its request;
        200 of them, one after another, leave the registry's shard list
        about as long as it was, and every request is counted."""
        registry = default_registry()
        server = SimServer(("127.0.0.1", 0))
        server.start_background()

        def health_count():
            return sum(cell["value"] for cell in family(
                registry.scrape(), "repro_requests_total")["values"]
                if cell["labels"]["route"] == "/health")

        try:
            before, shards = health_count(), len(registry._shards)
            for _ in range(200):
                conn = http.client.HTTPConnection("127.0.0.1", server.port)
                conn.request("GET", "/health")
                assert conn.getresponse().read()
                conn.close()
            assert health_count() - before == 200
            assert len(registry._shards) - shards <= 8
        finally:
            server.shutdown()
            server.server_close()

    def test_trace_opt_out_over_client(self):
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        client = SimClient("127.0.0.1", server.port)
        try:
            out = client.explore_submit(tiny_spec("http-obs-off"),
                                        workers=0, trace=False)
            wait_done(client.explore_status, out["sweepId"])
            assert client.trace(out["sweepId"])["traceEnabled"] is False
        finally:
            client.close()
            server.shutdown()
            server.server_close()


class TestWorkerExecuteTelemetry:
    def test_reply_carries_spans_when_traced(self, api):
        from repro.explore.plan import plan_jobs
        from repro.explore.spec import SweepSpec
        spec = SweepSpec.from_json(tiny_spec())
        job = plan_jobs(spec)[0]
        job.payload["trace"] = {"traceId": "t1", "parentId": "t1.j0"}
        reply = api.handle("POST", "/worker/execute",
                           {"payload": job.payload})
        assert reply["ok"]
        names = [span["name"] for span in reply["spans"]]
        assert names == ["compile", "simulate", "record"]
        assert all(span["traceId"] == "t1" for span in reply["spans"])

    def test_untraced_reply_has_no_spans_key(self, api):
        from repro.explore.plan import plan_jobs
        from repro.explore.spec import SweepSpec
        spec = SweepSpec.from_json(tiny_spec())
        job = plan_jobs(spec)[0]
        reply = api.handle("POST", "/worker/execute",
                           {"payload": job.payload})
        assert reply["ok"] and "spans" not in reply

    def test_worker_counters_advance(self, api):
        def counted():
            scrape = default_registry().scrape()
            cells = family(scrape, "repro_worker_jobs_total")["values"]
            return sum(cell["value"] for cell in cells
                       if cell["labels"].get("kind") == "ok")

        from repro.explore.plan import plan_jobs
        from repro.explore.spec import SweepSpec
        spec = SweepSpec.from_json(tiny_spec())
        before = counted()
        api.handle("POST", "/worker/execute",
                   {"payload": plan_jobs(spec)[0].payload})
        assert counted() == before + 1
