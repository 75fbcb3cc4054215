"""The route table (``repro.server.protocol.ROUTES``) is the one source of
the route set: dispatch, ``/schema``, the request counter's labels and
both HTTP writers must agree with it."""

import http.client
import json
from pathlib import Path

import pytest

from repro.obs.metrics import default_registry
from repro.server.httpd import SimServer
from repro.server.protocol import ROUTES, Api, ApiError

GOLDEN_ENDPOINTS = Path(__file__).with_name("schema_endpoints.json")


def table_calls():
    """One (method, path) call per table route and method; suffix routes
    get a parameter value."""
    for route in ROUTES:
        path = route.path + ("/x" if route.param else "")
        for method in route.method_list:
            yield method, path


def request_counts():
    for family in default_registry().scrape():
        if family["name"] == "repro_requests_total":
            return {(cell["labels"]["method"], cell["labels"]["route"]):
                    cell["value"] for cell in family["values"]}
    return {}


@pytest.fixture(scope="module")
def api():
    instance = Api()
    yield instance
    instance.close()


class TestDispatch:
    @pytest.mark.parametrize("method,path", list(table_calls()))
    def test_every_table_route_is_dispatched(self, api, method, path):
        try:
            api.handle(method, path, {})
        except ApiError as exc:
            # handlers may 404 an unknown session/sweep/key; only the
            # dispatcher's own "no such endpoint" means the table lied
            assert not exc.message.startswith("no such endpoint"), \
                exc.message

    def test_query_merges_under_body_keys(self, api):
        text = api.handle("GET", "/metrics?format=prometheus", None)
        assert isinstance(text, str) and "repro_requests_total" in text
        out = api.handle("GET", "/metrics?format=prometheus",
                         {"format": "json"})
        assert out["success"]

    def test_stream_route_returns_its_event_iterator(self, api):
        sweep = api.handle("POST", "/explore/submit", {
            "spec": {"name": "s",
                     "programs": [{"name": "p", "source": "nop\nebreak"}],
                     "axes": [{"name": "width",
                               "path": "config.buffers.fetchWidth",
                               "values": [1]}]},
            "workers": 0})["sweepId"]
        events = list(api.handle("GET", f"/explore/stream?sweepId={sweep}",
                                 None))
        assert events[0]["event"] == "queued"
        assert events[-1]["event"] == "done"
        with pytest.raises(ApiError) as info:
            api.handle("GET", f"/explore/stream?sweepId={sweep}&fromSeq=x",
                       None)
        assert info.value.status == 400


class TestSchema:
    def test_endpoints_match_the_pinned_golden(self, api):
        golden = json.loads(GOLDEN_ENDPOINTS.read_text())
        assert api.handle("GET", "/schema", None)["endpoints"] == golden


class TestCounterLabels:
    def test_labels_are_table_paths_or_other(self, api):
        for method, path in table_calls():
            try:
                api.handle(method, path, {})
            except ApiError:
                pass
        for path in ("/", "/no/such", "/trace/a/b", "/health/x"):
            with pytest.raises(ApiError):
                api.handle("POST", path, None)
        allowed = {route.path for route in ROUTES} | {"other"}
        labels = {route for _method, route in request_counts()}
        assert labels <= allowed
        assert "/" not in labels

    def test_transport_only_replies_are_counted_over_http(self):
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        try:
            before = request_counts()
            for path in ("/explore/stream?sweepId=nope",
                         "/metrics?format=prometheus"):
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=10)
                conn.request("GET", path)
                conn.getresponse().read()
                conn.close()
            after = request_counts()
        finally:
            server.shutdown()
            server.server_close()
        for route in ("/explore/stream", "/metrics"):
            key = ("GET", route)
            assert after.get(key, 0) == before.get(key, 0) + 1
