"""HTTP server tests: real sockets, gzip, overhead mode, load test."""

import gzip
import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.server import httpd
from repro.server.client import SimClient
from repro.server.httpd import SimServer
from repro.server.loadtest import (DEFAULT_PROGRAMS, LoadTestConfig,
                                   format_table1, run_load_test)
from repro.core.config import CpuConfig
from repro.server.protocol import (MAX_MEMORY_VIEW_BYTES, MAX_SOURCE_CHARS,
                                   ApiError)


@pytest.fixture(scope="module")
def server():
    srv = SimServer(("127.0.0.1", 0))
    srv.start_background()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    c = SimClient("127.0.0.1", server.port)
    yield c
    c.close()


class TestHttpBasics:
    def test_health_roundtrip(self, client):
        assert client.health()["status"] == "ok"

    def test_compile_over_http(self, client):
        out = client.compile("int main(void){return 1;}", 1)
        assert out["success"]

    def test_simulate_over_http(self, client):
        out = client.simulate("li a0, 9\nebreak")
        assert out["result"]["statistics"]["committedInstructions"] == 2

    def test_error_status_propagates(self, client):
        with pytest.raises(ApiError) as info:
            client.request("POST", "/definitely/not/there", {})
        assert info.value.status == 404

    def test_bad_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("POST", "/compile", body=b"{nope",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()

    def test_internal_errors_do_not_kill_server(self, client, server):
        # a request that trips a 500 path must leave the server serving
        try:
            client.request("POST", "/simulate", {"code": 123})
        except ApiError:
            pass
        assert client.health()["status"] == "ok"


#: a gzip stream ending mid-member
TRUNCATED_GZIP = gzip.compress(b'{"code": "nop"}')[:-6]
#: ~150 bytes on the wire that inflate to 100 kB
GZIP_BOMB = gzip.compress(json.dumps({"code": " " * 100_000}).encode())


class TestDeepNesting:
    """Source nested past a front end's depth limit is a source error
    (``success: false`` at a line and column), not a 500."""

    def test_deep_sources_are_source_errors(self, client):
        deep_operand = "    addi a0, x0, " + "(" * 400 + "1" + ")" * 400
        for route, code in [
                ("/parseAsm", deep_operand),
                ("/simulate", "    addi a0, x0, " + "-" * 1000 + "1"),
                ("/session/new", deep_operand),
                ("/compile", "int main(void) { return "
                 + "(" * 140 + "1" + ")" * 140 + "; }"),
                ("/compile", "int main(void) { return "
                 + "+".join(["1"] * 500) + "; }")]:
            out = client.request("POST", route, {"code": code})
            assert out["success"] is False, route
            [error] = out["errors"]
            assert error["line"] == 1 and "deeper than" in error["message"]
        TestHostileBodies.assert_healthy(client)


class TestRequestBounds:
    """A source past ``MAX_SOURCE_CHARS`` or a memory view past
    ``MAX_MEMORY_VIEW_BYTES`` gets a 400 with an error body before a
    front end or the view encoder runs; at the bound it is served."""

    #: one cheap statement padded by a comment to *n* characters
    SOURCES = {"/compile": "int main(void) { return 0; } //",
               "/parseAsm": "ebreak #", "/simulate": "ebreak #",
               "/session/new": "ebreak #"}

    @classmethod
    def source(cls, route, n):
        head = cls.SOURCES[route]
        return head + "x" * (n - len(head))

    @pytest.mark.parametrize("route", sorted(SOURCES))
    def test_source_past_the_bound_is_400(self, client, route):
        with pytest.raises(ApiError, match="more than the") as info:
            client.request("POST", route,
                           {"code": self.source(route, MAX_SOURCE_CHARS + 1)})
        assert info.value.status == 400
        out = client.request("POST", route,
                             {"code": self.source(route, MAX_SOURCE_CHARS)})
        assert out["success"] is True, out
        if route == "/session/new":
            assert client.session_close(out["sessionId"])["success"]
        TestHostileBodies.assert_healthy(client)

    def test_memory_view_past_the_bound_is_400(self, client):
        config = CpuConfig().to_json()
        config["memory"]["capacity"] = 4 * MAX_MEMORY_VIEW_BYTES
        big = MAX_MEMORY_VIEW_BYTES + 4
        sid = client.session_new(
            "ebreak", config=config,
            memory=[{"name": "fits", "dtype": "byte",
                     "values": [7] * MAX_MEMORY_VIEW_BYTES},
                    {"name": "big", "dtype": "byte", "values": [1] * big}])
        for view in ({"address": 0, "size": MAX_MEMORY_VIEW_BYTES + 1},
                     {"symbol": "big"}):
            with pytest.raises(ApiError, match="invalid size") as info:
                client.session_memory(sid, **view)
            assert info.value.status == 400
        view = client.session_memory(sid, symbol="fits")
        assert view["size"] == MAX_MEMORY_VIEW_BYTES
        assert view["values"] == [7] * MAX_MEMORY_VIEW_BYTES
        view = client.session_memory(sid, address=0,
                                     size=MAX_MEMORY_VIEW_BYTES)
        assert len(view["bytes"]) == 2 * MAX_MEMORY_VIEW_BYTES
        assert client.session_step(sid, 1)["state"]["cycle"] == 1
        assert client.session_close(sid)["success"]
        TestHostileBodies.assert_healthy(client)


class TestWronglyTypedFields:
    """An id or name sent as a list or an object gets a 400 with an
    error body, not the 500 of an unhashable lookup."""

    def test_lists_and_objects_are_400(self, client):
        sid = client.session_new(DEFAULT_PROGRAMS[0])
        asm = DEFAULT_PROGRAMS[0]
        table = [(f"/session/{route}", {"sessionId": bad})
                 for route in ("step", "state", "seek", "memory", "close")
                 for bad in ([sid], {"id": sid})]
        table += [(f"/explore/{route}", {"sweepId": bad})
                  for route in ("status", "result", "cancel", "events")
                  for bad in (["x"], {"id": "x"})]
        table += [(route, {"code": asm, "entry": bad})
                  for route in ("/simulate", "/session/new")
                  for bad in (["main"], {"label": "main"})]
        table += [("/session/memory", {"sessionId": sid, "dtype": bad})
                  for bad in (["word"], {"type": "word"})]
        assert len(table) == 24
        for route, body in table:
            with pytest.raises(ApiError) as info:
                client.request("POST", route, body)
            assert info.value.status == 400, (route, body, info.value)
            assert info.value.message, (route, body)
        assert client.session_step(sid, 1)["state"]["cycle"] == 1
        assert client.session_close(sid)["success"]
        TestHostileBodies.assert_healthy(client)


class TestHostileBodies:
    """Body-level garbage gets a prompt 4xx with a JSON error and leaves
    the server healthy (raw sockets: http.client would refuse to send
    most of these)."""

    @staticmethod
    def raw_post(server, headers, body=b""):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5)
        try:
            head = "".join(f"{name}: {value}\r\n"
                           for name, value in headers.items())
            sock.sendall(f"POST /compile HTTP/1.1\r\nHost: test\r\n"
                         f"{head}\r\n".encode("ascii") + body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            return (response.status, json.loads(response.read()),
                    response.getheader("Connection"))
        finally:
            sock.close()

    @staticmethod
    def assert_healthy(client):
        assert client.health()["status"] == "ok"
        sid = client.session_new(DEFAULT_PROGRAMS[0])
        assert client.session_step(sid, 1)["state"]["cycle"] == 1
        assert client.session_close(sid)["success"]

    @pytest.mark.parametrize("headers,body", [
        ({"Content-Length": "-1"}, b""),
        ({"Content-Length": "abc"}, b""),
        ({"Content-Length": "9", "Content-Encoding": "gzip"},
         b"not gzip!"),
        ({"Content-Length": "4"}, b"\xff\xfe{}"),
        ({"Content-Length": "5"}, b"[1,2]"),
        ({"Content-Length": str(len(TRUNCATED_GZIP)),
          "Content-Encoding": "gzip"}, TRUNCATED_GZIP),
    ], ids=["negative-length", "non-numeric-length", "bad-gzip",
            "non-utf8", "non-object", "truncated-gzip"])
    def test_rejected_with_json_400(self, server, headers, body):
        started = time.monotonic()
        status, data, _ = self.raw_post(server, headers, body)
        assert status == 400
        assert data["error"] and data["status"] == 400
        assert time.monotonic() - started < 2.0

    def test_server_healthy_afterwards(self, server, client):
        for headers in ({"Content-Length": "-1"},
                        {"Content-Length": "abc"}):
            self.raw_post(server, headers)
        self.assert_healthy(client)

    def test_overstated_content_length_times_out_with_408(
            self, server, client, monkeypatch):
        """A body shorter than its Content-Length (client still
        connected) gets a prompt 408 and a closed connection instead of
        pinning the connection thread until the client hangs up."""
        monkeypatch.setattr(httpd, "BODY_READ_TIMEOUT_S", 0.2)
        started = time.monotonic()
        status, data, _ = self.raw_post(server, {"Content-Length": "100"},
                                        b'{"code": ')
        assert status == 408
        assert "Content-Length" in data["error"] and data["status"] == 408
        assert time.monotonic() - started < 2.0
        self.assert_healthy(client)

    @pytest.mark.parametrize("headers,body", [
        ({"Content-Length": "2048"}, b""),
        ({"Content-Length": str(len(GZIP_BOMB)), "Content-Encoding": "gzip"},
         GZIP_BOMB),
    ], ids=["declared-too-long", "gzip-inflates-too-far"])
    def test_too_large_body_is_413(self, server, client, monkeypatch,
                                   headers, body):
        """A body past MAX_BODY_BYTES gets a prompt JSON 413.  A declared
        length past it is refused unread (nothing follows the headers
        here, so reading would wait out the body timeout) and the
        connection closes; a gzip body stops inflating at the bound."""
        monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 1024)
        started = time.monotonic()
        status, data, connection = self.raw_post(server, headers, body)
        assert status == 413 and data["status"] == 413
        assert str(1024) in data["error"]
        if not body:
            assert connection == "close"
        assert time.monotonic() - started < 2.0
        self.assert_healthy(client)

    def test_chunked_body_is_refused_with_411(self, server, client):
        """Only Content-Length bodies are read.  A chunked one gets a JSON
        411 and a closed connection, instead of being served as an empty
        body with its chunk lines then parsed as a second request."""
        body = json.dumps({"code": DEFAULT_PROGRAMS[0]}).encode()
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5)
        try:
            sock.sendall(b"POST /session/new HTTP/1.1\r\nHost: test\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
            raw = b""
            while True:                 # to EOF: the server hangs up
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
        finally:
            sock.close()
        head, _, rest = raw.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert status_line.split()[1] == "411"
        assert headers["Connection"] == "close"
        length = int(headers["Content-Length"])
        data = json.loads(rest[:length])
        assert data["status"] == 411 and "Content-Length" in data["error"]
        assert rest[length:] == b""     # exactly one reply
        self.assert_healthy(client)


class TestClientHangUp:
    def test_reset_before_the_reply_is_not_a_handler_error(self):
        """A client that resets its connection while its /simulate still
        runs (a dispatcher giving up on a timed-out job) is gone: the
        failed reply write ends the connection, no 500 follows it onto
        the dead socket, nothing reaches ``handle_error`` (which prints
        a traceback), and the server stays healthy."""
        server = SimServer(("127.0.0.1", 0))
        entered, reset, finished = (threading.Event(), threading.Event(),
                                    threading.Event())
        errors = []
        answer, shutdown_request = server.api.handle, server.shutdown_request

        def slow(method, path, payload):
            if path == "/simulate":
                entered.set()
                reset.wait(10.0)
            return answer(method, path, payload)

        def finish(request):
            shutdown_request(request)
            finished.set()

        server.api.handle = slow
        server.handle_error = lambda request, address: errors.append(address)
        server.shutdown_request = finish
        server.start_background()
        try:
            body = json.dumps({"code": "li a0, 9\nebreak"}).encode()
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=5)
            sock.sendall(b"POST /simulate HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            assert entered.wait(10.0)
            # linger 0: close() sends a reset, not a FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            reset.set()
            assert finished.wait(10.0)
            assert errors == []
            client = SimClient("127.0.0.1", server.port)
            try:
                assert client.health()["status"] == "ok"
            finally:
                client.close()
        finally:
            reset.set()
            server.shutdown()
            server.server_close()


class TestGzip:
    def _raw_request(self, server, accept_gzip):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        headers = {"Content-Type": "application/json"}
        if accept_gzip:
            headers["Accept-Encoding"] = "gzip"
        body = json.dumps({"code": DEFAULT_PROGRAMS[0]}).encode()
        conn.request("POST", "/simulate", body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        encoding = response.getheader("Content-Encoding", "")
        conn.close()
        return raw, encoding

    def test_gzip_when_requested(self, server):
        raw, encoding = self._raw_request(server, accept_gzip=True)
        assert encoding == "gzip"
        data = json.loads(gzip.decompress(raw))
        assert data["success"]

    def test_identity_when_not_requested(self, server):
        raw, encoding = self._raw_request(server, accept_gzip=False)
        assert encoding == ""
        assert json.loads(raw)["success"]

    def test_gzip_actually_smaller(self, server):
        compressed, _ = self._raw_request(server, True)
        plain, _ = self._raw_request(server, False)
        assert len(compressed) < len(plain)

    def test_multi_member_gzip_request_body_accepted(self, server):
        text = json.dumps({"code": "nop\nebreak"}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("POST", "/parseAsm",
                     body=gzip.compress(text[:9]) + gzip.compress(text[9:]),
                     headers={"Content-Encoding": "gzip"})
        data = json.loads(conn.getresponse().read())
        conn.close()
        assert data["success"] and data["instructionCount"] == 2

    def test_gzip_request_body_accepted(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        body = gzip.compress(json.dumps({"code": "nop\nebreak"}).encode())
        conn.request("POST", "/parseAsm", body=body,
                     headers={"Content-Type": "application/json",
                              "Content-Encoding": "gzip"})
        response = conn.getresponse()
        data = json.loads(response.read())
        conn.close()
        assert data["success"]


class TestOverheadMode:
    def test_docker_overhead_slows_requests(self):
        fast = SimServer(("127.0.0.1", 0))
        slow = SimServer(("127.0.0.1", 0), overhead_ms=30.0)
        fast.start_background()
        slow.start_background()
        try:
            def latency(port):
                client = SimClient("127.0.0.1", port)
                client.health()  # warm up the connection
                t0 = time.monotonic()
                for _ in range(3):
                    client.health()
                client.close()
                return time.monotonic() - t0
            assert latency(slow.port) > latency(fast.port) + 0.05
        finally:
            fast.shutdown()
            slow.shutdown()


class TestSessionsOverHttp:
    def test_interactive_session(self, client):
        sid = client.session_new(DEFAULT_PROGRAMS[0])
        state = client.session_step(sid, 4)["state"]
        assert state["cycle"] == 4
        state = client.session_step(sid, -2)["state"]
        assert state["cycle"] == 2
        assert client.session_close(sid)["success"]

    def test_delta_session_over_http(self, client):
        """Protocol v2 end to end: the server splices the pre-serialized
        delta into the response body; on the wire it is indistinguishable
        from a plain JSON object, and patching it onto the previous view
        reproduces the full state."""
        from repro.sim.state import apply_snapshot_delta

        sid = client.session_new(DEFAULT_PROGRAMS[0])
        first = client.session_step(sid, 2, delta=True)
        assert first["stateFormat"] == "delta"
        assert first["stateDelta"]["format"] == "full"
        view = first["stateDelta"]["state"]
        for _ in range(4):
            out = client.session_step(sid, 1, delta=True)
            delta = out["stateDelta"]
            assert delta["format"] == "delta"
            view = apply_snapshot_delta(view, delta)
        assert view == client.session_state(sid)["state"]
        assert client.session_close(sid)["success"]

    def test_memory_view_over_http(self, client):
        sid = client.session_new("""
    .data
arr: .word 3, 1, 4
    .text
    nop
    ebreak
""")
        out = client.session_memory(sid, symbol="arr")
        assert out["values"] == [3, 1, 4]
        again = client.session_memory(sid, symbol="arr",
                                      sinceVersion=out["version"])
        assert again["unchanged"]


class TestLoadTestHarness:
    def test_small_closed_loop_run(self, server):
        config = LoadTestConfig(users=4, steps_per_user=3, ramp_up_s=0.1,
                                think_time_s=0.0, use_gzip=True)
        result = run_load_test("127.0.0.1", server.port, config)
        assert result.errors == 0
        # 4 users x (1 session_new + 3 steps)
        assert result.transactions == 16
        assert result.median_ms > 0
        assert result.p90_ms >= result.median_ms
        assert result.throughput_tps > 0

    def test_row_format(self, server):
        config = LoadTestConfig(users=2, steps_per_user=2, ramp_up_s=0.0,
                                think_time_s=0.0)
        row = run_load_test("127.0.0.1", server.port, config).row("Direct")
        assert row["mode"] == "Direct" and row["users"] == 2
        table = format_table1([row])
        assert "Direct" in table and "Throughput" in table
