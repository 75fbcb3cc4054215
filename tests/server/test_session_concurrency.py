"""Concurrent session requests over separate HTTP connections.

Every ``session/*`` request runs to completion on the connection thread
that read it, holding its session's lock.  What that guarantees:

* a light session's short steps stay fast while a heavy session sends
  20,000-cycle steps on another connection;
* requests to one session never overlap, and all of their cycles land;
* a bad request comes back as a 4xx and leaves the server healthy.
"""

import sys
import threading
import time

import pytest

from repro.server.client import SimClient
from repro.server.httpd import SimServer
from repro.server.protocol import Api, ApiError
from repro.sim.simulation import Simulation

#: spins until the cycle budget; every step request costs real simulation
SPIN = "spin:\n    j spin\n"

SUM_LOOP = """
.data
total: .word 0
.text
    li a0, 0
    li t0, 1
    li t1, 20
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    la t2, total
    sw a0, 0(t2)
    ebreak
"""


@pytest.fixture
def server():
    srv = SimServer(("127.0.0.1", 0))
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def connect(server) -> SimClient:
    return SimClient("127.0.0.1", server.port)


def run_threads(targets, timeout=60):
    """Start one thread per callable, join them all, and re-raise the
    first exception any of them hit."""
    errors = []

    def guard(target):
        try:
            target()
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(target,))
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


class TestNoStarvation:
    def test_light_session_stays_fast_beside_heavy_connection(self, server):
        """A heavy session streams 20,000-cycle steps on one connection;
        the light session's 10-cycle steps on another must each finish
        far sooner than one heavy step."""
        heavy_client, light_client = connect(server), connect(server)
        heavy = heavy_client.session_new(SPIN)
        light = light_client.session_new(SPIN)
        stop = threading.Event()
        heavy_latencies = []

        def heavy_user():
            while not stop.is_set():
                t0 = time.monotonic()
                heavy_client.session_step(heavy, 20000)
                heavy_latencies.append(time.monotonic() - t0)

        thread = threading.Thread(target=heavy_user, daemon=True)
        thread.start()
        try:
            time.sleep(0.05)               # a heavy request is in flight
            light_latencies = []
            for _ in range(10):
                t0 = time.monotonic()
                out = light_client.session_step(light, 10)
                light_latencies.append(time.monotonic() - t0)
                assert out["success"]
        finally:
            stop.set()
            thread.join(timeout=30)
            heavy_client.close()
            light_client.close()
        assert heavy_latencies, "heavy session never completed a request"
        heavy_cost = max(heavy_latencies)
        light_worst = max(light_latencies)
        # queued behind the heavy session, a light step would take at
        # least one heavy step's time
        assert light_worst < heavy_cost / 2, \
            f"light={light_worst:.3f}s vs heavy={heavy_cost:.3f}s"


class TestOneSessionSerializes:
    def test_requests_to_one_session_never_overlap(self, server):
        """Steps, backward steps and state reads from six connections:
        the session's simulation never runs two of them at once (counted
        by wrapping its methods), and every cycle lands."""
        setup = connect(server)
        session = setup.session_new(SPIN)
        simulation = server.api.sessions.get(session).simulation
        lock = threading.Lock()
        inside = {}                        # thread id -> call depth
        peak = [0]
        calls = [0]

        def counted(method):
            # step_back and seek call other wrapped methods on their own
            # thread; only two *threads* inside at once is an overlap
            def wrapper(*args, **kwargs):
                me = threading.get_ident()
                with lock:
                    inside[me] = inside.get(me, 0) + 1
                    calls[0] += 1
                    peak[0] = max(peak[0], len(inside))
                try:
                    time.sleep(0.002)      # widen any overlap window
                    return method(*args, **kwargs)
                finally:
                    with lock:
                        inside[me] -= 1
                        if not inside[me]:
                            del inside[me]
            return wrapper

        for name in ("step", "step_back", "seek", "snapshot"):
            setattr(simulation, name, counted(getattr(simulation, name)))

        def forward():
            client = connect(server)
            try:
                for _ in range(5):
                    client.session_step(session, 300)
            finally:
                client.close()

        def backward_and_read():
            client = connect(server)
            try:
                for _ in range(5):
                    client.session_step(session, -1)
                    client.session_state(session)
            finally:
                client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([forward] * 3 + [backward_and_read] * 3)
        finally:
            sys.setswitchinterval(interval)
        state = setup.session_state(session)["state"]
        assert state["cycle"] == 3 * 5 * 300 - 3 * 5
        assert calls[0] >= 3 * 5 + 3 * 5 * 2
        assert peak[0] == 1
        seek = setup.session_seek(session, 10)
        assert seek["state"]["cycle"] == 10 and peak[0] == 1
        setup.close()

    def test_concurrent_steps_to_one_session_all_land(self, server):
        """Four connections each send five 7-cycle steps to one session:
        the session ends exactly at the sum of every request."""
        setup = connect(server)
        session = setup.session_new(SPIN)

        def stepper():
            client = connect(server)
            try:
                for _ in range(5):
                    assert client.session_step(session, 7)["success"]
            finally:
                client.close()

        run_threads([stepper] * 4)
        state = setup.session_state(session)["state"]
        assert state["cycle"] == 4 * 5 * 7
        setup.close()


class TestCallingThread:
    def test_session_work_runs_on_the_calling_thread(self, monkeypatch):
        """Each session route simulates, snapshots and reads memory on
        the thread that called ``Api.handle``."""
        threads = []
        for name in ("step", "step_back", "seek", "snapshot",
                     "snapshot_delta", "snapshot_delta_json",
                     "symbol_address"):
            method = getattr(Simulation, name)

            def recorded(self, *args, _method=method, **kwargs):
                threads.append(threading.get_ident())
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(Simulation, name, recorded)
        api = Api()
        callers = []

        def user():
            callers.append(threading.get_ident())
            sid = api.handle("POST", "/session/new",
                             {"code": SUM_LOOP})["sessionId"]

            def call(route, **body):
                return api.handle("POST", route, {"sessionId": sid, **body})

            assert call("/session/step", cycles=5)["state"]["cycle"] == 5
            delta = call("/session/step", cycles=2, delta=True)
            assert delta["stateFormat"] == "delta"
            call("/session/step", cycles=2, delta="encoded")
            assert call("/session/step", cycles=-3)["state"]["cycle"] == 6
            assert call("/session/seek", cycle=40)["state"]["cycle"] == 40
            assert call("/session/state")["state"]["cycle"] == 40
            assert call("/session/memory", symbol="loop")["success"]
            assert call("/session/close")["success"]

        try:
            run_threads([user])
        finally:
            api.close()
        assert len(threads) >= 8
        assert set(threads) == set(callers)


class TestErrors:
    def test_errors_are_4xx_and_server_stays_healthy(self, server):
        client = connect(server)
        session = client.session_new(SUM_LOOP)
        bad_requests = [
            ("/session/seek", {"sessionId": session, "cycle": -1}, 400,
             "cycle must be >= 0"),
            ("/session/step", {"sessionId": session, "cycles": 0}, 400,
             "non-zero"),
            ("/session/step", {"sessionId": session, "cycles": 10 ** 6}, 400,
             "out of range"),
            ("/session/memory", {"sessionId": session, "symbol": "ghost"},
             404, "unknown symbol"),
            ("/session/memory", {"sessionId": session, "address": 0,
                                 "size": -4}, 400, "invalid size"),
            ("/session/step", {"sessionId": "nope", "cycles": 1}, 404,
             "unknown session"),
        ]
        for route, payload, status, message in bad_requests:
            with pytest.raises(ApiError, match=message) as info:
                client.request("POST", route, payload)
            assert info.value.status == status, route

        # the session and the server carry on
        assert client.session_step(session, 5)["state"]["cycle"] == 5
        assert client.session_step(session, -2)["state"]["cycle"] == 3
        assert client.session_seek(session, 200)["state"]["cycle"] > 3
        memory = client.session_memory(session, symbol="total")
        assert memory["values"] == [210]
        assert client.health()["status"] == "ok"
        assert client.session_close(session)["success"]
        client.close()
