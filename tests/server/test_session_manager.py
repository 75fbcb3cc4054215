"""SessionManager lifecycle tests: TTL eviction, overflow eviction, and
concurrent create/get (the registry is shared by every HTTP worker)."""

import json
import threading
import time

import pytest

from repro.server.session import SessionManager
from repro.sim.state import dumps_raw

NOP = "    nop\n    ebreak"


class TestTtlEviction:
    def test_stale_sessions_evicted_on_create(self):
        mgr = SessionManager(ttl_s=0.0)
        first = mgr.create(NOP)
        mgr.create(NOP)
        assert mgr.get(first.id) is None

    def test_live_sessions_survive_eviction_sweep(self):
        mgr = SessionManager(ttl_s=60.0)
        keep = mgr.create(NOP)
        mgr.create(NOP)
        assert mgr.get(keep.id) is keep
        assert len(mgr) == 2

    def test_get_refreshes_ttl(self):
        mgr = SessionManager(ttl_s=0.05)
        session = mgr.create(NOP)
        for _ in range(3):
            time.sleep(0.02)
            assert mgr.get(session.id) is session  # touch keeps it alive
        time.sleep(0.08)
        mgr.create(NOP)                            # sweep runs on create
        assert mgr.get(session.id) is None

    def test_close_removes_session(self):
        mgr = SessionManager()
        session = mgr.create(NOP)
        assert mgr.close(session.id)
        assert not mgr.close(session.id)
        assert mgr.get(session.id) is None


class TestOverflowEviction:
    def test_oldest_session_evicted_at_capacity(self):
        mgr = SessionManager(max_sessions=2)
        oldest = mgr.create(NOP)
        second = mgr.create(NOP)
        third = mgr.create(NOP)
        assert len(mgr) == 2
        assert mgr.get(oldest.id) is None
        assert mgr.get(second.id) is second
        assert mgr.get(third.id) is third

    def test_recently_used_session_survives_overflow(self):
        mgr = SessionManager(max_sessions=2)
        a = mgr.create(NOP)
        b = mgr.create(NOP)
        assert mgr.get(a.id) is a          # a is now newer than b
        mgr.create(NOP)
        assert mgr.get(a.id) is a
        assert mgr.get(b.id) is None

    def test_capacity_never_exceeded_under_churn(self):
        mgr = SessionManager(max_sessions=4)
        for _ in range(20):
            mgr.create(NOP)
            assert len(mgr) <= 4


class TestConcurrency:
    def test_concurrent_create_and_get(self):
        """Hammer the registry from many threads; the invariants are: no
        exceptions, capacity respected, and every returned session valid."""
        mgr = SessionManager(max_sessions=8)
        errors = []
        created = []
        created_lock = threading.Lock()

        def creator():
            try:
                for _ in range(25):
                    session = mgr.create(NOP)
                    with created_lock:
                        created.append(session.id)
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        def getter():
            try:
                for _ in range(100):
                    with created_lock:
                        ids = list(created[-8:])
                    for sid in ids:
                        session = mgr.get(sid)
                        if session is not None:
                            assert session.id == sid
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=creator) for _ in range(4)] \
            + [threading.Thread(target=getter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(mgr) <= 8
        assert len(created) == 100

    def test_concurrent_stepping_of_one_session(self):
        """Per-session lock: concurrent steppers interleave without losing
        cycles (each step request is atomic)."""
        from repro.server.protocol import Api
        api = Api()
        sid = api.handle("POST", "/session/new",
                         {"code": "    li t0, 0\nloop:\n    addi t0, t0, 1\n"
                                  "    j loop"})["sessionId"]
        errors = []

        def stepper():
            try:
                for _ in range(10):
                    api.handle("POST", "/session/step",
                               {"sessionId": sid, "cycles": 5})
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=stepper) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        state = json.loads(dumps_raw(
            api.handle("POST", "/session/state", {"sessionId": sid})))
        assert state["state"]["cycle"] == 4 * 10 * 5
