"""Interactive simulation sessions.

The web client holds a session per open simulator tab; each session wraps a
:class:`repro.sim.simulation.Simulation` and supports forward steps,
backward steps (deterministic re-run, Sec. III-B) and cycle seeking.
Sessions are identified by opaque ids and evicted after a TTL.  A
session serves its state as JSON text (:class:`repro.sim.state.RawJson`)
spliced from the simulation's fragment caches: the full state, or a
delta against the view it served last (``Session.view_cycle``).
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Dict, Optional, Sequence

from repro.core.config import CpuConfig
from repro.memory.layout import MemoryLocation
from repro.sim.simulation import Simulation
from repro.sim.state import RawJson


class Session:
    def __init__(self, simulation: Simulation):
        self.id = uuid.uuid4().hex[:16]
        self.simulation = simulation
        self.created = time.monotonic()
        self.last_used = self.created
        self.lock = threading.Lock()
        #: cycle of the last state payload served to this session's client —
        #: the base the next delta payload is computed against (None until a
        #: first full state has been served)
        self.view_cycle: Optional[int] = None

    def touch(self) -> None:
        self.last_used = time.monotonic()

    # -- delta-serving state views (hold ``lock`` while calling) ---------
    def serve_state(self) -> RawJson:
        """Full state as JSON text (``Simulation.snapshot_json``);
        establishes the delta base for later requests."""
        state = RawJson(self.simulation.snapshot_json())
        self.view_cycle = self.simulation.cycle
        return state

    def serve_delta(self) -> RawJson:
        """Delta against the last served view as JSON text, the full state
        when no base exists or time moved backwards
        (``Simulation.snapshot_delta_json``)."""
        delta = RawJson(self.simulation.snapshot_delta_json(
            since_cycle=self.view_cycle))
        self.view_cycle = self.simulation.cycle
        return delta

    # alias only: benchmarks/e2e/serverboot.py wraps this name; drop it at
    # the next change to the benchmark
    serve_delta_json = serve_delta


class SessionManager:
    """Thread-safe registry of live sessions."""

    def __init__(self, ttl_s: float = 600.0, max_sessions: int = 256):
        self.ttl_s = ttl_s
        self.max_sessions = max_sessions
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()

    def create(self, source: str, config: Optional[CpuConfig] = None,
               entry: Optional[object] = None,
               memory_locations: Sequence[MemoryLocation] = ()) -> Session:
        simulation = Simulation.from_source(
            source, config=config, entry=entry,
            memory_locations=memory_locations)
        session = Session(simulation)
        with self._lock:
            self._evict_locked()
            if len(self._sessions) >= self.max_sessions:
                oldest = min(self._sessions.values(),
                             key=lambda s: s.last_used)
                del self._sessions[oldest.id]
            self._sessions[session.id] = session
        return session

    def get(self, session_id: str) -> Optional[Session]:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.touch()
            return session

    def close(self, session_id: str) -> bool:
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def _evict_locked(self) -> None:
        now = time.monotonic()
        stale = [sid for sid, s in self._sessions.items()
                 if now - s.last_used > self.ttl_s]
        for sid in stale:
            del self._sessions[sid]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
