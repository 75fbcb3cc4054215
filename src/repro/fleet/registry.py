"""Server-owned worker registry: the fleet's membership source of truth.

Workers announce themselves with ``POST /fleet/register`` and keep the
registration alive by re-posting the same body periodically (the
heartbeat).  The registry is purely passive — it never dials a worker —
so membership is exactly "who has heartbeated recently":

* a worker whose last heartbeat is older than ``ttl_s`` **expires** and
  leaves the live set (its jobs are re-dispatched by the fleet backend's
  membership poll);
* a worker that re-registers after expiring (or after a restart) simply
  re-joins — registration is idempotent per URL, and a restart bumps the
  ``generation`` counter so operators can see it;
* a worker that keeps dropping and re-joining is **flapping**: after
  ``flap_threshold`` expiries within ``flap_window_s`` it is excluded
  from the live set for ``flap_cooldown_s`` (heartbeats are still
  accepted and tracked — exclusion is a scheduling decision, not a
  disconnect), with a human-readable reason surfaced on every health
  row.

Heartbeat payloads carry the worker's capacity and artifact-cache stats
(:meth:`repro.explore.artifacts.ArtifactCache.stats`), so one ``/health``
poll of the frontend shows the whole fleet's cache behavior without
fanning out a request per worker.  A fleet sweep's frontend ships its
workers assembly, so their rows count assemble lookups and no compiles.

:class:`Heartbeater` is the worker-side client half: a daemon thread
that registers with a frontend and keeps heartbeating at the interval
the frontend suggests (``ttl/3``), tolerating frontend downtime.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.explore.backend import _parse_worker_url
from repro.obs.metrics import default_registry

__all__ = ["WorkerRegistry", "FleetWorker", "Heartbeater"]

#: default heartbeat TTL; a worker missing 3+ heartbeats in a row expires
DEFAULT_TTL_S = 10.0

_HEARTBEATS = default_registry().counter(
    "repro_fleet_heartbeats_total",
    "Worker registrations/heartbeats accepted by the registry")
_EXPIRIES = default_registry().counter(
    "repro_fleet_expiries_total",
    "Workers dropped from the live set by heartbeat TTL expiry")


class FleetWorker:
    """Registry record of one fleet worker (keyed by normalized URL)."""

    __slots__ = ("url", "capacity", "registered_at", "last_seen",
                 "heartbeats", "generation", "cache_stats", "leave_times",
                 "excluded_until", "excluded_reason", "expired")

    def __init__(self, url: str, now: float):
        self.url = url
        self.capacity = 1
        self.registered_at = now
        self.last_seen = now
        self.heartbeats = 0
        #: registrations-after-expiry (a restarted worker re-joins)
        self.generation = 1
        self.cache_stats: Optional[dict] = None
        #: recent expiry timestamps (flap detection window)
        self.leave_times: List[float] = []
        self.excluded_until: Optional[float] = None
        self.excluded_reason: Optional[str] = None
        #: TTL lapsed and the drop was counted; the record lingers
        #: (invisibly) so flap history survives a quick re-join
        self.expired = False

    def to_json(self, now: float) -> dict:
        # lastHeartbeatAgeS is the staleness gauge (computed from the
        # registry's injected clock, never a render-time wall read);
        # ageS stays as a protocol-v5/v6 alias of the same value
        age = round(now - self.last_seen, 3)
        row = {"url": self.url, "capacity": self.capacity,
               "ageS": age,
               "lastHeartbeatAgeS": age,
               "heartbeats": self.heartbeats,
               "generation": self.generation,
               "excluded": self.excluded_until is not None}
        if self.excluded_reason is not None:
            row["excludedReason"] = self.excluded_reason
        if self.cache_stats is not None:
            row["cache"] = self.cache_stats
        return row


class WorkerRegistry:
    """TTL-expiring, flap-excluding registry of sweep workers.

    Parameters
    ----------
    ttl_s:
        Heartbeat time-to-live.  A worker whose last heartbeat is older
        leaves the live set on the next :meth:`expire` sweep (callers of
        :meth:`live`/:meth:`snapshot` get expiry for free).
    flap_threshold / flap_window_s / flap_cooldown_s:
        A worker that expires ``flap_threshold`` times within
        ``flap_window_s`` seconds is excluded from scheduling for
        ``flap_cooldown_s`` — a machine bouncing in and out of the fleet
        would otherwise keep stealing jobs and timing out on them.
    time_fn:
        Clock injection for tests (defaults to ``time.monotonic``).
    """

    def __init__(self, ttl_s: float = DEFAULT_TTL_S,
                 flap_threshold: int = 3, flap_window_s: float = 60.0,
                 flap_cooldown_s: float = 30.0,
                 time_fn: Callable[[], float] = time.monotonic):
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        if flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        self.ttl_s = ttl_s
        self.flap_threshold = flap_threshold
        self.flap_window_s = flap_window_s
        self.flap_cooldown_s = flap_cooldown_s
        self._now = time_fn
        self._lock = threading.Lock()
        self._workers: Dict[str, FleetWorker] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def normalize_url(url: str) -> str:
        host, port = _parse_worker_url(url)
        return f"{host}:{port}"

    def register(self, url: str, capacity: int = 1,
                 cache_stats: Optional[dict] = None) -> dict:
        """Register / heartbeat one worker; returns the ack payload.

        Raises :class:`ValueError` on a malformed URL or capacity — the
        protocol layer maps that to a 400.
        """
        normalized = self.normalize_url(url)
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ValueError(f"capacity must be an integer >= 1, "
                             f"got {capacity!r}")
        now = self._now()
        with self._lock:
            worker = self._workers.get(normalized)
            if worker is None:
                worker = self._workers[normalized] = FleetWorker(normalized,
                                                                 now)
            elif worker.expired or now - worker.last_seen > self.ttl_s:
                # re-registration after silence: a restarted (or
                # recovered) worker re-joins as a new generation; count
                # the drop for flap detection unless an expire() sweep
                # already did
                if not worker.expired:
                    self._note_leave_locked(worker, now)
                worker.expired = False
                worker.generation += 1
                worker.registered_at = now
            worker.last_seen = now
            worker.heartbeats += 1
            worker.capacity = capacity
            if cache_stats is not None:
                worker.cache_stats = cache_stats
            self._refresh_exclusion_locked(worker, now)
            live = self._live_locked(now)
        _HEARTBEATS.inc()
        return {"registered": True, "url": normalized,
                "ttlS": self.ttl_s,
                "heartbeatS": round(self.ttl_s / 3.0, 3),
                "workers": len(live)}

    def forget(self, url: str) -> bool:
        """Drop a worker outright (operator action; not a flap event)."""
        with self._lock:
            return self._workers.pop(self.normalize_url(url), None) \
                is not None

    # ------------------------------------------------------------------
    def _note_leave_locked(self, worker: FleetWorker, now: float) -> None:
        window_start = now - self.flap_window_s
        worker.leave_times = [t for t in worker.leave_times
                              if t >= window_start]
        worker.leave_times.append(now)
        if len(worker.leave_times) >= self.flap_threshold:
            worker.excluded_until = now + self.flap_cooldown_s
            worker.excluded_reason = (
                f"flapping: {len(worker.leave_times)} drops in "
                f"{self.flap_window_s:g}s (cooldown "
                f"{self.flap_cooldown_s:g}s)")

    def _refresh_exclusion_locked(self, worker: FleetWorker,
                                  now: float) -> None:
        if worker.excluded_until is not None \
                and now >= worker.excluded_until:
            worker.excluded_until = None
            worker.excluded_reason = None

    def expire(self) -> List[str]:
        """Mark workers whose heartbeat TTL lapsed; returns their URLs.

        Freshly-lapsed workers are marked ``expired`` (one drop counted
        for flap detection) and become invisible — not live, not in
        snapshots — but their record lingers so flap history survives a
        quick re-join; records silent for longer than the flap window
        are deleted outright.
        """
        now = self._now()
        dropped = []
        retention = self.ttl_s + max(self.flap_window_s,
                                     self.flap_cooldown_s)
        with self._lock:
            for url, worker in list(self._workers.items()):
                age = now - worker.last_seen
                if age <= self.ttl_s:
                    continue
                if not worker.expired:
                    worker.expired = True
                    self._note_leave_locked(worker, now)
                    dropped.append(url)
                if age > retention:
                    del self._workers[url]
        if dropped:
            _EXPIRIES.inc(len(dropped))
        return dropped

    def _live_locked(self, now: float) -> List[FleetWorker]:
        live = []
        for worker in self._workers.values():
            if worker.expired or now - worker.last_seen > self.ttl_s:
                continue
            self._refresh_exclusion_locked(worker, now)
            if worker.excluded_until is not None:
                continue
            live.append(worker)
        return live

    def live(self) -> List[FleetWorker]:
        """Schedulable workers: heartbeat fresh, not flap-excluded."""
        self.expire()
        now = self._now()
        with self._lock:
            return self._live_locked(now)

    def live_urls(self) -> List[str]:
        return [worker.url for worker in self.live()]

    def capacities(self) -> Dict[str, int]:
        """URL -> advertised capacity of every live worker."""
        return {worker.url: worker.capacity for worker in self.live()}

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Fleet health payload (the ``/health`` and ``/fleet/status``
        rows): every known worker, live or excluded, with reasons."""
        self.expire()
        now = self._now()
        with self._lock:
            rows = [worker.to_json(now)
                    for worker in self._workers.values()
                    if not worker.expired]
            live = len(self._live_locked(now))
        rows.sort(key=lambda row: row["url"])
        return {"live": live, "known": len(rows), "ttlS": self.ttl_s,
                "rows": rows}

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for worker in self._workers.values()
                       if not worker.expired)


class Heartbeater:
    """Worker-side registration loop (daemon thread).

    Posts ``/fleet/register`` to the frontend every ``interval_s``
    (defaulting to whatever the frontend's ack suggests), carrying the
    worker's advertised URL, capacity, and — when a ``cache_stats_fn``
    is given — its artifact-cache stats.  Frontend downtime is
    tolerated: failed posts retry on the next beat.
    """

    def __init__(self, frontend_url: str, advertise_url: str,
                 capacity: int = 1, interval_s: Optional[float] = None,
                 cache_stats_fn: Optional[Callable[[], dict]] = None):
        self.frontend_host, self.frontend_port = \
            _parse_worker_url(frontend_url)
        self.advertise_url = WorkerRegistry.normalize_url(advertise_url)
        self.capacity = capacity
        self.interval_s = interval_s
        self.cache_stats_fn = cache_stats_fn
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: successful registrations (visible to tests / banners)
        self.beats = 0

    def beat_once(self) -> dict:
        """One registration post (raises on transport/protocol errors)."""
        from repro.server.client import SimClient
        client = SimClient(self.frontend_host, self.frontend_port,
                           timeout=5.0)
        try:
            reply = client.fleet_register(
                self.advertise_url, capacity=self.capacity,
                cache=self.cache_stats_fn() if self.cache_stats_fn else None)
        finally:
            client.close()
        self.beats += 1
        return reply

    def _loop(self) -> None:
        interval = self.interval_s or DEFAULT_TTL_S / 3.0
        while not self._stop.is_set():
            try:
                reply = self.beat_once()
                if self.interval_s is None and reply.get("heartbeatS"):
                    interval = float(reply["heartbeatS"])
            except Exception:  # noqa: BLE001 - frontend down: retry later
                pass
            self._stop.wait(interval)

    def start(self) -> threading.Thread:
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="fleet-heartbeat")
        self._thread.start()
        return self._thread

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
