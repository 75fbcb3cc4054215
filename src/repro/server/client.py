"""HTTP client for the simulation server (used by the CLI and load tests)."""

from __future__ import annotations

import gzip
import http.client
import json
from typing import Optional

from repro.server.protocol import ApiError


class SimClient:
    """Thin JSON-over-HTTP client.

    Each client owns one keep-alive connection (a simulated "user" in the
    load test); it is not thread-safe — use one per thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8045,
                 use_gzip: bool = True, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.use_gzip = use_gzip
        self._conn: Optional[http.client.HTTPConnection] = None
        self.timeout = timeout

    @property
    def timeout(self) -> float:
        """Socket timeout in seconds; setting it also re-arms the open
        keep-alive connection."""
        return self._timeout

    @timeout.setter
    def timeout(self, value: float) -> None:
        self._timeout = value
        if self._conn is not None:
            self._conn.timeout = value
            if self._conn.sock is not None:
                self._conn.sock.settimeout(value)

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str,
                payload: Optional[dict] = None,
                retry_stale: bool = True) -> dict:
        """One JSON request/response exchange.

        ``retry_stale=False`` disables the transparent once-retry on a
        broken keep-alive connection — callers with their own retry
        policy (the remote sweep backend) must see the first transport
        failure, not a silently re-sent request that could execute the
        same job twice.
        """
        body = None
        headers = {"Accept": "application/json"}
        if self.use_gzip:
            headers["Accept-Encoding"] = "gzip"
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            # stale keep-alive connection: retry once on a fresh one
            self.close()
            if not retry_stale:
                raise
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        if response.getheader("Content-Encoding", "") == "gzip":
            raw = gzip.decompress(raw)
        data = json.loads(raw.decode("utf-8")) if raw else {}
        if response.status >= 400:
            raise ApiError(data.get("error", f"HTTP {response.status}"),
                           status=response.status)
        return data

    # -- convenience wrappers ---------------------------------------------
    def health(self) -> dict:
        return self.request("GET", "/health")

    def schema(self) -> dict:
        return self.request("GET", "/schema")

    def compile(self, code: str, optimize_level: int = 1) -> dict:
        return self.request("POST", "/compile",
                            {"code": code, "optimizeLevel": optimize_level})

    def parse_asm(self, code: str, **kw) -> dict:
        return self.request("POST", "/parseAsm", {"code": code, **kw})

    def simulate(self, code: str, **kw) -> dict:
        return self.request("POST", "/simulate", {"code": code, **kw})

    def session_new(self, code: str, **kw) -> str:
        out = self.request("POST", "/session/new", {"code": code, **kw})
        if not out.get("success"):
            raise ApiError(f"session creation failed: {out.get('errors')}")
        return out["sessionId"]

    def session_step(self, session_id: str, cycles: int = 1,
                     delta: bool = False) -> dict:
        """Step a session.  With ``delta=True`` the server sends only what
        changed since the last served view (protocol v2); patch it onto the
        previous full state with
        :func:`repro.sim.state.apply_snapshot_delta`."""
        return self.request("POST", "/session/step",
                            {"sessionId": session_id, "cycles": cycles,
                             "delta": "encoded" if delta else False})

    def session_state(self, session_id: str) -> dict:
        return self.request("POST", "/session/state",
                            {"sessionId": session_id})

    def session_seek(self, session_id: str, cycle: int) -> dict:
        """Jump the session to an absolute cycle.

        The response's ``fastForward`` field (protocol v6) reports how
        many cycles of the move the server served uninstrumented via
        checkpoint-seeded fast-forward (0 = stepped / checkpoint replay
        only)."""
        return self.request("POST", "/session/seek",
                            {"sessionId": session_id, "cycle": cycle})

    def session_memory(self, session_id: str, **kw) -> dict:
        """Memory view: pass ``symbol=`` or ``address=``/``size=``, plus an
        optional ``dtype=`` and ``sinceVersion=`` (unchanged check)."""
        return self.request("POST", "/session/memory",
                            {"sessionId": session_id, **kw})

    def session_close(self, session_id: str) -> dict:
        return self.request("POST", "/session/close",
                            {"sessionId": session_id})

    # -- design-space sweeps (repro.explore) ----------------------------
    def explore_submit(self, spec: dict, workers: Optional[int] = None,
                       metric: str = "cycles",
                       job_timeout_s: Optional[float] = None,
                       backend: Optional[str] = None,
                       trace: Optional[bool] = None) -> dict:
        """Queue a sweep; returns ``{"sweepId", "jobs", "workers"}``.

        ``backend`` picks the server-side execution backend:
        ``"serial"``, ``"process"``, or ``"fleet"`` (the server's
        registered worker fleet — protocol v5); ``None`` keeps the
        historical ``workers`` inference.  ``trace=False`` opts the
        sweep out of span collection (protocol v7; default on)."""
        payload: dict = {"spec": spec, "metric": metric}
        if workers is not None:
            payload["workers"] = workers
        if job_timeout_s is not None:
            payload["jobTimeoutS"] = job_timeout_s
        if backend is not None:
            payload["backend"] = backend
        if trace is not None:
            payload["trace"] = trace
        return self.request("POST", "/explore/submit", payload)

    def explore_status(self, sweep_id: str) -> dict:
        return self.request("POST", "/explore/status", {"sweepId": sweep_id})

    def explore_result(self, sweep_id: str, metric: str = "cycles") -> dict:
        """Records + comparison report of a finished sweep (409 while it
        is still queued/running — poll :meth:`explore_status` first)."""
        return self.request("POST", "/explore/result",
                            {"sweepId": sweep_id, "metric": metric})

    def explore_cancel(self, sweep_id: str,
                       reason: Optional[str] = None) -> dict:
        """Cancel a queued/running sweep (protocol v5): queued sweeps are
        dequeued, running ones drain and stop in-flight jobs within one
        cancel-check stride."""
        payload: dict = {"sweepId": sweep_id}
        if reason is not None:
            payload["reason"] = reason
        return self.request("POST", "/explore/cancel", payload)

    def explore_events(self, sweep_id: str, from_seq: int = 0) -> dict:
        """One poll of a sweep's progress-event log."""
        return self.request("POST", "/explore/events",
                            {"sweepId": sweep_id, "fromSeq": from_seq})

    def explore_stream(self, sweep_id: str, from_seq: int = 0,
                       timeout: Optional[float] = None):
        """Follow a sweep live: yields progress-event dicts from the
        chunked ``GET /explore/stream`` until the terminal event.

        Uses a dedicated connection (the stream occupies it for the
        sweep's whole lifetime) with a generous default timeout —
        events can be minutes apart on a long sweep."""
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else 600.0)
        try:
            conn.request("GET",
                         f"/explore/stream?sweepId={sweep_id}"
                         f"&fromSeq={int(from_seq)}",
                         headers={"Accept": "application/x-ndjson"})
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                data = json.loads(raw.decode("utf-8")) if raw else {}
                raise ApiError(data.get("error",
                                        f"HTTP {response.status}"),
                               status=response.status)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    # -- telemetry plane (protocol v7) ----------------------------------
    def metrics(self) -> dict:
        """Telemetry scrape: counters, gauges, histograms (JSON)."""
        return self.request("GET", "/metrics")

    def metrics_text(self) -> str:
        """Prometheus text exposition of the same scrape.

        Uses a dedicated plain-text exchange (the shared :meth:`request`
        path assumes JSON bodies)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", "/metrics?format=prometheus",
                         headers={"Accept": "text/plain"})
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                raise ApiError(f"HTTP {response.status}",
                               status=response.status)
            return raw.decode("utf-8")
        finally:
            conn.close()

    def trace(self, sweep_id: str) -> dict:
        """One sweep's span tree (``GET /trace/<sweepId>``): root sweep
        span, queue wait, and per-job dispatch/compile/simulate/record
        spans — renderable with
        :func:`repro.viz.render_span_waterfall` or exportable as
        NDJSON."""
        return self.request("GET", "/trace" + f"/{sweep_id}")

    # -- fleet registry (protocol v5) -----------------------------------
    def fleet_register(self, url: str, capacity: int = 1,
                       cache: Optional[dict] = None) -> dict:
        """Register (or heartbeat) a worker in the server's fleet
        registry; *url* is the worker's address as reachable from the
        server."""
        payload: dict = {"url": url, "capacity": capacity}
        if cache is not None:
            payload["cache"] = cache
        return self.request("POST", "/fleet/register", payload)

    def fleet_status(self) -> dict:
        """Worker-registry snapshot (health rows, exclusion reasons)."""
        return self.request("GET", "/fleet/status")

    # -- distributed sweep worker (protocol v4/v5) ----------------------
    def worker_execute(self, job_payload: dict,
                       cancel_id: Optional[str] = None) -> dict:
        """Run one planned sweep job on a remote sweep worker.

        Returns the worker's ``{"ok", "value" | "kind"/"error", ...}``
        reply.  The stale-connection retry is off: the caller
        (:class:`repro.explore.backend.RemoteBackend`) owns retry policy,
        and a transparently re-sent job could execute twice.
        *cancel_id* makes the job cooperatively cancellable via
        :meth:`worker_cancel` from another connection."""
        payload: dict = {"payload": job_payload}
        if cancel_id is not None:
            payload["cancelId"] = cancel_id
        return self.request("POST", "/worker/execute", payload,
                            retry_stale=False)

    def worker_cancel(self, cancel_id: str,
                      reason: Optional[str] = None) -> dict:
        """Fire the cancel token of an in-flight ``worker_execute``."""
        payload: dict = {"cancelId": cancel_id}
        if reason is not None:
            payload["reason"] = reason
        return self.request("POST", "/worker/cancel", payload)

    def worker_status(self) -> dict:
        """Worker health: artifact-cache stats + active-job gauge."""
        return self.request("GET", "/worker/status")

    # -- result warehouse (protocol v9) ----------------------------------
    def warehouse_query(self, sweep: Optional[str] = None,
                        program: Optional[str] = None,
                        axes: Optional[dict] = None,
                        since: Optional[float] = None,
                        until: Optional[float] = None,
                        metrics: Optional[list] = None,
                        limit: Optional[int] = None) -> dict:
        """Query the cross-run result warehouse (``/warehouse/query``):
        rows filtered by sweep id/name, program, axis point values, or
        ingest-time range, plus min/p50/p90/max summaries for *metrics*."""
        payload = {key: value for key, value in
                   (("sweep", sweep), ("program", program), ("axes", axes),
                    ("since", since), ("until", until),
                    ("metrics", metrics), ("limit", limit))
                   if value is not None}
        return self.request("POST", "/warehouse/query", payload)

    def warehouse_pareto(self, x: str = "cycles", y: str = "energy",
                         sweep: Optional[str] = None,
                         program: Optional[str] = None,
                         axes: Optional[dict] = None) -> dict:
        """Direction-aware Pareto frontier over the metric pair (x, y)
        across the warehouse (``/warehouse/pareto``), with per-point
        dominated counts — renderable with
        :func:`repro.viz.render_pareto_frontier`."""
        payload: dict = {"x": x, "y": y}
        payload.update({key: value for key, value in
                        (("sweep", sweep), ("program", program),
                         ("axes", axes))
                        if value is not None})
        return self.request("POST", "/warehouse/pareto", payload)

    def warehouse_regressions(self, sweep: Optional[str] = None,
                              tolerance: Optional[float] = None,
                              metrics: Optional[list] = None) -> dict:
        """Regression-sentinel diff against the pinned baseline sweep
        (``/warehouse/regressions``); raises :class:`ApiError` 409 until
        a baseline is pinned via :meth:`warehouse_baseline`."""
        payload = {key: value for key, value in
                   (("sweep", sweep), ("tolerance", tolerance),
                    ("metrics", metrics))
                   if value is not None}
        return self.request("POST", "/warehouse/regressions", payload)

    def warehouse_baseline(self, sweep_id: str) -> dict:
        """Pin *sweep_id* as the warehouse regression baseline
        (``POST /warehouse/baseline``)."""
        return self.request("POST", "/warehouse/baseline",
                            {"sweepId": sweep_id})
