"""JSON API protocol layer (transport-independent request handlers).

Endpoints mirror the paper's server API.  They are declared once, in the
:data:`ROUTES` table at the end of this module: dispatch, the request
counter's route labels, ``GET /schema`` (the machine-readable endpoint
list) and the protocol lint rule all read that table.

Handlers receive plain dicts and return plain dicts — or, for the two
non-JSON replies, an event iterator (a ``stream`` route) or a text string
(``/metrics?format=prometheus``); the HTTP layer (or the in-process test
harness) does (de)serialization, so the JSON cost the paper measures can be
benchmarked separately from the simulation cost.  Processor state is the
exception: ``session/step``, ``session/state``, ``session/seek`` and
``/simulate`` with ``fullState`` carry it as pre-serialized
:class:`~repro.sim.state.RawJson` text, which ``dumps_raw`` splices into
the reply verbatim (decode a reply with ``json.loads(dumps_raw(reply))``
to index it).

Every handler runs to completion on the thread that called
:meth:`Api.handle` — over HTTP, the connection's own thread.  A session's
requests serialize on its ``Session.lock``, so two of them never overlap,
while requests to other sessions run beside them on their own threads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs

from repro.asm.parser import Assembler
from repro.compiler.driver import compile_c
from repro.core.config import CpuConfig
from repro.errors import (AsmSyntaxError, ConfigError, FleetError,
                          MemoryAccessError, ReproError, SourceError)
from repro.explore.artifacts import ArtifactCache
from repro.explore.pool import CANCELLED_MESSAGE
from repro.explore.report import MetricError
from repro.explore.service import ExploreManager
from repro.explore.spec import SweepSpecError
from repro.explore.warehouse import (BaselineMissing, ResultWarehouse,
                                     WarehouseError)
from repro.fleet.cancel import CancelRegistry
from repro.fleet.registry import WorkerRegistry
from repro.memory.layout import MemoryLocation, decode_values
from repro.obs.metrics import default_registry, render_prometheus
from repro.server.session import SessionManager
from repro.sim.simulation import DEFAULT_CANCEL_STRIDE
from repro.sim.state import SNAPSHOT_SCHEMA_VERSION, RawJson

#: wire-protocol version served by this module.  v2 added delta state
#: payloads (``/session/step`` with ``"delta": true``), the
#: ``/session/memory`` view, checkpointed seeking, and strict cycle-count
#: validation.  v3 adds the ``/explore/*`` design-space sweep endpoints
#: (and ran session simulation on a worker pool, since removed without a
#: wire change).  v4 adds the ``/worker/execute`` sweep-worker endpoint
#: (distributed sweeps fan jobs out to a fleet of these servers),
#: checkpoint-ring memory gauges on the ``session/*`` payloads, and the
#: enriched ``/explore/status`` (wall-time summary, queued/running job
#: ids).  v5 adds the fleet-orchestration
#: surface: ``/fleet/register`` heartbeats + fleet health rows in
#: ``/health``, server-owned ``"backend": "fleet"`` sweeps on
#: ``/explore/submit``, cooperative cancellation (``/explore/cancel`` ->
#: ``/worker/cancel`` -> the simulation's cancel-stride check), live
#: progress (``/explore/events`` + chunked ``/explore/stream``), and
#: ``/worker/status`` cache metrics.  v6 adds the ``fastForward`` field
#: on ``/session/seek`` responses: the cycles of the move served by the
#: uninstrumented fast path (checkpoint-seeded fast-forward through the
#: config-specialized step loop), 0 when the move was stepped or replayed
#: from a nearby checkpoint.  v7 adds the telemetry plane: ``GET /metrics``
#: (registry scrape; JSON here, Prometheus text exposition at the HTTP
#: layer via ``?format=prometheus``), ``GET /trace/<sweepId>`` (one
#: sweep's span tree — queue wait, dispatch, per-job compile/simulate/
#: record), trace-context propagation through ``/explore/submit`` job
#: payloads and ``/worker/execute`` (whose replies gain ``spans``), the
#: ``"trace"`` opt-out on submit, and ``lastHeartbeatAgeS`` on fleet
#: health rows.  v8 added a fleet artifact data plane (two routes that
#: served and warm-pushed content-addressed artifacts, job programs sent
#: by reference, a degrade-to-inline reply kind and peer fetch hints on
#: heartbeats; all removed in v10).  v9 adds the cross-run result warehouse:
#: every sweep that finishes ``done`` is ingested into an indexed,
#: append-only store; ``GET /warehouse/query`` filters rows by
#: sweep/program/axis value/ingest time and serves shared nearest-rank
#: metric summaries, ``GET /warehouse/pareto`` extracts direction-aware
#: Pareto frontiers over any metric pair, ``POST /warehouse/baseline``
#: pins a baseline sweep, and ``GET /warehouse/regressions`` diffs
#: matching configs (by record label) against it, flagging metric
#: deltas beyond a tolerance (409 until a baseline is pinned).  The
#: warehouse GETs accept their filters as query strings; POST bodies
#: work identically.  v10 removes the v8 data plane: a dispatching
#: backend compiles each C program once and sends the assembly inline,
#: so ``artifactCache`` stats (heartbeat ``cache`` rows too) lose their
#: ``fetch`` and ``keys`` entries.  Every other route is unchanged, except
#: that a wrongly typed ``sessionId``, ``sweepId``, ``entry`` or ``dtype``
#: gets a 400.
PROTOCOL_VERSION = 10

#: upper bound for one step request; larger forward runs should be issued
#: as repeated (batched) step requests so sessions stay responsive and a
#: typo cannot pin a connection thread for minutes
MAX_STEP_CYCLES = 100_000

#: fallback upper bound for an absolute seek target; the effective bound
#: is the session's own ``max_cycles`` budget (the simulation halts there,
#: so any larger target would only pin a thread replaying a halted machine).
#: It also caps the cycle budget of one ``/simulate`` run
MAX_SEEK_CYCLE = 10_000_000

#: most characters of ``code`` the front-end routes (``/compile``,
#: ``/parseAsm``, ``/simulate``, ``/session/new``) accept.  A front end
#: keeps ~130 B per token, so the 16 MiB body bound alone would let one
#: request grow it by gigabytes; at this bound the worst shape found
#: peaks at ~50 MB (C) and ~20 MB (assembly).  The largest source in the
#: tests, examples and e2e inputs is 15,527 characters
MAX_SOURCE_CHARS = 64 * 1024

#: most bytes one ``/session/memory`` view serves (hex-encoded, and as a
#: value list with a ``dtype``), whether sized by ``size`` or by a
#: symbol: the default memory capacity.  The largest view the tests,
#: examples and e2e inputs ask for is 12 bytes
MAX_MEMORY_VIEW_BYTES = 64 * 1024


class ApiError(Exception):
    """Protocol-level error with an HTTP-ish status code."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.message = message
        self.status = status

    def to_json(self) -> dict:
        return {"error": self.message, "status": self.status}


def _source(payload: dict, what: str) -> str:
    """The request's ``code``: a string of at most
    :data:`MAX_SOURCE_CHARS` characters of *what*."""
    code = payload.get("code")
    if not isinstance(code, str):
        raise ApiError(f"'code' ({what} string) is required")
    if len(code) > MAX_SOURCE_CHARS:
        raise ApiError(f"'code' is {len(code)} characters, more than the "
                       f"{MAX_SOURCE_CHARS} a request may carry")
    return code


def _string(payload: dict, key: str) -> Optional[str]:
    """The request's *key* field when it is a string, ``None`` when it is
    absent; any other type is the client's bad request."""
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise ApiError(f"'{key}' must be a string, "
                       f"got {type(value).__name__}")
    return value


def _entry(payload: dict) -> Optional[object]:
    """The request's ``entry``: a label, an address or ``None``."""
    entry = payload.get("entry")
    if entry is not None and not isinstance(entry, (str, int)):
        raise ApiError(f"'entry' must be a label or an address, "
                       f"got {type(entry).__name__}")
    return entry


def _parse_memory_locations(payload: dict) -> List[MemoryLocation]:
    locations = payload.get("memory", [])
    try:
        return [MemoryLocation.from_json(d) for d in locations]
    except (ConfigError, KeyError, TypeError, ValueError,
            AttributeError) as exc:
        raise ApiError(f"invalid memory configuration: {exc}") from exc


def _parse_config(payload: dict) -> Optional[CpuConfig]:
    data = payload.get("config")
    if data is None:
        return None
    if not isinstance(data, (str, dict)):
        raise ApiError("'config' must be a preset name or an architecture "
                       "object")
    try:
        if isinstance(data, str):
            return CpuConfig.preset(data)
        return CpuConfig.from_json(data)
    except (ConfigError, KeyError, TypeError, ValueError,
            AttributeError) as exc:
        # the nested from_json readers int()/.get() whatever they find:
        # a wrongly typed field is the client's bad request, never a 500
        raise ApiError(f"invalid architecture configuration: {exc}") from exc


_REQUESTS = default_registry().counter(
    "repro_requests_total", "API requests handled, by method and route")
_WORKER_JOBS = default_registry().counter(
    "repro_worker_jobs_total", "/worker/execute jobs, by outcome kind")
_WORKER_EXECUTE_SECONDS = default_registry().histogram(
    "repro_worker_execute_seconds", "Wall time of /worker/execute jobs")
_SESSIONS_LIVE = default_registry().gauge(
    "repro_sessions_live", "Interactive sessions currently open")
_SWEEP_QUEUE = default_registry().gauge(
    "repro_sweep_queue_depth", "Explore-queue depth, by sweep state")
_FLEET_WORKERS = default_registry().gauge(
    "repro_fleet_workers", "Fleet registry population, by liveness")
_HEARTBEAT_AGE = default_registry().gauge(
    "repro_fleet_worker_heartbeat_age_seconds",
    "Seconds since each known worker's last heartbeat")


class Api:
    """All protocol handlers bound to one session manager.

    Handlers run on the calling thread.  ``explore`` may inject a
    pre-configured :class:`ExploreManager` (the HTTP entry point passes
    worker counts through); ``fleet`` a pre-configured
    :class:`WorkerRegistry` (tests inject short TTLs / fake clocks).
    """

    def __init__(self, sessions: Optional[SessionManager] = None,
                 explore: Optional[ExploreManager] = None,
                 fleet: Optional[WorkerRegistry] = None):
        # explicit None checks: both managers define __len__, so an empty
        # (still perfectly valid) instance is falsy and `or` would drop it
        self.sessions = sessions if sessions is not None else SessionManager()
        self.explore = explore if explore is not None else ExploreManager()
        #: per-server artifact cache consulted by /worker/execute: a
        #: remote sweep worker compiles/assembles each distinct program
        #: once, then serves repeats from memory (see repro.explore.artifacts)
        self.artifacts = ArtifactCache()
        #: the server-owned worker registry behind /fleet/register and
        #: the "fleet" sweep backend
        self.fleet = fleet if fleet is not None else WorkerRegistry()
        self.explore.fleet = self.fleet
        self.explore.artifacts = self.artifacts
        #: the cross-run result warehouse behind /warehouse/*; attached
        #: to the explore manager so its runner thread ingests every
        #: sweep that finishes done
        self.warehouse = ResultWarehouse()
        if getattr(self.explore, "warehouse", None) is None:
            self.explore.warehouse = self.warehouse
        #: in-flight cancellable jobs (/worker/execute <-> /worker/cancel)
        self.cancels = CancelRegistry()

    def close(self) -> None:
        """Stop the explore manager's workers (tests; server shutdown)."""
        self.explore.close()

    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, payload: Optional[dict]):
        """Serve one request through its :data:`ROUTES` entry.

        *path* may carry a query string (transports pass it through);
        its keys merge into *payload*, and body keys win over query
        duplicates.  A suffix route's path parameter (``/trace/<sweepId>``)
        lands in the payload under the parameter's name."""
        path, _sep, query = path.partition("?")
        method = method.upper()
        route, arg = _match(method, path.rstrip("/"))
        _REQUESTS.inc(method=method, route=route.path if route else "other")
        if route is None:
            raise ApiError(f"no such endpoint: {method} {path}", status=404)
        payload = payload or {}
        if query:
            payload = {**{key: values[0] for key, values
                          in parse_qs(query).items()}, **payload}
        if route.param:
            if not arg:
                raise ApiError(f"{route.path} requests name a {route.param}: "
                               f"{method} {route.path}/<{route.param}>")
            payload = {**payload, route.param: arg}
        if route.stream and method != "GET":
            raise ApiError(f"{route.path} is a chunked NDJSON stream; GET it "
                           f"with a streaming client")
        return route.handler(self, payload)

    def health(self, _payload: dict) -> dict:
        return {"status": "ok", "sessions": len(self.sessions),
                "fleet": self.fleet.snapshot()}

    def schema(self, _payload: dict) -> dict:
        return SCHEMA

    # ------------------------------------------------------------------
    def compile(self, payload: dict) -> dict:
        code = _source(payload, "C source")
        level = self._parse_int(payload, "optimizeLevel", default=1)
        if not 0 <= level <= 3:
            raise ApiError("optimizeLevel must be 0..3")
        return compile_c(code, level,
                         run_filter=bool(payload.get("filter", False))).to_json()

    def parse_asm(self, payload: dict) -> dict:
        code = _source(payload, "assembly")
        config = _parse_config(payload) or CpuConfig()
        try:
            program = Assembler().assemble(
                code, memory_locations=_parse_memory_locations(payload),
                stack_size=config.memory.call_stack_size)
        except AsmSyntaxError as exc:
            return {"success": False, "errors": [exc.to_json()]}
        return {
            "success": True,
            "errors": [],
            "instructionCount": len(program.instructions),
            "labels": program.labels,
            "symbols": program.symbol_table(),
        }

    def simulate(self, payload: dict) -> dict:
        code = _source(payload, "assembly")
        config = _parse_config(payload) or CpuConfig()
        max_cycles = payload.get("maxCycles")
        if max_cycles is not None:
            max_cycles = self._parse_int(payload, "maxCycles")
        # the run halts at the smaller budget, on this connection's thread
        budget = config.max_cycles if max_cycles is None \
            else min(config.max_cycles, max_cycles)
        if budget > MAX_SEEK_CYCLE:
            raise ApiError(f"cycle budget {budget} exceeds {MAX_SEEK_CYCLE}: "
                           f"lower maxCycles or config.maxCycles")
        from repro.sim.simulation import Simulation
        try:
            simulation = Simulation.from_source(
                code, config=config, entry=_entry(payload),
                memory_locations=_parse_memory_locations(payload))
            result = simulation.run(max_cycles)
        except SourceError as exc:
            return {"success": False, "errors": [exc.to_json()]}
        except ReproError as exc:
            raise ApiError(str(exc)) from exc
        out = {"success": True, "result": result.to_json()}
        if payload.get("fullState"):
            out["state"] = RawJson(simulation.snapshot_json())
        return out

    # -- sessions -----------------------------------------------------------
    def session_new(self, payload: dict) -> dict:
        code = _source(payload, "assembly")
        try:
            session = self.sessions.create(
                code, config=_parse_config(payload),
                entry=_entry(payload),
                memory_locations=_parse_memory_locations(payload))
        except SourceError as exc:
            return {"success": False, "errors": [exc.to_json()]}
        except ReproError as exc:  # e.g. a ConfigError from validation
            raise ApiError(str(exc)) from exc
        return {"success": True, "sessionId": session.id}

    def _session(self, payload: dict):
        session_id = _string(payload, "sessionId")
        session = self.sessions.get(session_id) if session_id else None
        if session is None:
            raise ApiError(f"unknown session '{session_id}'", status=404)
        return session

    @staticmethod
    def _parse_int(payload: dict, key: str, default: Optional[int] = None) -> int:
        value = payload.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ApiError(f"'{key}' must be an integer, got {value!r}")
        return value

    @staticmethod
    def _checkpoint_gauge(session) -> dict:
        """Checkpoint-ring memory accounting for session payloads.

        ``bytesRetained`` counts shared frozen page blobs once (see
        ``CheckpointRing.bytes_retained``), so clients — and operators
        sizing ``checkpoint_capacity`` — see the ring's real footprint,
        not capacity x machine size.  Cheap per request: the walk is
        cached per ring generation."""
        ring = session.simulation.checkpoints
        return {"count": len(ring), "capacity": ring.capacity,
                "bytesRetained": ring.bytes_retained()}

    def session_step(self, payload: dict) -> dict:
        """Step a session forward (``cycles`` > 0) or back, then serve its
        state: the full state, or, for any truthy ``delta`` (``true`` and
        ``"encoded"`` alike), a delta against the view the session served
        last.  Either is JSON text from the simulation's fragment caches
        (:class:`RawJson`), which ``dumps_raw`` splices into the reply."""
        session = self._session(payload)
        cycles = self._parse_int(payload, "cycles", default=1)
        if cycles == 0:
            raise ApiError("'cycles' must be a non-zero integer "
                           "(negative = backward)")
        if abs(cycles) > MAX_STEP_CYCLES:
            raise ApiError(f"'cycles' out of range: |{cycles}| exceeds "
                           f"{MAX_STEP_CYCLES} per request")
        out = {"success": True, "protocolVersion": PROTOCOL_VERSION}
        with session.lock:
            if cycles > 0:
                session.simulation.step(cycles)
            else:
                session.simulation.step_back(-cycles)
            if payload.get("delta"):
                out["stateFormat"] = "delta"
                out["stateDelta"] = session.serve_delta()
            else:
                out["stateFormat"] = "full"
                out["state"] = session.serve_state()
            out["checkpoints"] = self._checkpoint_gauge(session)
        return out

    def session_state(self, payload: dict) -> dict:
        session = self._session(payload)
        with session.lock:
            return {"success": True,
                    "protocolVersion": PROTOCOL_VERSION,
                    "stateFormat": "full",
                    "state": session.serve_state(),
                    "checkpoints": self._checkpoint_gauge(session)}

    def session_seek(self, payload: dict) -> dict:
        session = self._session(payload)
        cycle = self._parse_int(payload, "cycle", default=0)
        if cycle < 0:
            raise ApiError("cycle must be >= 0")
        budget = min(session.simulation.config.max_cycles, MAX_SEEK_CYCLE)
        if cycle > budget:
            raise ApiError(f"cycle out of range: {cycle} exceeds the "
                           f"session's cycle budget ({budget})")
        with session.lock:
            simulation = session.simulation
            simulation.seek(cycle)
            return {"success": True,
                    "protocolVersion": PROTOCOL_VERSION,
                    "stateFormat": "full",
                    "state": session.serve_state(),
                    "fastForward": simulation.last_fast_forward,
                    "checkpoints": self._checkpoint_gauge(session)}

    def session_memory(self, payload: dict) -> dict:
        """Memory pop-up view (Fig. 2), delta-aware.

        Resolves ``symbol`` (an array / label name) or a raw ``address``,
        and serves the region's bytes plus — when ``dtype`` is given or
        derivable from the symbol — the typed element values the memory
        editor shows.  Passing the last seen ``sinceVersion`` back lets the
        client skip unchanged payloads entirely."""
        session = self._session(payload)
        with session.lock:
            simulation = session.simulation
            memory = simulation.cpu.memory
            dtype = _string(payload, "dtype")
            symbol = payload.get("symbol")
            if symbol is not None:
                found = simulation.program.find_symbol(str(symbol))
                if found is not None:
                    address, size = found.address, found.size
                    dtype = dtype or found.dtype
                else:
                    try:
                        address = simulation.symbol_address(str(symbol))
                    except KeyError:
                        raise ApiError(f"unknown symbol '{symbol}'",
                                       status=404) from None
                    size = self._parse_int(payload, "size", default=4)
            else:
                address = self._parse_int(payload, "address", default=0)
                size = self._parse_int(payload, "size", default=64)
            limit = min(memory.capacity, MAX_MEMORY_VIEW_BYTES)
            if not 0 < size <= limit:
                raise ApiError(f"invalid size {size}: a view holds 1 to "
                               f"{limit} bytes")
            version = memory.version
            if payload.get("sinceVersion") == version:
                return {"success": True, "unchanged": True,
                        "version": version}
            try:
                raw = memory.read_bytes(address, size)
            except MemoryAccessError as exc:
                raise ApiError(str(exc)) from exc
            out = {"success": True, "version": version, "address": address,
                   "size": size, "bytes": raw.hex()}
            if dtype is not None:
                try:
                    out["dtype"] = dtype
                    out["values"] = decode_values(raw, dtype)
                except ConfigError as exc:
                    raise ApiError(str(exc)) from exc
            return out

    def session_close(self, payload: dict) -> dict:
        session_id = _string(payload, "sessionId") or ""
        return {"success": self.sessions.close(session_id)}

    # -- design-space sweeps (repro.explore) ----------------------------
    def explore_submit(self, payload: dict) -> dict:
        spec = payload.get("spec")
        if not isinstance(spec, dict):
            raise ApiError("'spec' (sweep specification object) is required")
        workers = payload.get("workers")
        if workers is not None:
            if isinstance(workers, bool) or not isinstance(workers, int) \
                    or workers < 0:
                raise ApiError("'workers' must be an integer >= 0")
        job_timeout_s = payload.get("jobTimeoutS")
        if job_timeout_s is not None:
            if isinstance(job_timeout_s, bool) \
                    or not isinstance(job_timeout_s, (int, float)) \
                    or job_timeout_s <= 0:
                raise ApiError("'jobTimeoutS' must be a positive number")
        backend = payload.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ApiError("'backend' must be a string "
                           "(serial/process/fleet)")
        trace = payload.get("trace", True)
        if not isinstance(trace, bool):
            raise ApiError("'trace' must be a boolean")
        try:
            state = self.explore.submit(
                spec, workers=workers,
                metric=str(payload.get("metric", "cycles")),
                job_timeout_s=job_timeout_s, backend=backend,
                trace=trace)
        except FleetError as exc:
            # a fleet submit with no registered workers is the server's
            # (transient) state, not a bad request: 503, retry later
            raise ApiError(str(exc), status=503) from exc
        except (SweepSpecError, MetricError, ConfigError,
                ValueError, TypeError, KeyError) as exc:
            # ValueError/TypeError/KeyError cover malformed field types the
            # spec parser's bare int()/list() conversions trip over — still
            # the client's bad request, never a 500
            raise ApiError(f"invalid sweep: {exc}") from exc
        except OverflowError as exc:
            raise ApiError(str(exc), status=429) from exc
        return {"success": True, "protocolVersion": PROTOCOL_VERSION,
                "sweepId": state.id, "jobs": state.total,
                "workers": state.workers, "backend": state.backend}

    def _sweep(self, payload: dict):
        sweep_id = _string(payload, "sweepId")
        state = self.explore.get(sweep_id) if sweep_id else None
        if state is None:
            raise ApiError(f"unknown sweep '{sweep_id}'", status=404)
        return state

    def explore_status(self, payload: dict) -> dict:
        out = self._sweep(payload).status_json()
        out["success"] = True
        return out

    def explore_result(self, payload: dict) -> dict:
        state = self._sweep(payload)
        if state.state not in ("done", "failed", "cancelled"):
            raise ApiError(f"sweep '{state.id}' is {state.state}; poll "
                           f"/explore/status until it is done", status=409)
        try:
            out = self.explore.result_json(
                state, metric=str(payload.get("metric", "cycles")))
        except MetricError as exc:
            raise ApiError(str(exc)) from exc
        out["success"] = state.state == "done"
        return out

    def explore_cancel(self, payload: dict) -> dict:
        """Cancel a sweep: dequeues a queued one, fires the cancel token
        of a running one (undispatched jobs drain as ``cancelled``
        records; in-flight fleet jobs get ``/worker/cancel`` and stop
        within one cancel-check stride)."""
        state = self._sweep(payload)
        try:
            out = self.explore.cancel(
                state.id,
                reason=str(payload.get("reason", "client request")))
        except KeyError:  # evicted between lookup and cancel
            raise ApiError(f"unknown sweep '{state.id}'",
                           status=404) from None
        out["success"] = True
        out["sweepId"] = state.id
        out["protocolVersion"] = PROTOCOL_VERSION
        return out

    def explore_events(self, payload: dict) -> dict:
        """One poll of a sweep's progress-event log (the poll-shaped
        sibling of the chunked ``/explore/stream``)."""
        state = self._sweep(payload)
        from_seq = self._parse_int(payload, "fromSeq", default=0)
        if from_seq < 0:
            raise ApiError("'fromSeq' must be >= 0")
        try:
            events, sweep_state = self.explore.events_since(state.id,
                                                            from_seq)
        except KeyError:  # evicted between lookup and poll
            raise ApiError(f"unknown sweep '{state.id}'",
                           status=404) from None
        return {"success": True, "sweepId": state.id, "state": sweep_state,
                "events": events, "nextSeq": from_seq + len(events)}

    def explore_stream(self, payload: dict):
        """Live event generator behind ``GET /explore/stream`` (the HTTP
        layer writes each yielded event as one chunked NDJSON line).
        Raises before the first byte: 400 for a bad ``fromSeq``, 404 for
        an unknown sweep."""
        try:   # over GET it arrives as a query-string string
            from_seq = int(payload.get("fromSeq", 0))
        except (TypeError, ValueError):
            raise ApiError("'fromSeq' must be an integer") from None
        state = self._sweep(payload)
        return self.explore.stream(state.id, from_seq=max(0, from_seq))

    # -- result warehouse (protocol v9) ---------------------------------
    @staticmethod
    def _warehouse_filters(payload: dict) -> dict:
        """Shared filter parsing for the ``/warehouse/*`` reads.

        Over GET every value arrives as a query-string *string*, so
        ``axes`` accepts a compact ``axis=value[,axis=value...]`` form
        alongside the JSON-body object."""
        filters: dict = {}
        for key in ("sweep", "program"):
            value = payload.get(key)
            if value is None and key == "sweep":
                value = payload.get("sweepId")
            if value is not None:
                if not isinstance(value, str) or not value:
                    raise ApiError(f"'{key}' must be a non-empty string")
                filters[key] = value
        axes = payload.get("axes")
        if axes is not None:
            if isinstance(axes, str):
                parsed = {}
                for part in axes.replace("/", ",").split(","):
                    part = part.strip()
                    if not part:
                        continue
                    name, sep, value = part.partition("=")
                    if not sep or not name:
                        raise ApiError("string 'axes' must be "
                                       "'axis=value[,axis=value...]'")
                    parsed[name] = value
                axes = parsed
            if not isinstance(axes, dict):
                raise ApiError("'axes' must be an object or an "
                               "'axis=value,...' string")
            filters["axes"] = axes
        return filters

    @staticmethod
    def _parse_number(payload: dict, key: str) -> Optional[float]:
        """Optional numeric field, tolerant of query-string strings."""
        value = payload.get(key)
        if value is None:
            return None
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ApiError(f"'{key}' must be a number") from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ApiError(f"'{key}' must be a number")
        return float(value)

    @staticmethod
    def _parse_metrics(payload: dict) -> Optional[List[str]]:
        metrics = payload.get("metrics")
        if metrics is None:
            return None
        if isinstance(metrics, str):
            metrics = [m.strip() for m in metrics.split(",") if m.strip()]
        if not isinstance(metrics, list) \
                or not all(isinstance(m, str) and m for m in metrics):
            raise ApiError("'metrics' must be a list of metric names "
                           "(or a comma-separated string)")
        return metrics or None

    def warehouse_query(self, payload: dict) -> dict:
        """``/warehouse/query``: filtered rows + shared metric summaries."""
        filters = self._warehouse_filters(payload)
        since = self._parse_number(payload, "since")
        until = self._parse_number(payload, "until")
        metrics = self._parse_metrics(payload)
        if metrics is not None:
            filters["metrics"] = metrics
        limit = payload.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except (TypeError, ValueError):
                raise ApiError("'limit' must be an integer") from None
            if limit < 0:
                raise ApiError("'limit' must be >= 0")
        try:
            out = self.warehouse.query(since=since, until=until,
                                       limit=limit, **filters)
        except (WarehouseError, MetricError) as exc:
            raise ApiError(str(exc)) from exc
        out["success"] = True
        out["protocolVersion"] = PROTOCOL_VERSION
        return out

    def warehouse_pareto(self, payload: dict) -> dict:
        """``/warehouse/pareto``: direction-aware frontier over (x, y)."""
        filters = self._warehouse_filters(payload)
        x = payload.get("x", "cycles")
        y = payload.get("y", "energy")
        if not isinstance(x, str) or not isinstance(y, str):
            raise ApiError("'x' and 'y' must be metric name strings")
        try:
            out = self.warehouse.pareto(x=x, y=y, **filters)
        except (WarehouseError, MetricError) as exc:
            raise ApiError(str(exc)) from exc
        out["success"] = True
        out["protocolVersion"] = PROTOCOL_VERSION
        return out

    def warehouse_regressions(self, payload: dict) -> dict:
        """``/warehouse/regressions``: sentinel diff vs the baseline.

        409 until a baseline sweep is pinned — the one status clients
        (e.g. the ``--follow`` warning) treat as "sentinel not armed"."""
        sweep = payload.get("sweep") or payload.get("sweepId")
        if sweep is not None and (not isinstance(sweep, str) or not sweep):
            raise ApiError("'sweep' must be a non-empty string")
        kwargs: dict = {}
        tolerance = self._parse_number(payload, "tolerance")
        if tolerance is not None:
            kwargs["tolerance"] = tolerance
        metrics = self._parse_metrics(payload)
        if metrics is not None:
            kwargs["metrics"] = metrics
        try:
            out = self.warehouse.regressions(sweep=sweep, **kwargs)
        except BaselineMissing as exc:
            raise ApiError(str(exc), status=409) from exc
        except KeyError:
            raise ApiError(f"unknown sweep '{sweep}' (not ingested)",
                           status=404) from None
        except (WarehouseError, MetricError) as exc:
            raise ApiError(str(exc)) from exc
        out["success"] = True
        out["protocolVersion"] = PROTOCOL_VERSION
        return out

    def warehouse_baseline(self, payload: dict) -> dict:
        """``POST /warehouse/baseline``: pin the regression baseline."""
        sweep_id = payload.get("sweepId") or payload.get("sweep")
        if not isinstance(sweep_id, str) or not sweep_id:
            raise ApiError("'sweepId' (an ingested sweep id) is required")
        try:
            out = self.warehouse.set_baseline(sweep_id)
        except KeyError:
            raise ApiError(f"unknown sweep '{sweep_id}' (the warehouse "
                           f"only pins ingested sweeps)",
                           status=404) from None
        out["success"] = True
        out["protocolVersion"] = PROTOCOL_VERSION
        return out

    # -- fleet registry (protocol v5) -----------------------------------
    def fleet_register(self, payload: dict) -> dict:
        """Worker registration/heartbeat: the worker announces the URL it
        is reachable at, its capacity, and (optionally) its artifact-cache
        stats; re-posting keeps the registration alive (TTL)."""
        url = payload.get("url")
        if not isinstance(url, str) or not url:
            raise ApiError("'url' (worker host:port as reachable from "
                           "this server) is required")
        capacity = payload.get("capacity", 1)
        cache_stats = payload.get("cache")
        if cache_stats is not None and not isinstance(cache_stats, dict):
            raise ApiError("'cache' must be an object (worker cache stats)")
        try:
            ack = self.fleet.register(url, capacity=capacity,
                                      cache_stats=cache_stats)
        except ValueError as exc:
            raise ApiError(str(exc)) from exc
        ack["success"] = True
        ack["protocolVersion"] = PROTOCOL_VERSION
        return ack

    def fleet_status(self, _payload: dict) -> dict:
        return {"success": True, "protocolVersion": PROTOCOL_VERSION,
                "fleet": self.fleet.snapshot()}

    # -- distributed sweep worker (protocol v4/v5) ----------------------
    def worker_execute(self, payload: dict) -> dict:
        """Execute one planned sweep job and return its outcome.

        The unit the :class:`repro.explore.backend.RemoteBackend` fans
        out.  The body's ``payload`` is one self-contained job object as
        produced by ``repro.explore.plan``:

        ========================  =========================================
        field                     meaning
        ========================  =========================================
        ``program``               program spec: ``source`` assembly or
                                  ``c`` + ``optimizeLevel``, plus
                                  ``entry``/``memory`` (a RemoteBackend
                                  always sends ``source``: its dispatcher
                                  compiled the C once)
        ``config``                resolved architecture JSON
        ``collect``               ``"full"`` embeds the statistics page
        ``maxCycles``             per-job cycle budget override
        ``optimizeLevel``         job-level C opt-level override (axes)
        ``entry``                 job-level entry-point override (axes)
        ``trace``                 trace context (``traceId``/``parentId``)
        ========================  =========================================

        The reply mirrors a pool
        :class:`repro.explore.pool.JobResult` — ``ok`` with the
        deterministic record ``value``, or ``ok: false`` with the same
        ``TypeName: message`` error string every other backend produces,
        so failure records stay byte-identical across backends.  Jobs
        run on the connection thread (the dispatching backend bounds its
        in-flight window client-side); per-job setup hits this server's
        in-memory artifact cache, so repeated-program grids assemble
        (and, sent ``c``, compile) each program once per worker.

        A body with a ``cancelId`` makes the job cooperatively
        cancellable: the id is registered while the job runs, and a
        ``POST /worker/cancel`` for it fires a token the simulation
        checks every ``DEFAULT_CANCEL_STRIDE`` cycles — the job then stops
        within one stride and replies ``kind="cancelled"`` instead of
        burning the rest of its cycle budget (the v4 known-limitation
        this closes).  A cancel that arrives *before* the execute
        request is remembered and honored on the first stride check.
        """
        job = payload.get("payload")
        if not isinstance(job, dict):
            raise ApiError("'payload' (one planned sweep-job object, see "
                           "repro.explore.plan) is required")
        cancel_id = payload.get("cancelId")
        if cancel_id is not None and not isinstance(cancel_id, str):
            raise ApiError("'cancelId' must be a string")
        from repro.explore.runner import JobCancelled, execute_payload
        token = self.cancels.create(cancel_id) if cancel_id else None
        tracer = None
        context = job.get("trace")
        if isinstance(context, dict) and context.get("traceId"):
            from repro.obs.trace import JobTracer
            tracer = JobTracer(str(context["traceId"]),
                               str(context.get("parentId",
                                               context["traceId"])))
        started = time.monotonic()
        out = {"success": True, "protocolVersion": PROTOCOL_VERSION}
        kind = "ok"
        try:
            out["ok"] = True
            out["value"] = execute_payload(job, cache=self.artifacts,
                                           cancel=token, tracer=tracer)
        except JobCancelled:
            out["ok"] = False
            out["kind"] = kind = "cancelled"
            out["error"] = CANCELLED_MESSAGE
        except Exception as exc:  # noqa: BLE001 - job isolation, as the
            # serial loop / pool worker: report, never die
            out["ok"] = False
            out["kind"] = kind = "error"
            out["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if cancel_id:
                self.cancels.remove(cancel_id)
        elapsed = round(time.monotonic() - started, 6)
        out["elapsedS"] = elapsed
        out["artifactCache"] = self.artifacts.stats()
        if tracer is not None:
            # span times are relative to this worker's job start; the
            # dispatcher rebases them onto the sweep timeline at the
            # offset it sent the job, so clock domains never mix
            out["spans"] = tracer.export()
        _WORKER_JOBS.inc(kind=kind)
        _WORKER_EXECUTE_SECONDS.observe(elapsed)
        return out

    def worker_cancel(self, payload: dict) -> dict:
        """Fire the cancel token of an in-flight ``/worker/execute`` job.

        Idempotent and race-tolerant: an unknown id is recorded as a
        pre-cancel (the cancel may overtake its execute request on a
        separate connection) and reported with ``cancelled: false``."""
        cancel_id = payload.get("cancelId")
        if not isinstance(cancel_id, str) or not cancel_id:
            raise ApiError("'cancelId' (string) is required")
        hit = self.cancels.cancel(
            cancel_id, reason=str(payload.get("reason", "cancelled")))
        return {"success": True, "protocolVersion": PROTOCOL_VERSION,
                "cancelled": hit}

    # -- telemetry plane (protocol v7) ----------------------------------
    def _set_gauges(self) -> None:
        """Refresh scrape-time gauges from the live subsystems.

        Gauges are point-in-time reads of state the server already owns
        (session table, explore queue, fleet registry); sampling them at
        scrape time keeps the hot paths free of gauge writes entirely."""
        _SESSIONS_LIVE.set(len(self.sessions))
        depth = self.explore.queue_depth()
        _SWEEP_QUEUE.set(depth["queued"], state="queued")
        _SWEEP_QUEUE.set(depth["running"], state="running")
        snap = self.fleet.snapshot()
        _FLEET_WORKERS.set(snap["live"], liveness="live")
        _FLEET_WORKERS.set(snap["known"], liveness="known")
        # clear-then-set: a forgotten/expired worker must not linger as
        # a stale per-url series on the next scrape
        _HEARTBEAT_AGE.clear()
        for row in snap["rows"]:
            _HEARTBEAT_AGE.set(row["lastHeartbeatAgeS"], url=row["url"])

    def metrics(self, payload: dict):
        """``GET /metrics``: full registry scrape — JSON, or the
        Prometheus text exposition (a ``str``, served as ``text/plain``)
        for ``?format=prometheus``."""
        self._set_gauges()
        scrape = default_registry().scrape()
        if payload.get("format") == "prometheus":
            return render_prometheus(scrape)
        return {"success": True, "protocolVersion": PROTOCOL_VERSION,
                "metrics": scrape}

    def trace(self, payload: dict) -> dict:
        """``GET /trace/<sweepId>``: one sweep's span tree.

        Served for queued/running sweeps too — the root and queueWait
        spans are synthesized at read time, so a mid-flight tree is
        already connected (it just grows more job spans on later polls).
        """
        out = self._sweep(payload).trace_json()
        out["success"] = True
        out["protocolVersion"] = PROTOCOL_VERSION
        return out

    def worker_status(self, _payload: dict) -> dict:
        """Worker health: artifact-cache hit/miss/size stats (memory and
        disk tiers, GC evictions) plus the in-flight cancellable-job
        gauge — one poll per fleet member keeps long-lived fleets
        observable."""
        return {"success": True, "protocolVersion": PROTOCOL_VERSION,
                "artifactCache": self.artifacts.stats(),
                "activeJobs": self.cancels.active(),
                "cancelStride": DEFAULT_CANCEL_STRIDE}


@dataclass(frozen=True)
class Route:
    """One served endpoint: one row of :data:`ROUTES`.

    ``methods`` is a method or a tuple of them (the first is the one
    ``/schema`` advertises).  ``param`` names a trailing path parameter
    (``/trace/<sweepId>``), handed to the handler in the payload.
    ``stream`` marks a chunked NDJSON reply: GET only, the handler returns
    an event iterator.  ``body``/``query``/``notes`` are the ``/schema``
    docs.  Every handler is called as ``handler(api, payload)``.
    """

    methods: Union[str, Tuple[str, ...]]
    path: str
    handler: Callable[[Api, dict], object]
    param: Optional[str] = None
    stream: bool = False
    body: Optional[dict] = None
    query: Optional[dict] = None
    notes: Optional[str] = None

    @property
    def method_list(self) -> Tuple[str, ...]:
        return (self.methods,) if isinstance(self.methods, str) \
            else self.methods

    def doc(self) -> dict:
        out = {"method": self.method_list[0],
               "path": self.path + (f"/<{self.param}>" if self.param
                                    else "")}
        out.update((key, getattr(self, key)) for key in
                   ("body", "query", "notes") if getattr(self, key))
        return out


#: the route set.  Dispatch (:meth:`Api.handle`), the request counter's
#: route labels, ``GET /schema`` and the protocol lint rule (which reads
#: this literal by AST: keep each entry a ``Route(method(s), path, ...)``
#: call with those two arguments positional) all derive from it.
ROUTES = (
    Route("POST", "/compile", Api.compile,
          body={"code": "C source", "optimizeLevel": "0..3"}),
    Route("POST", "/parseAsm", Api.parse_asm, body={"code": "assembly"}),
    Route("POST", "/simulate", Api.simulate,
          body={"code": "assembly", "config": "architecture JSON or preset",
                "entry": "label/address?", "memory": "[MemoryLocation]?",
                "maxCycles": "int?", "fullState": "bool?"}),
    Route("POST", "/session/new", Api.session_new,
          body={"code": "assembly", "config": "...", "entry": "...",
                "memory": "..."}),
    Route("POST", "/session/step", Api.session_step,
          body={"sessionId": "id",
                "cycles": "non-zero int (negative = backward), "
                          f"|cycles| <= {MAX_STEP_CYCLES}",
                "delta": "bool | 'encoded'? (serve a delta against the "
                         "last view)"}),
    Route("POST", "/session/state", Api.session_state,
          body={"sessionId": "id"}),
    Route("POST", "/session/seek", Api.session_seek,
          body={"sessionId": "id", "cycle": "int >= 0"}),
    Route("POST", "/session/memory", Api.session_memory,
          body={"sessionId": "id", "address": "int? (or 'symbol')",
                "symbol": "label/array name?", "size": "bytes?",
                "dtype": "word/float/... (typed values view)?",
                "sinceVersion": "int? (unchanged check)"}),
    Route("POST", "/session/close", Api.session_close,
          body={"sessionId": "id"}),
    Route("POST", "/explore/submit", Api.explore_submit,
          body={"spec": "sweep spec JSON (see repro.explore.spec)",
                "workers": "int? (0 = serial)",
                "backend": "serial/process/fleet? (default inferred "
                           "from workers; 'fleet' runs on registered "
                           "fleet workers)",
                "metric": "ranking metric? (default 'cycles')",
                "jobTimeoutS": "number? per-job wall-clock budget",
                "trace": "bool? (default true) collect the sweep's "
                         "span tree for GET /trace/<sweepId>"}),
    Route("POST", "/explore/status", Api.explore_status,
          body={"sweepId": "id"}),
    Route("POST", "/explore/result", Api.explore_result,
          body={"sweepId": "id", "metric": "ranking metric?"}),
    Route("POST", "/explore/cancel", Api.explore_cancel,
          body={"sweepId": "id", "reason": "string?"}),
    Route("POST", "/explore/events", Api.explore_events,
          body={"sweepId": "id", "fromSeq": "int? (default 0)"}),
    Route(("GET", "POST"), "/explore/stream", Api.explore_stream,
          stream=True,
          query={"sweepId": "id", "fromSeq": "int? (default 0)"},
          notes="chunked NDJSON progress events, ends after the "
                "terminal event (SimClient.explore_stream)"),
    Route("POST", "/fleet/register", Api.fleet_register,
          body={"url": "worker host:port (as reachable from this server)",
                "capacity": "int? advertised parallel-job capacity",
                "cache": "worker artifact-cache stats? "
                         "(surfaced on fleet health rows)"}),
    Route(("GET", "POST"), "/fleet/status", Api.fleet_status),
    Route("POST", "/worker/execute", Api.worker_execute,
          body={"payload": "one planned sweep-job payload "
                           "(see repro.explore.plan)",
                "cancelId": "string? cooperative-cancel handle "
                            "(fire it via /worker/cancel)"}),
    Route("POST", "/worker/cancel", Api.worker_cancel,
          body={"cancelId": "id from the matching /worker/execute",
                "reason": "string?"}),
    Route(("GET", "POST"), "/worker/status", Api.worker_status),
    Route(("GET", "POST"), "/warehouse/query", Api.warehouse_query,
          query={"sweep": "sweep id or name?", "program": "program name?",
                 "axes": "'axis=value,...'? (an object in a POST body)",
                 "since": "ingest-time lower bound (epoch seconds)?",
                 "until": "ingest-time upper bound?",
                 "metrics": "comma-separated summary metrics?",
                 "limit": "max rows returned?"},
          notes="cross-run result warehouse: filtered records plus "
                "min/p50/p90/max metric summaries (POST body works "
                "identically)"),
    Route(("GET", "POST"), "/warehouse/pareto", Api.warehouse_pareto,
          query={"x": "metric? (default 'cycles')",
                 "y": "metric? (default 'energy')",
                 "sweep": "sweep id or name?", "program": "program?",
                 "axes": "'axis=value,...'?"},
          notes="direction-aware Pareto frontier over any metric "
                "pair, with per-point dominated counts"),
    Route(("GET", "POST"), "/warehouse/regressions",
          Api.warehouse_regressions,
          query={"sweep": "diff one sweep? (default: every "
                          "non-baseline sweep)",
                 "tolerance": "relative worse-direction delta? "
                              "(default 0.05)",
                 "metrics": "comma-separated? "
                            "(default cycles,energy,area)"},
          notes="regression sentinel: configs matched by label are "
                "diffed against the pinned baseline sweep; 409 until "
                "one is pinned via POST /warehouse/baseline"),
    Route("POST", "/warehouse/baseline", Api.warehouse_baseline,
          body={"sweepId": "ingested sweep to pin as the regression "
                           "baseline"}),
    Route("GET", "/metrics", Api.metrics,
          query={"format": "'prometheus'? (HTTP layer; default JSON)"},
          notes="process-wide telemetry scrape: counters, gauges, "
                "histograms with nearest-rank summaries"),
    Route("GET", "/trace", Api.trace, param="sweepId",
          notes="one sweep's span tree (root sweep span, queueWait, "
                "per-job dispatch + worker compile/simulate/record), "
                "exportable as NDJSON via SimClient.trace"),
    Route("GET", "/schema", Api.schema),
    Route("GET", "/health", Api.health),
)

#: (method, path) -> route, the dispatch index over :data:`ROUTES`
_TABLE: Dict[Tuple[str, str], Route] = {
    (method, route.path): route
    for route in ROUTES for method in route.method_list}

SCHEMA = {
    "protocolVersion": PROTOCOL_VERSION,
    "snapshotSchema": SNAPSHOT_SCHEMA_VERSION,
    "endpoints": [route.doc() for route in ROUTES],
}


def _match(method: str, path: str) -> Tuple[Optional[Route], str]:
    """The route serving ``method path`` plus its path-parameter value:
    an exact table hit, else a ``param`` route owning the first path
    segment (``/trace/<sweepId>``); ``(None, "")`` when nothing serves
    it."""
    route = _TABLE.get((method, path))
    if route is not None:
        return route, ""
    cut = path.find("/", 1)
    if cut > 0:
        route = _TABLE.get((method, path[:cut]))
        if route is not None and route.param:
            return route, path[cut + 1:]
    return None, ""
