"""Load generation: open and closed loops over at most two connections.

The load comes from this process alone: one thread per keep-alive
``SimClient`` connection (``nproc`` = 2 on the reference host, so two
connections and two threads).  Each session slot is pinned to one
connection, which keeps one session's requests in order.

An *actor* is one session slot's state machine: ``actor.act(client)``
sends exactly one request, checks the response, and returns the
operation's name.  A raised exception is a failed operation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.sim.state as sim_state

from .spans import Recorder

#: the load generator's connection count (and thread count)
CONNECTIONS = 2


@dataclass
class Sample:
    """One operation as the client saw it."""

    op: str
    ok: bool
    #: inside the measured window (warm-up operations are not)
    measured: bool
    #: milliseconds from the operation's due time to its completion
    latency_ms: float
    #: how late the generator itself sent it (oversleep, not backlog)
    late_ms: float = 0.0
    error: str = ""


@dataclass
class LoopResult:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    def measured(self, ops: Sequence[str]) -> List[Sample]:
        """Measured, successful samples of the given operations."""
        return [s for s in self.samples
                if s.measured and s.ok and s.op in ops]


class ClientTracer:
    """Client-side spans for traced phases.

    ``SimClient.request`` is the round-trip span (``client.rtt``) and its
    response gunzip + JSON decode are ``client.decode``; each record is
    tagged with the connection's local port and the request's sequence
    number on it, matching the server bootstrap's tags.  Applying a state
    delta is ``client.apply_delta`` (actors call it through the
    ``repro.sim.state`` module, so the wrapper sees it)."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._seq: Dict[Tuple[int, int], int] = {}

    def install(self) -> None:
        import json
        import repro.server.client as client_module
        recorder = self.recorder
        original = client_module.SimClient.request
        tracer = self

        def request(client, *args, **kwargs):
            try:
                with recorder.span("client.rtt"):
                    return original(client, *args, **kwargs)
            finally:
                # every request on the connection advances its sequence,
                # traced or not, exactly as the server counts them
                sock = getattr(getattr(client, "_conn", None), "sock", None)
                if sock is not None:
                    port = sock.getsockname()[1]
                    key = (id(client), port)
                    seq = tracer._seq.get(key, -1) + 1
                    tracer._seq[key] = seq
                    record = recorder.current()
                    if record is not None:
                        record["port"], record["seq"] = port, seq

        class JsonShim:
            dumps = staticmethod(json.dumps)

            @staticmethod
            def loads(text):
                with recorder.span("client.decode"):
                    return json.loads(text)

        recorder.replace(client_module.SimClient, "request", request)
        recorder.replace(client_module, "json", JsonShim())
        recorder.replace(client_module, "gzip",
                         recorder.gzip_shim("client.decode"))
        recorder.wrap(sim_state, "apply_snapshot_delta", "client.apply_delta")

    def restore(self) -> None:
        self.recorder.restore()


def _run_threads(targets: List[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _act(actor, client, tracer: Optional[ClientTracer],
         measured: bool) -> Tuple[str, bool, str]:
    try:
        if tracer is None:
            return actor.act(client), True, ""
        with tracer.recorder.record("client.op", measured=measured):
            return actor.act(client), True, ""
    except Exception as exc:  # noqa: BLE001 - a failed op is data
        return getattr(actor, "pending", "?"), False, \
            f"{type(exc).__name__}: {exc}"


def open_loop(clients: Sequence, actors: Sequence, arrivals,
              measure_from: float,
              tracer: Optional[ClientTracer] = None) -> LoopResult:
    """Send every ``(due, slot)`` arrival on schedule, regardless of how
    the previous one went (independent users).

    Latency is timed from the due time, so a stalled request also charges
    the wait it imposes on the requests queued behind it on its
    connection.  Arrivals due before *measure_from* are warm-up: sent,
    checked, not sampled."""
    result = LoopResult()
    lock = threading.Lock()
    per_conn: List[List[Tuple[float, int]]] = [[] for _ in clients]
    for due, slot in arrivals:
        per_conn[slot % len(clients)].append((due, slot))
    origin = time.perf_counter() + 0.05

    def drive(index: int) -> None:
        client, local, prev_done = clients[index], [], origin
        for due, slot in per_conn[index]:
            target = origin + due
            pause = target - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            measured = due >= measure_from
            op, ok, error = _act(actors[slot], client, tracer, measured)
            done = time.perf_counter()
            local.append(Sample(op, ok, measured,
                                (done - target) * 1e3,
                                (sent - max(target, prev_done)) * 1e3,
                                error))
            prev_done = done
        with lock:
            result.samples.extend(local)

    started = time.perf_counter()
    _run_threads([lambda i=i: drive(i) for i in range(len(clients))])
    result.wall_s = time.perf_counter() - started
    return result


def closed_loop(clients: Sequence, actor_groups: Sequence[Sequence],
                seconds: float, warmup_s: float = 0.0,
                tracer: Optional[ClientTracer] = None) -> LoopResult:
    """Each connection sends its next operation as soon as the previous
    one completes, cycling over its own actors, for *seconds* after
    *warmup_s*.  ``wall_s`` runs from the end of the warm-up to the last
    completion of an operation sent before the end."""
    result = LoopResult()
    lock = threading.Lock()
    start = time.perf_counter()
    begin, end = start + warmup_s, start + warmup_s + seconds
    last_done = [begin]

    def drive(index: int) -> None:
        client, actors, local = clients[index], actor_groups[index], []
        turn, done = 0, begin
        while True:
            sent = time.perf_counter()
            if sent >= end:
                break
            measured = sent >= begin
            op, ok, error = _act(actors[turn % len(actors)], client, tracer,
                                 measured)
            turn += 1
            done = time.perf_counter()
            local.append(Sample(op, ok, measured, (done - sent) * 1e3,
                                0.0, error))
        with lock:
            result.samples.extend(local)
            last_done[0] = max(last_done[0], done)

    _run_threads([lambda i=i: drive(i) for i in range(len(clients))])
    result.wall_s = max(1e-9, last_done[0] - begin)
    return result
