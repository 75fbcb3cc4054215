"""Metric definitions (from ``BENCHMARK.json``) and the arithmetic on them.

``BENCHMARK.json`` at the checkout root is the one list of metric names,
units and directions; a workload computes values by name and
:func:`result_line` refuses to print a result that misses one.

Per-layer times are reported as *shares*: a layer's self time summed over
the traced operations, divided by the operations' root span (the server's
``httpd.request`` for a request, one in-process job for the sweep), with
``trace.op_ms`` giving that root in milliseconds.  A layer a workload
never enters then reads as a share of 0, not as a time of 0 ms.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

from repro.obs.metrics import nearest_rank

from .spans import durations

#: spans whose self time is reported as ``<span>_share`` of the root
LAYERS = (
    "httpd.read", "httpd.write", "httpd.gzip", "state.encode",
    "state.snapshot", "protocol.handle", "pool.queue_wait",
    "session.create", "session.snapshot", "simulation.build",
    "simulation.step", "simulation.step_back", "simulation.seek",
    "simulation.run", "asm.assemble", "compiler.parse", "compiler.sema",
    "compiler.irgen", "compiler.opt", "compiler.codegen",
    "artifacts.compile", "runner.build", "runner.simulate", "runner.record",
)

#: spans that build or serialize response state (the paper's JSON share)
JSON_LAYERS = ("state.snapshot", "session.snapshot", "state.encode")

#: client-side spans reported as ``<span>_share`` of the client operation
CLIENT_LAYERS = ("client.decode", "client.apply_delta")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the repository's one percentile rule)."""
    if not values:
        raise ValueError("no samples")
    return nearest_rank(sorted(values), q)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _sums(records: List[dict]) -> tuple:
    """Summed ``(total, self)`` seconds per span name over *records*."""
    totals: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    for record in records:
        total, own = durations(record)
        for name, value in total.items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in own.items():
            selfs[name] = selfs.get(name, 0.0) + value
    return totals, selfs


def model_metrics(rows: List[dict]) -> Dict[str, float]:
    """Simulated counts over result rows ``{cycles, committed, ipc,
    hit, accuracy}``: summed counts, averaged ratios.  Deterministic for
    a seed; a simulator-speed change must leave them identical."""
    return {
        "model.cycles": float(sum(r["cycles"] for r in rows)),
        "model.committed": float(sum(r["committed"] for r in rows)),
        "model.ipc": mean(r["ipc"] for r in rows),
        "model.l1_hit_ratio": mean(r["hit"] or 0.0 for r in rows),
        "model.branch_accuracy": mean(r["accuracy"] for r in rows),
    }


def layer_metrics(records: List[dict], root: str) -> Dict[str, float]:
    """Per-layer metrics of traced operations whose root span is *root*.

    Every ``<layer>_share`` is that layer's self time over the root's
    total, so the shares and the root's own self time add up to one;
    ``trace.coverage_ratio`` is the part the named layers explain."""
    totals, selfs = _sums(records)
    whole = totals.get(root, 0.0)
    out = {"trace.op_ms": 1e3 * ratio(whole, len(records))}
    for layer in LAYERS:
        out[f"{layer}_share"] = ratio(selfs.get(layer, 0.0), whole)
    out["state.json_share"] = ratio(
        sum(selfs.get(name, 0.0) for name in JSON_LAYERS), whole)
    out["trace.coverage_ratio"] = 1.0 - ratio(selfs.get(root, 0.0), whole)
    counters: Dict[str, float] = {}
    for record in records:
        for key, value in record.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
    out["httpd.gzip_ratio"] = ratio(counters.get("gzip_out", 0.0),
                                    counters.get("gzip_in", 0.0))
    out["state.response_bytes"] = ratio(counters.get("response_chars", 0.0),
                                        len(records))
    return out


def self_table(records: List[dict], root: str) -> List[tuple]:
    """``(span, self ms per record, share of root)`` rows, largest first."""
    totals, selfs = _sums(records)
    rows = [(name, 1e3 * ratio(value, len(records)),
             ratio(value, totals.get(root, 0.0)))
            for name, value in selfs.items()]
    return sorted(rows, key=lambda row: -row[1])


def route_table(records: List[dict]) -> List[tuple]:
    """``(route, calls, mean Api.handle ms)`` rows of server records."""
    walls: Dict[str, List[float]] = {}
    for record in records:
        total, _own = durations(record)
        if "protocol.handle" in total:
            walls.setdefault(record.get("route", "?"), []).append(
                total["protocol.handle"])
    return [(route, len(values), 1e3 * mean(values))
            for route, values in sorted(walls.items())]


def join(client_records: List[dict],
         server_records: List[dict]) -> List[tuple]:
    """Pair client and server records of the same request by (client
    port, sequence number on that connection)."""
    index = {(r.get("port"), r.get("seq")): r for r in server_records}
    pairs = []
    for record in client_records:
        match = index.get((record.get("port"), record.get("seq")))
        if match is not None:
            pairs.append((record, match))
    return pairs


def transport_waits(pairs: List[tuple]) -> List[float]:
    """Per request: client round trip - client decode - server request
    wall (seconds).  What is left is kernel and loopback time, HTTP
    header handling outside ``do_POST``, and any TCP stall in between."""
    waits = []
    for client, server in pairs:
        total, _own = durations(client)
        server_total, _ = durations(server)
        waits.append(total.get("client.rtt", 0.0)
                     - total.get("client.decode", 0.0)
                     - server_total.get("httpd.request", 0.0))
    return waits


def client_metrics(pairs: List[tuple]) -> Dict[str, float]:
    """Client-side shares of the load generator's operation time
    (``client.op``: the request plus the actor's own work on the reply)."""
    totals, _selfs = _sums([client for client, _server in pairs])
    whole = totals.get("client.op", 0.0)
    out = {"transport.wait_share": ratio(sum(transport_waits(pairs)), whole)}
    for layer in CLIENT_LAYERS:
        out[f"{layer}_share"] = ratio(totals.get(layer, 0.0), whole)
    return out


def result_line(spec: dict, kind: str, values: Dict[str, float],
                correct: bool, attempted: int, failed: int) -> dict:
    """The final JSON object: exactly the metrics *kind* (``end_to_end``
    or ``per_layer``) of ``BENCHMARK.json`` lists, with their units."""
    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"workload computed no value for metric {name}")
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}

