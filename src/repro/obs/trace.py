"""Trace spans for distributed sweeps: one sweep = one span tree.

Wire shape — every span is a plain JSON dict:

    {"traceId": <sweep id>, "spanId": str, "parentId": str | None,
     "name": str, "startS": float, "endS": float, "tags": dict}

Times are **relative to the sweep's submit instant** (seconds).  The
frontend owns the tree: it emits the root ``sweep`` span, a
``queueWait`` child, and one ``job`` span per grid point from its own
dispatch/finish bookkeeping.  Workers (and the serial/remote execution
paths) carry a :class:`JobTracer` whose spans are relative to *tracer
creation*; the frontend re-bases them onto the sweep timeline with
:func:`rebase` using the job's dispatch offset.  Cross-host clock skew
therefore shows up as at most a small shift of a job's interior spans,
never as a disconnected tree.

Clocks are injected (``time_fn=``) so tests drive them manually; the
default is ``time.monotonic``.  This module is never imported from
``explore/runner.py``'s deterministic closure — tracers cross into
``execute_payload`` duck-typed — so the wall-clock reads here are
outside the byte-identical-records contract by construction.
"""

from __future__ import annotations

# wall-clock justification: span durations are host-side telemetry and
# never enter sweep records; this module is outside the runner's
# determinism closure (see module docstring).
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "JobTracer",
    "make_span",
    "rebase",
    "span_tree",
    "validate_tree",
]


def make_span(trace_id: str, span_id: str, parent_id: Optional[str],
              name: str, start_s: float, end_s: float,
              tags: Optional[dict] = None) -> dict:
    """Build one wire-shape span dict (the only span constructor —
    keeps every producer's field set identical)."""
    return {
        "traceId": trace_id,
        "spanId": span_id,
        "parentId": parent_id,
        "name": name,
        "startS": round(start_s, 6),
        "endS": round(end_s, 6),
        "tags": dict(tags) if tags else {},
    }


class JobTracer:
    """Span collector for one job's execution (compile, simulate,
    record).  Span times are relative to tracer creation; the sweep
    frontend re-bases them onto the sweep timeline.

    Duck-typed contract with ``execute_payload``: anything with a
    ``span(name, **tags)`` context manager works, so the runner never
    has to import this module."""

    __slots__ = ("trace_id", "parent_id", "spans", "_time", "_t0", "_seq")

    def __init__(self, trace_id: str, parent_id: str,
                 time_fn: Callable[[], float] = time.monotonic):
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.spans: List[dict] = []
        self._time = time_fn
        self._t0 = time_fn()
        self._seq = 0

    @contextmanager
    def span(self, name: str, **tags):
        self._seq += 1
        span_id = f"{self.parent_id}.s{self._seq}"
        start = self._time() - self._t0
        try:
            yield
        finally:
            self.spans.append(make_span(
                self.trace_id, span_id, self.parent_id, name,
                start, self._time() - self._t0, tags))

    def export(self) -> List[dict]:
        """Spans recorded so far (relative times, oldest first)."""
        return list(self.spans)


def rebase(spans: List[dict], offset_s: float) -> List[dict]:
    """Shift tracer-relative spans onto the sweep timeline by adding
    the job's dispatch offset to every start/end."""
    out = []
    for span in spans:
        shifted = dict(span)
        shifted["startS"] = round(span["startS"] + offset_s, 6)
        shifted["endS"] = round(span["endS"] + offset_s, 6)
        out.append(shifted)
    return out


def span_tree(spans: List[dict]) -> Tuple[List[dict], Dict[str, List[dict]]]:
    """Arrange a flat span list as ``(roots, children_by_parent_id)``,
    each sibling list ordered by start time (then span id, for a total
    deterministic order)."""
    by_id = {span["spanId"]: span for span in spans}
    roots: List[dict] = []
    children: Dict[str, List[dict]] = {}
    for span in sorted(spans, key=lambda s: (s["startS"], s["spanId"])):
        parent = span.get("parentId")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    return roots, children


def validate_tree(spans: List[dict]) -> List[str]:
    """Structural checks for a sweep's span tree; returns a list of
    problem strings (empty = connected, single-rooted, well-formed).
    The server tests run this against ``GET /trace/<sweepId>``."""
    problems: List[str] = []
    if not spans:
        return ["no spans"]
    trace_ids = sorted({span["traceId"] for span in spans})
    if len(trace_ids) != 1:
        problems.append(f"multiple traceIds: {trace_ids}")
    ids = [span["spanId"] for span in spans]
    if len(ids) != len(set(ids)):
        problems.append("duplicate spanIds")
    roots, _children = span_tree(spans)
    if len(roots) != 1:
        problems.append(
            f"expected a single root, got {[s['spanId'] for s in roots]}")
    for span in spans:
        if span["endS"] < span["startS"]:
            problems.append(f"span {span['spanId']} ends before it starts")
    return problems
