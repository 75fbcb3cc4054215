"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The hot-path contract is **lock-free increment**: every writing thread
owns a private shard (a ``threading.local`` slot holding plain dicts)
that only it mutates, so ``Counter.inc`` / ``Histogram.observe`` are a
dict update away — no lock, no contention, no syscalls.  The registry
lock is taken only to hand a thread its shard (once per thread) and to
merge shards on scrape.  A thread that finds the shard of a thread that
has ended takes it over instead of adding one, so the shard list stays as
long as the most threads ever writing at once (a server that runs each
connection on a new thread does not grow it per connection).  Shards are
never reset, so merged counter values are monotone for the life of the
process even across scrapes and thread deaths.

This module is **determinism-clean by construction**: it imports no
clock, reads no environment, and uses no process-global randomness —
which is what lets record-producing code (the artifact cache inside
``explore/runner.py``'s closure) bump counters without violating the
byte-identical-records contract.  ``repro-sim lint``'s DT rules scan it
as part of the runner's closure; keep it that way.

It is also the home of the canonical :func:`nearest_rank` percentile
rule and the :func:`summarize` distribution summary every layer shares
(``/explore/status`` wall-time payloads, the load test's Table I
latency columns, histogram scrape summaries), so no two endpoints can
disagree about the same distribution.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "nearest_rank",
    "summarize",
    "render_prometheus",
    "default_registry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: fixed bucket upper bounds (seconds) for wall-time histograms —
#: sub-millisecond protocol work through minutes-long sweep jobs
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: per-(cell, shard) sample ring feeding percentile summaries; bounds
#: scrape memory while keeping p50/p90 exact over the recent window
SAMPLE_RING = 512


def nearest_rank(ordered: List[float], quantile: float) -> float:
    """Nearest-rank percentile over an ascending-sorted list.

    The textbook rule — ``ceil(q * n)``-th smallest — so p50 of
    ``[1, 2, 3, 4, 5]`` is the 3rd element (the median), where a
    ``round()``-based index would land on the 2nd via banker's rounding.
    The one percentile rule of the whole stack: ``/explore/status``,
    the load test, and histogram summaries all route through here."""
    index = max(0, math.ceil(quantile * len(ordered)) - 1)
    return ordered[index]


def summarize(values: Sequence[float]) -> Optional[dict]:
    """Shared distribution summary: ``{"min", "p50", "p90", "max",
    "count"}`` by :func:`nearest_rank`, or ``None`` for no data."""
    if not values:
        return None
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p50": nearest_rank(ordered, 0.5),
        "p90": nearest_rank(ordered, 0.9),
        "max": ordered[-1],
        "count": len(ordered),
    }


def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    """Canonical (sorted, stringified) cell key for a label set."""
    if not labels:
        return ()
    return tuple((key, str(labels[key])) for key in sorted(labels))


class _HistCell:
    """One thread's view of one histogram label-cell."""

    __slots__ = ("buckets", "total", "count", "samples")

    def __init__(self, bucket_count: int):
        self.buckets = [0] * bucket_count   # per-bound, last is +Inf
        self.total = 0.0
        self.count = 0
        self.samples: deque = deque(maxlen=SAMPLE_RING)


class _Shard:
    """Per-thread metric storage.  Only the owning thread writes; the
    scrape path reads via atomic ``list(dict.items())`` copies."""

    __slots__ = ("counts", "hists", "owner")

    def __init__(self, owner: threading.Thread) -> None:
        self.counts: Dict[tuple, float] = {}
        self.hists: Dict[tuple, _HistCell] = {}
        self.owner = owner


class Counter:
    """Monotone counter family (optionally labelled)."""

    __slots__ = ("name", "help", "_registry")

    def __init__(self, name: str, help_text: str,
                 registry: "MetricsRegistry"):
        self.name = name
        self.help = help_text
        self._registry = registry

    def inc(self, amount: float = 1, **labels) -> None:
        shard = self._registry._shard()
        key = (self.name, _label_key(labels))
        shard.counts[key] = shard.counts.get(key, 0) + amount


class Gauge:
    """Point-in-time value family, set (not incremented) on scrape or at
    event sites; stored registry-side under the lock — gauges are
    low-frequency by design, the lock-free path is for counters."""

    __slots__ = ("name", "help", "_registry")

    def __init__(self, name: str, help_text: str,
                 registry: "MetricsRegistry"):
        self.name = name
        self.help = help_text
        self._registry = registry

    def set(self, value: float, **labels) -> None:
        self._registry._set_gauge(self.name, _label_key(labels), value)

    def clear(self) -> None:
        """Drop every cell of this gauge (stale labelled series — e.g.
        a fleet worker that left — would otherwise linger forever)."""
        self._registry._clear_gauge(self.name)


class Histogram:
    """Fixed-bucket histogram family with a bounded sample ring per
    thread for exact :func:`nearest_rank` summaries."""

    __slots__ = ("name", "help", "bounds", "_registry")

    def __init__(self, name: str, help_text: str,
                 registry: "MetricsRegistry",
                 buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS):
        self.name = name
        self.help = help_text
        self.bounds = tuple(sorted(buckets))
        self._registry = registry

    def observe(self, value: float, **labels) -> None:
        shard = self._registry._shard()
        key = (self.name, _label_key(labels))
        cell = shard.hists.get(key)
        if cell is None:
            cell = shard.hists[key] = _HistCell(len(self.bounds) + 1)
        cell.buckets[bisect.bisect_left(self.bounds, value)] += 1
        cell.total += value
        cell.count += 1
        cell.samples.append(value)


class MetricsRegistry:
    """Family registry + scrape-time shard merger.

    Family registration is idempotent by name (instrumented modules may
    be imported in any order and re-registered across many server
    instances in one process); re-registering a name as a different
    type is a programming error and raises."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shards: List[_Shard] = []
        self._families: Dict[str, object] = {}
        self._kinds: Dict[str, str] = {}
        self._gauges: Dict[tuple, float] = {}

    # -- hot path ------------------------------------------------------
    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._local.shard = self._adopt_shard()
        return shard

    def _adopt_shard(self) -> _Shard:
        """The calling thread's shard: one whose owner has ended (its
        counts stay and keep merging), else a new one."""
        thread = threading.current_thread()
        with self._lock:
            for shard in self._shards:
                if not shard.owner.is_alive():
                    shard.owner = thread
                    return shard
            shard = _Shard(thread)
            self._shards.append(shard)
            return shard

    # -- registration --------------------------------------------------
    def _register(self, kind: str, name: str, family: object):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if self._kinds[name] != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{self._kinds[name]}, not {kind}")
                return existing
            self._families[name] = family
            self._kinds[name] = kind
            return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register("counter", name,
                              Counter(name, help_text, self))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register("gauge", name, Gauge(name, help_text, self))

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                  ) -> Histogram:
        return self._register("histogram", name,
                              Histogram(name, help_text, self, buckets))

    # -- gauges --------------------------------------------------------
    def _set_gauge(self, name: str, label_key: tuple,
                   value: float) -> None:
        with self._lock:
            self._gauges[(name, label_key)] = value

    def _clear_gauge(self, name: str) -> None:
        with self._lock:
            for key in [k for k in self._gauges if k[0] == name]:
                del self._gauges[key]

    # -- scrape --------------------------------------------------------
    def scrape(self) -> List[dict]:
        """Merge every shard into one JSON-shaped family list, sorted by
        family name (stable across scrapes for tests and diffing)."""
        with self._lock:
            families = sorted(self._families.items())
            kinds = dict(self._kinds)
            shards = list(self._shards)
            gauges = dict(self._gauges)

        counts: Dict[tuple, float] = {}
        hist_cells: Dict[tuple, list] = {}
        for shard in shards:
            # list(...) snapshots the dict in one C call, so a writer
            # inserting concurrently cannot break the iteration
            for key, value in list(shard.counts.items()):
                counts[key] = counts.get(key, 0) + value
            for key, cell in list(shard.hists.items()):
                hist_cells.setdefault(key, []).append(cell)

        out: List[dict] = []
        for name, family in families:
            kind = kinds[name]
            entry = {"name": name, "type": kind, "help": family.help,
                     "values": []}
            if kind == "counter":
                cells = sorted(key[1] for key in counts if key[0] == name)
                for label_key in cells:
                    entry["values"].append(
                        {"labels": dict(label_key),
                         "value": counts[(name, label_key)]})
            elif kind == "gauge":
                cells = sorted(key[1] for key in gauges if key[0] == name)
                for label_key in cells:
                    entry["values"].append(
                        {"labels": dict(label_key),
                         "value": gauges[(name, label_key)]})
            else:
                cells = sorted({key[1] for key in hist_cells
                                if key[0] == name})
                for label_key in cells:
                    entry["values"].append(self._merge_hist(
                        family, hist_cells[(name, label_key)], label_key))
            out.append(entry)
        return out

    @staticmethod
    def _merge_hist(family: Histogram, cells: List[_HistCell],
                    label_key: tuple) -> dict:
        merged = [0] * (len(family.bounds) + 1)
        total = 0.0
        count = 0
        samples: List[float] = []
        for cell in cells:
            for index, bucket in enumerate(cell.buckets):
                merged[index] += bucket
            total += cell.total
            count += cell.count
            samples.extend(cell.samples)
        cumulative = []
        running = 0
        for bound, bucket in zip(family.bounds, merged):
            running += bucket
            cumulative.append({"le": bound, "count": running})
        cumulative.append({"le": "+Inf", "count": count})
        return {"labels": dict(label_key), "buckets": cumulative,
                "sum": total, "count": count,
                "summary": summarize(samples)}


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _escape_help(text: str) -> str:
    """``# HELP`` escaping per the exposition format (v0.0.4):
    backslash and newline only."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: object) -> str:
    """Label-value escaping: backslash, double quote, newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    cells = ",".join(f'{key}="{_escape_label_value(merged[key])}"'
                     for key in sorted(merged))
    return "{" + cells + "}"


def render_prometheus(scrape: List[dict]) -> str:
    """Prometheus text exposition (v0.0.4) of a :meth:`scrape` payload.

    Emits ``# HELP`` / ``# TYPE`` comment lines and, for histograms,
    cumulative ``_bucket{le=...}`` series (``+Inf`` included) plus the
    ``_sum`` / ``_count`` pair — the exact shape a stock Prometheus
    scraper ingests (pinned byte-for-byte by a golden test)."""
    lines: List[str] = []
    for family in scrape:
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        if family["type"] != "histogram":
            for cell in family["values"]:
                lines.append(f"{name}{_format_labels(cell['labels'])} "
                             f"{_format_value(cell['value'])}")
            continue
        for cell in family["values"]:
            for bucket in cell["buckets"]:
                lines.append(
                    f"{name}_bucket"
                    f"{_format_labels(cell['labels'], {'le': bucket['le']})}"
                    f" {bucket['count']}")
            lines.append(f"{name}_sum{_format_labels(cell['labels'])} "
                         f"{_format_value(cell['sum'])}")
            lines.append(f"{name}_count{_format_labels(cell['labels'])} "
                         f"{cell['count']}")
    return "\n".join(lines) + "\n"


_default: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module shares (the
    one ``GET /metrics`` scrapes)."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = MetricsRegistry()
    return _default
