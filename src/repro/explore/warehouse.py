"""Cross-run result warehouse: queries, Pareto frontiers, regression sentinel.

Sweep records are write-once JSONL per run (:mod:`repro.explore.store`),
which answers "how did *this* sweep go" but not the longitudinal
questions a design-space harness lives on: how does today's frontier
compare with last week's, which config regressed between two sweeps,
what does the whole cycles-vs-energy trade-off look like across every
run ever made.

:class:`ResultWarehouse` is an indexed, append-only store over finished
sweeps' records:

* **ingest** — the :class:`repro.explore.service.ExploreManager` finish
  path feeds every completed sweep in automatically (server mode), and
  :meth:`ResultWarehouse.import_file` bulk-imports historical run files
  (tolerant of a truncated trailing line, like every JSONL reader
  here); rows are deduplicated on ``(sweepId, index)``, so re-ingesting
  or re-importing is idempotent;
* **query** — filter by sweep id/name, program, axis point values, or
  ingest-time range; results carry min/p50/p90/max metric summaries via
  :func:`repro.obs.metrics.summarize`, the one shared percentile rule;
* **Pareto frontiers** — direction-aware non-dominated sets over any
  metric pair (directions come from the
  :data:`repro.explore.report.METRICS` table: cycles/energy/area
  minimize, ipc maximizes), with per-point dominated counts;
* **regression sentinel** — pin one sweep as the baseline
  (:meth:`set_baseline`) and diff any other sweep's matching configs
  (same record ``label``) against it; a metric delta beyond the
  tolerance *in the worse direction* is a flag, and flags raised at
  ingest time bump ``repro_warehouse_regressions_total``.

Everything the warehouse returns is canonically ordered — rows by
``(sweepId, index)``, sweeps by id, flags by label — so query, frontier
and diff payloads are byte-deterministic and independent of ingest
order (pinned by test).  The module itself never reads a clock:
``ingestedAt`` stamps are supplied by callers (the explore service
passes server time), which keeps the warehouse importable from
deterministic record-producing contexts.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.explore.report import MetricError, _metric_path, metric_value
from repro.explore.store import load_records
from repro.obs.metrics import default_registry, summarize

__all__ = [
    "BaselineMissing",
    "DEFAULT_REGRESSION_METRICS",
    "DEFAULT_TOLERANCE",
    "ResultWarehouse",
    "SUMMARY_METRICS",
    "WarehouseError",
]

#: metrics the regression sentinel diffs by default — the three axes of
#: the paper's design-space trade-off, present in every record
DEFAULT_REGRESSION_METRICS = ("cycles", "energy", "area")

#: relative delta (in the worse direction) beyond which a matching
#: config counts as regressed
DEFAULT_TOLERANCE = 0.05

#: metrics summarized on every query payload
SUMMARY_METRICS = ("cycles", "ipc", "energy", "area")

_RECORDS = default_registry().gauge(
    "repro_warehouse_records",
    "Result-warehouse rows currently indexed")
_REGRESSIONS = default_registry().counter(
    "repro_warehouse_regressions_total",
    "Regression-sentinel flags raised at warehouse ingest, by metric")


class WarehouseError(ValueError):
    """Bad warehouse request (degenerate metric pair, bad tolerance)."""


class BaselineMissing(WarehouseError):
    """A regression diff was requested before any baseline sweep was
    pinned (the protocol layer maps this to 409, not 400)."""


def _resolve_metric(metric: str) -> Tuple[str, bool]:
    """Metric name -> (stats path, higher_is_better), under the report
    layer's rule: ``METRICS`` names, or raw dotted stats paths with an
    optional ``+`` higher-is-better suffix."""
    if not isinstance(metric, str) or not metric:
        raise MetricError(
            f"metric must be a non-empty string, got {metric!r}")
    return _metric_path(metric)


def _row_key(row: dict) -> tuple:
    """Canonical row order: every payload the warehouse emits is sorted
    with this key, which is what makes output ingest-order independent."""
    return (str(row.get("sweepId", "")), row.get("index") or 0,
            str(row.get("label", "")))


class ResultWarehouse:
    """Indexed, append-only store of sweep records across runs.

    With ``path`` the warehouse is file-backed: rows (and baseline-pin
    control rows) are appended eagerly as canonical JSONL and replayed
    on reopen, so the store — including the pinned baseline — survives
    process restarts.  Rows handed back by :meth:`query` are the live
    index entries; treat them as read-only.
    """

    def __init__(self, path: Optional[str] = None):
        self._lock = threading.Lock()
        self._rows: List[dict] = []
        self._seen: Set[tuple] = set()        # (sweepId, index) dedup keys
        self._sweeps: Dict[str, dict] = {}    # sweepId -> name/record count
        self._baseline: Optional[str] = None
        self._handle = None
        self.path = path
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            if os.path.exists(path):
                for obj in load_records(path):
                    if obj.get("control") == "baseline":
                        if obj.get("sweepId") in self._sweeps:
                            self._baseline = obj["sweepId"]
                        continue
                    if "sweepId" not in obj:
                        continue              # not a warehouse row
                    self._add_locked(dict(obj), persist=False)
            self._handle = open(path, "a", encoding="utf-8")
        _RECORDS.set(len(self._rows))

    # -- ingest ----------------------------------------------------------

    def ingest(self, records: Iterable[dict], sweep_id: str,
               name: Optional[str] = None,
               ingested_at: Optional[float] = None) -> dict:
        """Add one finished sweep's records (idempotent per record).

        ``ingested_at`` is the caller's wall-clock stamp — the warehouse
        itself reads no clock; rows ingested without one fall outside
        time-range queries.  When a baseline is pinned and *sweep_id* is
        not the baseline itself, the regression sentinel runs on the
        newly ingested rows and every flag bumps
        ``repro_warehouse_regressions_total``.
        """
        if not sweep_id or not isinstance(sweep_id, str):
            raise WarehouseError("ingest needs a non-empty sweep id")
        with self._lock:
            ingested = skipped = 0
            for record in records:
                row = dict(record)
                row["sweepId"] = sweep_id
                row["sweep"] = (name if name is not None else
                                self._sweeps.get(sweep_id, {})
                                .get("name", sweep_id))
                if ingested_at is not None:
                    row["ingestedAt"] = round(float(ingested_at), 3)
                if self._add_locked(row, persist=True):
                    ingested += 1
                else:
                    skipped += 1
            flagged = 0
            if (ingested and self._baseline is not None
                    and sweep_id != self._baseline):
                flags = self._diff_locked(sweep_id,
                                          DEFAULT_REGRESSION_METRICS,
                                          DEFAULT_TOLERANCE)["flags"]
                flagged = len(flags)
                for flag in flags:
                    _REGRESSIONS.inc(metric=flag["metric"])
            _RECORDS.set(len(self._rows))
            total = self._sweeps.get(sweep_id, {}).get("records", 0)
        return {"sweepId": sweep_id, "ingested": ingested,
                "skipped": skipped, "records": total,
                "regressions": flagged}

    def import_file(self, path: str, sweep_id: Optional[str] = None,
                    name: Optional[str] = None,
                    ingested_at: Optional[float] = None) -> dict:
        """Bulk-import one historical JSONL run file.

        Without an explicit *sweep_id* the id is the first 16 hex chars
        of the SHA-256 over the canonical record JSON, so re-importing
        the same results (under any file path, on any machine) lands on
        the same sweep and is a no-op.  *name* defaults to the file's
        stem.  Inherits :func:`load_records` tolerance for a truncated
        trailing line (interrupted appends don't poison the import).
        """
        records = load_records(path)
        if sweep_id is None:
            canonical = "\n".join(json.dumps(record, sort_keys=True)
                                  for record in records)
            sweep_id = hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()[:16]
        if name is None:
            name = os.path.splitext(os.path.basename(path))[0]
        return self.ingest(records, sweep_id, name=name,
                           ingested_at=ingested_at)

    def _add_locked(self, row: dict, persist: bool) -> bool:
        key = (row.get("sweepId"), row.get("index"))
        if key in self._seen:
            return False
        self._seen.add(key)
        self._rows.append(row)
        info = self._sweeps.setdefault(
            row["sweepId"],
            {"sweepId": row["sweepId"],
             "name": row.get("sweep", row["sweepId"]), "records": 0})
        info["records"] += 1
        if persist:
            self._persist_locked(row)
        return True

    def _persist_locked(self, obj: dict) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(obj, sort_keys=True) + "\n")
            self._handle.flush()

    # -- queries ---------------------------------------------------------

    def query(self, sweep: Optional[str] = None,
              program: Optional[str] = None,
              axes: Optional[Dict[str, str]] = None,
              since: Optional[float] = None,
              until: Optional[float] = None,
              metrics: Sequence[str] = SUMMARY_METRICS,
              limit: Optional[int] = None) -> dict:
        """Filtered rows plus shared metric summaries, canonically
        ordered.  ``since``/``until`` bound ``ingestedAt`` (rows without
        a stamp fail any time filter); summaries cover ok rows only."""
        for metric in metrics:
            _resolve_metric(metric)
        with self._lock:
            rows = self._filtered_locked(sweep, program, axes, since, until)
            baseline = self._baseline
        summary = {}
        for metric in metrics:
            values = [value for value in
                      (metric_value(row, metric) for row in rows
                       if row.get("ok"))
                      if value is not None]
            stats = summarize(values)
            if stats is not None:
                summary[metric] = stats
        return {"count": len(rows),
                "sweeps": sorted({row["sweepId"] for row in rows}),
                "baseline": baseline,
                "summary": summary,
                "rows": rows if limit is None else rows[:max(0, limit)]}

    def pareto(self, x: str = "cycles", y: str = "energy",
               sweep: Optional[str] = None, program: Optional[str] = None,
               axes: Optional[Dict[str, str]] = None) -> dict:
        """Direction-aware Pareto frontier over the metric pair (x, y).

        Frontier points carry how many candidates each one dominates;
        equal points dominate neither and both stay on the frontier.
        """
        if x == y:
            raise WarehouseError(
                f"Pareto needs two distinct metrics, got {x!r} twice")
        _path, x_higher = _resolve_metric(x)
        _path, y_higher = _resolve_metric(y)
        with self._lock:
            rows = self._filtered_locked(sweep, program, axes, None, None)
        # minimize-normalized coordinates so dominance is a single rule
        candidates = []
        for row in rows:
            if not row.get("ok"):
                continue
            value_x = metric_value(row, x)
            value_y = metric_value(row, y)
            if value_x is None or value_y is None:
                continue
            candidates.append((-value_x if x_higher else value_x,
                               -value_y if y_higher else value_y, row))
        frontier = []
        dominated = 0
        for mx, my, row in candidates:
            beats = 0
            beaten = False
            for ox, oy, other in candidates:
                if other is row:
                    continue
                if ox <= mx and oy <= my and (ox < mx or oy < my):
                    beaten = True
                if mx <= ox and my <= oy and (mx < ox or my < oy):
                    beats += 1
            if beaten:
                dominated += 1
            else:
                frontier.append((mx, my, beats, row))
        frontier.sort(key=lambda entry: (entry[0], entry[1],
                                         _row_key(entry[3])))
        return {"x": x, "y": y, "points": len(candidates),
                "dominated": dominated,
                "frontier": [{"label": row.get("label"),
                              "sweepId": row.get("sweepId"),
                              "sweep": row.get("sweep"),
                              "index": row.get("index"),
                              "x": metric_value(row, x),
                              "y": metric_value(row, y),
                              "dominates": beats}
                             for _mx, _my, beats, row in frontier]}

    def _filtered_locked(self, sweep, program, axes, since, until):
        rows = [row for row in self._rows
                if self._matches(row, sweep, program, axes, since, until)]
        rows.sort(key=_row_key)
        return rows

    @staticmethod
    def _matches(row, sweep, program, axes, since, until) -> bool:
        if sweep is not None and sweep not in (row.get("sweepId"),
                                               row.get("sweep")):
            return False
        point = row.get("point") or {}
        if program is not None and point.get("program") != program:
            return False
        if axes:
            for axis, value in axes.items():
                if str(point.get(axis)) != str(value):
                    return False
        if since is not None or until is not None:
            stamp = row.get("ingestedAt")
            if stamp is None:
                return False
            if since is not None and stamp < since:
                return False
            if until is not None and stamp > until:
                return False
        return True

    def sweeps(self) -> List[dict]:
        """Known sweeps, sorted by id: ``{"sweepId", "name", "records"}``."""
        with self._lock:
            return [dict(self._sweeps[sweep_id])
                    for sweep_id in sorted(self._sweeps)]

    # -- regression sentinel ---------------------------------------------

    def set_baseline(self, sweep_id: str) -> dict:
        """Pin *sweep_id* as the regression baseline (persisted as a
        control row when file-backed; last pin wins on replay).  Raises
        :class:`KeyError` for a sweep the warehouse has not ingested."""
        with self._lock:
            if sweep_id not in self._sweeps:
                raise KeyError(sweep_id)
            self._baseline = sweep_id
            self._persist_locked({"control": "baseline",
                                  "sweepId": sweep_id})
            info = dict(self._sweeps[sweep_id])
        return {"baseline": sweep_id, "name": info["name"],
                "records": info["records"]}

    def baseline(self) -> Optional[str]:
        with self._lock:
            return self._baseline

    def regressions(self, sweep: Optional[str] = None,
                    tolerance: float = DEFAULT_TOLERANCE,
                    metrics: Sequence[str] = DEFAULT_REGRESSION_METRICS,
                    ) -> dict:
        """Diff *sweep* (default: every non-baseline sweep) against the
        pinned baseline.  Configs match by record ``label``; a metric
        delta beyond *tolerance* in the worse direction (directions per
        the report table) becomes a flag.  Pure query: the exported
        regression counter only moves at ingest time."""
        if not metrics:
            raise WarehouseError("regression diff needs at least one metric")
        for metric in metrics:
            _resolve_metric(metric)
        if not isinstance(tolerance, (int, float)) or tolerance < 0:
            raise WarehouseError("tolerance must be a number >= 0")
        with self._lock:
            if self._baseline is None:
                raise BaselineMissing(
                    "no baseline sweep pinned — pin one with "
                    "POST /warehouse/baseline (or 'repro-sim warehouse "
                    "baseline SWEEP_ID')")
            baseline_id = self._baseline
            if sweep is not None:
                if sweep not in self._sweeps:
                    raise KeyError(sweep)
                targets = [sweep] if sweep != baseline_id else []
            else:
                targets = sorted(sweep_id for sweep_id in self._sweeps
                                 if sweep_id != baseline_id)
            sweeps = [self._diff_locked(target, metrics, tolerance)
                      for target in targets]
            baseline_name = self._sweeps[baseline_id]["name"]
        return {"baseline": baseline_id, "baselineName": baseline_name,
                "tolerance": tolerance, "metrics": list(metrics),
                "sweeps": sweeps,
                "flagged": sum(len(entry["flags"]) for entry in sweeps)}

    def _diff_locked(self, sweep_id, metrics, tolerance) -> dict:
        base = {row.get("label"): row for row in self._rows
                if row.get("sweepId") == self._baseline and row.get("ok")}
        rows = sorted((row for row in self._rows
                       if row.get("sweepId") == sweep_id and row.get("ok")),
                      key=_row_key)
        compared = 0
        flags = []
        for row in rows:
            other = base.get(row.get("label"))
            if other is None:
                continue
            compared += 1
            for metric in metrics:
                base_value = metric_value(other, metric)
                new_value = metric_value(row, metric)
                if base_value is None or new_value is None \
                        or base_value == 0:
                    continue
                _path, higher_better = _metric_path(metric)
                delta = (new_value - base_value) / abs(base_value)
                worse = -delta if higher_better else delta
                if worse > tolerance:
                    flags.append({"label": row.get("label"),
                                  "metric": metric,
                                  "baseline": base_value,
                                  "value": new_value,
                                  "deltaPct": round(delta * 100.0, 2)})
        info = self._sweeps.get(sweep_id, {})
        return {"sweepId": sweep_id, "name": info.get("name", sweep_id),
                "compared": compared, "flags": flags}

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "ResultWarehouse":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)
