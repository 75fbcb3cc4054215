"""Deterministic job planner: sweep spec -> ordered, self-contained jobs.

Each :class:`Job` carries everything a worker process needs (program
source, fully-resolved architecture JSON, run limits) so jobs are picklable
and independent — the unit of crash isolation of the pool.  Planning is a
pure function of the spec: the same spec always yields the same job list,
labels included, which is what makes serial and parallel sweep executions
comparable record-for-record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List

from repro.explore.spec import SweepSpec, SweepSpecError

__all__ = ["Job", "plan_jobs", "apply_assignment"]

#: job-payload keys a dotted path may start with (everything else must be
#: under ``config.``)
_JOB_LEVEL_KEYS = ("optimizeLevel", "maxCycles", "entry")


@dataclass
class Job:
    """One planned run of the sweep."""

    index: int
    label: str                     #: "prog=qs/width=w4/lines=32"
    point: Dict[str, str]          #: axis name -> value label (+ program)
    payload: dict                  #: self-contained worker input

    def to_json(self) -> dict:
        return {"index": self.index, "label": self.label,
                "point": dict(self.point)}


def apply_assignment(payload: dict, path: str, value: object) -> None:
    """Assign *value* at dotted *path* inside the job payload.

    ``config.*`` descends into the architecture JSON; the run-level keys
    (``optimizeLevel``, ``maxCycles``, ``entry``) land on the payload
    itself.  Every path segment — including the leaf — must already exist
    in the resolved base configuration: ``CpuConfig.from_json`` ignores
    unknown keys, so a typo'd path (``fetchWdith``) that merely created a
    new key would sweep nothing while labelling N identical runs as a
    design-space study.  Better to fail planning than to sweep a typo
    that every run silently ignores.  (To sweep a subtree the base leaves
    as ``null`` — e.g. ``l2Cache`` — assign the whole object at its key.)
    """
    parts = path.split(".")
    if parts[0] == "config":
        if len(parts) < 2:
            raise SweepSpecError("path 'config' needs a field, "
                                 "e.g. 'config.cache.lineCount'")
        node = payload["config"]
        for depth, part in enumerate(parts[1:-1], start=1):
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                raise SweepSpecError(
                    f"path '{path}': '{'.'.join(parts[:depth + 1])}' is "
                    f"not a configuration object (known keys here: "
                    f"{sorted(node)})")
            node = nxt
        if parts[-1] not in node:
            raise SweepSpecError(
                f"unknown configuration path '{path}' — the architecture "
                f"would silently ignore it (known keys here: "
                f"{sorted(node)})")
        node[parts[-1]] = value
        return
    if len(parts) == 1 and parts[0] in _JOB_LEVEL_KEYS:
        payload[parts[0]] = value
        return
    raise SweepSpecError(
        f"unsupported sweep path '{path}' (use 'config.*' or one of "
        f"{list(_JOB_LEVEL_KEYS)})")


def plan_jobs(spec: SweepSpec) -> List[Job]:
    """Expand *spec* into its ordered job list (pure, deterministic)."""
    spec.validate()
    # every job gets its own copy of the base configuration: encoded once,
    # decoded per job (plain JSON data, so a copy for a fraction of what
    # copy.deepcopy costs)
    base_config = json.dumps(spec.resolve_base_config())
    jobs: List[Job] = []
    for index, sweep_point in enumerate(spec.points()):
        program = spec.programs[sweep_point.program]
        payload: dict = {
            "program": program.to_json(),
            "config": json.loads(base_config),
            "collect": spec.collect,
        }
        if spec.max_cycles is not None:
            payload["maxCycles"] = spec.max_cycles
        point: Dict[str, str] = {"program": program.name}
        for axis, position in zip(spec.axes, sweep_point.choices):
            point[axis.name] = axis.label_of(position)
            for path, value in axis.assignments_of(position).items():
                apply_assignment(payload, path, value)
        if "optimizeLevel" in payload and program.c_source is None:
            raise SweepSpecError(
                f"axis sweeps 'optimizeLevel' but program "
                f"'{program.name}' is assembly — every point would run "
                f"identically under a different label")
        label = "/".join(f"{k}={v}" for k, v in point.items())
        payload["config"]["name"] = label
        jobs.append(Job(index=index, label=label, point=point,
                        payload=payload))
    return jobs
