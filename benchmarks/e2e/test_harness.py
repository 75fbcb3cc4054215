"""Smoke test of the end-to-end benchmark at tiny scale.

Runs every workload untraced and traced for about a second each and
checks the harness itself, not the simulator's speed: the metric names
and units it prints are exactly those of ``BENCHMARK.json``, its inputs
follow the seed, a planted wrong answer fails the run, and the script
refuses to run without the simulator sources.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro.sim.state as sim_state

from . import inputs, metrics
from .cli import ROOT, run_one
from .loadgen import CONNECTIONS
from .server import Env
from .workloads import TINY, WORKLOADS

SPEC = metrics.load_spec(ROOT)
SECONDS = 0.6


@pytest.fixture
def env(tmp_path):
    return Env(ROOT, str(tmp_path / "work"))


def tiny_run(env, workload, trace):
    return run_one(SPEC, env, workload, 1, SECONDS, trace, TINY,
                   stream=io.StringIO())


# step_travel's traced run covers step_full's traced code path and more
@pytest.mark.parametrize("workload, trace", [
    (workload, False) for workload in sorted(WORKLOADS)] + [
    (workload, True) for workload in sorted(WORKLOADS)
    if workload != "step_full"], ids=lambda value: (
        {False: "e2e", True: "traced"}.get(value, value)))
def test_workload_reports_exactly_the_spec_metrics(env, workload, trace):
    stream = io.StringIO()
    line = run_one(SPEC, env, workload, 1, SECONDS, trace, TINY,
                   stream=stream)
    kind = "per_layer" if trace else "end_to_end"
    assert line["correct"] and line["failed"] == 0, stream.getvalue()
    assert line["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in
            line["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in SPEC[kind]}
    json.dumps(line)
    if not trace:
        assert all(metric["value"] > 0 for metric in
                   line["metrics"].values())


def _generated(workload: str, seed: int) -> object:
    """Everything the system under test receives for one seed."""
    def rng(*salt):
        return inputs.rng_for(workload, seed, *salt)

    arrivals = inputs.poisson_arrivals(rng("arrivals"), 5.0,
                                       inputs.SESSIONS, CONNECTIONS)
    if workload == "step_full":
        return arrivals, inputs.session_programs(rng("programs"),
                                                 inputs.SESSIONS, 2)
    if workload == "step_travel":
        return arrivals, inputs.travel_programs(rng("programs")), \
            inputs.travel_moves(rng("moves", 0, 0))
    if workload == "edit_compile_run":
        return list(itertools.islice(inputs.edit_stream(rng("programs")),
                                     16))
    return inputs.sweep_spec(rng("programs"), 4)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload):
    assert _generated(workload, 7) == _generated(workload, 7)
    assert _generated(workload, 7) != _generated(workload, 8)


def test_arrival_path_is_shared_by_seeds():
    one = inputs.poisson_arrivals(inputs.rng_for("w", 1), 20.0, 32, 2)
    two = inputs.poisson_arrivals(inputs.rng_for("w", 2), 20.0, 32, 2)
    assert [(due, slot % 2) for due, slot in one] == \
        [(due, slot % 2) for due, slot in two]
    assert 400 < len(one) < 600


def test_planted_wrong_answer_fails_the_run(env, monkeypatch):
    sweep_spec = inputs.sweep_spec

    def planted(*args):
        spec, expected = sweep_spec(*args)
        expected["heavy"] += 1
        return spec, expected

    monkeypatch.setattr(inputs, "sweep_spec", planted)
    line = tiny_run(env, "sweep_codesign", False)
    assert not line["correct"] and line["failed"] >= 1


def test_corrupted_delta_chain_fails_the_run(env, monkeypatch):
    apply = sim_state.apply_snapshot_delta

    def corrupted(view, delta):
        out = apply(view, delta)
        out["statistics"] = dict(out["statistics"], cycles=-1)
        return out

    monkeypatch.setattr(sim_state, "apply_snapshot_delta", corrupted)
    line = tiny_run(env, "step_travel", False)
    assert not line["correct"] and line["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "step_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": os.environ.get("PATH", "")})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
