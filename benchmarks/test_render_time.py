"""Sec. IV claim: "Performance tests showed that rendering typically takes
around 80 ms" (Google Lighthouse on the web client).

Our presentation layer is the text renderer + JSON state serializer; the
bench measures a full main-window render (Fig. 12) and a full state
snapshot, asserting both stay comfortably interactive (< 80 ms), i.e. the
paper's rendering budget holds for this implementation too.
"""

import json
import time

from benchmarks.conftest import SUM_LOOP
from repro import Simulation
from repro.viz import render_processor, render_statistics

#: the paper's rendering budget
BUDGET_S = 0.080
#: calls averaged per bound
ROUNDS = 20


def _midflight():
    sim = Simulation.from_source(SUM_LOOP)
    sim.step(30)
    return sim


def _mean_seconds(render, *args):
    """``(last result, mean wall seconds per call)`` over ROUNDS calls."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        out = render(*args)
    return out, (time.perf_counter() - start) / ROUNDS


def test_fig12_render_under_80ms():
    sim = _midflight()
    text, mean = _mean_seconds(render_processor, sim.cpu)
    assert "[Fetch]" in text
    assert mean < BUDGET_S, f"render took {mean * 1000:.1f} ms (> 80 ms)"


def test_statistics_page_render():
    sim = _midflight()
    sim.run()
    text, mean = _mean_seconds(render_statistics, sim.stats)
    assert "Runtime statistics" in text
    assert mean < BUDGET_S


def test_state_snapshot_serialization():
    """The JSON the web client renders from."""
    sim = _midflight()

    def snap():
        return json.dumps(sim.snapshot())

    text, mean = _mean_seconds(snap)
    assert json.loads(text)["cycle"] == 30
    assert mean < BUDGET_S
