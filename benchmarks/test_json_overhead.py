"""Sec. IV-A profiling claim: "about 60 % of the request handling time is
consumed by working with the JSON format".

We decompose one /session/step request into its two server-side parts —
simulation work vs JSON serialization of the state payload — and measure
the JSON share.  The paper concludes the communication format dominates;
the assertion checks JSON costs a *substantial* share (>= 30 %), since the
exact split depends on the host language.
"""

import json

from benchmarks.conftest import SUM_LOOP
from repro import Simulation


def _state_payload(sim: Simulation) -> dict:
    return {"success": True, "state": sim.snapshot()}


def test_fig_profile_json_share_of_step_request():
    sim = Simulation.from_source(SUM_LOOP)
    import time
    sim_time = 0.0
    json_time = 0.0
    rounds = 200
    for _ in range(rounds):
        if sim.halted:
            sim.reset()
        t0 = time.perf_counter()
        sim.step(1)
        payload = _state_payload(sim)
        t1 = time.perf_counter()
        text = json.dumps(payload)
        json.loads(text)           # the client-side parse the server pays for
        t2 = time.perf_counter()
        sim_time += t1 - t0
        json_time += t2 - t1
    share = json_time / (sim_time + json_time)
    print(f"\nJSON share of request handling: {share * 100:.1f} % "
          f"(paper: ~60 %)")
    assert share >= 0.30, (
        f"JSON expected to dominate request handling, got {share:.2%}")


def test_serialize_only_benchmark():
    sim = Simulation.from_source(SUM_LOOP)
    sim.step(30)
    payload = _state_payload(sim)
    text = json.dumps(payload)
    assert json.loads(text)["success"]


# ---------------------------------------------------------------------------
# incremental snapshot path (repro.sim.state): the ROADMAP "snapshot / JSON
# cost" item.  One interactive step request used to rebuild + serialize the
# complete processor view; the delta path serves only what changed.
# ---------------------------------------------------------------------------

def _larger_example():
    """Quicksort at O1 (~4.8k cycles): a 'larger example' whose log and
    payload are big enough that rebuilding them per step dominates."""
    from benchmarks.conftest import QUICKSORT_C, big_stack, compile_ok
    from repro import MemoryLocation

    values = [42, 7, 93, 15, 61, 2, 88, 34, 70, 11, 55, 29, 96, 4, 83, 48]
    asm = compile_ok(QUICKSORT_C, 1)
    data = MemoryLocation(name="data", dtype="word", values=values)
    return Simulation.from_source(asm, config=big_stack(), entry="main",
                                  memory_locations=[data])


def measure_snapshot_paths(steps: int = 160, warmup_cycles: int = 4000):
    """Per-step request cost (simulate + build + serialize) on three paths:

    * ``rebuild`` — every section and the full log rebuilt from scratch,
      the pre-state-engine behaviour (emulated by clearing the caches);
    * ``full``    — the full state as the server sends it, spliced from
      the fragment caches (sections patched when dirty);
    * ``delta``   — only changed sections + new log entries on the wire.

    The delta window runs last, so its longer log biases the comparison
    against the delta path (the measured speedup is conservative).
    """
    import time

    from repro.sim.state import RawJson, dumps_raw

    sim = _larger_example()
    sim.step(warmup_cycles)
    assert not sim.halted
    start = sim.cycle

    def timed(loop_body) -> float:
        """Best-of-3 over the same cycle window; the checkpoint ring makes
        rewinding between repeats an O(K) replay, so every path (and every
        repeat) measures identical simulated cycles."""
        best = None
        for _ in range(3):
            sim.seek(start)
            sim.snapshot()
            t0 = time.perf_counter()
            for _ in range(steps):
                loop_body()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best

    def rebuild_request():
        # snapshot_cold = the pre-state-engine behaviour: no payload
        # caching at any level
        sim.step(1)
        json.dumps({"success": True, "state": sim.snapshot_cold()})

    def full_request():
        sim.step(1)
        dumps_raw({"success": True, "state": RawJson(sim.snapshot_json())})

    def delta_request():
        # the path the HTTP layer serves: entry-level deltas, spliced into
        # the response envelope without re-encoding
        sim.step(1)
        text = sim.snapshot_delta_json(since_cycle=sim.cycle - 1)
        assert '"format": "delta"' in text, "delta path must not fall back"
        dumps_raw({"success": True, "stateDelta": RawJson(text)})

    rebuild_s = timed(rebuild_request)
    full_s = timed(full_request)
    delta_s = timed(delta_request)

    return {
        "workload": "quicksort_O1",
        "warmupCycles": warmup_cycles,
        "stepsMeasured": steps,
        "rebuildMsPerStep": round(1000 * rebuild_s / steps, 4),
        "fullMsPerStep": round(1000 * full_s / steps, 4),
        "deltaMsPerStep": round(1000 * delta_s / steps, 4),
        "fullSpeedup": round(rebuild_s / full_s, 2),
        "deltaSpeedup": round(rebuild_s / delta_s, 2),
    }


def test_snapshot_delta_speedup_on_larger_example():
    """Acceptance: the per-step instrumented snapshot cost drops >= 5x on
    the larger examples when served as a delta (vs the pre-state-engine
    rebuild-everything path).  Asserted with a 3x margin so scheduler noise
    cannot flake CI; the measured factor (locally >= 5x) is printed."""
    result = measure_snapshot_paths()
    print(f"\nrebuild: {result['rebuildMsPerStep']:.3f} ms/step, "
          f"full(cached): {result['fullMsPerStep']:.3f} ms/step, "
          f"delta: {result['deltaMsPerStep']:.3f} ms/step "
          f"-> {result['deltaSpeedup']:.1f}x")
    assert result["deltaSpeedup"] >= 3.0, result


def test_step_plus_delta_serialize_benchmark():
    """One delta-served interactive step request."""
    from repro.sim.state import RawJson, dumps_raw

    sim = Simulation.from_source(SUM_LOOP)
    sim.snapshot_json()
    sim.step(1)
    delta = sim.snapshot_delta_json(since_cycle=sim.cycle - 1)
    out = dumps_raw({"success": True, "stateDelta": RawJson(delta)})
    assert out
