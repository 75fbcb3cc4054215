"""Hot-loop throughput benchmark: the trace tier vs the interpreter.

The acceptance bar for the trace tier (the config-specialized step loop
of ``repro.core.tracegen``): an uninstrumented run-to-completion with
the tier on must

* produce **byte-identical architectural state and cycle counts** to the
  trace-off interpreter run (asserted unconditionally — bit-exactness is
  non-negotiable), and
* deliver **>= 1.5x simulated cycles per CPU second** on the hot-loop
  workload, measured as an interleaved median so host-load drift cancels
  out of the ratio.

Each arm is timed with ``time.thread_time()``: the CPU time of the
thread that runs it, so threads that other tests leave running in the
same process are not charged to either arm.
"""

import gc
import json
import statistics
import time

import pytest

from repro import CpuConfig, Simulation

#: a tight loop executed ~10k times (~20k cycles), long enough that
#: compiling the step loop (once per configuration) is amortized noise
HOT_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 10000
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

#: floor for the speedup ratio.  Nominal measured value is ~1.8x; the
#: floor leaves headroom for noisy shared runners while still failing
#: loudly if the tier regresses toward the interpreter (ratio ~1x).
MIN_SPEEDUP_CI = 1.5

ROUNDS = 5


def _run_once(trace: bool):
    """One run to completion; returns (simulation, thread CPU seconds).

    The collector is paused inside the timed region (pyperformance-style):
    gen-0 collections are triggered by allocation count, so they tax the
    faster path's wall-clock proportionally more and add most of the
    run-to-run ratio noise.  Both paths are measured identically."""
    sim = Simulation.from_source(HOT_LOOP, config=CpuConfig())
    if not trace:
        sim.cpu.config.trace = False
    gc.disable()
    try:
        start = time.thread_time()
        sim.run()
        elapsed = time.thread_time() - start
    finally:
        gc.enable()
    return sim, elapsed


@pytest.fixture(scope="module")
def hotloop_runs():
    """Interleaved off/on rounds: medians + final states of each path.

    Interleaving means a host-load ramp hits both paths equally, and the
    median throws away GC / scheduler outliers — the ratio is stable to a
    few percent even on busy machines (single timings are not).
    """
    off_rates, on_rates = [], []
    off_sim = on_sim = None
    for _ in range(ROUNDS):
        off_sim, elapsed = _run_once(trace=False)
        off_rates.append(off_sim.cycle / elapsed)
        on_sim, elapsed = _run_once(trace=True)
        on_rates.append(on_sim.cycle / elapsed)
    return {
        "offCps": statistics.median(off_rates),
        "onCps": statistics.median(on_rates),
        "offSim": off_sim,
        "onSim": on_sim,
    }


def test_trace_on_is_bit_exact(hotloop_runs):
    """Same cycles, same architectural result, byte-identical cold
    snapshot — the tier is an optimization, never an approximation."""
    off, on = hotloop_runs["offSim"], hotloop_runs["onSim"]
    assert on.cycle == off.cycle
    assert on.register_value("a0") == sum(range(1, 10001))
    assert on.register_value("a0") == off.register_value("a0")
    assert json.dumps(on.snapshot_cold(), sort_keys=True) \
        == json.dumps(off.snapshot_cold(), sort_keys=True)


def test_trace_tier_really_compiled(hotloop_runs):
    """The step loop engaged on the traced run and not on the
    interpreter run: guards against silently benchmarking interpreter vs
    interpreter."""
    assert hotloop_runs["onSim"].cpu._step_loop is not None
    assert hotloop_runs["offSim"].cpu._step_loop is None


def test_trace_tier_speedup(hotloop_runs):
    off, on = hotloop_runs["offCps"], hotloop_runs["onCps"]
    ratio = on / off
    print(f"\nhot loop ({hotloop_runs['onSim'].cycle} cycles): "
          f"interpreter {off:,.0f} c/s, trace tier {on:,.0f} c/s "
          f"-> {ratio:.2f}x (floor: {MIN_SPEEDUP_CI}x)")
    assert ratio >= MIN_SPEEDUP_CI, (
        f"trace tier speedup {ratio:.2f}x below the {MIN_SPEEDUP_CI}x "
        f"floor (nominal ~1.8x)")
