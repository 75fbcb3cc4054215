"""Observability overhead: the telemetry plane must cost nothing where
it is not asked for.

Three guarantees, each measured as an interleaved ratio so host-load
drift cancels:

* an uninstrumented ``Simulation.run()`` — metrics module imported,
  registry populated, profiler *not* attached — runs at the same
  cycles/sec as a process that never touched ``repro.obs`` (the hot
  loop contains no instrumentation, so the only possible cost would be
  a leaked import or wrapper; the ratio pins that at ~1x);
* a detached :class:`PipelineProfiler` leaves the CPU byte-for-byte
  identical (no instance attrs, class-method dispatch restored);
* the lock-free counter hot path stays cheap in absolute terms, and a
  concurrent scrape never blocks or corrupts writers.

The floors below are generous, so shared-runner noise cannot flake the
suite while a real regression (an accidental always-on hook) still fails
loudly.  Runs and counter loops are timed with ``time.thread_time()``,
the CPU time of the measuring thread alone, so threads that other tests
leave running in the same process are not charged to the measurement.
"""

import gc
import statistics
import time

from repro import CpuConfig, Simulation
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.profile import PIPELINE_STAGES, PipelineProfiler

HOT_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 5000
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

ROUNDS = 5

#: the uninstrumented path with obs compiled in must stay within noise
#: of the same path without it; 0.85 tolerates shared-runner jitter
#: while catching any accidental always-on hook (which costs 2-10x)
MIN_CLEAN_RATIO = 0.85

#: generous absolute ceiling for one lock-free Counter.inc (measured
#: ~0.3us; an accidental lock or syscall on the path costs 10x+)
MAX_INC_MICROS = 5.0


def _run_once(profiler_cycle: bool):
    """One uninstrumented interpreter run; optionally attach+detach a
    profiler *before* the run, so any residue it leaves is measured."""
    sim = Simulation.from_source(HOT_LOOP, config=CpuConfig())
    sim.cpu.config.trace = False
    sim.cpu._trace_wanted = False
    if profiler_cycle:
        profiler = PipelineProfiler(sim.cpu, stride=64)
        profiler.attach()
        profiler.detach()
        # plus registry traffic, as a busy server would have produced
        default_registry().counter(
            "bench_obs_noise_total", "bench scratch").inc()
    gc.disable()
    try:
        start = time.thread_time()
        sim.run()
        elapsed = time.thread_time() - start
    finally:
        gc.enable()
    return sim, elapsed


def test_uninstrumented_run_unaffected_by_obs():
    """Detached telemetry = free: interleaved median cycles/sec with and
    without an obs attach/detach cycle must agree within noise."""
    clean_rates, cycled_rates = [], []
    clean = cycled = None
    for _ in range(ROUNDS):
        clean, elapsed = _run_once(profiler_cycle=False)
        clean_rates.append(clean.cycle / elapsed)
        cycled, elapsed = _run_once(profiler_cycle=True)
        cycled_rates.append(cycled.cycle / elapsed)
    ratio = statistics.median(cycled_rates) / statistics.median(clean_rates)
    print(f"\nuninstrumented hot loop: clean "
          f"{statistics.median(clean_rates):,.0f} c/s, after obs cycle "
          f"{statistics.median(cycled_rates):,.0f} c/s -> {ratio:.3f}x "
          f"(floor {MIN_CLEAN_RATIO}x)")
    assert clean.cycle == cycled.cycle          # same simulated work
    assert ratio >= MIN_CLEAN_RATIO, (
        f"obs-attached-then-detached run is {ratio:.3f}x of clean — "
        f"profiling residue is leaking into the uninstrumented path")
    # and truly detached: no stage wrapper left on the instance
    assert not any(name in cycled.cpu.__dict__ for name in PIPELINE_STAGES)


def test_counter_hot_path_cost():
    registry = MetricsRegistry()
    counter = registry.counter("bench_total")
    counter.inc()                               # shard setup off-clock
    iterations = 200_000
    start = time.thread_time()
    for _ in range(iterations):
        counter.inc()
    per_inc_us = (time.thread_time() - start) / iterations * 1e6
    print(f"\nCounter.inc: {per_inc_us:.3f} us/op "
          f"(ceiling {MAX_INC_MICROS} us)")
    assert per_inc_us < MAX_INC_MICROS
    assert registry.scrape()[0]["values"][0]["value"] == iterations + 1


def test_scrape_never_blocks_or_loses_writes():
    import threading
    registry = MetricsRegistry()
    counter = registry.counter("race_total")
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            counter.inc()

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        last = 0
        for _ in range(50):
            [family] = registry.scrape()
            value = family["values"][0]["value"] if family["values"] else 0
            assert value >= last                # monotone under racing
            last = value
    finally:
        stop.set()
        thread.join()
    final = registry.scrape()[0]["values"][0]["value"]
    assert final >= last > 0
