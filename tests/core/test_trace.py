"""Trace tier: the config-specialized step loop vs the interpreter.

The tier's one guarantee is that it is invisible: any uninstrumented run
through the step loop must land in byte-identical architectural state to
the same run with ``config.trace = False``.  These fixed programs pin
the parity on the cases that matter most — a hot loop, stores into the
notional code region, stack stores and a memory image swapped mid-run —
and the gate that decides when the loop runs at all.  Generated programs
get the same check in ``tests/integration/test_differential.py``.
"""

import json
import random
import sys
import threading

from repro import CpuConfig, Simulation
from repro.core import tracegen

HOT_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 100
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

#: every iteration stores into the loop head's instruction bytes (the
#: notional code region); fetch reads the static decode cache, so the
#: store changes data memory only, in both tiers alike
SELF_MODIFYING = """
    li a0, 0
    li t0, 1
    li t1, 100
    la t2, loop
loop:
    add a0, a0, t0
    sw  t0, 0(t2)
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


def run_traced(source, **kw):
    sim = Simulation.from_source(source, **kw)
    sim.run()
    return sim


def run_interpreted(source, **kw):
    sim = Simulation.from_source(source, **kw)
    sim.cpu.config.trace = False
    sim.run()
    return sim


def limited(max_cycles):
    """A default configuration that differs only in its cycle limit (one
    step loop each, like /simulate requests varying ``maxCycles``)."""
    config = CpuConfig()
    config.max_cycles = max_cycles
    return config


def assert_parity(traced, interpreted):
    assert traced.cycle == interpreted.cycle
    assert traced.cpu.committed == interpreted.cpu.committed
    assert json.dumps(traced.snapshot_cold(), sort_keys=True) \
        == json.dumps(interpreted.snapshot_cold(), sort_keys=True)


class TestEnablement:
    def test_hot_loop_compiles_and_matches_interpreter(self):
        traced = run_traced(HOT_LOOP)
        assert traced.cpu._step_loop is not None
        assert_parity(traced, run_interpreted(HOT_LOOP))

    def test_config_toggle_disables_tier(self):
        sim = run_interpreted(HOT_LOOP)
        assert sim.cpu._step_loop is None

    def test_instrumented_stepping_never_builds_a_tier(self):
        sim = Simulation.from_source(HOT_LOOP)
        sim.step(300)
        assert sim.cpu._step_loop is None

    def test_one_loop_per_configuration(self):
        first, second = run_traced(HOT_LOOP), run_traced(HOT_LOOP)
        wide = run_traced(HOT_LOOP, config=CpuConfig.preset("wide"))
        assert first.cpu._step_loop is second.cpu._step_loop
        assert wide.cpu._step_loop is not first.cpu._step_loop

    def test_pipelined_units_take_the_interpreter(self):
        """Despite the name, pipelined units run in the step loop: the
        same stage lines as the interpreter, so the run matches."""
        config = CpuConfig()
        config.fus[0].pipelined = True
        sim = run_traced(HOT_LOOP, config=config)
        assert sim.cpu._step_loop is not None
        assert sim.register_value("a0") == sum(range(1, 101))
        assert_parity(sim, run_interpreted(HOT_LOOP, config=config))


class TestInvalidation:
    """Stores into the code region and memory-image swaps: the step loop
    specializes on the configuration only, so each case must simply
    stay exact."""

    def test_self_modifying_store_drops_block_and_stays_exact(self):
        traced = run_traced(SELF_MODIFYING)
        assert traced.cpu._step_loop is not None
        assert_parity(traced, run_interpreted(SELF_MODIFYING))

    def test_data_stores_do_not_invalidate(self):
        source = """
    addi sp, sp, -64
    li a0, 0
    li t0, 1
    li t1, 100
loop:
    add a0, a0, t0
    sw  t0, 0(sp)
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""
        assert_parity(run_traced(source), run_interpreted(source))

    def test_set_image_drops_every_block(self):
        sim = Simulation.from_source(HOT_LOOP)
        # cpu.run (not sim.run): a Simulation-level budget halts the run
        # permanently, while the raw cpu budget just pauses mid-loop
        sim.cpu.run(120)
        assert sim.cpu._step_loop is not None
        sim.cpu.memory.set_image(bytearray(sim.cpu.memory.data))
        sim.run()
        assert_parity(sim, run_interpreted(HOT_LOOP))


class TestStepLoopCache:
    """Clients choose configurations, so the compiled loops are an LRU
    cache with a constant bound."""

    def test_cache_keeps_the_most_recently_used_loops(self):
        size = tracegen._STEP_CACHE_SIZE
        loops = [run_traced(HOT_LOOP, config=limited(70_000 + i))
                 .cpu._step_loop for i in range(size)]
        # touch the oldest, then overflow by one: the second-oldest goes
        assert run_traced(HOT_LOOP, config=limited(70_000)) \
            .cpu._step_loop is loops[0]
        run_traced(HOT_LOOP, config=limited(70_000 + size))
        assert len(tracegen._STEP_CACHE) == size
        assert run_traced(HOT_LOOP, config=limited(70_000)) \
            .cpu._step_loop is loops[0]
        assert run_traced(HOT_LOOP, config=limited(70_001)) \
            .cpu._step_loop is not loops[1]
        for extra in range(2 * size):
            run_traced(HOT_LOOP, config=limited(80_000 + extra))
        assert len(tracegen._STEP_CACHE) == size

    def test_evicted_configuration_recompiles_exactly(self):
        first = run_traced(HOT_LOOP, config=limited(40_000))
        for extra in range(tracegen._STEP_CACHE_SIZE):
            run_traced(HOT_LOOP, config=limited(60_000 + extra))
        again = run_traced(HOT_LOOP, config=limited(40_000))
        assert again.cpu._step_loop is not first.cpu._step_loop
        assert_parity(again, run_interpreted(HOT_LOOP,
                                             config=limited(40_000)))
        assert_parity(again, first)

    def test_threads_share_the_cache_safely(self, monkeypatch):
        """Server threads look loops up concurrently: lookups, inserts
        and evictions racing (a tiny cache, trivial loop bodies and a
        shortened switch interval force interleavings) must neither
        raise nor overfill the cache."""
        monkeypatch.setattr(tracegen, "_STEP_CACHE", type(
            tracegen._STEP_CACHE)())
        monkeypatch.setattr(tracegen, "_STEP_CACHE_SIZE", 3)
        monkeypatch.setattr(tracegen, "build_step_source", lambda cpu:
                            "def step_loop(cpu, budget):\n    pass\n")
        cpus = [Simulation.from_source(HOT_LOOP, config=limited(90_000 + i))
                .cpu for i in range(5)]
        errors = []

        def lookups(seed):
            rng = random.Random(seed)
            try:
                for _ in range(3000):
                    assert callable(tracegen.compile_step(rng.choice(cpus)))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(tracegen._STEP_CACHE) <= 3
