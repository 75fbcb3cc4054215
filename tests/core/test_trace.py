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

from repro import CpuConfig, Simulation

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
        config = CpuConfig()
        config.fus[0].pipelined = True
        sim = run_traced(HOT_LOOP, config=config)
        assert sim.cpu._step_loop is None
        assert sim.register_value("a0") == sum(range(1, 101))


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
