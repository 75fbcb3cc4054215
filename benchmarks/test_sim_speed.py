"""The JMH microbenchmarks' workloads (Sec. IV-A: "a simple benchmark was
developed using the Java Microbenchmark Harness"), checked for results.

The simulator core in isolation (no JSON, no HTTP): run to completion on
the paper's workload classes, backward simulation (which the paper notes
"imposes higher computational demands on the server"), the fused
expression entry point, the assembler and the compiler.  Their costs are
measured end to end by ``benchmarks/e2e`` (``simulation.run_instr_per_s``
and the per-layer shares).
"""

from benchmarks.conftest import QUICKSORT_C, SUM_LOOP, big_stack, compile_ok
from repro import MemoryLocation, Simulation


def test_loop_kernel_run():
    sim = Simulation.from_source(SUM_LOOP)
    sim.run()
    assert sim.register_value("a0") == sum(range(1, 201))


def test_quicksort_run():
    values = [42, 7, 93, 15, 61, 2, 88, 34, 70, 11, 55, 29, 96, 4, 83, 48]
    asm = compile_ok(QUICKSORT_C, 2)
    data = MemoryLocation(name="data", dtype="word", values=values)
    sim = Simulation.from_source(asm, config=big_stack(), entry="main",
                                 memory_locations=[data])
    sim.run()
    base = sim.symbol_address("data")
    assert [sim.memory_word(base + 4 * i) for i in range(16)] \
        == sorted(values)


def test_backward_step_cost():
    """Backward simulation restores the nearest checkpoint and replays at
    most one interval (the paper's from-zero re-run is the fallback)."""
    sim = Simulation.from_source(SUM_LOOP)
    sim.step(200)
    sim.step_back(1)       # restore checkpoint + replay <= interval cycles
    sim.step(1)
    assert sim.last_replay_cycles <= sim.checkpoints.interval


LONG_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 3000
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


def test_backward_step_near_end_replays_o_k_not_o_t():
    """ROADMAP item closed by the checkpoint ring: `step_back` near the end
    of a long program replays O(K) cycles, not O(t).

    The `last_replay_cycles` assertion pins the complexity, so a
    regression cannot hide in timing noise."""
    sim = Simulation.from_source(LONG_LOOP)
    while not sim.halted:
        sim.step(500)
    t = sim.cycle
    assert t > 4000          # a genuinely long program

    sim.seek(t - 1)          # move off the halt state
    sim.step_back(1)
    sim.step(1)
    assert sim.cycle == t - 1
    assert sim.last_replay_cycles <= sim.checkpoints.interval
    print(f"\nstep_back at cycle {t - 1}: replayed "
          f"{sim.last_replay_cycles} cycles (interval "
          f"{sim.checkpoints.interval}) instead of {t - 2}")


def test_expression_eval_context_fusion_is_allocation_free():
    """ROADMAP 'expression codegen follow-on', closed: the hot loop executes
    instruction semantics without allocating an EvalContext (or copying the
    operand dict) per dynamic instruction — the context is fused into the
    generated code (Expression.eval_fast)."""
    from repro.isa import expression as expression_module

    sim = Simulation.from_source(SUM_LOOP)   # decode-time contexts are fine
    allocations = {"n": 0}
    original_init = expression_module.EvalContext.__init__

    def counting_init(self, values=None, pc=0):
        allocations["n"] += 1
        original_init(self, values, pc=pc)

    expression_module.EvalContext.__init__ = counting_init
    try:
        sim.step(150)
    finally:
        expression_module.EvalContext.__init__ = original_init
    assert sim.cpu.committed > 100           # the loop really executed
    assert allocations["n"] == 0, (
        f"hot loop allocated {allocations['n']} EvalContexts in 150 cycles")


def test_expression_eval_fast_benchmark():
    """The fused expression entry point."""
    from repro.isa.expression import Expression

    expr = Expression.compile("\\rs1 \\rs2 + \\rd =")
    values = {"rs1": 5, "rs2": 7}
    result, assignments, exception = expr.eval_fast(values, 0)
    assert result is None                    # '=' consumed the stack value
    assert assignments == [("rd", 12)]
    assert exception is None
    assert values == {"rs1": 5, "rs2": 7}    # caller's dict untouched


def test_assembler_cost():
    from repro.asm.parser import assemble
    program = assemble(SUM_LOOP)
    assert len(program.instructions) == 7
