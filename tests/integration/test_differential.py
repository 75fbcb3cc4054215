"""Differential testing on fixed and generated programs.

Two properties:

* the out-of-order pipeline vs a sequential reference interpreter.  The
  reference executes the same assembled :class:`Program` one instruction
  at a time, directly from the declarative instruction semantics — no
  pipeline, no speculation, no caches.  Any architectural divergence
  (registers or memory) between the two is a pipeline bug: renaming,
  forwarding, squashing and ordering must never change results;
* the trace tier's config-specialized step loop (``sim.run()``) vs the
  interpreter (``config.trace = False``), cycle-exact: same cycle count,
  same commit count, byte-identical cold snapshot, on every preset and
  predictor kind and on generated configurations (``random_config``).

Tier-1 runs hypothesis' default example budget; the long run is
``pytest tests/integration/test_differential.py --hypothesis-profile=ci``
(profile registered in ``tests/conftest.py``).
"""

import copy
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import CpuConfig, FuSpec, Simulation
from repro.asm.parser import assemble
from repro.core.config import DEFAULT_FP_OPS, DEFAULT_FX_OPS
from repro.isa.expression import EvalContext, Expression
from repro.isa.instruction import ArgType, FuClass
from repro.isa.registers import RegisterFile


class ReferenceInterpreter:
    """Sequential, architecturally-exact RV32IMF interpreter."""

    def __init__(self, program, memory_size=64 * 1024, stack_size=512):
        self.program = program
        self.regs = RegisterFile()
        self.memory = program.initial_memory_image(memory_size)
        self.regs.write("x2", program.stack_pointer or stack_size)
        self.regs.write("x1", program.code_size_bytes)
        self.pc = program.entry_pc
        self.halted = None
        self.steps = 0

    def run(self, max_steps=100_000):
        while self.halted is None and self.steps < max_steps:
            self.step()
        return self

    def step(self):
        instr = self.program.instruction_at(self.pc)
        if instr is None:
            self.halted = "end"
            return
        self.steps += 1
        d = instr.definition
        if d.name in ("ecall", "ebreak"):
            self.halted = d.name
            return
        values = {}
        for arg in d.arguments:
            operand = instr.operands[arg.name]
            if arg.is_register and not arg.write_back:
                values[arg.name] = self.regs.read(operand)
            elif not arg.is_register:
                values[arg.name] = operand
        ctx = EvalContext(values, pc=self.pc)
        expr = Expression.compile(d.interpretable_as) \
            if d.interpretable_as else None
        result = expr.evaluate(ctx) if expr else None

        next_pc = self.pc + 4
        if d.is_branch:
            target = Expression.compile(d.target).evaluate(
                EvalContext(values, pc=self.pc))
            taken = True if d.is_unconditional else bool(result)
            for name, value in ctx.assignments:   # link register
                self.regs.write(instr.operands[name], value)
            if taken:
                next_pc = int(target) & 0xFFFFFFFF
        elif d.memory_size:
            address = int(result) & 0xFFFFFFFF
            size = d.memory_size
            if d.is_store:
                src_arg = d.arguments[0]
                value = self.regs.read(instr.operands[src_arg.name])
                if src_arg.type is ArgType.FLOAT:
                    raw = struct.pack("<f", float(value))
                else:
                    raw = (int(value) & ((1 << (8 * size)) - 1)) \
                        .to_bytes(size, "little")
                self.memory[address:address + size] = raw
            else:
                raw = bytes(self.memory[address:address + size])
                dest = d.destination
                if dest.type is ArgType.FLOAT:
                    value = struct.unpack("<f", raw)[0]
                else:
                    value = int.from_bytes(raw, "little",
                                           signed=d.memory_signed)
                self.regs.write(instr.operands[dest.name], value)
        else:
            for name, value in ctx.assignments:
                self.regs.write(instr.operands[name], value)
        self.pc = next_pc


def compare(source: str, entry=None, config=None):
    program = assemble(source, entry=entry,
                       stack_size=(config or CpuConfig()).memory.call_stack_size)
    reference = ReferenceInterpreter(program).run()
    sim = Simulation(program, config or CpuConfig())
    sim.run()
    assert sim.cpu.arch_regs == reference.regs, "register state diverged"
    assert bytes(sim.cpu.memory.data) == bytes(reference.memory), \
        "memory state diverged"
    return sim, reference


FIXED_PROGRAMS = [
    # arithmetic chains with hazards
    """
    li t0, 17
    li t1, 5
    add t2, t0, t1
    sub t3, t2, t0
    mul t4, t2, t3
    div t5, t4, t1
    rem t6, t4, t1
    ebreak
""",
    # loop with memory traffic
    """
    addi sp, sp, -64
    li t0, 0
l:  slli t1, t0, 2
    add t1, t1, sp
    sw t0, 0(t1)
    lw t2, 0(t1)
    add s0, s0, t2
    addi t0, t0, 1
    li t3, 12
    blt t0, t3, l
    ebreak
""",
    # calls + stack discipline
    """
main:
    li a0, 9
    call f
    mv s0, a0
    li a0, 4
    call f
    add a0, a0, s0
    ebreak
f:
    addi sp, sp, -16
    sw ra, 12(sp)
    slli a0, a0, 1
    addi a0, a0, 3
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
""",
    # floats
    """
    .data
v: .float 3.5, -1.25, 0.5
    .text
    la t0, v
    flw fa0, 0(t0)
    flw fa1, 4(t0)
    flw fa2, 8(t0)
    fmadd.s fa3, fa0, fa1, fa2
    fdiv.s fa4, fa0, fa2
    fcvt.w.s a0, fa4
    fsw fa3, 0(t0)
    ebreak
""",
    # data-dependent branching
    """
    li t0, 0
    li s0, 0
l:  andi t1, t0, 3
    beqz t1, skip
    add s0, s0, t0
skip:
    addi t0, t0, 1
    li t2, 25
    blt t0, t2, l
    ebreak
""",
]


class TestFixedPrograms:
    @pytest.mark.parametrize("idx", range(len(FIXED_PROGRAMS)))
    def test_matches_reference(self, idx):
        entry = "main" if "main:" in FIXED_PROGRAMS[idx] else None
        compare(FIXED_PROGRAMS[idx], entry=entry)

    @pytest.mark.parametrize("preset", ["scalar", "default", "wide"])
    def test_matches_reference_on_every_preset(self, preset):
        compare(FIXED_PROGRAMS[1], config=CpuConfig.preset(preset))


# random program generator: straight-line ALU/memory ops plus counted
# loops, data-dependent forward branches, memory bursts and stores into
# the code region
_REGS = [f"x{i}" for i in range(5, 13)]
#: loop counter, code-store base and divisor scratch: never written by
#: the randomly chosen destinations
_COUNTER, _CODE_BASE, _DIVISOR = "x28", "x29", "x30"


def simple_op(draw):
    kind = draw(st.integers(0, 6))
    rd = draw(st.sampled_from(_REGS))
    rs1 = draw(st.sampled_from(_REGS))
    rs2 = draw(st.sampled_from(_REGS))
    if kind == 0:
        return f"    li {rd}, {draw(st.integers(-2048, 2047))}"
    if kind == 1:
        op = draw(st.sampled_from(
            ["add", "sub", "xor", "or", "and", "mul", "sltu"]))
        return f"    {op} {rd}, {rs1}, {rs2}"
    if kind == 2:
        op = draw(st.sampled_from(["addi", "xori", "andi", "ori"]))
        return f"    {op} {rd}, {rs1}, {draw(st.integers(-512, 511))}"
    if kind == 3:
        return f"    slli {rd}, {rs1}, {draw(st.integers(0, 7))}"
    if kind == 4:
        # long-latency divide; an odd divisor keeps it exception-free
        op = draw(st.sampled_from(["div", "divu", "rem", "remu"]))
        return (f"    ori {_DIVISOR}, {rs2}, 1\n"
                f"    {op} {rd}, {rs1}, {_DIVISOR}")
    offset = draw(st.integers(0, 15)) * 4
    if kind == 5:
        return f"    sw {rs1}, {offset}(sp)"
    return f"    lw {rd}, {offset}(sp)"


@st.composite
def random_program(draw):
    lines = []
    n = draw(st.integers(3, 25))
    for label in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 6:
            # counted loop over a few simple ops, optionally storing into
            # its own first instruction on every iteration
            self_store = draw(st.booleans())
            lines.append(f"    li {_COUNTER}, {draw(st.integers(1, 16))}")
            if self_store:
                lines.append(f"    la {_CODE_BASE}, loop{label}")
            lines.append(f"loop{label}:")
            lines += [simple_op(draw)
                      for _ in range(draw(st.integers(1, 6)))]
            if self_store:
                rs = draw(st.sampled_from(_REGS))
                lines.append(f"    sw {rs}, 0({_CODE_BASE})")
            lines.append(f"    addi {_COUNTER}, {_COUNTER}, -1")
            lines.append(f"    bnez {_COUNTER}, loop{label}")
        elif kind == 7:
            # data-dependent forward branch over a few simple ops
            op = draw(st.sampled_from(["beq", "bne", "blt", "bgeu"]))
            rs1 = draw(st.sampled_from(_REGS))
            rs2 = draw(st.sampled_from(_REGS))
            lines.append(f"    {op} {rs1}, {rs2}, skip{label}")
            lines += [simple_op(draw)
                      for _ in range(draw(st.integers(1, 3)))]
            lines.append(f"skip{label}:")
        elif kind == 8:
            # store into the program's own instruction bytes
            rs = draw(st.sampled_from(_REGS))
            lines.append(f"    la {_CODE_BASE}, top")
            lines.append(f"    sw {rs}, {draw(st.integers(0, 3)) * 4}"
                         f"({_CODE_BASE})")
        elif kind == 9:
            # burst of loads or stores: fills the load/store buffers
            op = draw(st.sampled_from(["sw", "lw"]))
            for _ in range(draw(st.integers(4, 12))):
                reg = draw(st.sampled_from(_REGS))
                lines.append(f"    {op} {reg}, "
                             f"{draw(st.integers(0, 15)) * 4}(sp)")
        else:
            lines.append(simple_op(draw))
    lines.append("    ebreak")
    return "top:\n    addi sp, sp, -64\n" + "\n".join(lines)


def _units(draw, kind, count, pipelining, defaults=None):
    """*count* units of *kind*; FX/FP units draw an op subset with their
    own latencies, the others a flat latency.  With *pipelining* each
    unit is pipelined or not at random."""
    units = []
    for i in range(count):
        ops = {}
        if defaults is not None:
            for op in draw(st.lists(st.sampled_from(sorted(defaults)),
                                    min_size=1, unique=True)):
                ops[op] = draw(st.integers(1, 12))
        units.append(FuSpec(kind, f"{kind}{i + 1}", operations=ops,
                            latency=draw(st.integers(1, 3)),
                            pipelined=pipelining and draw(st.booleans())))
    return units


@st.composite
def random_config(draw, cycle_limit=False):
    """A configuration that passes ``validate()``, with buffers small
    enough to stall: fetch/commit width 1-4, tiny ROB, windows,
    load/store buffers and rename file, 1-3 FX units (all alike, so issue
    takes the uniform path, or each with its own op subset and
    latencies), 0-2 FP, 1-2 each of LS, Branch and Memory units,
    optionally pipelined, L1 on or off, every predictor and history kind.
    *cycle_limit* also draws a small ``max_cycles``."""
    config = CpuConfig(name="random")
    buffers = config.buffers
    buffers.fetch_width = draw(st.integers(1, 4))
    buffers.commit_width = draw(st.integers(1, 4))
    buffers.rob_size = draw(st.integers(1, 12))
    buffers.issue_window_size = draw(st.integers(1, 6))
    buffers.flush_penalty = draw(st.integers(0, 4))
    buffers.fetch_branch_limit = draw(st.integers(0, 2))
    memory = config.memory
    memory.load_buffer_size = draw(st.integers(1, 4))
    memory.store_buffer_size = draw(st.integers(1, 4))
    memory.rename_file_size = draw(st.integers(1, 12))
    memory.load_latency = draw(st.integers(0, 12))
    memory.store_latency = draw(st.integers(0, 12))
    config.cache.enabled = draw(st.booleans())
    predictor = config.predictor
    predictor.predictor_type = draw(st.sampled_from(["zero", "one", "two"]))
    predictor.default_state = draw(
        st.integers(0, 3 if predictor.predictor_type == "two" else 1))
    predictor.use_global_history = draw(st.booleans())
    predictor.history_bits = draw(st.integers(0, 6))
    predictor.pht_size = draw(st.sampled_from([1, 4, 16, 64]))
    predictor.btb_size = draw(st.sampled_from([1, 4, 64]))
    pipelining = draw(st.booleans())
    fx_count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # identical units: issue takes the uniform path
        first = _units(draw, "FX", 1, pipelining, DEFAULT_FX_OPS)[0]
        fx = [FuSpec("FX", f"FX{i + 1}", dict(first.operations),
                     pipelined=first.pipelined) for i in range(fx_count)]
    else:
        fx = _units(draw, "FX", fx_count, pipelining, DEFAULT_FX_OPS)
    # every FX op class needs some unit: an unsupported op halts dispatch
    for op in DEFAULT_FX_OPS:
        if not any(op in unit.operations for unit in fx):
            fx[0].operations[op] = draw(st.integers(1, 12))
    units = fx + _units(draw, "FP", draw(st.integers(0, 2)), pipelining,
                        DEFAULT_FP_OPS)
    for kind in ("LS", "Branch", "Memory"):
        units += _units(draw, kind, draw(st.integers(1, 2)), pipelining)
    config.fus = draw(st.permutations(units))
    if cycle_limit and draw(st.booleans()):
        config.max_cycles = draw(st.integers(20, 600))
    config.validate()
    return config


class TestRandomPrograms:
    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_ooo_matches_sequential_reference(self, source):
        compare(source)

    @settings(max_examples=10, deadline=None)
    @given(random_program())
    def test_wide_preset_matches_reference(self, source):
        compare(source, config=CpuConfig.preset("wide"))

    @settings(max_examples=30, deadline=None)
    @given(random_program(), random_config())
    def test_random_config_matches_reference(self, source, config):
        compare(source, config=config)


def run_tier(source, preset, predictor, global_history, trace):
    config = CpuConfig.preset(preset)
    config.predictor.predictor_type = predictor
    config.predictor.use_global_history = global_history
    return run_config(source, config, trace)


def run_config(source, config, trace):
    config = copy.deepcopy(config)
    config.trace = trace
    sim = Simulation.from_source(source, config=config)
    sim.run()
    return sim


def assert_same_run(traced, interpreted):
    assert traced.cpu._step_loop is not None
    assert interpreted.cpu._step_loop is None
    assert traced.cycle == interpreted.cycle
    assert traced.cpu.committed == interpreted.cpu.committed
    assert json.dumps(traced.snapshot_cold(), sort_keys=True) \
        == json.dumps(interpreted.snapshot_cold(), sort_keys=True)


class TestStepLoopParity:
    """``sim.run()`` through the step loop is cycle-exact with the
    interpreter (example budget from the active hypothesis profile)."""

    @settings(deadline=None)
    @given(random_program(), st.sampled_from(["scalar", "default", "wide"]),
           st.sampled_from(["zero", "one", "two"]), st.booleans())
    def test_step_loop_matches_interpreter(self, source, preset, predictor,
                                           global_history):
        traced = run_tier(source, preset, predictor, global_history, True)
        interpreted = run_tier(source, preset, predictor, global_history,
                               False)
        assert traced.cpu._step_loop is not None
        assert interpreted.cpu._step_loop is None
        assert traced.cycle == interpreted.cycle
        assert traced.cpu.committed == interpreted.cpu.committed
        assert json.dumps(traced.snapshot_cold(), sort_keys=True) \
            == json.dumps(interpreted.snapshot_cold(), sort_keys=True)

    @settings(deadline=None)
    @given(random_program(), random_config(cycle_limit=True))
    def test_step_loop_matches_interpreter_on_random_configs(self, source,
                                                             config):
        assert_same_run(run_config(source, config, True),
                        run_config(source, config, False))
