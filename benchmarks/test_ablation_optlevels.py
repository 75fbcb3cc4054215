"""Ablation: compiler optimization levels O0-O3 on the simulator.

Regenerates the paper's core teaching loop (Sec. II-B): the same C program
compiled at the GUI's four optimization levels, with the differences
visible in cycles, dynamic instruction count and memory traffic.
"""

import pytest

from benchmarks.conftest import big_stack
from repro import MemoryLocation, Simulation
from repro.compiler import compile_c

PROGRAM = """
extern int input[32];
int checksum(void) {
    int acc = 0;
    for (int i = 0; i < 32; i++) {
        int scaled = input[i] * 4;        /* strength-reducible */
        int twice = input[i] + input[i];  /* CSE-able with below */
        acc += scaled + twice + (input[i] + input[i]);
    }
    return acc;
}
int main(void) { return checksum(); }
"""

VALUES = [(13 * i + 5) % 97 for i in range(32)]
EXPECTED = sum(v * 4 + 4 * v for v in VALUES)


def run_level(level: int):
    result = compile_c(PROGRAM, level)
    assert result.success, result.errors
    data = MemoryLocation(name="input", dtype="word", values=VALUES)
    sim = Simulation.from_source(result.assembly, config=big_stack(),
                                 entry="main", memory_locations=[data])
    sim.run()
    return sim


@pytest.fixture(scope="module")
def sweep():
    sims = {level: run_level(level) for level in range(4)}
    print("\noptimization-level sweep:")
    print(f"  {'level':<6} {'cycles':>7} {'instrs':>7} {'IPC':>6} "
          f"{'loads':>6} {'stores':>7}")
    for level, sim in sims.items():
        mem = sim.cpu.memory.stats()
        print(f"  O{level:<5} {sim.stats.cycles:>7} "
              f"{sim.stats.committed_instructions:>7} "
              f"{sim.stats.ipc:>6.3f} {mem['loads']:>6} {mem['stores']:>7}")
    return sims


class TestOptLevelAblation:
    def test_all_levels_correct(self, sweep):
        for level, sim in sweep.items():
            assert sim.register_value("a0") == EXPECTED, f"O{level} wrong"

    def test_cycles_strictly_improve_o0_to_o2(self, sweep):
        assert sweep[1].stats.cycles < sweep[0].stats.cycles * 0.7
        assert sweep[2].stats.cycles < sweep[1].stats.cycles

    def test_o3_at_least_as_good_as_o2(self, sweep):
        assert sweep[3].stats.cycles <= sweep[2].stats.cycles * 1.05

    def test_dynamic_instruction_count_shrinks(self, sweep):
        counts = [sweep[i].stats.committed_instructions for i in range(4)]
        assert counts[0] > counts[1] >= counts[2] >= counts[3]

    def test_o0_dominated_by_memory_traffic(self, sweep):
        """Spill-everything code: loads+stores dominate the dynamic mix."""
        mix = sweep[0].stats.dynamic_mix()
        total = sum(mix.values())
        assert mix["kLoadstore"] / total > 0.4

    def test_o2_cuts_loads_via_regalloc(self, sweep):
        assert sweep[2].cpu.memory.stats()["loads"] \
            < sweep[0].cpu.memory.stats()["loads"] / 2


def test_optlevel_o0_benchmark():
    assert run_level(0).register_value("a0") == EXPECTED


def test_optlevel_o3_benchmark():
    assert run_level(3).register_value("a0") == EXPECTED
